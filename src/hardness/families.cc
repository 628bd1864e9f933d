#include "hardness/families.h"

#include <string>

#include "util/check.h"

namespace revise {

namespace {

// Membership vector: in_pi[j] iff clause j belongs to pi.
std::vector<bool> Membership(size_t num_clauses,
                             const std::vector<size_t>& pi) {
  std::vector<bool> in_pi(num_clauses, false);
  for (const size_t j : pi) {
    REVISE_CHECK_LT(j, num_clauses);
    in_pi[j] = true;
  }
  return in_pi;
}

}  // namespace

// ---- Theorem 3.1 -----------------------------------------------------

Theorem31Family::Theorem31Family(int n, Vocabulary* vocabulary)
    : tau(n, vocabulary) {
  const size_t m = tau.num_clauses();
  for (size_t j = 0; j < m; ++j) {
    c.push_back(vocabulary->InternIndexed("thm31_c", j));
    d.push_back(vocabulary->InternIndexed("thm31_d", j));
  }
  r = vocabulary->Intern("thm31_r");

  // T_n: the set of atoms C ∪ D ∪ B_n ∪ {r}.
  for (size_t j = 0; j < m; ++j) t.Add(Formula::Variable(c[j]));
  for (size_t j = 0; j < m; ++j) t.Add(Formula::Variable(d[j]));
  for (const Var b : tau.atoms()) t.Add(Formula::Variable(b));
  t.Add(Formula::Variable(r));

  // P_n = ((/\ !b_i & !r) \/ /\_j (c_j -> gamma_j)) & /\_j (c_j ^ d_j).
  std::vector<Formula> all_b_false;
  for (const Var b : tau.atoms()) {
    all_b_false.push_back(Formula::Literal(b, false));
  }
  all_b_false.push_back(Formula::Literal(r, false));
  std::vector<Formula> guards;
  for (size_t j = 0; j < m; ++j) {
    guards.push_back(
        Formula::Implies(Formula::Variable(c[j]), tau.ClauseFormula(j)));
  }
  std::vector<Formula> xor_cd;
  for (size_t j = 0; j < m; ++j) {
    xor_cd.push_back(
        Formula::Xor(Formula::Variable(c[j]), Formula::Variable(d[j])));
  }
  p = Formula::And(
      Formula::Or(ConjoinAll(all_b_false), ConjoinAll(guards)),
      ConjoinAll(xor_cd));
}

Formula Theorem31Family::WFormula(const std::vector<size_t>& pi) const {
  const std::vector<bool> in_pi = Membership(tau.num_clauses(), pi);
  std::vector<Formula> lits;
  for (size_t j = 0; j < tau.num_clauses(); ++j) {
    lits.push_back(Formula::Variable(in_pi[j] ? c[j] : d[j]));
  }
  return ConjoinAll(lits);
}

Formula Theorem31Family::Query(const std::vector<size_t>& pi) const {
  return Formula::Implies(WFormula(pi), Formula::Variable(r));
}

// ---- Theorem 3.3 -----------------------------------------------------

Theorem33Family::Theorem33Family(int n, Vocabulary* vocabulary)
    : tau(n, vocabulary) {
  const size_t m = tau.num_clauses();
  const size_t rows = static_cast<size_t>(n) + 2;
  c.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < m; ++j) {
      c[i].push_back(vocabulary->Intern("thm33_c" + std::to_string(i) +
                                        "_" + std::to_string(j)));
    }
  }
  r = vocabulary->Intern("thm33_r");

  // U: all rows of the guard matrix are equal (row 0 is the reference).
  std::vector<Formula> equalities;
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 1; i < rows; ++i) {
      equalities.push_back(Formula::Iff(Formula::Variable(c[0][j]),
                                        Formula::Variable(c[i][j])));
    }
  }
  u = ConjoinAll(equalities);

  // T_n = {U} ∪ B_n ∪ {r}.
  t.Add(u);
  for (const Var b : tau.atoms()) t.Add(Formula::Variable(b));
  t.Add(Formula::Variable(r));

  // P_n = ((/\ !b_i & !r) \/ /\_j (c_1j -> gamma_j)) & U.
  std::vector<Formula> all_b_false;
  for (const Var b : tau.atoms()) {
    all_b_false.push_back(Formula::Literal(b, false));
  }
  all_b_false.push_back(Formula::Literal(r, false));
  std::vector<Formula> guards;
  for (size_t j = 0; j < m; ++j) {
    guards.push_back(Formula::Implies(Formula::Variable(c[0][j]),
                                      tau.ClauseFormula(j)));
  }
  p = Formula::And(
      Formula::Or(ConjoinAll(all_b_false), ConjoinAll(guards)), u);
}

Interpretation Theorem33Family::MPi(const std::vector<size_t>& pi,
                                    const Alphabet& alphabet) const {
  Interpretation m_pi(alphabet.size());
  for (const size_t j : pi) {
    for (const auto& row : c) {
      m_pi.Set(*alphabet.IndexOf(row[j]), true);
    }
  }
  return m_pi;
}

Formula Theorem33Family::Query(const std::vector<size_t>& pi) const {
  const std::vector<bool> in_pi = Membership(tau.num_clauses(), pi);
  std::vector<Formula> disjuncts;
  for (size_t j = 0; j < tau.num_clauses(); ++j) {
    for (const auto& row : c) {
      disjuncts.push_back(
          Formula::Literal(row[j], /*positive=*/!in_pi[j]));
    }
  }
  for (const Var b : tau.atoms()) {
    disjuncts.push_back(Formula::Variable(b));
  }
  disjuncts.push_back(Formula::Variable(r));
  return DisjoinAll(disjuncts);
}

Alphabet Theorem33Family::FullAlphabet() const {
  std::vector<Var> vars = tau.atoms();
  for (const auto& row : c) {
    vars.insert(vars.end(), row.begin(), row.end());
  }
  vars.push_back(r);
  return Alphabet(std::move(vars));
}

// ---- Theorems 3.6 / 6.5 ------------------------------------------------

Theorem36Family::Theorem36Family(int n, Vocabulary* vocabulary)
    : tau(n, vocabulary) {
  const size_t m = tau.num_clauses();
  for (int i = 1; i <= n; ++i) {
    y.push_back(vocabulary->InternIndexed("thm36_y", i));
  }
  for (size_t j = 0; j < m; ++j) {
    c.push_back(vocabulary->InternIndexed("thm36_c", j));
  }

  std::vector<Formula> xors;
  for (int i = 0; i < n; ++i) {
    xors.push_back(Formula::Xor(Formula::Variable(tau.atoms()[i]),
                                Formula::Variable(y[i])));
  }
  phi = ConjoinAll(xors);

  std::vector<Formula> guards;
  for (size_t j = 0; j < m; ++j) {
    guards.push_back(
        Formula::Implies(Formula::Variable(c[j]), tau.ClauseFormula(j)));
  }
  gamma = ConjoinAll(guards);

  t.Add(Formula::And(phi, gamma));

  std::vector<Formula> p_parts;
  for (int i = 0; i < n; ++i) {
    const Formula step = Formula::And(
        Formula::Literal(tau.atoms()[i], false),
        Formula::Literal(y[i], false));
    updates.push_back(step);
    p_parts.push_back(step);
  }
  p = ConjoinAll(p_parts);
}

Interpretation Theorem36Family::CPi(const std::vector<size_t>& pi,
                                    const Alphabet& alphabet) const {
  Interpretation c_pi(alphabet.size());
  for (const size_t j : pi) {
    c_pi.Set(*alphabet.IndexOf(c[j]), true);
  }
  return c_pi;
}

Alphabet Theorem36Family::FullAlphabet() const {
  std::vector<Var> vars = tau.atoms();
  vars.insert(vars.end(), y.begin(), y.end());
  vars.insert(vars.end(), c.begin(), c.end());
  return Alphabet(std::move(vars));
}

// ---- Theorem 4.1 -----------------------------------------------------

Theorem41Family::Theorem41Family(int n, Vocabulary* vocabulary)
    : base(n, vocabulary) {
  s = vocabulary->Intern("thm41_s");
  const Formula not_s = Formula::Literal(s, false);
  for (const Formula& f : base.t) {
    t_prime.Add(Formula::And(f, Formula::Or(not_s, base.p)));
  }
  t_prime.Add(not_s);
  p_prime = Formula::Variable(s);
}

// ---- Explosion examples ------------------------------------------------

NebelExplosionFamily::NebelExplosionFamily(int m, Vocabulary* vocabulary) {
  std::vector<Formula> xors;
  for (int i = 1; i <= m; ++i) {
    x.push_back(vocabulary->InternIndexed("neb_x", i));
    y.push_back(vocabulary->InternIndexed("neb_y", i));
    t.Add(Formula::Variable(x.back()));
    t.Add(Formula::Variable(y.back()));
    xors.push_back(Formula::Xor(Formula::Variable(x.back()),
                                Formula::Variable(y.back())));
  }
  p = ConjoinAll(xors);
}

WinslettChainFamily::WinslettChainFamily(int m, Vocabulary* vocabulary) {
  REVISE_CHECK_GE(m, 1);
  for (int i = 1; i <= m; ++i) {
    x.push_back(vocabulary->InternIndexed("win_x", i));
    y.push_back(vocabulary->InternIndexed("win_y", i));
    z.push_back(vocabulary->InternIndexed("win_z", i));
  }
  for (int i = 0; i < m; ++i) {
    t.Add(Formula::Variable(x[i]));
    t.Add(Formula::Variable(y[i]));
    const Formula not_both = Formula::Or(
        Formula::Literal(x[i], false), Formula::Literal(y[i], false));
    const Formula rhs =
        i == 0 ? not_both
               : Formula::And(Formula::Variable(z[i - 1]), not_both);
    t.Add(Formula::Iff(Formula::Variable(z[i]), rhs));
  }
  p = Formula::Variable(z.back());
}

}  // namespace revise
