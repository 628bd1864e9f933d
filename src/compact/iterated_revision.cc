#include "compact/iterated_revision.h"

#include <unordered_map>

#include "compact/circuits.h"
#include "compact/degenerate.h"
#include "logic/substitute.h"
#include "obs/trace.h"
#include "obs/profile.h"
#include "solve/distance.h"
#include "solve/services.h"
#include "util/check.h"

namespace revise {

namespace {

// The paper's F_C(S1, S2, S3, S4) = /\_j ((s1_j != s2_j) -> (s3_j != s4_j)),
// i.e. diff(S1,S2) ⊆ diff(S3,S4).  Blocks are parallel vectors of
// formulas (letters or constants).
Formula FSubset(const std::vector<Formula>& s1,
                const std::vector<Formula>& s2,
                const std::vector<Formula>& s3,
                const std::vector<Formula>& s4) {
  REVISE_CHECK_EQ(s1.size(), s2.size());
  REVISE_CHECK_EQ(s3.size(), s4.size());
  REVISE_CHECK_EQ(s1.size(), s3.size());
  std::vector<Formula> conjuncts;
  conjuncts.reserve(s1.size());
  for (size_t j = 0; j < s1.size(); ++j) {
    conjuncts.push_back(Formula::Implies(Formula::Xor(s1[j], s2[j]),
                                         Formula::Xor(s3[j], s4[j])));
  }
  return ConjoinAll(conjuncts);
}

std::vector<Formula> VarBlock(const std::vector<Var>& vars) {
  std::vector<Formula> block;
  block.reserve(vars.size());
  for (const Var v : vars) block.push_back(Formula::Variable(v));
  return block;
}

std::vector<Formula> ConstBlock(size_t n, uint64_t mask) {
  std::vector<Formula> block;
  block.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    block.push_back(Formula::Constant((mask >> j) & 1));
  }
  return block;
}

// p with its variables (vp, in order) replaced by the constants of `mask`.
// Folds to a constant.
Formula RestrictToMask(const Formula& p, const std::vector<Var>& vp,
                       uint64_t mask) {
  std::unordered_map<Var, Formula> map;
  for (size_t j = 0; j < vp.size(); ++j) {
    map.emplace(vp[j], Formula::Constant((mask >> j) & 1));
  }
  return Substitute(p, map);
}

}  // namespace

Formula DalalCompactStep(const Formula& prior, const Formula& p,
                         const std::vector<Var>& x, Vocabulary* vocabulary) {
  return DalalCompactStep(prior, p, x, vocabulary, std::nullopt);
}

Formula DalalCompactStep(const Formula& prior, const Formula& p,
                         const std::vector<Var>& x, Vocabulary* vocabulary,
                         std::optional<bool> prior_satisfiable) {
  obs::ProfileScope profile("compact.DalalStep");
  if (auto degenerate = DegenerateResult(prior, p, prior_satisfiable,
                                         PriorCheck::kDeferred)) {
    return *degenerate;
  }
  const Alphabet alphabet(x);
  const auto k = MinHammingDistance(prior, p, alphabet);
  if (!k.has_value()) return p;  // P is satisfiable, so the prior is not
  const std::vector<Var> y = vocabulary->FreshBlock("y", x.size());
  return Formula::And(
      {RenameVars(prior, x, y), p, ExaFormula(*k, y, x, vocabulary)});
}

std::vector<Formula> DalalCompactIterated(const Formula& t,
                                          const std::vector<Formula>& updates,
                                          const std::vector<Var>& x,
                                          Vocabulary* vocabulary) {
  std::vector<Formula> steps;
  steps.reserve(updates.size());
  Formula current = t;
  for (const Formula& p : updates) {
    current = DalalCompactStep(current, p, x, vocabulary);
    steps.push_back(current);
  }
  return steps;
}

Formula WeberCompactStep(const Formula& prior, const Formula& p,
                         const std::vector<Var>& x, Vocabulary* vocabulary) {
  return WeberCompactStep(prior, p, x, vocabulary, std::nullopt);
}

Formula WeberCompactStep(const Formula& prior, const Formula& p,
                         const std::vector<Var>& x, Vocabulary* vocabulary,
                         std::optional<bool> prior_satisfiable) {
  obs::ProfileScope profile("compact.WeberStep");
  if (auto degenerate = DegenerateResult(prior, p, prior_satisfiable,
                                         PriorCheck::kDeferred)) {
    return *degenerate;
  }
  const Alphabet alphabet(x);
  // Omega = ∪ delta(prior, P), as WeberOmega computes it; an empty delta
  // means the prior is unsatisfiable, P being satisfiable.
  const std::vector<Interpretation> delta =
      GlobalMinimalDiffs(prior, p, alphabet);
  if (delta.empty()) return p;
  Interpretation omega(alphabet.size());
  for (const Interpretation& diff : delta) omega = omega.Union(diff);
  std::vector<Var> omega_vars;
  for (size_t i = 0; i < alphabet.size(); ++i) {
    if (omega.Get(i)) omega_vars.push_back(alphabet.var(i));
  }
  const std::vector<Var> z = vocabulary->FreshBlock("z", omega_vars.size());
  return Formula::And(RenameVars(prior, omega_vars, z), p);
}

std::vector<Formula> WeberCompactIterated(const Formula& t,
                                          const std::vector<Formula>& updates,
                                          const std::vector<Var>& x,
                                          Vocabulary* vocabulary) {
  std::vector<Formula> steps;
  steps.reserve(updates.size());
  Formula current = t;
  for (const Formula& p : updates) {
    current = WeberCompactStep(current, p, x, vocabulary);
    steps.push_back(current);
  }
  return steps;
}

Formula WinslettCompactStep(const Formula& prior, const Formula& p,
                            Vocabulary* vocabulary) {
  return WinslettCompactStep(prior, p, vocabulary, std::nullopt);
}

Formula WinslettCompactStep(const Formula& prior, const Formula& p,
                            Vocabulary* vocabulary,
                            std::optional<bool> prior_satisfiable) {
  obs::ProfileScope profile("compact.WinslettStep");
  if (auto degenerate = DegenerateResult(prior, p, prior_satisfiable,
                                         PriorCheck::kSolve)) {
    return *degenerate;
  }
  const std::vector<Var> vp = p.Vars();
  REVISE_CHECK_LE(vp.size(), 16u);
  const std::vector<Var> y = vocabulary->FreshBlock("Y", vp.size());
  const std::vector<Formula> vp_block = VarBlock(vp);
  const std::vector<Formula> y_block = VarBlock(y);

  // ∀Z expanded: one conjunct per assignment ζ of Z; assignments with
  // ζ |/= P simplify to true and vanish in the And.
  std::vector<Formula> guard;
  for (uint64_t zeta = 0; zeta < (uint64_t{1} << vp.size()); ++zeta) {
    const Formula fp = RestrictToMask(p, vp, zeta);
    if (fp.IsFalse()) continue;
    const std::vector<Formula> z_block = ConstBlock(vp.size(), zeta);
    guard.push_back(Formula::Implies(
        Formula::And(fp, FSubset(z_block, y_block, y_block, vp_block)),
        FSubset(vp_block, y_block, y_block, z_block)));
  }
  return Formula::And(
      {RenameVars(prior, vp, y), p, ConjoinAll(guard)});
}

Formula BorgidaCompactStep(const Formula& prior, const Formula& p,
                           Vocabulary* vocabulary) {
  return BorgidaCompactStep(prior, p, vocabulary, std::nullopt);
}

Formula BorgidaCompactStep(const Formula& prior, const Formula& p,
                           Vocabulary* vocabulary,
                           std::optional<bool> prior_satisfiable) {
  obs::ProfileScope profile("compact.BorgidaStep");
  if (auto degenerate = DegenerateResult(prior, p, prior_satisfiable,
                                         PriorCheck::kSolve)) {
    return *degenerate;
  }
  const Formula both = Formula::And(prior, p);
  if (IsSatisfiable(both)) return both;
  return WinslettCompactStep(prior, p, vocabulary, /*prior_satisfiable=*/true);
}

Formula SatohCompactStep(const Formula& prior, const Formula& p,
                         Vocabulary* vocabulary) {
  return SatohCompactStep(prior, p, vocabulary, std::nullopt);
}

Formula SatohCompactStep(const Formula& prior, const Formula& p,
                         Vocabulary* vocabulary,
                         std::optional<bool> prior_satisfiable) {
  obs::ProfileScope profile("compact.SatohStep");
  // The measure-based realization of formula (13): the measure of minimal
  // distance for Satoh is delta(T,P) itself (Section 4.3's summary).  We
  // compute delta off-line with the solver and require diff(V(P), Y) to be
  // one of its members; the per-step growth is |prior| + |P| + O(2^k * k)
  // instead of the multiplicative blow-up a verbatim expansion of (13)'s
  // T[V(P)/W] antecedent would cause.
  if (auto degenerate = DegenerateResult(prior, p, prior_satisfiable,
                                         PriorCheck::kDeferred)) {
    return *degenerate;
  }
  const Alphabet full(UnionOfVars(std::vector<Formula>{prior, p}));
  const std::vector<Interpretation> delta =
      GlobalMinimalDiffs(prior, p, full);
  if (delta.empty()) return p;  // P is satisfiable, so the prior is not
  const std::vector<Var> vp = p.Vars();
  REVISE_CHECK_LE(vp.size(), 16u);
  const std::vector<Var> y = vocabulary->FreshBlock("Y", vp.size());

  // diff(V(P), Y) == D, for each minimal diff D (all D are within V(P)).
  std::vector<Formula> membership;
  for (const Interpretation& d : delta) {
    std::vector<Formula> conjuncts;
    bool in_vp = true;
    Interpretation d_on_vp(vp.size());
    for (size_t i = 0; i < full.size(); ++i) {
      if (!d.Get(i)) continue;
      bool found = false;
      for (size_t j = 0; j < vp.size(); ++j) {
        if (vp[j] == full.var(i)) {
          d_on_vp.Set(j, true);
          found = true;
          break;
        }
      }
      if (!found) in_vp = false;
    }
    REVISE_CHECK(in_vp);  // minimal global diffs are within V(P)
    for (size_t j = 0; j < vp.size(); ++j) {
      const Formula bit =
          Formula::Xor(Formula::Variable(vp[j]), Formula::Variable(y[j]));
      conjuncts.push_back(d_on_vp.Get(j) ? bit : Formula::Not(bit));
    }
    membership.push_back(ConjoinAll(conjuncts));
  }
  return Formula::And(
      {RenameVars(prior, vp, y), p, DisjoinAll(membership)});
}

Formula ForbusCompactStep(const Formula& prior, const Formula& p,
                          Vocabulary* vocabulary) {
  return ForbusCompactStep(prior, p, vocabulary, std::nullopt);
}

Formula ForbusCompactStep(const Formula& prior, const Formula& p,
                          Vocabulary* vocabulary,
                          std::optional<bool> prior_satisfiable) {
  obs::ProfileScope profile("compact.ForbusStep");
  // Formula (14): prior[V(P)/Y] ∧ P ∧ ∀Z.(F_P(Z) ->
  //   !(DIST(Z,Y) < DIST(V(P),Y))), with the DIST comparison realized by
  // unary counter circuits whose gate letters are functionally determined.
  if (auto degenerate = DegenerateResult(prior, p, prior_satisfiable,
                                         PriorCheck::kSolve)) {
    return *degenerate;
  }
  const std::vector<Var> vp = p.Vars();
  REVISE_CHECK_LE(vp.size(), 16u);
  const std::vector<Var> y = vocabulary->FreshBlock("Y", vp.size());

  // Shared counter for DIST(V(P), Y).
  const CounterCircuit rhs = BuildCounter(DiffInputs(vp, y), vp.size(),
                                          vocabulary);
  std::vector<Formula> parts = {RenameVars(prior, vp, y), p,
                                rhs.definitions};
  for (uint64_t zeta = 0; zeta < (uint64_t{1} << vp.size()); ++zeta) {
    const Formula fp = RestrictToMask(p, vp, zeta);
    if (fp.IsFalse()) continue;
    // DIST(ζ, Y): inputs are Y-literals with polarity from ζ.
    std::vector<Formula> lhs_inputs;
    lhs_inputs.reserve(vp.size());
    for (size_t j = 0; j < vp.size(); ++j) {
      lhs_inputs.push_back(
          Formula::Literal(y[j], /*positive=*/!((zeta >> j) & 1)));
    }
    const CounterCircuit lhs =
        BuildCounter(lhs_inputs, vp.size(), vocabulary);
    parts.push_back(lhs.definitions);
    // !(DIST(ζ,Y) < DIST(V(P),Y)): every threshold reached by the right
    // count is reached by the left count.
    std::vector<Formula> not_less;
    for (size_t j = 1; j <= vp.size(); ++j) {
      not_less.push_back(
          Formula::Implies(rhs.AtLeast(j), lhs.AtLeast(j)));
    }
    parts.push_back(ConjoinAll(not_less));
  }
  return Formula::And(std::span<const Formula>(parts));
}

std::vector<Formula> CompactIterated(CompactStepFn step, const Formula& t,
                                     const std::vector<Formula>& updates,
                                     Vocabulary* vocabulary) {
  std::vector<Formula> steps;
  steps.reserve(updates.size());
  Formula current = t;
  for (const Formula& p : updates) {
    current = step(current, p, vocabulary);
    steps.push_back(current);
  }
  return steps;
}

}  // namespace revise
