#include "hardness/tau.h"

#include <algorithm>

#include "util/check.h"

namespace revise {

TauMax::TauMax(int n, Vocabulary* vocabulary) : n_(n) {
  REVISE_CHECK_GE(n, 3);
  atoms_.reserve(n);
  for (int i = 1; i <= n; ++i) {
    atoms_.push_back(vocabulary->InternIndexed("b", i));
  }
  // All C(n,3) variable triples, all 8 sign patterns.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      for (int k = j + 1; k < n; ++k) {
        for (int signs = 0; signs < 8; ++signs) {
          TauClause clause;
          clause.var_index = {i, j, k};
          clause.negated = {(signs & 1) != 0, (signs & 2) != 0,
                            (signs & 4) != 0};
          clauses_.push_back(clause);
        }
      }
    }
  }
}

Formula TauMax::ClauseFormula(size_t j) const {
  REVISE_CHECK_LT(j, clauses_.size());
  const TauClause& clause = clauses_[j];
  std::vector<Formula> lits;
  lits.reserve(3);
  for (int k = 0; k < 3; ++k) {
    lits.push_back(Formula::Literal(atoms_[clause.var_index[k]],
                                    /*positive=*/!clause.negated[k]));
  }
  return DisjoinAll(lits);
}

Formula TauMax::InstanceFormula(const std::vector<size_t>& pi) const {
  std::vector<Formula> clauses;
  clauses.reserve(pi.size());
  for (const size_t j : pi) clauses.push_back(ClauseFormula(j));
  return ConjoinAll(clauses);
}

Theory TauMax::InstanceTheory(const std::vector<size_t>& pi) const {
  Theory theory;
  for (const size_t j : pi) theory.Add(ClauseFormula(j));
  return theory;
}

size_t TauMax::IndexOf(const TauClause& clause) const {
  for (size_t j = 0; j < clauses_.size(); ++j) {
    if (clauses_[j].var_index == clause.var_index &&
        clauses_[j].negated == clause.negated) {
      return j;
    }
  }
  REVISE_CHECK(false);
  return 0;
}

std::vector<size_t> TauMax::RandomInstance(size_t num_clauses,
                                           Rng* rng) const {
  REVISE_CHECK_LE(num_clauses, clauses_.size());
  // Partial Fisher-Yates over clause indices.
  std::vector<size_t> indices(clauses_.size());
  for (size_t j = 0; j < indices.size(); ++j) indices[j] = j;
  std::vector<size_t> pi;
  pi.reserve(num_clauses);
  for (size_t i = 0; i < num_clauses; ++i) {
    const size_t j = i + rng->Below(indices.size() - i);
    std::swap(indices[i], indices[j]);
    pi.push_back(indices[i]);
  }
  std::sort(pi.begin(), pi.end());
  return pi;
}

}  // namespace revise
