// Compact representations for iterated revision (Sections 5 and 6).
//
// General case (Section 5), query equivalence:
//   * Dalal, Theorem 5.1:  Phi_m, built step by step as
//       Phi_i = Phi_{i-1}[X/Y_i] ∧ P^i ∧ EXA(k_i, Y_i, X, W_i)
//     where k_i is the minimum distance between the models of P^i and the
//     previous revision (computed through Phi_{i-1} itself, on the CDCL
//     solver).  Size is polynomial in |T| + Σ|P^i|.
//   * Weber, Corollary 5.2 (formula (10)):
//       Psi_i = Psi_{i-1}[Omega_i/Z_i] ∧ P^i.
//
// Bounded case (Section 6), query equivalence (Theorems 6.1-6.3,
// Corollary 6.4): the quantified schemes (12)-(16) for Winslett, Borgida,
// Satoh and Forbus.  Each step conjoins a universally quantified guard
// over a fresh copy Z of V(P^i); we expand ∀Z into a conjunction over the
// (constantly many, since |P^i| is bounded) assignments of Z, as
// Theorem 6.3 prescribes.  Assignments falsifying F_P(Z) simplify away
// during construction, so the per-step growth is linear in the number of
// models of P^i over V(P^i).
//
// Degenerate cases: an unsatisfiable P gives False, an unsatisfiable
// prior gives P.  Every step has an overload taking `prior_satisfiable`,
// what the caller already knows of the prior's satisfiability.  A value
// stands in for the step's SAT check of the prior, which debug builds
// still run to verify it; nullopt is the plain overload.  Dalal, Weber
// and Satoh never run that check: their distance solve over prior and P
// finds no pair of models exactly when the prior is unsatisfiable.

#ifndef REVISE_COMPACT_ITERATED_REVISION_H_
#define REVISE_COMPACT_ITERATED_REVISION_H_

#include <optional>
#include <vector>

#include "logic/formula.h"
#include "logic/vocabulary.h"

namespace revise {

// One step of Theorem 5.1: the compact representation of (prior *_D p),
// where `prior` is a (possibly already compacted, query-equivalent)
// representation of the current knowledge and `x` is the query alphabet.
[[nodiscard]] Formula DalalCompactStep(const Formula& prior, const Formula& p,
                                       const std::vector<Var>& x,
                                       Vocabulary* vocabulary);
[[nodiscard]] Formula DalalCompactStep(const Formula& prior, const Formula& p,
                                       const std::vector<Var>& x,
                                       Vocabulary* vocabulary,
                                       std::optional<bool> prior_satisfiable);

// Phi_m for the whole sequence.  Returns the per-step formulas
// (result[i] represents T *_D P^1 ... *_D P^{i+1}).
[[nodiscard]] std::vector<Formula> DalalCompactIterated(
    const Formula& t, const std::vector<Formula>& updates,
    const std::vector<Var>& x, Vocabulary* vocabulary);

// One step of Corollary 5.2 (formula (10)) and the whole sequence.
[[nodiscard]] Formula WeberCompactStep(const Formula& prior, const Formula& p,
                                       const std::vector<Var>& x,
                                       Vocabulary* vocabulary);
[[nodiscard]] Formula WeberCompactStep(const Formula& prior, const Formula& p,
                                       const std::vector<Var>& x,
                                       Vocabulary* vocabulary,
                                       std::optional<bool> prior_satisfiable);
[[nodiscard]] std::vector<Formula> WeberCompactIterated(
    const Formula& t, const std::vector<Formula>& updates,
    const std::vector<Var>& x, Vocabulary* vocabulary);

// One step of the bounded-iterated schemes.  `prior` is the current
// (query-equivalent) representation; `p` the bounded-size new formula.
// Winslett: formula (12)/(15)/(16).
[[nodiscard]] Formula WinslettCompactStep(const Formula& prior,
                                          const Formula& p,
                                          Vocabulary* vocabulary);
[[nodiscard]] Formula WinslettCompactStep(
    const Formula& prior, const Formula& p, Vocabulary* vocabulary,
    std::optional<bool> prior_satisfiable);
// Borgida: prior ∧ p when consistent, else the Winslett step.
[[nodiscard]] Formula BorgidaCompactStep(const Formula& prior,
                                         const Formula& p,
                                         Vocabulary* vocabulary);
[[nodiscard]] Formula BorgidaCompactStep(
    const Formula& prior, const Formula& p, Vocabulary* vocabulary,
    std::optional<bool> prior_satisfiable);
// Satoh: formula (13).
[[nodiscard]] Formula SatohCompactStep(const Formula& prior, const Formula& p,
                                       Vocabulary* vocabulary);
[[nodiscard]] Formula SatohCompactStep(const Formula& prior, const Formula& p,
                                       Vocabulary* vocabulary,
                                       std::optional<bool> prior_satisfiable);
// Forbus: formula (14), with the DIST comparison realized by unary
// counter circuits.
[[nodiscard]] Formula ForbusCompactStep(const Formula& prior, const Formula& p,
                                        Vocabulary* vocabulary);
[[nodiscard]] Formula ForbusCompactStep(
    const Formula& prior, const Formula& p, Vocabulary* vocabulary,
    std::optional<bool> prior_satisfiable);

// Iterates any of the step functions over a sequence of updates,
// returning the per-step formulas.
using CompactStepFn = Formula (*)(const Formula&, const Formula&,
                                  Vocabulary*);
[[nodiscard]] std::vector<Formula> CompactIterated(
    CompactStepFn step, const Formula& t, const std::vector<Formula>& updates,
    Vocabulary* vocabulary);

}  // namespace revise

#endif  // REVISE_COMPACT_ITERATED_REVISION_H_
