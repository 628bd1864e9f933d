// High-level semantic services over formulas: satisfiability, entailment,
// equivalence, and model enumeration (AllSAT over a chosen alphabet).

#ifndef REVISE_SOLVE_SERVICES_H_
#define REVISE_SOLVE_SERVICES_H_

#include <memory>
#include <vector>

#include "logic/formula.h"
#include "logic/interpretation.h"
#include "model/model_set.h"

namespace revise {

class SatContext;

[[nodiscard]] bool IsSatisfiable(const Formula& f);

// Decides base |= q for a stream of queries on one incremental solver.
// base is Tseitin-encoded once, on first use.  Each query encodes !q under
// a fresh activation literal a (clause !a | !q), solves assuming a, and is
// retired by the unit !a; encodings of shared subformulas are reused.
// Memory stays bounded by the input: once the retired query encodings
// hold more solver variables than base's own encoding, the next use drops
// the solver and encodes base afresh.  A copy holds the same base but not
// the solver, which it builds on first use.
class EntailmentSolver {
 public:
  explicit EntailmentSolver(Formula base);
  EntailmentSolver(const EntailmentSolver& other);
  EntailmentSolver& operator=(const EntailmentSolver& other);
  EntailmentSolver(EntailmentSolver&&) noexcept;
  EntailmentSolver& operator=(EntailmentSolver&&) noexcept;
  ~EntailmentSolver();

  // base |= q.
  [[nodiscard]] bool Entails(const Formula& q);

  // All models of base over `alphabet`, as EnumerateModels(base, alphabet)
  // but without the model cache.  Up to kMaxTruthTableLetters letters in
  // alphabet ∪ V(base) they are read off one truth table and the solver is
  // left as it was.  Above that the projected enumeration runs on this
  // solver and its blocking clauses consume it: the next call encodes
  // base afresh.
  [[nodiscard]] ModelSet Models(const Alphabet& alphabet);

 private:
  // The solver with base asserted, built (or rebuilt) as needed.
  SatContext& Context();

  Formula base_;
  std::unique_ptr<SatContext> context_;
  int base_vars_ = 0;  // solver variables of base's own encoding
};

// a |= b: one EntailmentSolver over a, used once.
[[nodiscard]] bool Entails(const Formula& a, const Formula& b);

// DNF(models) |= q, decided on the model set itself; the same answer as
// Entails(CanonicalDnf(models), q) without building or encoding the DNF.
// Letters of q outside models.alphabet() are unconstrained: q must hold
// under every value of them.  Only the projections of the models onto the
// letters q shares with the alphabet matter.  When |V(q)| <=
// kMaxTruthTableLetters, q is tabulated once over V(q) (logic/evaluate.h
// TruthTable), its outside letters are ANDed out of the table, and each
// model costs one bit read at its projection: no SAT call.  A wider q is
// decided per distinct projection by one assumption-based SAT call on a
// single encoding of !q.  The empty set entails everything.
[[nodiscard]] bool EntailedByModels(const ModelSet& models, const Formula& q);

// Logical equivalence: a |= b and b |= a.
[[nodiscard]] bool AreEquivalent(const Formula& a, const Formula& b);

// All models of f over `alphabet`, i.e. the projections onto `alphabet` of
// the models of f over V(f) ∪ alphabet.  Variables of f outside `alphabet`
// are projected out (a projection appears once no matter how many
// extensions it has); letters of `alphabet` not occurring in f take both
// values.  When |alphabet ∪ V(f)| <= kMaxTruthTableLetters, f is
// tabulated once over those letters (logic/evaluate.h TruthTable), its
// letters outside `alphabet` are ORed out of the table and the set bits
// are the models: no SAT call.  Wider enumerations run AllSatModels.
// `limit` == 0 means unlimited; otherwise at most `limit` models are
// returned, on the table path the numerically first ones (ModelSet
// order), on the AllSAT path the first the solver finds.  Unlimited
// enumerations are memoized in the process-wide ModelCache
// (solve/model_cache.h) keyed by the structural formula hash and the
// alphabet; repeated enumerations of the same pair are cache hits.
[[nodiscard]] ModelSet EnumerateModels(const Formula& f,
                                       const Alphabet& alphabet,
                                       size_t limit = 0);

// EnumerateModels by blocking-clause AllSAT at any width, without the
// model cache: one CDCL search (sat::Solver::EnumerateProjections) that
// blocks each projection by a clause on the alphabet literals and goes
// on from there.  EnumerateModels takes this path above
// kMaxTruthTableLetters letters; tests and the fuzz oracle call it
// directly to check it against the table path on small alphabets.
[[nodiscard]] ModelSet AllSatModels(const Formula& f,
                                    const Alphabet& alphabet,
                                    size_t limit = 0);

// Query equivalence (paper's criterion (1)) of `a` and `b` with respect to
// queries over `alphabet`: every formula built from `alphabet` letters is
// entailed by a iff it is entailed by b.  Over a finite alphabet this holds
// iff the projections of the two model sets onto `alphabet` coincide.
// Short-circuits: when neither side has variables outside `alphabet` this
// is a single SAT call on Xor(a, b); otherwise one side is enumerated in
// full and the other streamed, stopping at the first unshared model.
[[nodiscard]] bool QueryEquivalent(const Formula& a, const Formula& b,
                                   const Alphabet& alphabet);

}  // namespace revise

#endif  // REVISE_SOLVE_SERVICES_H_
