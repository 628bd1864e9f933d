// KnowledgeBase: the top-level API a downstream user programs against.
//
// A knowledge base holds a theory, receives a stream of revisions under a
// chosen operator, and answers queries.  Three storage strategies realize
// the computational alternatives the paper discusses:
//
//  * kDelayed  — store T and the sequence P^1..P^m; compute the revision
//                on demand at query time.  Always available; this is the
//                strategy Section 8 recommends, and polynomial space is
//                guaranteed (Table 2's caveat: keep the P^i around).
//                Revise only appends P.  For the six model-based
//                operators the next query folds the updates the model-set
//                memo has not absorbed yet into it, one ReviseModelSet
//                step each; Ask then decides entailment on that memo
//                directly (EntailedByModels), never re-encoding it as a
//                formula.
//  * kExplicit — eagerly fold every revision into an explicit equivalent
//                formula.  Sizes can explode exactly where Tables 1-2 say
//                NO; StoredSize() exposes the growth.  For the six
//                model-based operators Revise runs the same memo fold as
//                kDelayed and renders the result as its canonical DNF:
//                the two strategies differ only in that rendering, and
//                the DNF is never enumerated back.
//  * kCompact  — eagerly fold using the paper's query-equivalent compact
//                constructions (Theorem 5.1 for Dalal, Corollary 5.2 for
//                Weber, the Section 6 schemes for Winslett / Borgida /
//                Satoh / Forbus — these require each P to have a small
//                alphabet — and the trivial construction for WIDTIO).
//                Queries are answered on the compact formula by ordinary
//                entailment, on one incremental solver per KB state that
//                encodes the formula once; after Models(), IsModel or a
//                cold start from .rkb they are answered on the memo.
//                After the first update, Revise never SAT-checks the
//                growing formula itself: by R3 it is satisfiable iff the
//                last update is, and a memo answers outright
//                (KnownSatisfiable).
//
// Query letters.  Ask is defined for queries whose letters are the KB's
// (CurrentAlphabet()) or foreign to it; foreign letters are unconstrained.
// The fresh letters the compact strategy mints into folded() are outside
// this contract: they are not the KB's letters, yet folded() constrains
// them, so an answer about them depends on whether the solver or the memo
// decides it.

#ifndef REVISE_CORE_KNOWLEDGE_BASE_H_
#define REVISE_CORE_KNOWLEDGE_BASE_H_

#include <optional>
#include <vector>

#include "logic/formula.h"
#include "logic/theory.h"
#include "logic/vocabulary.h"
#include "model/model_set.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/status.h"

namespace revise {

enum class RevisionStrategy { kDelayed, kExplicit, kCompact };

class KnowledgeBase {
 public:
  // `vocabulary` must outlive the knowledge base (fresh letters are minted
  // by the compact strategy).  Unsupported combinations (kCompact with
  // GFUV or Nebel, whose very point in the paper is that no compact
  // representation exists) yield an error.
  static StatusOr<KnowledgeBase> Create(Theory initial,
                                        const RevisionOperator* op,
                                        RevisionStrategy strategy,
                                        Vocabulary* vocabulary);

  // Resumes from a saved snapshot (core/kb_artifact.h): the stored state
  // is adopted verbatim and `models`, when present, seeds the Models()
  // memo as having absorbed every update, so the first query after a
  // cold start skips enumeration.  Rejects the same operator/strategy
  // combinations as Create, and a model set whose alphabet is not
  // IteratedAlphabet(initial, updates).
  static StatusOr<KnowledgeBase> FromSnapshot(
      Theory initial, std::vector<Formula> updates, Formula folded,
      Theory folded_theory, std::optional<ModelSet> models,
      const RevisionOperator* op, RevisionStrategy strategy,
      Vocabulary* vocabulary);

  const RevisionOperator& op() const { return *op_; }
  RevisionStrategy strategy() const { return strategy_; }
  const Vocabulary& vocabulary() const { return *vocabulary_; }

  // Incorporates the new information P.
  void Revise(const Formula& p);

  // Does the (iterated-)revised knowledge base entail `query`?  Letters
  // of `query` outside the KB are unconstrained (see "Query letters"
  // above).  Every strategy answers on the model-set memo when one is
  // present: kDelayed fills or catches it up first if needed; kExplicit
  // and kCompact have one after a model-based explicit Revise, after
  // Models() or IsModel, or after a cold start from .rkb.  Otherwise
  // kExplicit and kCompact run SAT entailment on the stored formula, on
  // the KB's incremental solver; Ask never fills the memo, since a
  // formula-based or compact result can be exponentially larger as a
  // model set.
  [[nodiscard]] bool Ask(const Formula& query) const;

  // Is `m` (over `alphabet` ⊇ the KB's letters) a model of the revised
  // knowledge base?  Answered on the model-set memo.  Under kCompact, and
  // kExplicit with a formula-based operator, filling it enumerates the
  // stored formula through the KB's solver (EntailmentSolver::Models): a
  // truth table when the formula and the KB's letters number at most 16
  // together, which leaves the solver as it was, and otherwise AllSAT on
  // the solver, which that consumes.  Under kCompact that is a
  // projection of the compact formula — the representation is only
  // QUERY-equivalent, the paper's criterion (1); cheap model checking is
  // exactly what it gives up (Section 1).
  [[nodiscard]] bool IsModel(const Interpretation& m,
                             const Alphabet& alphabet) const;

  // The models of the current knowledge base over its letters: the memo,
  // whose rows the returned set shares (model/model_set.h).
  [[nodiscard]] ModelSet Models() const;

  // The letters of the original theory and all revisions so far.
  [[nodiscard]] Alphabet CurrentAlphabet() const;

  // Size (paper's |.| measure) of the stored representation: the explicit
  // or compact formula, or |T| + sum |P^i| for the delayed strategy.
  uint64_t StoredSize() const;

  size_t num_revisions() const { return updates_.size(); }

  // Stored state, exposed for serialization (core/kb_artifact.h).
  const Theory& initial() const { return initial_; }
  const std::vector<Formula>& updates() const { return updates_; }
  const Formula& folded() const { return folded_; }
  const Theory& folded_theory() const { return folded_theory_; }

 private:
  KnowledgeBase(Theory initial, const RevisionOperator* op,
                RevisionStrategy strategy, Vocabulary* vocabulary);

  // The Models() memo without model_fold_: the solver's enumeration, or
  // the from-scratch formula-based fold under kDelayed.
  ModelSet ComputeModels() const;
  // The Models() memo, filled on first use and, with model_fold_, caught
  // up with the updates it has not absorbed; Ask and IsModel read it in
  // place instead of copying it.
  const ModelSet& MemoizedModels() const;
  // The solver over folded_, built on first use.
  EntailmentSolver& Solver() const;
  // Under kCompact, whether folded_ is satisfiable, without a SAT call on
  // it: a memo is non-empty exactly then, and otherwise (R3) the last
  // update decides.  Nullopt before the first update: the step checks
  // the initial theory itself.
  std::optional<bool> KnownSatisfiable() const;

  const RevisionOperator* op_;
  // op_ when it is model-based and the strategy is kDelayed or kExplicit:
  // the operator whose ReviseModelSet folds updates_ into the memo.
  // Null otherwise.
  const ModelBasedOperator* model_fold_;
  RevisionStrategy strategy_;
  Vocabulary* vocabulary_;

  Theory initial_;
  std::vector<Formula> updates_;  // kept for kDelayed and for IsModel

  // kExplicit / kCompact: the folded representation (initially /\ T).
  Formula folded_;
  // WIDTIO folds theories, not formulas.
  Theory folded_theory_;

  // Memo behind Models(), Ask and IsModel.  With model_fold_ it is M(T)
  // folded through the first memo_updates_ updates, over the letters of
  // T and those updates: filled from M(T) on first use (or seeded from a
  // loaded artifact, which has absorbed every update), kept by Revise
  // and caught up by MemoizedModels().  Without model_fold_ it is over
  // CurrentAlphabet(), filled on first computation (or seeded) and
  // dropped by every Revise.  KnowledgeBase is a single-threaded object,
  // as before — concurrent const access is not synchronized.
  mutable std::optional<ModelSet> models_memo_;
  mutable size_t memo_updates_ = 0;

  // kExplicit / kCompact: Ask's incremental solver over folded_ (see
  // EntailmentSolver), also the one the Models() fill enumerates on.
  // Dropped by every Revise; a copied KB holds its own, built on first
  // use, so copies never share solver state.
  mutable std::optional<EntailmentSolver> solver_;
};

}  // namespace revise

#endif  // REVISE_CORE_KNOWLEDGE_BASE_H_
