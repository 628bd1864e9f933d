// Iterated belief revision (Section 2.2.3): T * P^1 * ... * P^m with a
// left-associative operator, computed from scratch.
//
// This is the reference the incremental strategies are checked against:
// KnowledgeBase (core/knowledge_base.h) folds one update at a time into a
// model-set memo (model-based operators) or an explicit formula, and
// tests, benches and the fuzzer compare what it holds with these.

#ifndef REVISE_REVISION_ITERATED_H_
#define REVISE_REVISION_ITERATED_H_

#include <vector>

#include "revision/operator.h"

namespace revise {

// Models of T * P^1 * ... * P^m over `alphabet` (must contain all letters
// involved).  Model-based operators iterate on model sets; formula-based
// operators iterate on IteratedReviseTheory.
ModelSet IteratedReviseModels(const RevisionOperator& op, const Theory& t,
                              const std::vector<Formula>& updates,
                              const Alphabet& alphabet);

// The theory a formula-based operator's iteration ends in.  WIDTIO's
// result is itself a theory, and iterating keeps that structure (revising
// the conjunction instead would be a different, much more drastic
// operator); the others re-wrap each intermediate formula as a singleton
// theory, the standard convention for iterating them.
Theory IteratedReviseTheory(const RevisionOperator& op, const Theory& t,
                            const std::vector<Formula>& updates);

// The alphabet V(T) ∪ V(P^1) ∪ ... ∪ V(P^m).
Alphabet IteratedAlphabet(const Theory& t,
                          const std::vector<Formula>& updates);

}  // namespace revise

#endif  // REVISE_REVISION_ITERATED_H_
