// Degenerate-case conventions shared by the compact constructions of
// bounded_revision.cc and iterated_revision.cc: an unsatisfiable P
// empties the knowledge base; an unsatisfiable prior is revised to P.
// Internal to src/compact/.

#ifndef REVISE_COMPACT_DEGENERATE_H_
#define REVISE_COMPACT_DEGENERATE_H_

#include <optional>

#include "logic/formula.h"

namespace revise {

// Whether and how a construction learns that its prior is unsatisfiable.
enum class PriorCheck {
  kSolve,     // a SAT check of the prior, unless its satisfiability is known
  kDeferred,  // the construction's own solve over prior and P reveals it
};

// The conventional result when P or the prior is unsatisfiable, or
// nullopt when the construction proper has to run.  `prior_satisfiable`
// is what the caller already knows of the prior: a value stands in for
// the SAT check of the prior, which debug builds still run to verify it.
// Without one, kSolve runs the check and kDeferred leaves an
// unsatisfiable prior to the caller's own solve.
[[nodiscard]] std::optional<Formula> DegenerateResult(
    const Formula& prior, const Formula& p,
    std::optional<bool> prior_satisfiable, PriorCheck check);

}  // namespace revise

#endif  // REVISE_COMPACT_DEGENERATE_H_
