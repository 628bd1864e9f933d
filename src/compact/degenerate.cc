#include "compact/degenerate.h"

#include "solve/services.h"
#include "util/check.h"

namespace revise {

std::optional<Formula> DegenerateResult(const Formula& prior,
                                        const Formula& p,
                                        std::optional<bool> prior_satisfiable,
                                        PriorCheck check) {
  if (!IsSatisfiable(p)) return Formula::False();
  if (prior_satisfiable.has_value()) {
    REVISE_DCHECK(IsSatisfiable(prior) == *prior_satisfiable);
  } else if (check == PriorCheck::kSolve) {
    prior_satisfiable = IsSatisfiable(prior);
  }
  if (prior_satisfiable == false) return p;
  return std::nullopt;
}

}  // namespace revise
