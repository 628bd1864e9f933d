#include "revision/iterated.h"

#include "revision/candidates.h"
#include "revision/formula_based.h"
#include "solve/services.h"

namespace revise {

Alphabet IteratedAlphabet(const Theory& t,
                          const std::vector<Formula>& updates) {
  std::vector<Formula> roots = t.formulas();
  roots.insert(roots.end(), updates.begin(), updates.end());
  return Alphabet(UnionOfVars(roots));
}

ModelSet IteratedReviseModels(const RevisionOperator& op, const Theory& t,
                              const std::vector<Formula>& updates,
                              const Alphabet& alphabet) {
  if (op.is_formula_based()) {
    return EnumerateModels(IteratedReviseTheory(op, t, updates).AsFormula(),
                           alphabet);
  }
  ModelSet current = EnumerateModels(t.AsFormula(), alphabet);
  for (const Formula& p : updates) {
    current = ReviseModelsAuto(op.id(), current, p, alphabet);
  }
  return current;
}

Theory IteratedReviseTheory(const RevisionOperator& op, const Theory& t,
                            const std::vector<Formula>& updates) {
  Theory current = t;
  for (const Formula& p : updates) {
    current = op.id() == OperatorId::kWidtio
                  ? WidtioTheory(current, p)
                  : Theory({op.ReviseFormula(current, p)});
  }
  return current;
}

}  // namespace revise
