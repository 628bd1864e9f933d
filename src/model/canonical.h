// Canonical formula representations of model sets.

#ifndef REVISE_MODEL_CANONICAL_H_
#define REVISE_MODEL_CANONICAL_H_

#include "logic/formula.h"
#include "model/model_set.h"

namespace revise {

// The canonical DNF of a model set: one full minterm per model (false for
// the empty set).  This is the "naive" explicit representation whose size
// the paper's explosion arguments are about.  Its minterms share one
// literal node per letter and sign, so its DagSize() is at most
// |M| + 2|A| + 1; VarOccurrences() is |M| * |A| as written.
Formula CanonicalDnf(const ModelSet& models);

}  // namespace revise

#endif  // REVISE_MODEL_CANONICAL_H_
