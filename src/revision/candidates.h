// Candidate-based evaluation of the model-based operators.
//
// Computes the same model sets as revision/model_based.h without ever
// enumerating M(P) over the full alphabet.  Justified by Proposition 2.1
// (in the per-selected-model form validated in revision_test.cc): every
// selected model differs from its witness model of T only on V(P), and
// all the distance notions involved (mu, delta, k, Omega) only ever hold
// minimal differences within V(P).  It therefore suffices to consider,
// for each M |= T, the 2^|V(P)| candidates M delta S (S ⊆ V(P)) that
// satisfy P.
//
// The truth of P depends only on V(P), so P is tabulated once over V(P)
// (logic/evaluate.h TruthTable) and the candidates of M are read off the
// table at M's V(P)-projection; models with the same projection share
// them.  Cost: 2^|V(P)| evaluations plus |M(T)| * 2^|V(P)| bit reads,
// instead of O(|M(T)| * |M(P)|) where |M(P)| is exponential in the FULL
// alphabet — this is what makes the bounded-|P| database workloads of
// Section 4 practical on large T.

#ifndef REVISE_REVISION_CANDIDATES_H_
#define REVISE_REVISION_CANDIDATES_H_

#include "logic/formula.h"
#include "model/model_set.h"
#include "revision/operator.h"

namespace revise {

// `id` must be one of the six model-based operators; `mt` must be over an
// alphabet containing V(p).  Requires |V(p)| <= kMaxTruthTableLetters
// (16).  Degenerate cases
// follow the operator conventions (mt empty is NOT handled here — callers
// fall back to M(P); see ReviseModelsAuto).
ModelSet ReviseSetByFormula(OperatorId id, const ModelSet& mt,
                            const Formula& p);

// Chooses automatically between the candidate path (|V(p)| <=
// kMaxTruthTableLetters) and the full-enumeration reference path,
// including the degenerate conventions.
ModelSet ReviseModelsAuto(OperatorId id, const ModelSet& mt,
                          const Formula& p, const Alphabet& alphabet);

}  // namespace revise

#endif  // REVISE_REVISION_CANDIDATES_H_
