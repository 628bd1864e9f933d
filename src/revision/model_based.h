// The six model-based revision/update semantics of Section 2.2.2, as pure
// computations on model sets.
//
// All functions take the models of T and the models of P over the *same*
// alphabet and return the models of T * P.  Degenerate cases follow the
// paper's conventions (Section 2.2.2 assumes both satisfiable; we define
// the edges the standard way): if P is unsatisfiable the result is empty;
// if T is unsatisfiable (and P is not) the result is M(P).
//
// Pointwise operators (proximity per model of T):
//   Winslett (PMA):  N in M(P) selected iff M delta N is minimal under set
//                    inclusion among {M delta N' : N' in M(P)} for some
//                    M |= T.
//   Borgida:         T & P if consistent, otherwise Winslett.
//   Forbus:          like Winslett with cardinality instead of inclusion.
//
// Global operators (proximity across all models of T):
//   Satoh:   N selected iff N delta M in delta(T,P) =
//            minc ∪_{M |= T} mu(M,P) for some M |= T.
//   Dalal:   N selected iff |N delta M| = k_{T,P} (global minimum) for
//            some M |= T.
//   Weber:   N selected iff N delta M ⊆ Omega = ∪ delta(T,P) for some
//            M |= T.
//
// Every operator runs on the packed bit-matrix kernels
// (src/kernel/kernels.h): the model sets are re-laid as contiguous rows
// and swept in cache-blocked tiles, sharded across the process thread
// pool (util/parallel.h, REVISE_THREADS).  Every merge is
// order-canonicalizing, so results are bit-identical at any thread count.
// The naive references in src/fuzz/oracles.cc are the independent check.

#ifndef REVISE_REVISION_MODEL_BASED_H_
#define REVISE_REVISION_MODEL_BASED_H_

#include <optional>
#include <vector>

#include "model/model_set.h"

namespace revise {

// mu(M, P): the inclusion-minimal symmetric differences between `m` and
// the models of P.
std::vector<Interpretation> PointwiseMinimalDiffs(const Interpretation& m,
                                                  const ModelSet& mp);

// delta(T, P) = minc ∪_{M in mt} mu(M, P).
std::vector<Interpretation> GlobalMinimalDiffsOfSets(const ModelSet& mt,
                                                     const ModelSet& mp);

// k_{T,P}: global minimum Hamming distance.
std::optional<size_t> GlobalMinDistanceOfSets(const ModelSet& mt,
                                              const ModelSet& mp);

ModelSet WinslettModels(const ModelSet& mt, const ModelSet& mp);
ModelSet BorgidaModels(const ModelSet& mt, const ModelSet& mp);
ModelSet ForbusModels(const ModelSet& mt, const ModelSet& mp);
ModelSet SatohModels(const ModelSet& mt, const ModelSet& mp);
ModelSet DalalModels(const ModelSet& mt, const ModelSet& mp);
ModelSet WeberModels(const ModelSet& mt, const ModelSet& mp);

}  // namespace revise

#endif  // REVISE_REVISION_MODEL_BASED_H_
