// Batch kernels over PackedModelMatrix rows.
//
// These are the hot inner loops of the six model-based revision operators
// (see src/revision/model_based.h), re-expressed as sweeps over packed
// bit-matrix rows instead of one-Interpretation-at-a-time calls.  The
// callers' contract, in both directions:
//
//   * one answer everywhere: every function here computes the paper's
//     quantity exactly, with the same bits at every thread count and on
//     every SIMD path (off / swar / avx2 / neon).  These kernels are the
//     only production implementation; the naive references in
//     src/fuzz/oracles.cc and tests/kernel_test.cc check them.  Selection
//     kernels return ascending or m-major index lists; minimal/maximal
//     kernels return the canonical (lexicographic) order that
//     MinimalUnderInclusion documents.
//   * parallelism is internal: kernels shard over row tiles with
//     ParallelMapRanges and merge deterministically, so callers never see
//     the thread count.
//   * matrices passed together must have the same bits() (they come from
//     model sets over one alphabet); this is DCHECKed, not CHECKed —
//     validation belongs at the operator boundary, not in the sweeps.

#ifndef REVISE_KERNEL_KERNELS_H_
#define REVISE_KERNEL_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernel/packed_matrix.h"
#include "logic/interpretation.h"

namespace revise::kernel {

// Name of the SIMD path compiled into the kernel library ("off", "swar",
// "avx2" or "neon"), i.e. the REVISE_SIMD CMake option after compile-time
// ISA dispatch.
const char* ActiveSimdPath();

// min over all pairs (i, j) of |a_i delta b_j|, clamped at `cap`: returns
// `cap` when every pair differs in more than cap - 1 letters (and for
// empty inputs).  Sweeps 32x32 row tiles with the capped early exit
// applied per 256-bit block and a shared best-so-far bound propagated
// across tiles and across shards (a relaxed atomic — the min of a fixed
// pair set is thread-count-independent, the bound only prunes work).
size_t MinDistanceOfSets(const PackedModelMatrix& a,
                         const PackedModelMatrix& b, size_t cap);

// Exact distances |a_row delta b_j| for every j, written to out[0
// .. b.rows()).
void DistanceRow(const PackedModelMatrix& a, size_t row,
                 const PackedModelMatrix& b, uint32_t* out);

// Ascending indices j of p-rows within Hamming distance <= k of at least
// one t-row (the Dalal selection: with k the global minimum, <= k and
// == k coincide).
std::vector<uint32_t> SelectWithinDistance(const PackedModelMatrix& p,
                                           const PackedModelMatrix& t,
                                           size_t k);

// The inclusion-minimal symmetric differences over all pairs
// (delta(T, P) of the paper), in canonical lexicographic order.
std::vector<Interpretation> MinimalDiffsOfSets(const PackedModelMatrix& a,
                                               const PackedModelMatrix& b);

// Ascending indices j of p-rows whose difference with some t-row is a row
// of `delta` (the Satoh selection).  `delta` rows must be unique and
// lexicographically sorted, as MinimalDiffsOfSets returns them.
std::vector<uint32_t> SelectWithDiffInSorted(const PackedModelMatrix& p,
                                             const PackedModelMatrix& t,
                                             const PackedModelMatrix& delta);

// Ascending indices j of p-rows that agree with some t-row outside `mask`
// (the Weber selection: p_j delta t_i subseteq mask).
std::vector<uint32_t> SelectWithinMask(const PackedModelMatrix& p,
                                       const PackedModelMatrix& t,
                                       const Interpretation& mask);

// For each t-row m in turn: indices j of p-rows n with m delta n minimal
// under inclusion among {m delta n' : n' in p} (the Winslett selection).
// m-major concatenation, possibly with repeated j across different m.
std::vector<uint32_t> SelectPointwiseMinimalDiffs(const PackedModelMatrix& t,
                                                  const PackedModelMatrix& p);

// For each t-row m in turn: indices j of p-rows at exactly the minimum
// distance min_j |m delta p_j| (the Forbus selection).  m-major, as above.
std::vector<uint32_t> SelectPointwiseMinDistance(const PackedModelMatrix& t,
                                                 const PackedModelMatrix& p);

// The implementation of MinimalUnderInclusion / MaximalUnderInclusion
// (model/model_set.h): the unique inclusion-minimal (resp. -maximal)
// elements of `sets`, in canonical lexicographic order.  All elements must
// have the same size().
std::vector<Interpretation> MinimalInterpretations(
    std::vector<Interpretation> sets);
std::vector<Interpretation> MaximalInterpretations(
    std::vector<Interpretation> sets);

// Bit-mask variants for the formula-based candidate enumeration
// (revision/candidates.cc), where difference sets are <= 64-bit masks:
// the unique inclusion-minimal masks, sorted ascending.
std::vector<uint64_t> MinimalMasks(std::vector<uint64_t> masks);
// Minimum popcount over `masks`; `fallback` for an empty vector.
size_t MinPopcount(const std::vector<uint64_t>& masks, size_t fallback);

}  // namespace revise::kernel

#endif  // REVISE_KERNEL_KERNELS_H_
