#include "revision/model_based.h"

#include "kernel/kernels.h"
#include "kernel/packed_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/profile.h"
#include "util/check.h"

namespace revise {

namespace {

// Shared degenerate-case handling.  Returns true if the result is already
// decided and stored in *result.
bool HandleDegenerate(const ModelSet& mt, const ModelSet& mp,
                      ModelSet* result) {
  if (mp.empty()) {
    *result = ModelSet(mp.alphabet(), {});
    return true;
  }
  if (mt.empty()) {
    *result = mp;
    return true;
  }
  return false;
}

// Re-lays a model set as a packed row matrix for the batch kernels.
kernel::PackedModelMatrix Pack(const ModelSet& s) {
  return kernel::PackedModelMatrix::FromModels(s.alphabet().size(),
                                               s.models());
}

// Materializes a kernel index list against the original model set (the
// packed rows are in the set's canonical order, so indices line up).
std::vector<Interpretation> GatherModels(const ModelSet& s,
                                         const std::vector<uint32_t>& idx) {
  std::vector<Interpretation> out;
  out.reserve(idx.size());
  for (const uint32_t j : idx) out.push_back(s[j]);
  return out;
}

}  // namespace

std::vector<Interpretation> PointwiseMinimalDiffs(const Interpretation& m,
                                                  const ModelSet& mp) {
  std::vector<Interpretation> diffs;
  diffs.reserve(mp.size());
  for (const Interpretation& n : mp) {
    diffs.push_back(m.SymmetricDifference(n));
  }
  return MinimalUnderInclusion(std::move(diffs));
}

std::vector<Interpretation> GlobalMinimalDiffsOfSets(const ModelSet& mt,
                                                     const ModelSet& mp) {
  if (mt.empty() || mp.empty()) return {};
  return kernel::MinimalDiffsOfSets(Pack(mt), Pack(mp));
}

std::optional<size_t> GlobalMinDistanceOfSets(const ModelSet& mt,
                                              const ModelSet& mp) {
  if (mt.empty() || mp.empty()) return std::nullopt;
  return kernel::MinDistanceOfSets(Pack(mt), Pack(mp),
                                   mt.alphabet().size() + 1);
}

namespace {

// The revised set's cardinality is the paper's headline quantity — feed
// every kernel result into one distribution.
ModelSet RecordKernelResult(ModelSet result) {
  REVISE_OBS_HISTOGRAM("revise.result_models")
      .Record(static_cast<uint64_t>(result.size()));
  return result;
}

ModelSet WinslettModelsImpl(const ModelSet& mt, const ModelSet& mp) {
  REVISE_CHECK(mt.alphabet() == mp.alphabet());
  ModelSet degenerate;
  if (HandleDegenerate(mt, mp, &degenerate)) return degenerate;
  return ModelSet(mp.alphabet(),
                  GatherModels(mp, kernel::SelectPointwiseMinimalDiffs(
                                       Pack(mt), Pack(mp))));
}

ModelSet BorgidaModelsImpl(const ModelSet& mt, const ModelSet& mp) {
  REVISE_CHECK(mt.alphabet() == mp.alphabet());
  ModelSet degenerate;
  if (HandleDegenerate(mt, mp, &degenerate)) return degenerate;
  const ModelSet both = ModelSet::Intersection(mt, mp);
  if (!both.empty()) return both;
  return WinslettModelsImpl(mt, mp);
}

ModelSet ForbusModelsImpl(const ModelSet& mt, const ModelSet& mp) {
  REVISE_CHECK(mt.alphabet() == mp.alphabet());
  ModelSet degenerate;
  if (HandleDegenerate(mt, mp, &degenerate)) return degenerate;
  return ModelSet(mp.alphabet(),
                  GatherModels(mp, kernel::SelectPointwiseMinDistance(
                                       Pack(mt), Pack(mp))));
}

ModelSet SatohModelsImpl(const ModelSet& mt, const ModelSet& mp) {
  REVISE_CHECK(mt.alphabet() == mp.alphabet());
  ModelSet degenerate;
  if (HandleDegenerate(mt, mp, &degenerate)) return degenerate;
  const kernel::PackedModelMatrix pt = Pack(mt);
  const kernel::PackedModelMatrix pp = Pack(mp);
  const kernel::PackedModelMatrix delta =
      kernel::PackedModelMatrix::FromModels(
          mp.alphabet().size(), kernel::MinimalDiffsOfSets(pt, pp));
  return ModelSet(mp.alphabet(),
                  GatherModels(mp,
                               kernel::SelectWithDiffInSorted(pp, pt, delta)));
}

ModelSet DalalModelsImpl(const ModelSet& mt, const ModelSet& mp) {
  REVISE_CHECK(mt.alphabet() == mp.alphabet());
  ModelSet degenerate;
  if (HandleDegenerate(mt, mp, &degenerate)) return degenerate;
  const kernel::PackedModelMatrix pt = Pack(mt);
  const kernel::PackedModelMatrix pp = Pack(mp);
  const size_t k =
      kernel::MinDistanceOfSets(pt, pp, mt.alphabet().size() + 1);
  return ModelSet(mp.alphabet(),
                  GatherModels(mp, kernel::SelectWithinDistance(pp, pt, k)));
}

ModelSet WeberModelsImpl(const ModelSet& mt, const ModelSet& mp) {
  REVISE_CHECK(mt.alphabet() == mp.alphabet());
  ModelSet degenerate;
  if (HandleDegenerate(mt, mp, &degenerate)) return degenerate;
  const kernel::PackedModelMatrix pt = Pack(mt);
  const kernel::PackedModelMatrix pp = Pack(mp);
  // Omega = the union of delta(T, P).
  Interpretation omega(mt.alphabet().size());
  for (const Interpretation& diff : kernel::MinimalDiffsOfSets(pt, pp)) {
    omega = omega.Union(diff);
  }
  return ModelSet(mp.alphabet(),
                  GatherModels(mp, kernel::SelectWithinMask(pp, pt, omega)));
}

}  // namespace

// Public kernel entry points: a timed span per call (whose duration
// feeds the same-named histogram when tracing is active) around the
// untimed implementations above.

ModelSet WinslettModels(const ModelSet& mt, const ModelSet& mp) {
  obs::ProfileScope profile("revise.kernel.Winslett");
  return RecordKernelResult(WinslettModelsImpl(mt, mp));
}

ModelSet BorgidaModels(const ModelSet& mt, const ModelSet& mp) {
  obs::ProfileScope profile("revise.kernel.Borgida");
  return RecordKernelResult(BorgidaModelsImpl(mt, mp));
}

ModelSet ForbusModels(const ModelSet& mt, const ModelSet& mp) {
  obs::ProfileScope profile("revise.kernel.Forbus");
  return RecordKernelResult(ForbusModelsImpl(mt, mp));
}

ModelSet SatohModels(const ModelSet& mt, const ModelSet& mp) {
  obs::ProfileScope profile("revise.kernel.Satoh");
  return RecordKernelResult(SatohModelsImpl(mt, mp));
}

ModelSet DalalModels(const ModelSet& mt, const ModelSet& mp) {
  obs::ProfileScope profile("revise.kernel.Dalal");
  return RecordKernelResult(DalalModelsImpl(mt, mp));
}

ModelSet WeberModels(const ModelSet& mt, const ModelSet& mp) {
  obs::ProfileScope profile("revise.kernel.Weber");
  return RecordKernelResult(WeberModelsImpl(mt, mp));
}

}  // namespace revise
