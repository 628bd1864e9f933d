#include "model/model_set.h"

#include <algorithm>

#include "kernel/kernels.h"
#include "util/check.h"

namespace revise {

ModelSet::ModelSet(Alphabet alphabet, std::vector<Interpretation> models)
    : alphabet_(std::move(alphabet)), models_(std::move(models)) {
  for (const Interpretation& m : models_) {
    REVISE_DCHECK_EQ(m.size(), alphabet_.size());
  }
  std::sort(models_.begin(), models_.end());
  models_.erase(std::unique(models_.begin(), models_.end()), models_.end());
}

bool ModelSet::Contains(const Interpretation& m) const {
  // binary_search is only meaningful against the canonical order the
  // constructor establishes and over interpretations of matching width.
  REVISE_DCHECK_EQ(m.size(), alphabet_.size());
  REVISE_DCHECK(std::is_sorted(models_.begin(), models_.end()));
  return std::binary_search(models_.begin(), models_.end(), m);
}

bool ModelSet::IsSubsetOf(const ModelSet& other) const {
  REVISE_CHECK(alphabet_ == other.alphabet_);
  REVISE_DCHECK(std::is_sorted(models_.begin(), models_.end()));
  REVISE_DCHECK(std::is_sorted(other.models_.begin(), other.models_.end()));
  if (models_.size() > other.models_.size()) return false;
  return std::includes(other.models_.begin(), other.models_.end(),
                       models_.begin(), models_.end());
}

ModelSet ModelSet::Union(const ModelSet& a, const ModelSet& b) {
  REVISE_CHECK(a.alphabet_ == b.alphabet_);
  std::vector<Interpretation> merged = a.models_;
  merged.insert(merged.end(), b.models_.begin(), b.models_.end());
  return ModelSet(a.alphabet_, std::move(merged));
}

ModelSet ModelSet::Intersection(const ModelSet& a, const ModelSet& b) {
  REVISE_CHECK(a.alphabet_ == b.alphabet_);
  std::vector<Interpretation> result;
  std::set_intersection(a.models_.begin(), a.models_.end(),
                        b.models_.begin(), b.models_.end(),
                        std::back_inserter(result));
  return ModelSet(a.alphabet_, std::move(result));
}

ModelSet ModelSet::ProjectTo(const Alphabet& target) const {
  std::vector<Interpretation> projected;
  projected.reserve(models_.size());
  for (const Interpretation& m : models_) {
    projected.push_back(Reinterpret(m, alphabet_, target));
  }
  return ModelSet(target, std::move(projected));
}

std::vector<Interpretation> MinimalUnderInclusion(
    std::vector<Interpretation> sets) {
  return kernel::MinimalInterpretations(std::move(sets));
}

std::vector<Interpretation> MaximalUnderInclusion(
    std::vector<Interpretation> sets) {
  return kernel::MaximalInterpretations(std::move(sets));
}

}  // namespace revise
