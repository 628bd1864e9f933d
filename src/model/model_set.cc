#include "model/model_set.h"

#include <algorithm>

#include "kernel/kernels.h"
#include "util/check.h"

namespace revise {

namespace {

// The rows of every empty default-constructed set.
const std::shared_ptr<const std::vector<Interpretation>>& NoRows() {
  static const auto& rows =
      *new std::shared_ptr<const std::vector<Interpretation>>(
          std::make_shared<const std::vector<Interpretation>>());
  return rows;
}

// Loaded .rkb rows and table enumerations arrive strictly increasing; one
// pass confirms that and skips the sort.
std::vector<Interpretation> Canonical(std::vector<Interpretation> models) {
  if (std::adjacent_find(models.begin(), models.end(),
                         [](const Interpretation& a, const Interpretation& b) {
                           return !(a < b);
                         }) == models.end()) {
    return models;
  }
  std::sort(models.begin(), models.end());
  models.erase(std::unique(models.begin(), models.end()), models.end());
  return models;
}

}  // namespace

ModelSet::ModelSet() : models_(NoRows()) {}

ModelSet::ModelSet(Alphabet alphabet, std::vector<Interpretation> models)
    : alphabet_(std::move(alphabet)) {
  for (const Interpretation& m : models) {
    REVISE_DCHECK_EQ(m.size(), alphabet_.size());
  }
  models_ = std::make_shared<const std::vector<Interpretation>>(
      Canonical(std::move(models)));
}

bool ModelSet::Contains(const Interpretation& m) const {
  // binary_search is only meaningful against the canonical order the
  // constructor establishes and over interpretations of matching width.
  REVISE_DCHECK_EQ(m.size(), alphabet_.size());
  REVISE_DCHECK(std::is_sorted(begin(), end()));
  return std::binary_search(begin(), end(), m);
}

bool ModelSet::IsSubsetOf(const ModelSet& other) const {
  REVISE_CHECK(alphabet_ == other.alphabet_);
  REVISE_DCHECK(std::is_sorted(begin(), end()));
  REVISE_DCHECK(std::is_sorted(other.begin(), other.end()));
  if (size() > other.size()) return false;
  return std::includes(other.begin(), other.end(), begin(), end());
}

ModelSet ModelSet::Union(const ModelSet& a, const ModelSet& b) {
  REVISE_CHECK(a.alphabet_ == b.alphabet_);
  std::vector<Interpretation> merged = a.models();
  merged.insert(merged.end(), b.begin(), b.end());
  return ModelSet(a.alphabet_, std::move(merged));
}

ModelSet ModelSet::Intersection(const ModelSet& a, const ModelSet& b) {
  REVISE_CHECK(a.alphabet_ == b.alphabet_);
  std::vector<Interpretation> result;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(result));
  return ModelSet(a.alphabet_, std::move(result));
}

ModelSet ModelSet::ProjectTo(const Alphabet& target) const {
  std::vector<Interpretation> projected;
  projected.reserve(size());
  for (const Interpretation& m : models()) {
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
