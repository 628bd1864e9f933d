// Sets of interpretations (model sets) and the set-algebra used by the
// paper's model-based revision operators: minc / maxc (minimal and maximal
// elements under set inclusion), unions, intersections and projections.

#ifndef REVISE_MODEL_MODEL_SET_H_
#define REVISE_MODEL_MODEL_SET_H_

#include <memory>
#include <vector>

#include "logic/interpretation.h"

namespace revise {

// A canonical (sorted, duplicate-free) set of interpretations over one
// alphabet.  The alphabet is carried for self-description.  A ModelSet
// never changes once built, so copies share its rows: a copy (the
// KnowledgeBase memo handed out by Models(), a model-cache hit) makes no
// per-model allocation.  Moves are copies, so a moved-from set keeps its
// rows.
class ModelSet {
 public:
  ModelSet();
  // Sorts and deduplicates `models`; rows already strictly increasing are
  // kept as they are, after one pass that checks it.
  ModelSet(Alphabet alphabet, std::vector<Interpretation> models);
  ModelSet(const ModelSet&) = default;
  ModelSet& operator=(const ModelSet&) = default;

  const Alphabet& alphabet() const { return alphabet_; }
  const std::vector<Interpretation>& models() const { return *models_; }
  size_t size() const { return models_->size(); }
  bool empty() const { return models_->empty(); }
  const Interpretation& operator[](size_t i) const { return (*models_)[i]; }

  bool Contains(const Interpretation& m) const;
  // Subset relation as sets of interpretations (alphabets must match).
  bool IsSubsetOf(const ModelSet& other) const;

  static ModelSet Union(const ModelSet& a, const ModelSet& b);
  static ModelSet Intersection(const ModelSet& a, const ModelSet& b);

  // Projects every model onto `target` (dropping/defaulting letters) and
  // deduplicates.
  ModelSet ProjectTo(const Alphabet& target) const;

  bool operator==(const ModelSet& other) const {
    return alphabet_ == other.alphabet_ && *models_ == *other.models_;
  }

  auto begin() const { return models_->begin(); }
  auto end() const { return models_->end(); }

 private:
  Alphabet alphabet_;
  std::shared_ptr<const std::vector<Interpretation>> models_;  // never null
};

// The paper's minc S / maxc S over a family of letter-sets (represented as
// Interpretations): keeps only elements minimal (maximal) w.r.t. set
// inclusion.  Duplicates are removed; the result is in the canonical
// (lexicographic) order, so callers may binary-search it.  A proper subset
// has strictly smaller cardinality, so candidates are swept in cardinality
// buckets and tested only against the extremal elements already found —
// |result| * n subset tests instead of n^2 (the packed sweep in
// kernel/kernels.h).
std::vector<Interpretation> MinimalUnderInclusion(
    std::vector<Interpretation> sets);
std::vector<Interpretation> MaximalUnderInclusion(
    std::vector<Interpretation> sets);

}  // namespace revise

#endif  // REVISE_MODEL_MODEL_SET_H_
