// An LRU-bounded memo for full model enumerations.
//
// EnumerateModels re-pays a complete enumeration every time the same
// (formula, alphabet) pair comes back — which the revision pipeline does
// constantly: postulate checks enumerate M(T) and M(P) once per postulate,
// query-equivalence tests enumerate both sides, and iterated revision
// round-trips ModelSet -> Formula -> EnumerateModels on every step.  This
// cache keys finished enumerations by the *structural* identity of the
// formula (Formula::StructuralHash / StructurallyEqual, i.e. the shape and
// variable ids, not node pointers) together with the alphabet.  Variable
// ids fully determine the enumeration result, so hits are exact.
//
//   * bounded: least-recently-used entries are evicted beyond `capacity`;
//   * explicit invalidation: Clear() drops everything (enumeration results
//     are immutable facts, so invalidation is only needed when a test or
//     long-lived process wants to release memory or isolate measurements);
//   * observable: hits, misses, insertions and evictions are published as
//     solve.model_cache.* counters by every instance (they aggregate
//     process-wide cache activity); the live entry count
//     (solve.model_cache.size) and the resident-byte estimate
//     (mem.model_cache_bytes, in every report's memory section) are
//     gauges describing the *global* cache only — a short-lived local
//     instance must not leave the gauges describing a dead cache;
//   * thread-safe: one mutex; entries are returned by value.
//
// Configuration: REVISE_MODEL_CACHE sets the capacity in entries
// (default 128, 0 disables caching entirely).
//
// Disable vs evict-all semantics: capacity 0 means *disabled*.  A
// disabled cache still counts every Lookup as a miss (so hits + misses
// keeps matching the number of unlimited enumerations regardless of
// configuration), Insert is a silent no-op, and both gauges read 0.
// set_capacity(0) on a populated cache evicts every entry (counted as
// evictions) before disabling; set_capacity(n > 0) re-enables with an
// empty cache and the counters continue monotonically.

#ifndef REVISE_SOLVE_MODEL_CACHE_H_
#define REVISE_SOLVE_MODEL_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "logic/formula.h"
#include "logic/interpretation.h"
#include "model/model_set.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace revise {

class ModelCache {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  // The process-wide cache used by EnumerateModels (capacity taken from
  // REVISE_MODEL_CACHE at first use).
  static ModelCache& Global();

  // `publish_gauges` marks the instance whose size/bytes feed the global
  // gauges; only Global() passes true.  Counters are always published.
  explicit ModelCache(size_t capacity, bool publish_gauges = false)
      : capacity_(capacity), publish_gauges_(publish_gauges) {}

  ModelCache(const ModelCache&) = delete;
  ModelCache& operator=(const ModelCache&) = delete;

  // Returns the cached model set for (f, alphabet) and marks it most
  // recently used, or nullopt on a miss (or when disabled).
  [[nodiscard]] std::optional<ModelSet> Lookup(const Formula& f,
                                               const Alphabet& alphabet);

  // Records an enumeration result, evicting the least recently used
  // entries beyond capacity.  Re-inserting an existing key refreshes it.
  void Insert(const Formula& f, const Alphabet& alphabet,
              const ModelSet& models);

  // Drops every entry (explicit invalidation).
  void Clear();

  // Shrinks/extends the bound; shrinking evicts LRU entries immediately.
  void set_capacity(size_t capacity);
  size_t capacity() const;
  bool enabled() const { return capacity() > 0; }
  size_t size() const;

  // Estimated resident bytes across all entries (model words plus fixed
  // per-entry overhead); mirrors the mem.model_cache_bytes gauge.
  uint64_t approx_bytes() const;

 private:
  struct Entry {
    uint64_t hash = 0;
    Formula formula;
    Alphabet alphabet;
    ModelSet models;
  };
  using EntryList = std::list<Entry>;

  static uint64_t ApproxEntryBytes(const Entry& entry);

  void EvictOverCapacityLocked() REVISE_REQUIRES(mu_);
  void PublishGaugesLocked() const REVISE_REQUIRES(mu_);
  EntryList::iterator FindLocked(uint64_t hash, const Formula& f,
                                 const Alphabet& alphabet)
      REVISE_REQUIRES(mu_);

  mutable util::Mutex mu_;
  size_t capacity_ REVISE_GUARDED_BY(mu_);
  const bool publish_gauges_;
  // Sum of ApproxEntryBytes over lru_.
  uint64_t bytes_ REVISE_GUARDED_BY(mu_) = 0;
  EntryList lru_ REVISE_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_multimap<uint64_t, EntryList::iterator> index_
      REVISE_GUARDED_BY(mu_);
};

}  // namespace revise

#endif  // REVISE_SOLVE_MODEL_CACHE_H_
