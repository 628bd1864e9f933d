// A lock-cheap log-bucketed histogram of non-negative integer samples.
//
// The paper's empirical story is about *distributions* of sizes and
// durations (model-set cardinalities, prime-implicant counts, span
// durations), not just sums: a mean hides the 2^m blowup rows that
// matter.  Histogram records samples into geometrically spaced buckets
// (HdrHistogram-style: 3 bits of sub-bucket precision per power of two,
// so any percentile estimate is within 12.5% of the true sample value)
// and keeps exact count/sum/min/max.
//
// Design constraints (matching Counter/Gauge in metrics.h):
//   * Record() is a handful of relaxed atomic operations — no locks, no
//     allocation; safe from any thread including the parallel kernels;
//   * the bucket layout is fixed at compile time (496 buckets cover the
//     full uint64 range in ~4 KB), so histograms never resize;
//   * Snapshot() is approximate under concurrent writers (each cell is
//     read atomically) which is fine for reporting.

#ifndef REVISE_OBS_HISTOGRAM_H_
#define REVISE_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>

namespace revise::obs {

// One consistent-enough view of a histogram, with precomputed quantiles.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

class Histogram {
 public:
  // 2^kSubBucketBits sub-buckets per power of two.
  static constexpr int kSubBucketBits = 3;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
  // Values 0..7 are exact; 61 further octaves of 8 sub-buckets cover the
  // remaining uint64 range: (64 - kSubBucketBits) * kSubBuckets = 488
  // indices starting at kSubBuckets.
  static constexpr size_t kNumBuckets =
      (64 - kSubBucketBits) * kSubBuckets + kSubBuckets;

  // Maps a sample to its bucket.  Exact below kSubBuckets, then the top
  // kSubBucketBits bits after the leading one select the sub-bucket.
  static constexpr size_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) return static_cast<size_t>(value);
    const int k = 63 - std::countl_zero(value);  // 2^k <= value
    const int shift = k - kSubBucketBits;
    const uint64_t top = value >> shift;  // in [kSubBuckets, 2*kSubBuckets)
    return static_cast<size_t>(shift + 1) * kSubBuckets +
           static_cast<size_t>(top - kSubBuckets);
  }

  // Largest value mapping to `index` (the representative used for
  // percentile estimates, so estimates err on the conservative side).
  static constexpr uint64_t BucketUpperBound(size_t index) {
    if (index < kSubBuckets) return index;
    const int shift = static_cast<int>(index / kSubBuckets) - 1;
    const uint64_t top = kSubBuckets + index % kSubBuckets;
    const uint64_t lower = top << shift;
    return lower + ((uint64_t{1} << shift) - 1);
  }

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen_min = min_.load(std::memory_order_relaxed);
    while (value < seen_min &&
           !min_.compare_exchange_weak(seen_min, value,
                                       std::memory_order_relaxed)) {
    }
    uint64_t seen_max = max_.load(std::memory_order_relaxed);
    while (value > seen_max &&
           !max_.compare_exchange_weak(seen_max, value,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

  HistogramSnapshot Snapshot() const;

  void Reset();

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::string name_;
};

}  // namespace revise::obs

#endif  // REVISE_OBS_HISTOGRAM_H_
