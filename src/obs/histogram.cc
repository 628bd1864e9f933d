#include "obs/histogram.h"

namespace revise::obs {

namespace {

// Smallest bucket upper bound at which the cumulative count reaches
// `rank` (1-based).  `rank` must be <= the total count in `buckets`.
uint64_t ValueAtRank(
    const std::array<uint64_t, Histogram::kNumBuckets>& buckets,
    uint64_t rank) {
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return Histogram::BucketUpperBound(i);
  }
  return Histogram::BucketUpperBound(buckets.size() - 1);
}

uint64_t RankOf(double quantile, uint64_t count) {
  const double exact = quantile * static_cast<double>(count);
  uint64_t rank = static_cast<uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;  // ceil
  if (rank == 0) rank = 1;
  return rank > count ? count : rank;
}

}  // namespace

HistogramSnapshot Histogram::Snapshot() const {
  // Copy the cells once; quantiles are then computed from one view.  The
  // copy is not atomic across cells, so under concurrent writers the
  // bucket total may lag count_ — quantile ranks are clamped to the
  // bucket total to stay well-defined.
  std::array<uint64_t, kNumBuckets> cells{};
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cells[i] = buckets_[i].load(std::memory_order_relaxed);
    bucket_total += cells[i];
  }
  HistogramSnapshot snapshot;
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  const uint64_t seen_min = min_.load(std::memory_order_relaxed);
  snapshot.min = seen_min == ~uint64_t{0} ? 0 : seen_min;
  snapshot.max = max_.load(std::memory_order_relaxed);
  if (bucket_total > 0) {
    snapshot.p50 = ValueAtRank(cells, RankOf(0.50, bucket_total));
    snapshot.p90 = ValueAtRank(cells, RankOf(0.90, bucket_total));
    snapshot.p99 = ValueAtRank(cells, RankOf(0.99, bucket_total));
  }
  return snapshot;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace revise::obs
