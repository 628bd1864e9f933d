#include "stats.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {
namespace {

// Index of the nearest-rank p-th percentile in a sorted sample of n.
size_t RankIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return samples[RankIndex(samples.size(), p)];
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double AtReferenceSpeed(const std::vector<double>& raw_ms,
                        const std::vector<double>& probe_ms) {
  std::vector<size_t> passes(raw_ms.size());
  for (size_t c = 0; c < passes.size(); ++c) passes[c] = c;
  std::sort(passes.begin(), passes.end(),
            [&](size_t a, size_t b) { return probe_ms[a] < probe_ms[b]; });
  passes.resize((passes.size() + 1) / 2);
  std::vector<double> scaled;
  for (const size_t c : passes) {
    scaled.push_back(raw_ms[c] * kProbeNominalMs / probe_ms[c]);
  }
  return Median(std::move(scaled));
}

double ProbeMs() {
  // Inserts and erases in an ordered map of short heap strings: node
  // allocation, pointer chasing and branchy comparisons, like the
  // library's formula, model-set and artifact code.  Of the loops tried
  // (a pointer chase in L2 with popcounts, one in DRAM, hash-set and
  // shared_ptr churn), this one slowed down most nearly as the library's
  // operations did when the shared host was busy.
  constexpr int kInserts = 4000;
  constexpr size_t kLive = 300;
  const auto start = std::chrono::steady_clock::now();
  std::map<uint64_t, std::string> live;
  uint64_t acc = 0;
  for (int a = 0; a < kInserts; ++a) {
    live.emplace((static_cast<uint64_t>(a) * 2654435761u) % 1000,
                 std::string(8 + a % 40, 'x'));
    if (live.size() > kLive) live.erase(live.begin());
    acc += live.size();
  }
  // Keeps the loop: its result must be observable.
  static std::atomic<uint64_t> sink;
  sink.store(acc, std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Latency Summarize(const std::vector<double>& samples) {
  Latency l;
  l.samples = samples.size();
  if (samples.empty()) return l;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const size_t trim = sorted.size() / 10;
  double sum = 0;
  for (size_t i = trim; i < sorted.size() - trim; ++i) sum += sorted[i];
  l.mean = sum / static_cast<double>(sorted.size() - 2 * trim);
  static constexpr double kLadder[] = {99.9, 99.5, 99, 98, 95, 90, 80, 75,
                                       50};
  for (const double p : kLadder) {
    if (samples.size() - (RankIndex(samples.size(), p) + 1) >= kTailSamples) {
      l.tail_percentile = p;
      l.tail = Percentile(samples, p);
      return l;
    }
  }
  // Too few samples for any rung: the maximum, flagged by percentile 0.
  l.tail = *std::max_element(samples.begin(), samples.end());
  return l;
}

}  // namespace perfbench
