// Order statistics for the benchmark's reports.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (0 < p <= 100) of a non-empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// The host's current speed relative to an unloaded core.  Shared hosts
// slow a process down by half again or more for seconds at a time; the
// benchmark times a fixed reference loop beside every session and reports
// each latency at kProbeNominalMs / (the loop's time) of its raw value,
// that is at the unloaded host's speed.
inline constexpr double kProbeNominalMs = 0.3;
// Runs the reference loop once and returns its wall time in ms.
double ProbeMs();

// One operation's latency from its repetitions: raw_ms[c] is its time in
// pass c and probe_ms[c] the reference loop's time around it.  Keeps the
// half of the passes (rounded up) with the fastest loop, when the host
// was least disturbed, and returns their median at the reference speed.
double AtReferenceSpeed(const std::vector<double>& raw_ms,
                        const std::vector<double>& probe_ms);

// A latency distribution as its centre, the mean of the middle 80% of the
// samples, and its tail: the highest of a fixed ladder of percentiles that
// leaves at least kTailSamples samples above it.  The centre is a trimmed mean and
// not the median: the latencies of a pool of mixed sessions are sparse
// around their median, so the median jumps with the seed's session mix.
// Twenty rather than fewer: a tail set by a handful of operations comes
// from one or two sessions and jumps with the seed.
inline constexpr size_t kTailSamples = 20;
struct Latency {
  double mean = 0;
  double tail = 0;
  double tail_percentile = 0;  // 0 when fewer than 2 * kTailSamples
  size_t samples = 0;
};
Latency Summarize(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
