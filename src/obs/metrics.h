// Process-wide registry of named monotonic counters and gauges.
//
// Design constraints (see DESIGN.md "Observability"):
//   * hot-path cheap: an increment is one relaxed atomic add — no locks,
//     no allocation, no branching on configuration;
//   * registration is interned: looking up the same name twice returns
//     the same Counter*, and instrumented call sites cache the pointer in
//     a function-local static so the registry mutex is paid once;
//   * snapshots are consistent enough for reporting (each value is read
//     atomically; the set of counters only grows).
//
// Naming convention: `subsystem.metric`, all lower case — e.g.
// `sat.conflicts`, `bdd.unique_hits`, `qm.prime_implicants`.

#ifndef REVISE_OBS_METRICS_H_
#define REVISE_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace revise::obs {

// A monotonic event counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::atomic<uint64_t> value_{0};
  std::string name_;
};

// A last-value-wins gauge (e.g. current BDD node count, peak sizes are
// maintained with UpdateMax).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void UpdateMax(int64_t candidate) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (candidate > current &&
           !value_.compare_exchange_weak(current, candidate,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::atomic<int64_t> value_{0};
  std::string name_;
};

// The values of every registered instrument at one instant, each kind
// sorted by name.  Histograms that never recorded a sample are skipped.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

class Registry {
 public:
  // The process-wide registry used by all instrumented subsystems.
  static Registry& Global();

  // Returns the counter/gauge/histogram registered under `name`, creating
  // it on first use.  The returned pointer is stable for the registry
  // lifetime.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Every registered instrument, read under one lock acquisition.
  RegistrySnapshot Snapshot() const;

  // Zeroes every instrument (instruments stay registered).
  void ResetAll();

 private:
  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      REVISE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      REVISE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      REVISE_GUARDED_BY(mu_);
};

// Steady-clock nanoseconds since the clock's epoch: the one clock behind
// every obs timestamp (spans, profiles, flight events, the in-flight
// table, uptime), so stamps from different layers compare directly.
inline int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Steady-clock nanoseconds captured during static initialization — the
// monotonic process-start anchor shared by the report manifest
// (schema v2.2) and the `obs.uptime_seconds` gauge, so both views of
// uptime agree.
int64_t ProcessStartNanos();
double ProcessUptimeSeconds();

// getpid(), or 0 where unsupported: the pid in the flight-recorder JSON
// and the crash/stall dump file names.
int ProcessId();

// Refreshes `obs.uptime_seconds` from ProcessStartNanos (gauges are
// last-value-wins, so the gauge is only as fresh as the last snapshot
// that touched it) and returns the whole-second value it was set to.
int64_t TouchUptimeGauge();

}  // namespace revise::obs

// Returns a reference to the named global counter, resolving the registry
// lookup once per call site.
#define REVISE_OBS_COUNTER(name)                                          \
  ([]() -> ::revise::obs::Counter& {                                      \
    static ::revise::obs::Counter* const revise_obs_counter_ =            \
        ::revise::obs::Registry::Global().GetCounter(name);               \
    return *revise_obs_counter_;                                          \
  }())

// Returns a reference to the named global gauge, resolving the registry
// lookup once per call site (the gauge analogue of REVISE_OBS_COUNTER).
#define REVISE_OBS_GAUGE(name)                                            \
  ([]() -> ::revise::obs::Gauge& {                                        \
    static ::revise::obs::Gauge* const revise_obs_gauge_ =                \
        ::revise::obs::Registry::Global().GetGauge(name);                 \
    return *revise_obs_gauge_;                                            \
  }())

// Returns a reference to the named global histogram, resolving the
// registry lookup once per call site (the distribution analogue of
// REVISE_OBS_COUNTER).
#define REVISE_OBS_HISTOGRAM(name)                                        \
  ([]() -> ::revise::obs::Histogram& {                                    \
    static ::revise::obs::Histogram* const revise_obs_histogram_ =        \
        ::revise::obs::Registry::Global().GetHistogram(name);             \
    return *revise_obs_histogram_;                                        \
  }())

#endif  // REVISE_OBS_METRICS_H_
