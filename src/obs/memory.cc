#include "obs/memory.h"

#include <atomic>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace revise::obs {

namespace {

// Largest VmHWM ever observed, so the reported peak is monotone even if
// procfs is unavailable or resets across reads.
std::atomic<uint64_t> g_observed_peak{0};

// Peak and current RSS captured by one pass over /proc/self/status, so
// the pair is consistent.
struct ProcStatusSample {
  uint64_t peak_bytes = 0;     // VmHWM
  uint64_t current_bytes = 0;  // VmRSS
};

// Parses VmHWM and VmRSS ("<field>: N kB") in a single pass; both 0
// when the file or fields are missing (non-Linux platforms).
ProcStatusSample ReadProcStatus() {
  ProcStatusSample sample;
  REVISE_OBS_COUNTER("mem.statm_reads").Increment();
#if defined(__linux__)
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return sample;
  int remaining = 2;
  char line[256];
  while (remaining > 0 && std::fgets(line, sizeof(line), file) != nullptr) {
    uint64_t* target = nullptr;
    size_t skip = 0;
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      target = &sample.peak_bytes;
      skip = 6;
    } else if (std::strncmp(line, "VmRSS:", 6) == 0) {
      target = &sample.current_bytes;
      skip = 6;
    } else {
      continue;
    }
    unsigned long long kib = 0;
    if (std::sscanf(line + skip, "%llu", &kib) == 1) {
      *target = static_cast<uint64_t>(kib) * 1024;
    }
    --remaining;
  }
  std::fclose(file);
#endif
  return sample;
}

constexpr int64_t kCacheTtlNanos = 100'000'000;  // 100ms

struct SampleCache {
  ProcStatusSample sample;
  int64_t stamp_ns = 0;
  bool valid = false;
};

util::Mutex g_cache_mu;
SampleCache& Cache() REVISE_REQUIRES(g_cache_mu) {
  static SampleCache* const cache = new SampleCache();
  return *cache;
}

// The cached pair, refreshed when older than the TTL.  Within one TTL
// window every caller (PeakRssBytes, Rss) sees the same sample.
ProcStatusSample CachedSample() {
  const int64_t now_ns = SteadyNowNanos();
  util::MutexLock lock(g_cache_mu);
  SampleCache& cache = Cache();
  if (!cache.valid || now_ns - cache.stamp_ns >= kCacheTtlNanos) {
    cache.sample = ReadProcStatus();
    cache.stamp_ns = now_ns;
    cache.valid = true;
  }
  return cache.sample;
}

}  // namespace

uint64_t MemoryStats::PeakRssBytes() {
  const uint64_t read = CachedSample().peak_bytes;
  uint64_t seen = g_observed_peak.load(std::memory_order_relaxed);
  while (read > seen && !g_observed_peak.compare_exchange_weak(
                            seen, read, std::memory_order_relaxed)) {
  }
  return read > seen ? read : seen;
}

RssBytes MemoryStats::Rss() {
  // VmRSS is maintained with batched per-thread counters and can briefly
  // exceed the precisely-accounted VmHWM; clamp so peak >= current holds.
  const uint64_t current = CachedSample().current_bytes;
  const uint64_t peak = PeakRssBytes();
  return {peak > current ? peak : current, current};
}

}  // namespace revise::obs
