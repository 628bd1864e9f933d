// Process memory accounting for bench reports, the REPL, and profiles.
//
// Two sources are combined:
//   * the OS view — peak and current resident set size read from
//     /proc/self/status (VmHWM / VmRSS).  On platforms without procfs
//     both read as 0, and the peak additionally remembers the largest
//     value this process ever observed, so PeakRssBytes() is monotone
//     non-decreasing within a run regardless of the kernel's bookkeeping;
//   * the library's own view — `mem.*` byte gauges maintained by the
//     subsystems that hold the big allocations (model cache entries, BDD
//     unique tables, interned vocabulary names), which attribute the RSS
//     to owners.
//
// procfs reads are cached: one pass parses VmHWM and VmRSS together and
// the pair is served from a 100ms cache, so callers that read it
// repeatedly — ProfileScope reads the peak on entry and exit of every
// scope — cost one file parse per window instead of one per call (and
// always see a peak/current pair from the same instant).  Actual parses
// are counted in `mem.statm_reads`.
//
// The report's `memory` section (obs/report.h) is Rss() plus the `mem.*`
// gauges of the same registry snapshot.

#ifndef REVISE_OBS_MEMORY_H_
#define REVISE_OBS_MEMORY_H_

#include <cstdint>

namespace revise::obs {

struct RssBytes {
  uint64_t peak = 0;
  uint64_t current = 0;
};

class MemoryStats {
 public:
  // Peak resident set size in bytes (monotone within the process).
  static uint64_t PeakRssBytes();
  // Peak and current resident set size (0 where unsupported), with the
  // peak clamped to at least the current value.
  static RssBytes Rss();
};

}  // namespace revise::obs

#endif  // REVISE_OBS_MEMORY_H_
