// Shared helpers for the reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper: it first
// prints the reproduced rows (computed from scratch at startup), then runs
// google-benchmark timings for the machinery involved.  With --json[=path]
// the reproduced rows, growth series, and an instrumentation snapshot are
// also written as a machine-readable report (see obs/report.h).  With
// --trace=<path> a Chrome Trace Event timeline of every recorded span is
// written at exit (equivalent to REVISE_TRACE=chrome:<path>; the flag
// wins when both are given).  With --explain=<path> per-operation cost
// attribution (obs/profile.h) is enabled for the whole run and the
// completed profile trees are written to <path> as JSON.  The
// constructor also honors REVISE_WATCHDOG_S (obs/watchdog.h).

#ifndef REVISE_BENCH_BENCH_UTIL_H_
#define REVISE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/growth_verdict.h"
#include "logic/formula.h"
#include "logic/theory.h"
#include "logic/vocabulary.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "solve/model_cache.h"
#include "util/file.h"
#include "util/parallel.h"
#include "util/random.h"

namespace revise::bench {

inline void Headline(const std::string& text) {
  std::printf("\n==== %s ====\n", text.c_str());
}

// Handles the --json[=path] and --trace=<path> flags for a bench binary
// and owns its report.
//
// Construct before benchmark::Initialize (which rejects flags it does not
// know): the constructor strips --json and --trace from argv.  The
// Measure*/Validate* functions fill report() alongside their printf
// output; WriteIfRequested serializes at exit.  Without --json the report
// is still assembled but never written.  --trace=<path> switches span
// collection to the Chrome sink (as REVISE_TRACE=chrome:<path> would) so
// the run leaves a loadable timeline behind.
class JsonReporter {
 public:
  JsonReporter(std::string_view bench_name, std::string default_path,
               int* argc, char** argv)
      : report_(bench_name), path_(std::move(default_path)) {
    int kept = 1;
    for (int i = 1; i < *argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        requested_ = true;
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        requested_ = true;
        path_ = argv[i] + 7;
      } else if (std::strncmp(argv[i], "--trace=", 8) == 0 &&
                 argv[i][8] != '\0') {
        obs::SetChromeTracePath(argv[i] + 8);
        obs::SetTraceSink(obs::TraceSink::kChrome);
      } else if (std::strncmp(argv[i], "--explain=", 10) == 0 &&
                 argv[i][10] != '\0') {
        explain_path_ = argv[i] + 10;
        obs::SetProfilingEnabled(true);
      } else {
        argv[kept++] = argv[i];
      }
    }
    *argc = kept;
    obs::StartStallWatchdogFromEnv();
    // Execution-environment metadata so reports from different machines
    // and REVISE_THREADS / REVISE_MODEL_CACHE settings stay comparable.
    const uint64_t threads = static_cast<uint64_t>(ParallelThreads());
    const uint64_t hardware =
        static_cast<uint64_t>(std::thread::hardware_concurrency());
    // Timings measured with more workers than cores are not comparable
    // to true parallel runs; record what the machine can actually
    // deliver and say so once.
    const uint64_t effective =
        hardware == 0 ? threads : std::min(threads, hardware);
    if (hardware != 0 && threads > hardware) {
      std::fprintf(stderr,
                   "revise: REVISE_THREADS=%llu exceeds the %llu hardware "
                   "threads; timings reflect oversubscription\n",
                   static_cast<unsigned long long>(threads),
                   static_cast<unsigned long long>(hardware));
    }
    report_.SetMeta("threads", obs::Json(threads));
    report_.SetMeta("hardware_threads", obs::Json(hardware));
    report_.SetMeta("effective_parallelism", obs::Json(effective));
    report_.SetMeta("model_cache_capacity",
                    obs::Json(static_cast<uint64_t>(
                        ModelCache::Global().capacity())));
  }

  obs::Report& report() { return report_; }
  bool requested() const { return requested_; }
  const std::string& path() const { return path_; }

  // Returns false if writing was requested and failed.
  bool WriteIfRequested() {
    bool ok = true;
    if (!explain_path_.empty()) {
      obs::Json doc = obs::Json::MakeObject();
      doc["schema_version"] = obs::kSchemaVersion;
      doc["schema_minor"] = obs::kSchemaMinor;
      doc["profiles"] = obs::ProfileForestToJson();
      const Status status = util::WriteFileAtomically(
          explain_path_, doc.Dump(/*indent=*/2) + "\n");
      if (!status.ok()) {
        std::fprintf(stderr, "explain profile: %s\n",
                     status.ToString().c_str());
        ok = false;
      } else {
        std::printf("\nEXPLAIN profiles written to %s\n",
                    explain_path_.c_str());
      }
    }
    if (requested_) {
      const Status status = report_.WriteToFile(path_);
      if (!status.ok()) {
        std::fprintf(stderr, "json report: %s\n", status.ToString().c_str());
        ok = false;
      } else {
        std::printf("\nJSON report written to %s\n", path_.c_str());
      }
    }
    return ok;
  }

 private:
  obs::Report report_;
  std::string path_;
  std::string explain_path_;
  bool requested_ = false;
};

// A scaling knowledge base: n letters all true (the paper's hard cases
// and worked examples all start from complete theories).
inline Theory CompleteTheory(int n, const std::string& prefix,
                             Vocabulary* vocabulary,
                             std::vector<Var>* vars_out = nullptr) {
  Theory t;
  for (int i = 0; i < n; ++i) {
    const Var v = vocabulary->InternIndexed(prefix, i);
    if (vars_out != nullptr) vars_out->push_back(v);
    t.Add(Formula::Variable(v));
  }
  return t;
}

}  // namespace revise::bench

#endif  // REVISE_BENCH_BENCH_UTIL_H_
