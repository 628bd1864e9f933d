// pipeline_bench: the KnowledgeBase user path end to end, split by layer.
//
//   pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--size tiny|full] [--out <dir>]
//
// One client thread runs sessions back to back (a closed loop).  Each
// session parses its text sources (or loads an initial .rkb), creates a
// KnowledgeBase, runs m x (Revise -> queries -> Models), saves a .rkb,
// reloads it and queries again.  The pool of sessions comes from the
// seed (workloads.h); whole passes over the pool repeat for about
// --seconds, and each operation's latency is taken at the reference
// speed from the passes in which the host was fastest (stats.h).
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays one pass
// through the layer functions with spans (replay.h), checks the replay
// against the KnowledgeBase run, measures the cost of obs profiling and
// prints the per-layer metrics.  Both verify the answers (verify.h).
// The last stdout line is the result object; the line before it holds
// the run metadata and the exact counts the smoke test compares.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "kernel/kernels.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "replay.h"
#include "session.h"
#include "solve/model_cache.h"
#include "stats.h"
#include "util/parallel.h"
#include "verify.h"
#include "workloads.h"

namespace perfbench {
namespace {

using revise::obs::Json;

constexpr int kSetupRepetitions = 3;
// Passes an untraced run makes at least, however long they take: the
// latencies come from the faster half of them (stats.h).
constexpr size_t kMinPasses = 3;
// Sessions re-run under the other strategies and the operator oracle.
constexpr size_t kDeepVerifySessions = 9;
// Largest share of the traced session time the spans may leave
// unattributed before the replay counts as measuring something else.
constexpr double kMaxUnattributedPct = 5.0;

struct Args {
  Workload workload = Workload::kDelayedAsk;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string out = ".bench_out";
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "pipeline_bench: %s\nusage: pipeline_bench --workload "
               "delayed_ask|delayed_wide|compact_chain|explicit_persist "
               "--seed N --seconds S --trace 0|1 [--size tiny|full] "
               "[--out DIR]\n",
               error);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w.has_value()) Usage(("unknown workload " + value).c_str());
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "tiny" && value != "full") Usage("bad --size");
      args.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

double Seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6;
  };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

size_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return static_cast<size_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

uint64_t CounterValue(const char* name) {
  return revise::obs::Registry::Global().GetCounter(name)->Value();
}

Json Metric(double value, const char* unit) {
  Json m = Json::MakeObject();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "pipeline_bench: %s\n", message.c_str());
  std::exit(1);
}

// Generates the inputs kSetupRepetitions times (the model cache cleared
// before each, so every repetition does the same work) and returns the
// last pool with the median set-up time at the reference speed.
std::vector<SessionSpec> Setup(const Args& args, const std::string& dir,
                               double* setup_s) {
  std::vector<double> times;
  std::vector<SessionSpec> specs;
  double probe = ProbeMs();
  for (int r = 0; r < kSetupRepetitions; ++r) {
    revise::ModelCache::Global().Clear();
    const double start = Seconds();
    revise::StatusOr<std::vector<SessionSpec>> generated =
        GenerateWorkload(args.workload, args.seed, args.size, dir);
    const double elapsed = Seconds() - start;
    const double next_probe = ProbeMs();
    times.push_back(elapsed * 2 * kProbeNominalMs / (probe + next_probe));
    probe = next_probe;
    if (!generated.ok()) Die("setup: " + generated.status().ToString());
    specs = std::move(*generated);
  }
  *setup_s = Median(times);
  return specs;
}

// One pass over the pool through KnowledgeBase.
struct Pass {
  std::vector<SessionResult> sessions;
  // Per session, the mean of the reference loop's times before and after.
  std::vector<double> probe_ms;
  double raw_ms = 0;  // sum of operation latencies as timed
  uint64_t ops = 0;
  uint64_t failed = 0;
};

Pass RunPass(const std::vector<SessionSpec>& specs) {
  Pass pass;
  double probe = ProbeMs();
  for (const SessionSpec& spec : specs) {
    SessionResult r = RunKbSession(spec, spec.stem + ".rkb");
    pass.raw_ms += r.times.TotalMs();
    const double next_probe = ProbeMs();
    pass.probe_ms.push_back((probe + next_probe) / 2);
    probe = next_probe;
    if (!r.error.empty()) std::fprintf(stderr, "%s\n", r.error.c_str());
    pass.ops += r.times.Count();
    pass.failed += r.failed;
    pass.sessions.push_back(std::move(r));
  }
  return pass;
}

std::vector<Transcript> Transcripts(const Pass& pass) {
  std::vector<Transcript> out;
  for (const SessionResult& r : pass.sessions) out.push_back(r.transcript);
  return out;
}

uint64_t PlannedOps(const std::vector<SessionSpec>& specs) {
  uint64_t n = 0;
  for (const SessionSpec& s : specs) n += s.PlannedOps();
  return n;
}

// Exact outputs of one pass, compared by the determinism smoke test.
struct Exact {
  uint64_t stored_size = 0;
  uint64_t result_models = 0;
  uint64_t compact_size = 0;
};

Exact ExactOf(const std::vector<SessionSpec>& specs,
              const std::vector<Transcript>& transcripts) {
  Exact e;
  for (size_t i = 0; i < transcripts.size(); ++i) {
    e.stored_size += transcripts[i].stored_size;
    for (const uint64_t m : transcripts[i].model_counts) e.result_models += m;
    if (specs[i].strategy == revise::RevisionStrategy::kCompact) {
      e.compact_size += transcripts[i].stored_size;
    }
  }
  return e;
}

Json Meta(const Args& args, size_t threads, double parallelism,
          const std::vector<SessionSpec>& specs) {
  Json meta = Json::MakeObject();
  meta["workload"] = WorkloadName(args.workload);
  meta["seed"] = args.seed;
  meta["size"] = args.size == Size::kTiny ? "tiny" : "full";
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["simd_option"] = PERFBENCH_SIMD;
  meta["simd_path"] = revise::kernel::ActiveSimdPath();
  const char* env_threads = std::getenv("REVISE_THREADS");
  meta["revise_threads_env"] = env_threads != nullptr ? env_threads : "unset";
  meta["nproc"] = static_cast<uint64_t>(OnlineCpus());
  meta["threads"] = static_cast<uint64_t>(threads);
  meta["effective_parallelism"] = parallelism;
  meta["model_cache_capacity"] =
      static_cast<uint64_t>(revise::ModelCache::Global().capacity());
  meta["sessions"] = static_cast<uint64_t>(specs.size());
  meta["load"] = "closed loop, 1 client thread";
  return meta;
}

void Print(const Json& meta, bool correct, uint64_t attempted,
           uint64_t failed, const Json& metrics) {
  Json info = Json::MakeObject();
  info["meta"] = meta;
  std::printf("%s\n", info.Dump().c_str());
  Json result = Json::MakeObject();
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = metrics;
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

void AddVerification(const VerifyReport& v, Json* meta) {
  Json verify = Json::MakeObject();
  verify["checks"] = v.checks;
  verify["wrong_answers"] = v.wrong_answers;
  verify["operations"] = v.attempted;
  verify["failed"] = v.failed;
  verify["skipped_compact_reruns"] = v.skipped;
  verify["oracle_scenarios"] = v.oracle_scenarios;
  Json details = Json::MakeArray();
  for (const std::string& d : v.details) details.Append(d);
  verify["details"] = details;
  (*meta)["verification"] = verify;
  for (const std::string& d : v.details) {
    std::fprintf(stderr, "verification: %s\n", d.c_str());
  }
}

// ---- --trace 0 -------------------------------------------------------------

int RunUntraced(const Args& args, const std::vector<SessionSpec>& specs,
                double setup_s, size_t threads) {
  std::vector<Pass> passes;
  const uint64_t solves_before = CounterValue("sat.solves");
  uint64_t first_pass_solves = 0;
  const double wall_start = Seconds();
  const double cpu_start = CpuSeconds();
  // Whole passes while another of their mean length fits in --seconds,
  // and at least kMinPasses.
  do {
    passes.push_back(RunPass(specs));
    if (passes.size() == 1) {
      first_pass_solves = CounterValue("sat.solves") - solves_before;
    }
  } while (passes.size() < kMinPasses ||
           (Seconds() - wall_start) * (passes.size() + 1) / passes.size() <=
               args.seconds);
  const double parallelism =
      (CpuSeconds() - cpu_start) / (Seconds() - wall_start);
  const double peak_rss = PeakRssMb();

  // Per operation kind: each operation's latency over the passes.
  std::array<Latency, kOpKinds> latency;
  double op_seconds = 0;  // one pass at the per-operation latencies
  std::vector<double> probes;
  for (const Pass& pass : passes) {
    probes.insert(probes.end(), pass.probe_ms.begin(), pass.probe_ms.end());
  }
  for (int kind = 0; kind < kOpKinds; ++kind) {
    std::vector<double> per_op;
    for (size_t s = 0; s < specs.size(); ++s) {
      // A failed session's list is cut short; its operation j counts from
      // the passes that reached it.
      for (size_t j = 0;; ++j) {
        std::vector<double> raw;
        std::vector<double> probe;
        for (const Pass& pass : passes) {
          const std::vector<double>& v = pass.sessions[s].times.ms[kind];
          if (j < v.size()) {
            raw.push_back(v[j]);
            probe.push_back(pass.probe_ms[s]);
          }
        }
        if (raw.empty()) break;
        per_op.push_back(AtReferenceSpeed(raw, probe));
      }
    }
    for (const double ms : per_op) op_seconds += ms / 1000.0;
    latency[kind] = Summarize(per_op);
  }
  uint64_t failed = 0;
  for (const Pass& pass : passes) failed += pass.failed;
  const std::vector<Transcript> transcripts = Transcripts(passes.front());
  const Exact exact = ExactOf(specs, transcripts);
  const VerifyReport verify =
      Verify(specs, transcripts, kDeepVerifySessions);

  Json metrics = Json::MakeObject();
  metrics["setup_s"] = Metric(setup_s, "s");
  metrics["ops_per_s"] = Metric(
      static_cast<double>(passes.front().ops) / op_seconds, "1/s");
  const struct {
    OpKind kind;
    const char* mean;
    const char* tail;
  } rows[] = {{kAsk, "ask_mean_ms", "ask_tail_ms"},
              {kRevise, "revise_mean_ms", "revise_tail_ms"},
              {kModels, "models_mean_ms", "models_tail_ms"},
              {kColdStart, "cold_start_mean_ms", nullptr},
              {kSave, "save_mean_ms", nullptr}};
  Json tails = Json::MakeObject();
  for (const auto& row : rows) {
    const Latency& l = latency[row.kind];
    metrics[row.mean] = Metric(l.mean, "ms");
    if (row.tail != nullptr) metrics[row.tail] = Metric(l.tail, "ms");
    Json t = Json::MakeObject();
    t["samples"] = static_cast<uint64_t>(l.samples);
    t["tail_percentile"] = l.tail_percentile;
    tails[OpKindName(row.kind)] = t;
  }
  metrics["stored_size"] =
      Metric(static_cast<double>(exact.stored_size), "count");
  metrics["peak_rss_mb"] = Metric(peak_rss, "MB");

  Json meta = Meta(args, threads, parallelism, specs);
  meta["passes"] = static_cast<uint64_t>(passes.size());
  meta["probe_ms_median"] = Median(probes);
  meta["probe_ms_nominal"] = kProbeNominalMs;
  meta["latency_samples"] = tails;
  Json e = Json::MakeObject();
  e["stored_size"] = exact.stored_size;
  e["result_models"] = exact.result_models;
  e["sat_solves"] = first_pass_solves;
  e["wrong_answers"] = verify.wrong_answers;
  meta["exact"] = e;
  AddVerification(verify, &meta);

  const uint64_t attempted =
      PlannedOps(specs) * passes.size() + verify.attempted;
  Print(meta, verify.wrong_answers == 0, attempted, failed + verify.failed,
        metrics);
  return verify.wrong_answers == 0 ? 0 : 1;
}

// ---- --trace 1 -------------------------------------------------------------

int RunTraced(const Args& args, const std::vector<SessionSpec>& specs,
              size_t threads, const std::string& spans_path) {
  const double start = Seconds();
  const double cpu_start = CpuSeconds();
  const Pass shadowed = RunPass(specs);
  const std::vector<Transcript> transcripts = Transcripts(shadowed);

  // The replay, one session span per KnowledgeBase session.
  Tracer tracer;
  std::vector<std::string> divergences;
  for (size_t i = 0; i < specs.size(); ++i) {
    const ReplayResult r = ReplaySession(specs[i], &tracer);
    if (!r.error.empty()) {
      divergences.push_back(r.error);
    } else if (!(r.transcript == transcripts[i])) {
      divergences.push_back(specs[i].stem +
                            ": replay results differ from KnowledgeBase");
    }
  }
  if (!divergences.empty()) {
    for (const std::string& d : divergences) {
      std::fprintf(stderr, "replay: %s\n", d.c_str());
    }
  }

  // Aggregate self time and counters per layer.
  const std::vector<SpanRecord>& spans = tracer.spans();
  const std::vector<int64_t> self = tracer.SelfNanos();
  std::array<double, kLayerCount> layer_ms{};
  std::array<uint64_t, kLayerCount> calls{};
  std::array<uint64_t, kLayerCount> items{};
  std::array<std::array<uint64_t, kCounterCount>, kLayerCount> counters{};
  std::array<uint64_t, kCounterCount> totals{};
  double op_ms = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    layer_ms[s.layer] += static_cast<double>(self[i]) / 1e6;
    ++calls[s.layer];
    items[s.layer] += s.items;
    for (int c = 0; c < kCounterCount; ++c) {
      counters[s.layer][c] += s.counters[c];
      if (s.layer == kLayerSession) totals[c] += s.counters[c];
    }
    if (s.layer == kLayerOp) {
      op_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  const double unattributed_pct = 100.0 * layer_ms[kLayerOp] / op_ms;
  if (unattributed_pct > kMaxUnattributedPct) {
    divergences.push_back("spans leave " + std::to_string(unattributed_pct) +
                          "% of the session time unattributed");
    std::fprintf(stderr, "replay: %s\n", divergences.back().c_str());
  }

  // Profiling overhead: the same sessions with obs profiling off and on,
  // alternating which goes first, until the time budget is spent.
  double off_ms = 0;
  double on_ms = 0;
  size_t pairs = 0;
  uint64_t profiled_ops = 0;
  do {
    const SessionSpec& spec = specs[pairs % specs.size()];
    profiled_ops += 2 * spec.PlannedOps();
    for (int half = 0; half < 2; ++half) {
      const bool on = (half == 0) == (pairs % 2 == 1);
      revise::obs::SetProfilingEnabled(on);
      const SessionResult r = RunKbSession(spec, spec.stem + ".rkb");
      revise::obs::SetProfilingEnabled(false);
      (on ? on_ms : off_ms) += r.times.TotalMs();
      if (on) (void)revise::obs::TakeProfiles();
    }
    ++pairs;
  } while (Seconds() - start < args.seconds);
  const double parallelism = (CpuSeconds() - cpu_start) / (Seconds() - start);

  const VerifyReport verify = Verify(specs, transcripts, kDeepVerifySessions);
  if (revise::Status s = tracer.WriteJsonLines(spans_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }

  const auto ms = [&](Layer l) { return Metric(layer_ms[l], "ms"); };
  const auto count = [](uint64_t n) {
    return Metric(static_cast<double>(n), "count");
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const uint64_t hits = totals[kCacheHits];
  const uint64_t lookups = hits + totals[kCacheMisses];
  const Exact exact = ExactOf(specs, transcripts);

  Json m = Json::MakeObject();
  m["logic.parse_ms"] = ms(kLayerParse);
  m["solve.enumerate_ms"] = ms(kLayerEnumerate);
  m["solve.enumerate_calls"] = count(calls[kLayerEnumerate]);
  m["solve.models_enumerated"] = count(totals[kModelsEnumerated]);
  m["solve.model_cache_hit_ratio"] =
      Metric(ratio(static_cast<double>(hits), static_cast<double>(lookups)),
             "ratio");
  m["solve.model_cache_lookups"] = count(lookups);
  m["solve.entails_ms"] = ms(kLayerEntails);
  m["solve.entails_calls"] = count(calls[kLayerEntails]);
  m["sat.solves"] = count(totals[kSatSolves]);
  m["sat.conflicts"] = count(totals[kSatConflicts]);
  m["sat.decisions"] = count(totals[kSatDecisions]);
  m["sat.propagations"] = count(totals[kSatPropagations]);
  m["sat.models_per_solve"] = Metric(
      ratio(static_cast<double>(counters[kLayerEnumerate][kModelsEnumerated]),
            static_cast<double>(counters[kLayerEnumerate][kSatSolves])),
      "ratio");
  m["model.canonical_dnf_ms"] = ms(kLayerCanonicalDnf);
  m["model.canonical_dnf_size"] = count(items[kLayerCanonicalDnf]);
  m["revision.revise_models_ms"] = ms(kLayerReviseModels);
  m["revision.revise_formula_ms"] = ms(kLayerReviseFormula);
  m["revision.calls"] =
      count(calls[kLayerReviseModels] + calls[kLayerReviseFormula]);
  m["revision.result_models"] = count(items[kLayerReviseModels]);
  m["compact.step_ms"] = ms(kLayerCompactStep);
  m["compact.steps"] = count(calls[kLayerCompactStep]);
  m["compact.formula_size"] = count(exact.compact_size);
  m["artifact.save_ms"] = ms(kLayerArtifactSave);
  m["artifact.load_ms"] = ms(kLayerArtifactLoad);
  m["artifact.bytes"] = count(items[kLayerArtifactSave]);
  m["bdd.nodes_created"] = count(totals[kBddNodes]);
  m["core.overhead_ms"] = ms(kLayerCore);
  m["trace.session_ms"] = Metric(op_ms, "ms");
  m["trace.unattributed_pct"] = Metric(unattributed_pct, "%");
  m["obs.tracing_overhead_pct"] =
      Metric(100.0 * (op_ms / shadowed.raw_ms - 1.0), "%");
  m["obs.profiling_overhead_pct"] =
      Metric(100.0 * (on_ms / off_ms - 1.0), "%");

  Json meta = Meta(args, threads, parallelism, specs);
  meta["spans"] = spans_path;
  meta["span_count"] = static_cast<uint64_t>(spans.size());
  meta["profiling_pairs"] = static_cast<uint64_t>(pairs);
  meta["max_unattributed_pct"] = kMaxUnattributedPct;
  Json e = Json::MakeObject();
  e["stored_size"] = exact.stored_size;
  e["result_models"] = exact.result_models;
  e["sat_solves"] = totals[kSatSolves];
  e["wrong_answers"] = verify.wrong_answers;
  meta["exact"] = e;
  Json d = Json::MakeArray();
  for (const std::string& s : divergences) d.Append(s);
  meta["replay_divergences"] = d;
  AddVerification(verify, &meta);

  const bool correct = verify.wrong_answers == 0 && divergences.empty();
  const uint64_t attempted =
      PlannedOps(specs) + profiled_ops + verify.attempted;
  Print(meta, correct, attempted, shadowed.failed + verify.failed, m);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
#ifndef __OPTIMIZE__
  Die(std::string("refusing to report timings from a build without "
                  "optimisation (CMAKE_BUILD_TYPE='") +
      PERFBENCH_BUILD_TYPE + "')");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
    Die("refusing to report timings from a Debug build");
  }
  // One worker unless REVISE_THREADS asks for more, and never more than
  // the CPUs this process may use: on a shared host, timings of parallel
  // kernels swing with the neighbours' load far more than serial ones.
  const size_t threads =
      std::getenv("REVISE_THREADS") == nullptr
          ? 1
          : std::min(revise::ParallelThreads(), OnlineCpus());
  revise::SetParallelThreadsOverride(threads);

  const std::string tag = std::string(WorkloadName(args.workload)) + "-" +
                          std::to_string(args.seed) + "-" +
                          (args.trace ? "1" : "0");
  const std::filesystem::path dir =
      std::filesystem::path(args.out) / ("work-" + tag);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir.string() + ": " + ec.message());

  double setup_s = 0;
  const std::vector<SessionSpec> specs = Setup(args, dir.string(), &setup_s);
  const int code =
      args.trace
          ? RunTraced(args, specs, threads,
                      (std::filesystem::path(args.out) /
                       ("spans-" + tag + ".jsonl"))
                          .string())
          : RunUntraced(args, specs, setup_s, threads);
  std::filesystem::remove_all(dir, ec);
  return code;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
