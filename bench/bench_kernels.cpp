// Microbenchmarks for the revision kernels and the model-enumeration
// cache (no paper table — this is the performance regression harness).
//
//   * Kernel scaling: every model-based operator kernel timed on a
//     Nebel-style worlds instance (mt = one letter of each pair
//     {x_i, y_i}, mp = pair-equal models) at 1 thread (seq_packed_ms) and
//     at REVISE_THREADS (par_ms), with a bit-identity check across the
//     two.  Parallel scaling shows up in par_ms only when the manifest
//     records more than one hardware thread.
//   * Enumeration cache: cold vs warm EnumerateModels on the Nebel GFUV
//     formula.  The warm path is a structural-hash lookup; the cold one
//     reads a truth table (at most 14 letters here).
//   * Truth tables: the Proposition 2.1 candidate fold and the model-set
//     entailment check, both on truth tables over the formula's letters,
//     checked against the set-level operators and SAT entailment; and
//     model enumeration off a truth table against blocking-clause AllSAT.
//
// --json writes BENCH_kernels.json with all three tables.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "hardness/families.h"
#include "hardness/random_instances.h"
#include "kernel/kernels.h"
#include "model/canonical.h"
#include "model/model_set.h"
#include "obs/metrics.h"
#include "revision/candidates.h"
#include "revision/formula_based.h"
#include "revision/model_based.h"
#include "solve/model_cache.h"
#include "solve/services.h"
#include "util/parallel.h"

namespace revise {
namespace {

// Nebel-style worlds over 2m letters (x_0, y_0, ..., x_{m-1}, y_{m-1}),
// built directly as bit patterns so the kernel benches need no SAT calls:
//   mt: for every mask, x_i = bit i, y_i = !bit i  (one of each pair);
//   mp: for every mask, x_i = y_i = bit i          (pair-equal).
// Every mt/mp symmetric difference selects exactly one letter per pair,
// so delta(T,P) has 2^m incomparable elements — the worst case for the
// inclusion-minimal sweep.
struct KernelInput {
  Alphabet alphabet;
  ModelSet mt;
  ModelSet mp;
};

KernelInput MakeNebelWorlds(int m) {
  std::vector<Var> vars;
  for (int i = 0; i < 2 * m; ++i) vars.push_back(static_cast<Var>(i));
  const Alphabet alphabet(vars);
  std::vector<Interpretation> mt;
  std::vector<Interpretation> mp;
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    Interpretation one_of_each(alphabet.size());
    Interpretation pair_equal(alphabet.size());
    for (int i = 0; i < m; ++i) {
      const bool bit = (mask >> i) & 1;
      one_of_each.Set(2 * i, bit);
      one_of_each.Set(2 * i + 1, !bit);
      pair_equal.Set(2 * i, bit);
      pair_equal.Set(2 * i + 1, bit);
    }
    mt.push_back(one_of_each);
    mp.push_back(pair_equal);
  }
  return {alphabet, ModelSet(alphabet, std::move(mt)),
          ModelSet(alphabet, std::move(mp))};
}

// Minimum wall time of `reps` runs, in milliseconds.
template <typename Fn>
double TimeMs(int reps, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

// Times one kernel row at 1 thread and at the default thread count,
// checks both results are bit-identical and appends the row.  Restores
// the default thread count on exit.
template <typename Result, typename Run>
void MeasureKernelRow(obs::Report* report, const char* name, int m,
                      size_t pairs, const Run& run) {
  Result seq_result;
  Result par_result;
  SetParallelThreadsOverride(1);
  const double seq_packed_ms = TimeMs(3, [&] { seq_result = run(); });
  SetParallelThreadsOverride(0);  // default: REVISE_THREADS or hardware
  const double par_ms = TimeMs(3, [&] { par_result = run(); });
  const bool identical = seq_result == par_result;
  std::printf("%-22s %-4d %10zu %14.2f %10.2f %10s\n", name, m, pairs,
              seq_packed_ms, par_ms, identical ? "yes" : "NO");
  report->AddRow("kernel_scaling",
                 {name, m, pairs, seq_packed_ms, par_ms, identical});
}

void MeasureKernelScaling(obs::Report* report) {
  bench::Headline("Revision kernels: 1 thread vs REVISE_THREADS");
  const size_t parallel_threads = ParallelThreads();
  std::printf(
      "hardware threads: %u, parallel run uses %zu thread(s), "
      "simd path: %s\n",
      std::thread::hardware_concurrency(), parallel_threads,
      kernel::ActiveSimdPath());
  report->AddTable("kernel_scaling", {"kernel", "m", "pairs", "seq_packed_ms",
                                      "par_ms", "identical"});
  std::printf("%-22s %-4s %10s %14s %10s %10s\n", "kernel", "m", "pairs",
              "seq packed ms", "par ms", "identical");

  struct Kernel {
    const char* name;
    int m;
    ModelSet (*run)(const ModelSet&, const ModelSet&);
  };
  const Kernel kernels[] = {
      {"Winslett", 8, WinslettModels},   {"Forbus", 8, ForbusModels},
      {"Satoh", 9, SatohModels},         {"Dalal", 10, DalalModels},
      {"Weber", 9, WeberModels},
  };
  for (const Kernel& kernel : kernels) {
    const KernelInput input = MakeNebelWorlds(kernel.m);
    const size_t pairs = input.mt.size() * input.mp.size();
    MeasureKernelRow<ModelSet>(
        report, kernel.name, kernel.m, pairs,
        [&] { return kernel.run(input.mt, input.mp); });
  }

  // The two global sweeps underneath Satoh/Dalal/Weber, timed directly.
  const KernelInput input = MakeNebelWorlds(10);
  const size_t pairs = input.mt.size() * input.mp.size();
  MeasureKernelRow<std::vector<Interpretation>>(
      report, "GlobalMinimalDiffs", 10, pairs,
      [&] { return GlobalMinimalDiffsOfSets(input.mt, input.mp); });
  MeasureKernelRow<std::optional<size_t>>(
      report, "GlobalMinDistance", 10, pairs,
      [&] { return GlobalMinDistanceOfSets(input.mt, input.mp); });
}

void MeasureEnumerationCache(obs::Report* report) {
  bench::Headline("EnumerateModels: cold enumeration vs warm cache hit");
  report->AddTable("model_cache", {"m", "models", "cold_ms", "warm_ms",
                                   "speedup", "identical"});
  std::printf("%-4s %8s %12s %12s %10s %10s\n", "m", "models", "cold ms",
              "warm ms", "speedup", "identical");
  for (const int m : {5, 6, 7}) {
    Vocabulary vocabulary;
    const NebelExplosionFamily family(m, &vocabulary);
    const Formula naive = GfuvFormula(family.t, family.p);
    const Alphabet alphabet(
        UnionOfVars(std::vector<Formula>{family.t.AsFormula(), family.p}));
    ModelSet cold_models;
    ModelSet warm_models;
    const double cold_ms = TimeMs(3, [&] {
      ModelCache::Global().Clear();
      cold_models = EnumerateModels(naive, alphabet);
    });
    // The entry survives from the last cold run; every warm run hits.
    const double warm_ms =
        TimeMs(20, [&] { warm_models = EnumerateModels(naive, alphabet); });
    const bool identical = cold_models == warm_models;
    const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
    std::printf("%-4d %8zu %12.3f %12.4f %9.1fx %10s\n", m,
                cold_models.size(), cold_ms, warm_ms, speedup,
                identical ? "yes" : "NO");
    report->AddRow("model_cache", {m, cold_models.size(), cold_ms, warm_ms,
                                   speedup, identical});
  }
  const uint64_t hits =
      obs::Registry::Global().GetCounter("solve.model_cache.hits")->Value();
  const uint64_t misses =
      obs::Registry::Global()
          .GetCounter("solve.model_cache.misses")
          ->Value();
  std::printf("cache counters: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
}

void AddTruthTableRow(obs::Report* report, const std::string& path,
                      size_t models, size_t letters, size_t result,
                      double per_call_ms, bool identical) {
  std::printf("%-30s %8zu %8zu %8zu %12.5f %10s\n", path.c_str(), models,
              letters, result, per_call_ms, identical ? "yes" : "NO");
  report->AddRow("truth_table",
                 {path, models, letters, result, per_call_ms, identical});
}

// The model-set fold and entailment check of a delayed knowledge base,
// both run on truth tables over the formula's own letters (logic/
// evaluate.h TruthTable), at the delayed_ask pipeline workload's shape: a
// fixed set of 384 models over 14 letters, a 6-letter P, and 3-letter
// clause queries on the Dalal revision of the set.  `identical` checks
// each fold against the set-level ReviseModelSets on M(P) and the query
// batch against SAT entailment on the canonical DNF of the revised set.
void MeasureTruthTablePaths(obs::Report* report) {
  bench::Headline("Truth-table fold and entailment on a 384-model set");
  report->AddTable("truth_table", {"path", "models", "letters",
                                   "result", "per_call_ms",
                                   "identical"});
  std::printf("%-30s %8s %8s %8s %12s %10s\n", "path", "models",
              "letters", "result", "per call ms", "identical");
  constexpr int kLetters = 14;
  constexpr size_t kModels = 384;
  constexpr int kCalls = 200;
  Vocabulary vocabulary;
  std::vector<Var> vars;
  std::vector<Formula> x;
  for (int i = 0; i < kLetters; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
    x.push_back(Formula::Variable(vars.back()));
  }
  const Alphabet alphabet(vars);
  Rng rng(384);
  std::vector<uint64_t> indexes;
  while (indexes.size() < kModels) {
    const uint64_t index = rng.Below(uint64_t{1} << kLetters);
    if (std::find(indexes.begin(), indexes.end(), index) == indexes.end()) {
      indexes.push_back(index);
    }
  }
  std::vector<Interpretation> rows;
  for (const uint64_t index : indexes) {
    rows.push_back(Interpretation::FromIndex(kLetters, index));
  }
  const ModelSet mt(alphabet, std::move(rows));
  // A 6-letter P over x0..x5.
  const Formula p = Formula::And(
      {Formula::Or({x[0], Formula::Not(x[1]), x[2]}),
       Formula::Or(Formula::Not(x[3]), x[4]),
       Formula::Or({x[5], Formula::Not(x[0]), x[3]}),
       Formula::Or(Formula::Not(x[2]), Formula::Not(x[5]))});
  const ModelSet mp = EnumerateModels(p, alphabet);
  ModelSet dalal;
  for (const OperatorId id :
       {OperatorId::kDalal, OperatorId::kWinslett, OperatorId::kSatoh}) {
    const auto* op =
        dynamic_cast<const ModelBasedOperator*>(OperatorById(id));
    ModelSet folded;
    const double ms = TimeMs(5, [&] {
      for (int call = 0; call < kCalls; ++call) {
        folded = ReviseSetByFormula(id, mt, p);
      }
    });
    AddTruthTableRow(report, "ReviseSetByFormula/" + std::string(op->name()),
                     mt.size(), p.Vars().size(), folded.size(), ms / kCalls,
                     folded == op->ReviseModelSets(mt, mp));
    if (id == OperatorId::kDalal) dalal = folded;
  }
  // Queries on the revised set, as a delayed Ask sees it: random clauses
  // (mostly refuted by an early model) and P's clauses, the two-letter
  // ones widened to three letters (entailed, so every model is read).
  std::vector<Formula> queries;
  for (int i = 0; i < 60; ++i) {
    queries.push_back(RandomClauses(vars, 1, 3, &rng));
  }
  queries.push_back(Formula::Or({x[0], Formula::Not(x[1]), x[2]}));
  queries.push_back(Formula::Or({Formula::Not(x[3]), x[4], x[7]}));
  queries.push_back(Formula::Or({x[5], Formula::Not(x[0]), x[3]}));
  queries.push_back(
      Formula::Or({Formula::Not(x[2]), Formula::Not(x[5]), x[9]}));
  std::vector<bool> answers(queries.size());
  const double ms = TimeMs(5, [&] {
    for (int call = 0; call < kCalls; ++call) {
      for (size_t i = 0; i < queries.size(); ++i) {
        answers[i] = EntailedByModels(dalal, queries[i]);
      }
    }
  });
  const Formula dnf = CanonicalDnf(dalal);
  bool identical = true;
  size_t entailed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    identical = identical && answers[i] == Entails(dnf, queries[i]);
    entailed += answers[i] ? 1 : 0;
  }
  // Here `result` counts the entailed queries.
  AddTruthTableRow(report, "EntailedByModels/clause3", dalal.size(), 3,
                   entailed, ms / kCalls / static_cast<double>(queries.size()),
                   identical);
}

// Model enumeration by blocking-clause AllSAT (AllSatModels) against
// EnumerateModels, which reads a truth table at these widths, with the
// model cache disabled so every call enumerates.  Three inputs: a
// 14-letter random 3-CNF with 256-384 models, the shape of a delayed_ask
// M(T); a 16-letter 3-CNF projected onto 10 letters; and the explicit
// GFUV formula of Nebel's family at m = 8 (16 letters; 2^8 disjuncts of
// 8 literals each, over 2,000 DAG edges, against 256 models).  Here
// `models` is the formula's DAG size in nodes and `identical` compares
// the two results.
void MeasureEnumerationPaths(obs::Report* report) {
  bench::Headline("Enumeration: AllSAT vs truth table");
  std::printf("%-30s %8s %8s %8s %12s %10s\n", "path", "dag", "letters",
              "models", "per call ms", "identical");
  constexpr int kCalls = 20;
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 16; ++i) {
    vars.push_back(vocabulary.InternIndexed("e", i));
  }
  Rng rng(14);
  const std::vector<Var> vars14(vars.begin(), vars.begin() + 14);
  const Alphabet alphabet14(vars14);
  Formula cnf14;
  for (;;) {
    cnf14 = Random3Cnf(vars14, 29, &rng).AsFormula();
    const size_t count = AllSatModels(cnf14, alphabet14).size();
    if (count >= 256 && count <= 384) break;
  }
  const Formula cnf16 = Random3Cnf(vars, 40, &rng).AsFormula();
  const Alphabet alphabet10(
      std::vector<Var>(vars.begin(), vars.begin() + 10));
  const NebelExplosionFamily family(8, &vocabulary);
  const Formula gfuv = GfuvFormula(family.t, family.p);
  const Alphabet nebel_alphabet(
      UnionOfVars(std::vector<Formula>{family.t.AsFormula(), family.p}));
  const struct {
    const char* name;
    Formula f;
    Alphabet alphabet;
  } inputs[] = {{"3cnf14", cnf14, alphabet14},
                {"3cnf16_onto10", cnf16, alphabet10},
                {"nebel_gfuv8", gfuv, nebel_alphabet}};
  const size_t capacity = ModelCache::Global().capacity();
  ModelCache::Global().set_capacity(0);
  for (const auto& input : inputs) {
    const size_t letters =
        Alphabet::Union(input.alphabet, Alphabet(input.f.Vars())).size();
    ModelSet by_sat;
    ModelSet by_table;
    const double sat_ms = TimeMs(5, [&] {
      for (int call = 0; call < kCalls; ++call) {
        by_sat = AllSatModels(input.f, input.alphabet);
      }
    });
    const double table_ms = TimeMs(5, [&] {
      for (int call = 0; call < kCalls; ++call) {
        by_table = EnumerateModels(input.f, input.alphabet);
      }
    });
    const bool identical = by_sat == by_table;
    AddTruthTableRow(report, std::string("AllSatModels/") + input.name,
                     input.f.DagSize(), letters, by_sat.size(),
                     sat_ms / kCalls, identical);
    AddTruthTableRow(report, std::string("EnumerateModels/") + input.name,
                     input.f.DagSize(), letters, by_table.size(),
                     table_ms / kCalls, identical);
  }
  ModelCache::Global().set_capacity(capacity);
}

void BM_GlobalMinimalDiffs(benchmark::State& state) {
  const KernelInput input =
      MakeNebelWorlds(static_cast<int>(state.range(0)));
  SetParallelThreadsOverride(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GlobalMinimalDiffsOfSets(input.mt, input.mp));
  }
  SetParallelThreadsOverride(0);
}
BENCHMARK(BM_GlobalMinimalDiffs)
    ->ArgsProduct({{8, 10}, {1, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_DalalKernel(benchmark::State& state) {
  const KernelInput input =
      MakeNebelWorlds(static_cast<int>(state.range(0)));
  SetParallelThreadsOverride(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DalalModels(input.mt, input.mp));
  }
  SetParallelThreadsOverride(0);
}
BENCHMARK(BM_DalalKernel)
    ->ArgsProduct({{8, 10}, {1, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_EnumerateModelsCold(benchmark::State& state) {
  Vocabulary vocabulary;
  const NebelExplosionFamily family(6, &vocabulary);
  const Formula naive = GfuvFormula(family.t, family.p);
  const Alphabet alphabet(
      UnionOfVars(std::vector<Formula>{family.t.AsFormula(), family.p}));
  for (auto _ : state) {
    ModelCache::Global().Clear();
    benchmark::DoNotOptimize(EnumerateModels(naive, alphabet));
  }
}
BENCHMARK(BM_EnumerateModelsCold)->Unit(benchmark::kMillisecond);

void BM_EnumerateModelsWarm(benchmark::State& state) {
  Vocabulary vocabulary;
  const NebelExplosionFamily family(6, &vocabulary);
  const Formula naive = GfuvFormula(family.t, family.p);
  const Alphabet alphabet(
      UnionOfVars(std::vector<Formula>{family.t.AsFormula(), family.p}));
  ModelCache::Global().Clear();
  (void)EnumerateModels(naive, alphabet);  // fill
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateModels(naive, alphabet));
  }
}
BENCHMARK(BM_EnumerateModelsWarm)->Unit(benchmark::kMicrosecond);

void BM_MinimalUnderInclusion(benchmark::State& state) {
  const KernelInput input =
      MakeNebelWorlds(static_cast<int>(state.range(0)));
  std::vector<Interpretation> diffs;
  for (const Interpretation& m : input.mt) {
    for (const Interpretation& n : input.mp) {
      diffs.push_back(m.SymmetricDifference(n));
    }
  }
  for (auto _ : state) {
    std::vector<Interpretation> copy = diffs;
    benchmark::DoNotOptimize(MinimalUnderInclusion(std::move(copy)));
  }
}
BENCHMARK(BM_MinimalUnderInclusion)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter("bench_kernels", "BENCH_kernels.json",
                                       &argc, argv);
  // Which ISA path the packed kernels compiled to — timings from
  // different paths are comparable in correctness, not in speed.
  reporter.report().SetMeta(
      "simd_path",
      revise::obs::Json(std::string(revise::kernel::ActiveSimdPath())));
  revise::MeasureKernelScaling(&reporter.report());
  revise::MeasureEnumerationCache(&reporter.report());
  revise::MeasureTruthTablePaths(&reporter.report());
  revise::MeasureEnumerationPaths(&reporter.report());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
