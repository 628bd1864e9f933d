// Ablations and size measurements for the compact-representation building
// blocks called out in DESIGN.md:
//
//   * EXA(k, X, Y, W): measured size vs (n, k) — the paper sketches an
//     O(n log n) sorting-network circuit; we use an O(n*k) sequential
//     counter.  Both are polynomial; this prints the actual constants.
//   * bounded formulas (5)-(9): size vs k = |V(P)| at fixed |T| — the
//     constant factor is exponential in k (why "bounded" matters).
//   * candidate path vs full enumeration for ReviseModels (the
//     Proposition 2.1 fast path).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "compact/bounded_revision.h"
#include "compact/circuits.h"
#include "hardness/random_instances.h"
#include "revision/candidates.h"
#include "revision/model_based.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/random.h"

namespace revise {
namespace {

void MeasureExaSizes(obs::Report* report) {
  bench::Headline("EXA(k, X, Y, W) sizes (variable occurrences)");
  report->AddTable("exa_sizes", {"n", "k", "size"});
  std::printf("%-6s", "n\\k");
  for (int k : {1, 2, 4, 8, 16}) std::printf(" %10d", k);
  std::printf("\n");
  for (int n : {8, 16, 32, 64}) {
    std::printf("%-6d", n);
    for (int k : {1, 2, 4, 8, 16}) {
      Vocabulary vocabulary;
      std::vector<Var> x;
      std::vector<Var> y;
      for (int i = 0; i < n; ++i) {
        x.push_back(vocabulary.Fresh("x"));
        y.push_back(vocabulary.Fresh("y"));
      }
      const Formula exa =
          ExaFormula(static_cast<size_t>(k), x, y, &vocabulary);
      std::printf(" %10llu",
                  static_cast<unsigned long long>(exa.VarOccurrences()));
      report->AddRow("exa_sizes", {n, k, exa.VarOccurrences()});
    }
    std::printf("\n");
  }
  std::printf("(O(n*k) as built; polynomial, as Theorem 3.4 requires)\n");
}

void MeasureBoundedConstantFactor(obs::Report* report) {
  bench::Headline(
      "bounded formulas (5)-(9): size vs k = |V(P)| at |T| fixed (n = 24 "
      "letters) — the 2^k constant factor");
  Vocabulary vocabulary;
  std::vector<Formula> letters;
  std::vector<Var> vars;
  for (int i = 0; i < 24; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
    letters.push_back(Formula::Variable(vars.back()));
  }
  const Formula t = ConjoinAll(letters);
  std::printf("%-4s %14s %14s %14s %14s %14s\n", "k", "Winslett(5)",
              "Forbus(6)", "Satoh(7)", "Dalal(8)", "Weber(9)");
  report->AddTable("bounded_constant_factor",
                   {"k", "winslett", "forbus", "satoh", "dalal", "weber"});
  std::vector<double> ks;
  std::vector<uint64_t> winslett_sizes;
  for (int k = 1; k <= 5; ++k) {
    std::vector<Formula> negated;
    for (int i = 0; i < k; ++i) {
      negated.push_back(Formula::Not(letters[i]));
    }
    const Formula p = DisjoinAll(negated);
    const uint64_t winslett = WinslettBounded(t, p).VarOccurrences();
    const uint64_t forbus = ForbusBounded(t, p).VarOccurrences();
    const uint64_t satoh = SatohBounded(t, p).VarOccurrences();
    const uint64_t dalal = DalalBounded(t, p).VarOccurrences();
    const uint64_t weber = WeberBounded(t, p).VarOccurrences();
    ks.push_back(k);
    winslett_sizes.push_back(winslett);
    std::printf("%-4d %14llu %14llu %14llu %14llu %14llu\n", k,
                static_cast<unsigned long long>(winslett),
                static_cast<unsigned long long>(forbus),
                static_cast<unsigned long long>(satoh),
                static_cast<unsigned long long>(dalal),
                static_cast<unsigned long long>(weber));
    report->AddRow("bounded_constant_factor",
                   {k, winslett, forbus, satoh, dalal, weber});
  }
  report->AddSeries(
      "winslett_bounded_size",
      std::vector<double>(winslett_sizes.begin(), winslett_sizes.end()),
      bench::GrowthVerdict(ks, winslett_sizes));
}

void MeasureCandidateAblation(obs::Report* report) {
  bench::Headline(
      "ablation: candidate path (Prop 2.1) vs full M(P) enumeration for "
      "Winslett, |V(P)| = 2, growing full alphabet");
  std::printf("%-4s %16s %16s\n", "n", "candidates (ms)",
              "enumeration (ms)");
  report->AddTable("candidate_ablation",
                   {"n", "candidates_ms", "enumeration_ms"});
  for (int n : {8, 12, 16, 20}) {
    Vocabulary vocabulary;
    std::vector<Var> vars;
    std::vector<Formula> letters;
    for (int i = 0; i < n; ++i) {
      vars.push_back(vocabulary.InternIndexed("x", i));
      letters.push_back(Formula::Variable(vars.back()));
    }
    const Alphabet alphabet(vars);
    const Formula t = ConjoinAll(letters);
    const Formula p = Formula::Or(Formula::Not(letters[0]),
                                  Formula::Not(letters[1]));
    const ModelSet mt = EnumerateModels(t, alphabet);
    auto time_ms = [](auto&& fn) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    const double candidate_ms = time_ms([&] {
      benchmark::DoNotOptimize(
          ReviseSetByFormula(OperatorId::kWinslett, mt, p));
    });
    double enumeration_ms = -1;
    if (n <= 16) {
      enumeration_ms = time_ms([&] {
        const ModelSet mp = EnumerateModels(p, alphabet);
        benchmark::DoNotOptimize(WinslettModels(mt, mp));
      });
    }
    if (enumeration_ms < 0) {
      std::printf("%-4d %16.3f %16s\n", n, candidate_ms, "(skipped)");
      report->AddRow("candidate_ablation", {n, candidate_ms, nullptr});
    } else {
      std::printf("%-4d %16.3f %16.3f\n", n, candidate_ms,
                  enumeration_ms);
      report->AddRow("candidate_ablation",
                     {n, candidate_ms, enumeration_ms});
    }
  }
  std::printf("(enumeration is exponential in n; candidates in |V(P)|)\n");
}

void BM_ExaConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Vocabulary vocabulary;
    std::vector<Var> x;
    std::vector<Var> y;
    for (int i = 0; i < n; ++i) {
      x.push_back(vocabulary.Fresh("x"));
      y.push_back(vocabulary.Fresh("y"));
    }
    benchmark::DoNotOptimize(
        ExaFormula(static_cast<size_t>(n / 2), x, y, &vocabulary));
  }
}
BENCHMARK(BM_ExaConstruction)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_CandidateRevision(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Vocabulary vocabulary;
  std::vector<Var> vars;
  std::vector<Formula> letters;
  for (int i = 0; i < n; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
    letters.push_back(Formula::Variable(vars.back()));
  }
  const Alphabet alphabet(vars);
  const ModelSet mt = EnumerateModels(ConjoinAll(letters), alphabet);
  const Formula p = Formula::Or(Formula::Not(letters[0]),
                                Formula::Not(letters[1]));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ReviseSetByFormula(OperatorId::kDalal, mt, p));
  }
}
BENCHMARK(BM_CandidateRevision)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter("bench_compact_constructions",
                                       "BENCH_compact_constructions.json",
                                       &argc, argv);
  revise::MeasureExaSizes(&reporter.report());
  revise::MeasureBoundedConstantFactor(&reporter.report());
  revise::MeasureCandidateAblation(&reporter.report());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
