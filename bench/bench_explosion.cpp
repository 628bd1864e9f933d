// Section 3.1's explicit-representation explosions:
//
//   * Nebel's family T1/P1: |W(T1,P1)| = 2^m possible worlds, so the naive
//     GFUV representation explodes — yet the revision is logically
//     equivalent to P1 itself (exact two-level minimization confirms it),
//     illustrating why the paper needs the advice argument rather than a
//     single family.
//   * Winslett's chain family T2/P2: the same explosion with |P2| = 1.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "hardness/families.h"
#include "minimize/quine_mccluskey.h"
#include "revision/formula_based.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/parallel.h"

namespace revise {
namespace {

// One reproduced row of the Nebel-family table, computed independently of
// the others so the per-m sweep can run on the process thread pool.
struct NebelRow {
  int m = 0;
  uint64_t input_size = 0;
  size_t worlds = 0;
  uint64_t naive_size = 0;
  std::string minimal = "-";  // QM-minimal size; "-" where not computed
};

NebelRow ComputeNebelRow(int m) {
  NebelRow row;
  row.m = m;
  Vocabulary vocabulary;
  const NebelExplosionFamily family(m, &vocabulary);
  const auto worlds = MaximalConsistentSubsets(family.t, family.p);
  const Formula naive = GfuvFormula(family.t, family.p);
  row.input_size = family.t.VarOccurrences() + family.p.VarOccurrences();
  row.worlds = worlds.size();
  row.naive_size = naive.VarOccurrences();
  if (2 * m <= 12) {
    const Alphabet alphabet(
        UnionOfVars(std::vector<Formula>{family.t.AsFormula(), family.p}));
    const ModelSet models = EnumerateModels(naive, alphabet);
    row.minimal = std::to_string(MinimalTwoLevelSize(models));
  }
  return row;
}

void MeasureNebel(obs::Report* report) {
  bench::Headline("Nebel's family: T = {x_i, y_i}, P = AND(x_i ^ y_i)");
  report->AddTable("nebel_family",
                   {"m", "input_size", "worlds", "naive_gfuv_size",
                    "qm_minimal_size"});
  std::printf("%-4s %10s %12s %16s %16s\n", "m", "|T|+|P|", "|W(T,P)|",
              "naive GFUV size", "QM-minimal size");
  // Rows are independent, so compute them on the pool (REVISE_THREADS)
  // and emit sequentially in m-order afterwards.
  constexpr int kMaxM = 10;
  const std::vector<std::vector<NebelRow>> row_shards =
      ParallelMapRanges<std::vector<NebelRow>>(
          kMaxM, 1, [](size_t begin, size_t end) {
            std::vector<NebelRow> shard;
            for (size_t i = begin; i < end; ++i) {
              shard.push_back(ComputeNebelRow(static_cast<int>(i) + 1));
            }
            return shard;
          });
  std::vector<double> ms;
  std::vector<uint64_t> naive_sizes;
  for (const std::vector<NebelRow>& shard : row_shards) {
    for (const NebelRow& row : shard) {
      ms.push_back(row.m);
      naive_sizes.push_back(row.naive_size);
      std::printf("%-4d %10llu %12zu %16llu %16s\n", row.m,
                  static_cast<unsigned long long>(row.input_size), row.worlds,
                  static_cast<unsigned long long>(row.naive_size),
                  row.minimal.c_str());
      report->AddRow("nebel_family", {row.m, row.input_size, row.worlds,
                                      row.naive_size, row.minimal});
    }
  }
  const std::string verdict = bench::GrowthVerdict(ms, naive_sizes);
  std::printf("naive growth: %s (paper: 2^m worlds).  The QM-minimal size\n"
              "stays small because T *_GFUV P1 == P1 for THIS family —\n"
              "worst-case non-compactability needs the Thm 3.1 advice "
              "argument.\n",
              verdict.c_str());
  report->AddSeries("nebel_naive_gfuv_size",
                    std::vector<double>(naive_sizes.begin(), naive_sizes.end()),
                    verdict);
}

void MeasureWinslettChain(obs::Report* report) {
  bench::Headline(
      "Winslett's chain family: constant |P| = 1, worlds still explode");
  report->AddTable("winslett_chain",
                   {"m", "t_size", "p_size", "worlds", "naive_gfuv_size"});
  std::printf("%-4s %10s %6s %12s %16s\n", "m", "|T|", "|P|", "|W(T,P)|",
              "naive GFUV size");
  struct ChainRow {
    int m;
    uint64_t t_size;
    uint64_t p_size;
    size_t worlds;
    uint64_t naive_size;
  };
  constexpr int kMaxM = 8;
  const std::vector<std::vector<ChainRow>> row_shards =
      ParallelMapRanges<std::vector<ChainRow>>(
          kMaxM, 1, [](size_t begin, size_t end) {
            std::vector<ChainRow> shard;
            for (size_t i = begin; i < end; ++i) {
              const int m = static_cast<int>(i) + 1;
              Vocabulary vocabulary;
              const WinslettChainFamily family(m, &vocabulary);
              const auto worlds =
                  MaximalConsistentSubsets(family.t, family.p);
              const Formula naive = GfuvFormula(family.t, family.p);
              shard.push_back({m, family.t.VarOccurrences(),
                               family.p.VarOccurrences(), worlds.size(),
                               naive.VarOccurrences()});
            }
            return shard;
          });
  std::vector<double> ms;
  std::vector<uint64_t> world_counts;
  for (const std::vector<ChainRow>& shard : row_shards) {
    for (const ChainRow& row : shard) {
      ms.push_back(row.m);
      world_counts.push_back(row.worlds);
      std::printf("%-4d %10llu %6llu %12zu %16llu\n", row.m,
                  static_cast<unsigned long long>(row.t_size),
                  static_cast<unsigned long long>(row.p_size), row.worlds,
                  static_cast<unsigned long long>(row.naive_size));
      report->AddRow("winslett_chain", {row.m, row.t_size, row.p_size,
                                        row.worlds, row.naive_size});
    }
  }
  const std::string verdict = bench::GrowthVerdict(ms, world_counts);
  std::printf("world-count growth: %s\n", verdict.c_str());
  report->AddSeries(
      "winslett_world_counts",
      std::vector<double>(world_counts.begin(), world_counts.end()), verdict);
}

void BM_MaximalConsistentSubsetsNebel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Vocabulary vocabulary;
  const NebelExplosionFamily family(m, &vocabulary);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MaximalConsistentSubsets(family.t, family.p));
  }
}
BENCHMARK(BM_MaximalConsistentSubsetsNebel)->Arg(4)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_WidtioOnNebel(benchmark::State& state) {
  // WIDTIO stays cheap and compact on the same family.
  const int m = static_cast<int>(state.range(0));
  Vocabulary vocabulary;
  const NebelExplosionFamily family(m, &vocabulary);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WidtioTheory(family.t, family.p));
  }
}
BENCHMARK(BM_WidtioOnNebel)->Arg(4)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter("bench_explosion",
                                       "BENCH_explosion.json", &argc, argv);
  revise::MeasureNebel(&reporter.report());
  revise::MeasureWinslettChain(&reporter.report());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
