// Table 1, "General case" columns: is a single revision T * P compactable
// when |P| is unbounded?
//
// YES entries (constructive):
//   * Dalal / query equivalence  (Theorem 3.4): measure |T'| for the
//     construction T[X/Y] ∧ P ∧ EXA(k,X,Y,W) against |T|+|P| while
//     verifying query equivalence on small instances.
//   * Weber / query equivalence  (Theorem 3.5): same for T[Omega/Z] ∧ P.
//   * WIDTIO (both criteria): |T'| <= |T| + |P| by construction.
//
// NO entries (reduction-based):
//   * Theorem 3.1 (GFUV, and via Thm 3.2 Winslett/Borgida/Satoh):
//     exhaustively decide every pi in 3-SAT_3 through the single advice
//     T_3 *_GFUV P_3 and count agreement with the SAT solver.
//   * Theorem 3.3 (Forbus): the same via model checking M_pi.
//   * Theorem 3.6 (Dalal/Weber, LOGICAL equivalence): the same via C_pi.
//
// The printed verdict table mirrors the paper's Table 1.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "compact/single_revision.h"
#include "hardness/families.h"
#include "hardness/random_instances.h"
#include "revision/formula_based.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/parallel.h"
#include "util/random.h"

namespace revise {
namespace {

// Measures the Theorem 3.4 / 3.5 construction sizes on growing random
// instances (T a random 3-CNF over n letters, P a random 3-CNF over the
// same letters — |P| unbounded, it grows with n).
void MeasureCompactSizes(obs::Report* report) {
  bench::Headline(
      "Table 1 general/query YES entries: construction sizes (Thm 3.4/3.5)");
  report->AddTable("compact_sizes",
                   {"n", "t_size", "p_size", "dalal_size", "weber_size"});
  std::printf("%-6s %10s %10s %14s %14s\n", "n", "|T|", "|P|",
              "|Dalal T'|", "|Weber T'|");
  // Each n is an independent instance (own vocabulary, seed 100 + n), so
  // the sweep runs on the process thread pool (REVISE_THREADS) and the
  // rows are emitted sequentially in n-order afterwards.
  struct SizeRow {
    int n;
    uint64_t t_size;
    uint64_t p_size;
    uint64_t dalal_size;
    uint64_t weber_size;
  };
  const std::vector<int> ns = {6, 9, 12, 15, 18, 24, 30};
  const std::vector<std::vector<SizeRow>> row_shards =
      ParallelMapRanges<std::vector<SizeRow>>(
          ns.size(), 1, [&](size_t begin, size_t end) {
            std::vector<SizeRow> shard;
            for (size_t i = begin; i < end; ++i) {
              const int n = ns[i];
              Vocabulary vocabulary;
              std::vector<Var> vars;
              for (int j = 0; j < n; ++j) {
                vars.push_back(vocabulary.InternIndexed("x", j));
              }
              Rng rng(100 + n);
              Formula t;
              Formula p;
              do {
                t = RandomClauses(vars, static_cast<size_t>(n * 1.5), 3,
                                  &rng);
              } while (!IsSatisfiable(t));
              do {
                p = RandomClauses(vars, static_cast<size_t>(n * 1.5), 3,
                                  &rng);
              } while (!IsSatisfiable(p));
              const Formula dalal = DalalCompact(t, p, &vocabulary);
              const Formula weber = WeberCompact(t, p, &vocabulary);
              shard.push_back({n, t.VarOccurrences(), p.VarOccurrences(),
                               dalal.VarOccurrences(),
                               weber.VarOccurrences()});
            }
            return shard;
          });
  std::vector<uint64_t> dalal_sizes;
  std::vector<uint64_t> weber_sizes;
  for (const std::vector<SizeRow>& shard : row_shards) {
    for (const SizeRow& row : shard) {
      dalal_sizes.push_back(row.dalal_size);
      weber_sizes.push_back(row.weber_size);
      std::printf("%-6d %10llu %10llu %14llu %14llu\n", row.n,
                  static_cast<unsigned long long>(row.t_size),
                  static_cast<unsigned long long>(row.p_size),
                  static_cast<unsigned long long>(row.dalal_size),
                  static_cast<unsigned long long>(row.weber_size));
      report->AddRow("compact_sizes", {row.n, row.t_size, row.p_size,
                                       row.dalal_size, row.weber_size});
    }
  }
  const std::vector<double> params(ns.begin(), ns.end());
  const std::string dalal_verdict = bench::GrowthVerdict(params, dalal_sizes);
  const std::string weber_verdict = bench::GrowthVerdict(params, weber_sizes);
  std::printf("growth: Dalal %s, Weber %s (paper: both polynomial)\n",
              dalal_verdict.c_str(), weber_verdict.c_str());
  report->AddSeries("dalal_compact_size",
                    std::vector<double>(dalal_sizes.begin(), dalal_sizes.end()),
                    dalal_verdict);
  report->AddSeries("weber_compact_size",
                    std::vector<double>(weber_sizes.begin(), weber_sizes.end()),
                    weber_verdict);

  // A structured family where k_{T,P} = n/2 grows with n, exercising the
  // EXA circuit's O(n*k) term: T = x1 & ... & xn, P = !x1 & ... & !x_{n/2}.
  std::printf("\nstructured family with k = n/2 (EXA dominates):\n");
  std::printf("%-6s %6s %14s %14s\n", "n", "k", "|Dalal T'|",
              "|Weber T'|");
  report->AddTable("structured_k_half",
                   {"n", "k", "dalal_size", "weber_size"});
  for (int n : {8, 12, 16, 24, 32}) {
    Vocabulary vocabulary;
    std::vector<Formula> pos;
    std::vector<Formula> neg;
    for (int i = 0; i < n; ++i) {
      const Formula v =
          Formula::Variable(vocabulary.InternIndexed("x", i));
      pos.push_back(v);
      if (i < n / 2) neg.push_back(Formula::Not(v));
    }
    const Formula t = ConjoinAll(pos);
    const Formula p = ConjoinAll(neg);
    const Formula dalal = DalalCompact(t, p, &vocabulary);
    const Formula weber = WeberCompact(t, p, &vocabulary);
    std::printf("%-6d %6d %14llu %14llu\n", n, n / 2,
                static_cast<unsigned long long>(dalal.VarOccurrences()),
                static_cast<unsigned long long>(weber.VarOccurrences()));
    report->AddRow("structured_k_half",
                   {n, n / 2, dalal.VarOccurrences(), weber.VarOccurrences()});
  }
}

// Exhaustively runs the Theorem 3.1 reduction over ALL 2^8 instances of
// 3-SAT_3 and reports agreement with direct SAT solving.
void ValidateTheorem31(obs::Report* report) {
  bench::Headline(
      "Table 1 general NO entries: Theorem 3.1 reduction (GFUV), exhaustive "
      "over 3-SAT_3");
  Vocabulary vocabulary;
  const Theorem31Family family(3, &vocabulary);
  const Formula advice = GfuvFormula(family.t, family.p);
  std::printf("advice = T_3 *_GFUV P_3, naive size %llu\n",
              static_cast<unsigned long long>(advice.VarOccurrences()));
  int agree = 0;
  int total = 0;
  for (uint64_t mask = 0; mask < 256; ++mask) {
    std::vector<size_t> pi;
    for (size_t j = 0; j < 8; ++j) {
      if ((mask >> j) & 1) pi.push_back(j);
    }
    const bool satisfiable =
        IsSatisfiable(family.tau.InstanceFormula(pi));
    const bool entailed = Entails(advice, family.Query(pi));
    ++total;
    if (satisfiable == entailed) ++agree;
  }
  std::printf("instances decided correctly through the revision: %d/%d\n",
              agree, total);
  report->AddRow("reductions", {"thm3.1_gfuv", agree, total});
}

void ValidateTheorem33(obs::Report* report) {
  bench::Headline(
      "Theorem 3.3 reduction (Forbus, model checking), exhaustive over "
      "3-SAT_3");
  Vocabulary vocabulary;
  const Theorem33Family family(3, &vocabulary);
  const Alphabet alphabet = family.FullAlphabet();
  const ModelSet revised = OperatorById(OperatorId::kForbus)
                               ->ReviseModels(family.t, family.p, alphabet);
  int agree = 0;
  int total = 0;
  for (uint64_t mask = 0; mask < 256; ++mask) {
    std::vector<size_t> pi;
    for (size_t j = 0; j < 8; ++j) {
      if ((mask >> j) & 1) pi.push_back(j);
    }
    const bool satisfiable =
        IsSatisfiable(family.tau.InstanceFormula(pi));
    const bool is_model = revised.Contains(family.MPi(pi, alphabet));
    ++total;
    if (satisfiable == !is_model) ++agree;
  }
  std::printf("instances decided correctly: %d/%d\n", agree, total);
  report->AddRow("reductions", {"thm3.3_forbus", agree, total});
}

void ValidateTheorem36(obs::Report* report) {
  bench::Headline(
      "Theorem 3.6 reduction (Dalal & Weber, LOGICAL equivalence), "
      "exhaustive over 3-SAT_3");
  Vocabulary vocabulary;
  const Theorem36Family family(3, &vocabulary);
  const Alphabet alphabet = family.FullAlphabet();
  const ModelSet dalal = OperatorById(OperatorId::kDalal)
                             ->ReviseModels(family.t, family.p, alphabet);
  const ModelSet weber = OperatorById(OperatorId::kWeber)
                             ->ReviseModels(family.t, family.p, alphabet);
  int agree_d = 0;
  int agree_w = 0;
  int total = 0;
  for (uint64_t mask = 0; mask < 256; ++mask) {
    std::vector<size_t> pi;
    for (size_t j = 0; j < 8; ++j) {
      if ((mask >> j) & 1) pi.push_back(j);
    }
    const bool satisfiable =
        IsSatisfiable(family.tau.InstanceFormula(pi));
    const Interpretation c_pi = family.CPi(pi, alphabet);
    ++total;
    if (satisfiable == dalal.Contains(c_pi)) ++agree_d;
    if (satisfiable == weber.Contains(c_pi)) ++agree_w;
  }
  std::printf("Dalal: %d/%d correct;  Weber: %d/%d correct\n", agree_d,
              total, agree_w, total);
  report->AddRow("reductions", {"thm3.6_dalal", agree_d, total});
  report->AddRow("reductions", {"thm3.6_weber", agree_w, total});
}

void PrintVerdictTable(obs::Report* report) {
  bench::Headline("Reproduced Table 1 (general case)");
  std::printf("%-12s %-22s %-22s\n", "formalism", "logical equiv. (2)",
              "query equiv. (1)");
  const struct Row {
    const char* name;
    const char* logical;
    const char* query;
  } rows[] = {
      {"GFUV,Nebel", "NO  (Thm 3.7 reduc.)", "NO  (Thm 3.1 reduc.)"},
      {"Winslett", "NO  (Thm 3.7 reduc.)", "NO  (Thm 3.2 reduc.)"},
      {"Borgida", "NO  (Thm 3.7 reduc.)", "NO  (Thm 3.2 reduc.)"},
      {"Forbus", "NO  (Thm 3.7 reduc.)", "NO  (Thm 3.3 reduc.)"},
      {"Satoh", "NO  (Thm 3.7 reduc.)", "NO  (Thm 3.2 reduc.)"},
      {"Dalal", "NO  (Thm 3.6 reduc.)", "YES (Thm 3.4 measured)"},
      {"Weber", "NO  (Thm 3.6 reduc.)", "YES (Thm 3.5 measured)"},
      {"WIDTIO", "YES (by construction)", "YES (by construction)"},
  };
  report->AddTable("table1_general",
                   {"formalism", "logical_equivalence", "query_equivalence"});
  for (const Row& row : rows) {
    std::printf("%-12s %-22s %-22s\n", row.name, row.logical, row.query);
    report->AddRow("table1_general", {row.name, row.logical, row.query});
  }
}

void BM_DalalCompact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
  }
  Rng rng(5);
  Formula t = RandomClauses(vars, static_cast<size_t>(n * 1.5), 3, &rng);
  Formula p = RandomClauses(vars, static_cast<size_t>(n * 1.5), 3, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DalalCompact(t, p, &vocabulary));
  }
}
BENCHMARK(BM_DalalCompact)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_WeberCompact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
  }
  Rng rng(6);
  Formula t = RandomClauses(vars, static_cast<size_t>(n * 1.5), 3, &rng);
  Formula p = RandomClauses(vars, static_cast<size_t>(n * 1.5), 3, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeberCompact(t, p, &vocabulary));
  }
}
BENCHMARK(BM_WeberCompact)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_GfuvNaive(benchmark::State& state) {
  // The naive explicit representation on the Theorem 3.1 gadget.
  Vocabulary vocabulary;
  const Theorem31Family family(3, &vocabulary);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GfuvFormula(family.t, family.p));
  }
}
BENCHMARK(BM_GfuvNaive)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter(
      "bench_table1_general", "BENCH_table1_general.json", &argc, argv);
  reporter.report().AddTable("reductions", {"reduction", "agree", "total"});
  revise::MeasureCompactSizes(&reporter.report());
  revise::ValidateTheorem31(&reporter.report());
  revise::ValidateTheorem33(&reporter.report());
  revise::ValidateTheorem36(&reporter.report());
  revise::PrintVerdictTable(&reporter.report());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
