// Table 2, "Iterated, general case": compactability of T * P^1 * ... * P^m
// with unbounded update sizes.
//
// YES entries (query equivalence): Dalal's Phi_m (Theorem 5.1) and Weber's
// formula (10) (Corollary 5.2) — we measure the per-step size over chains
// of m revisions and validate query equivalence against reference
// semantics on small alphabets.  NO entries carry over from Table 1; the
// logical-equivalence column is Theorem 3.6's reduction again.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "compact/iterated_revision.h"
#include "hardness/random_instances.h"
#include "revision/iterated.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/random.h"

namespace revise {
namespace {

// A chain of m unbounded-size random 3-CNF updates over n letters.
std::vector<Formula> MakeChain(const std::vector<Var>& vars, int m,
                               Rng* rng) {
  std::vector<Formula> updates;
  for (int i = 0; i < m; ++i) {
    Formula p;
    do {
      p = RandomClauses(vars, vars.size(), 3, rng);
    } while (!IsSatisfiable(p));
    updates.push_back(p);
  }
  return updates;
}

void MeasureIteratedSizes(obs::Report* report) {
  bench::Headline(
      "Table 2 general YES entries: per-step sizes of Dalal's Phi_m "
      "(Thm 5.1) and Weber's formula (10) (Cor 5.2), n = 12 letters");
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 12; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
  }
  Rng rng(21);
  Formula t;
  do {
    t = RandomClauses(vars, 18, 3, &rng);
  } while (!IsSatisfiable(t));
  const std::vector<Formula> updates = MakeChain(vars, 6, &rng);
  const auto phis = DalalCompactIterated(t, updates, vars, &vocabulary);
  const auto psis = WeberCompactIterated(t, updates, vars, &vocabulary);
  std::printf("%-6s %10s %14s %14s\n", "m", "|T|+sum|P|", "|Phi_m| Dalal",
              "|(10)| Weber");
  report->AddTable("iterated_sizes",
                   {"m", "input_size", "dalal_size", "weber_size"});
  // Growth is judged against the input size |T| + |P^1| + ... + |P^m|,
  // the measure the paper's polynomial bound is stated in.
  std::vector<double> input_sizes;
  uint64_t input = t.VarOccurrences();
  for (size_t m = 0; m < updates.size(); ++m) {
    input += updates[m].VarOccurrences();
    input_sizes.push_back(static_cast<double>(input));
    std::printf("%-6zu %10llu %14llu %14llu\n", m + 1,
                static_cast<unsigned long long>(input),
                static_cast<unsigned long long>(phis[m].VarOccurrences()),
                static_cast<unsigned long long>(psis[m].VarOccurrences()));
    report->AddRow("iterated_sizes",
                   {m + 1, input, phis[m].VarOccurrences(),
                    psis[m].VarOccurrences()});
  }
  std::vector<uint64_t> dalal_sizes;
  std::vector<uint64_t> weber_sizes;
  for (const Formula& f : phis) dalal_sizes.push_back(f.VarOccurrences());
  for (const Formula& f : psis) weber_sizes.push_back(f.VarOccurrences());
  const std::string dalal_verdict =
      bench::GrowthVerdict(input_sizes, dalal_sizes);
  const std::string weber_verdict =
      bench::GrowthVerdict(input_sizes, weber_sizes);
  std::printf(
      "growth in |T|+sum|P|: Dalal %s, Weber %s (paper: both polynomial)\n",
              dalal_verdict.c_str(), weber_verdict.c_str());
  report->AddSeries("dalal_iterated_size",
                    std::vector<double>(dalal_sizes.begin(), dalal_sizes.end()),
                    dalal_verdict);
  report->AddSeries("weber_iterated_size",
                    std::vector<double>(weber_sizes.begin(), weber_sizes.end()),
                    weber_verdict);
}

void ValidateQueryEquivalence(obs::Report* report) {
  bench::Headline(
      "query-equivalence validation of Phi_m / formula (10) against "
      "reference iterated semantics (n = 5, m = 3, random chains)");
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 5; ++i) {
    vars.push_back(vocabulary.InternIndexed("q", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(22);
  int checks = 0;
  int failures = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Formula t;
    do {
      t = RandomFormula(vars, 4, &rng);
    } while (!IsSatisfiable(t));
    std::vector<Formula> updates;
    for (int i = 0; i < 3; ++i) {
      Formula p;
      do {
        p = RandomFormula(vars, 4, &rng);
      } while (!IsSatisfiable(p));
      updates.push_back(p);
    }
    const auto phis = DalalCompactIterated(t, updates, vars, &vocabulary);
    const auto psis = WeberCompactIterated(t, updates, vars, &vocabulary);
    const ModelSet dalal_reference = IteratedReviseModels(
        *OperatorById(OperatorId::kDalal), Theory({t}), updates, alphabet);
    const ModelSet weber_reference = IteratedReviseModels(
        *OperatorById(OperatorId::kWeber), Theory({t}), updates, alphabet);
    checks += 2;
    if (!(EnumerateModels(phis.back(), alphabet) == dalal_reference)) {
      ++failures;
    }
    if (!(EnumerateModels(psis.back(), alphabet) == weber_reference)) {
      ++failures;
    }
  }
  std::printf("checks: %d, failures: %d\n", checks, failures);
  report->AddTable("equivalence_validation", {"checks", "failures"});
  report->AddRow("equivalence_validation", {checks, failures});
}

void PrintVerdictTable(obs::Report* report) {
  bench::Headline("Reproduced Table 2 (iterated, general case)");
  std::printf("%-12s %-26s %-26s\n", "formalism", "logical equiv. (2)",
              "query equiv. (1)");
  const struct Row {
    const char* name;
    const char* logical;
    const char* query;
  } rows[] = {
      {"GFUV,Nebel", "NO  (Thm 3.7)", "NO  (Thm 3.1)"},
      {"Winslett", "NO  (Thm 3.7)", "NO  (Thm 3.2)"},
      {"Borgida", "NO  (Thm 3.7)", "NO  (Thm 3.2)"},
      {"Forbus", "NO  (Thm 3.7)", "NO  (Thm 3.3)"},
      {"Satoh", "NO  (Thm 3.7)", "NO  (Thm 3.2)"},
      {"Dalal", "NO  (Thm 3.6)", "YES (Thm 5.1 measured)"},
      {"Weber", "NO  (Thm 3.6)", "YES (Cor 5.2 measured)"},
      {"WIDTIO", "YES (by construction)", "YES (by construction)"},
  };
  report->AddTable("table2_general",
                   {"formalism", "logical_equivalence", "query_equivalence"});
  for (const Row& row : rows) {
    std::printf("%-12s %-26s %-26s\n", row.name, row.logical, row.query);
    report->AddRow("table2_general", {row.name, row.logical, row.query});
  }
}

void BM_DalalIteratedChain(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 10; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
  }
  Rng rng(23);
  Formula t;
  do {
    t = RandomClauses(vars, 15, 3, &rng);
  } while (!IsSatisfiable(t));
  const std::vector<Formula> updates = MakeChain(vars, m, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DalalCompactIterated(t, updates, vars, &vocabulary));
  }
}
BENCHMARK(BM_DalalIteratedChain)->Arg(2)->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_WeberIteratedChain(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 10; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
  }
  Rng rng(24);
  Formula t;
  do {
    t = RandomClauses(vars, 15, 3, &rng);
  } while (!IsSatisfiable(t));
  const std::vector<Formula> updates = MakeChain(vars, m, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WeberCompactIterated(t, updates, vars, &vocabulary));
  }
}
BENCHMARK(BM_WeberIteratedChain)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter(
      "bench_table2_general", "BENCH_table2_general.json", &argc, argv);
  revise::MeasureIteratedSizes(&reporter.report());
  revise::ValidateQueryEquivalence(&reporter.report());
  revise::PrintVerdictTable(&reporter.report());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
