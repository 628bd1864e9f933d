// Table 1, "Bounded case" columns: |P| <= k (constant).
//
// YES entries: the Section 4 formulas (5)-(9) are LOGICALLY equivalent to
// the revision and their size is linear in |T| for each fixed k.  We
// sweep |T| at fixed k and print the measured sizes (all five operators +
// Borgida), verifying logical equivalence against reference semantics on
// the smaller sizes.
//
// NO entry: GFUV stays uncompactable even with |P| = 1 (Theorem 4.1); we
// validate the reduction exhaustively over 3-SAT_3.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "compact/bounded_revision.h"
#include "hardness/families.h"
#include "hardness/random_instances.h"
#include "logic/evaluate.h"
#include "revision/formula_based.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/random.h"

namespace revise {
namespace {

struct BoundedCase {
  const char* name;
  Formula (*build)(const Formula&, const Formula&);
  OperatorId op;
};

const BoundedCase kCases[] = {
    {"Winslett(5)", &WinslettBounded, OperatorId::kWinslett},
    {"Forbus(6)", &ForbusBounded, OperatorId::kForbus},
    {"Satoh(7)", &SatohBounded, OperatorId::kSatoh},
    {"Dalal(8)", &DalalBounded, OperatorId::kDalal},
    {"Weber(9)", &WeberBounded, OperatorId::kWeber},
    {"Borgida", &BorgidaBounded, OperatorId::kBorgida},
};

// T = conjunction of all letters (n of them), P over the first k letters
// forcing a contradiction — the paper's running Section 4 shape.
void BuildInstance(int n, int k, Vocabulary* vocabulary, Formula* t,
                   Formula* p) {
  std::vector<Formula> letters;
  std::vector<Formula> negated;
  for (int i = 0; i < n; ++i) {
    const Formula v =
        Formula::Variable(vocabulary->InternIndexed("x", i));
    letters.push_back(v);
    if (i < k) negated.push_back(Formula::Not(v));
  }
  *t = ConjoinAll(letters);
  *p = DisjoinAll(negated);  // !x0 | ... | !x_{k-1}
}

void MeasureBoundedSizes(obs::Report* report) {
  bench::Headline(
      "Table 1 bounded YES entries: sizes of formulas (5)-(9), k = |V(P)|");
  report->AddTable("bounded_sizes",
                   {"k", "n", "input_size", "operator", "size"});
  constexpr int kNs[] = {8, 16, 32, 64};
  std::vector<std::vector<double>> series(std::size(kCases));
  for (int k : {1, 2, 3}) {
    std::printf("\nk = %d\n%-6s %8s", k, "n", "|T|+|P|");
    for (const BoundedCase& c : kCases) std::printf(" %12s", c.name);
    std::printf("\n");
    for (const int n : kNs) {
      Vocabulary vocabulary;
      Formula t;
      Formula p;
      BuildInstance(n, k, &vocabulary, &t, &p);
      std::printf("%-6d %8llu", n,
                  static_cast<unsigned long long>(t.VarOccurrences() +
                                                  p.VarOccurrences()));
      for (size_t which = 0; which < std::size(kCases); ++which) {
        const BoundedCase& c = kCases[which];
        const Formula compact = c.build(t, p);
        std::printf(" %12llu", static_cast<unsigned long long>(
                                   compact.VarOccurrences()));
        report->AddRow("bounded_sizes",
                       {k, n, t.VarOccurrences() + p.VarOccurrences(), c.name,
                        compact.VarOccurrences()});
        if (k == 2) {
          series[which].push_back(
              static_cast<double>(compact.VarOccurrences()));
        }
      }
      std::printf("\n");
    }
  }
  std::printf("\n(sizes are linear in n for each fixed k; the constant "
              "factor is exponential in k, which is Section 4's point)\n");
  const std::vector<double> ns(std::begin(kNs), std::end(kNs));
  for (size_t which = 0; which < std::size(kCases); ++which) {
    std::vector<uint64_t> sizes(series[which].begin(), series[which].end());
    report->AddSeries(std::string("bounded_k2_") + kCases[which].name,
                      series[which], bench::GrowthVerdict(ns, sizes));
  }
}

void ValidateEquivalence(obs::Report* report) {
  bench::Headline(
      "logical-equivalence validation of (5)-(9) against reference "
      "semantics (random instances, n = 6, k = 2)");
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(vocabulary.InternIndexed("v", i));
  }
  const Alphabet alphabet(vars);
  const std::vector<Var> p_vars(vars.begin(), vars.begin() + 2);
  Rng rng(11);
  int checks = 0;
  int failures = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Formula t = RandomFormula(vars, 4, &rng);
    Formula p = RandomFormula(p_vars, 3, &rng);
    if (!IsSatisfiable(t) || !IsSatisfiable(p)) continue;
    for (const BoundedCase& c : kCases) {
      const Formula compact = c.build(t, p);
      const ModelSet reference =
          OperatorById(c.op)->ReviseModels(Theory({t}), p, alphabet);
      const ModelSet actual = EnumerateModels(compact, alphabet);
      ++checks;
      if (!(reference == actual)) ++failures;
    }
  }
  std::printf("equivalence checks: %d, failures: %d\n", checks, failures);
  report->AddTable("equivalence_validation", {"checks", "failures"});
  report->AddRow("equivalence_validation", {checks, failures});
}

void ValidateTheorem41(obs::Report* report) {
  bench::Headline(
      "Table 1 bounded NO entry: Theorem 4.1 (GFUV with |P| = 1), "
      "exhaustive over 3-SAT_3");
  Vocabulary vocabulary;
  const Theorem41Family family(3, &vocabulary);
  const Formula advice = GfuvFormula(family.t_prime, family.p_prime);
  int agree = 0;
  int total = 0;
  for (uint64_t mask = 0; mask < 256; ++mask) {
    std::vector<size_t> pi;
    for (size_t j = 0; j < 8; ++j) {
      if ((mask >> j) & 1) pi.push_back(j);
    }
    const bool satisfiable =
        IsSatisfiable(family.base.tau.InstanceFormula(pi));
    ++total;
    if (satisfiable == Entails(advice, family.Query(pi))) ++agree;
  }
  std::printf("|P'| = 1; instances decided correctly: %d/%d\n", agree,
              total);
  report->AddTable("reductions", {"reduction", "agree", "total"});
  report->AddRow("reductions", {"thm4.1_gfuv", agree, total});
}

void PrintVerdictTable(obs::Report* report) {
  bench::Headline("Reproduced Table 1 (bounded case)");
  std::printf("%-12s %-26s %-26s\n", "formalism", "logical equiv. (2)",
              "query equiv. (1)");
  const struct Row {
    const char* name;
    const char* logical;
    const char* query;
  } rows[] = {
      {"GFUV,Nebel", "NO  (Thm 4.1 reduc.)", "NO  (Thm 4.1 reduc.)"},
      {"Winslett", "YES (formula (5) meas.)", "YES"},
      {"Borgida", "YES (Cor 4.4 measured)", "YES"},
      {"Forbus", "YES (formula (6) meas.)", "YES"},
      {"Satoh", "YES (formula (7) meas.)", "YES"},
      {"Dalal", "YES (formula (8) meas.)", "YES"},
      {"Weber", "YES (formula (9) meas.)", "YES"},
      {"WIDTIO", "YES (by construction)", "YES"},
  };
  report->AddTable("table1_bounded",
                   {"formalism", "logical_equivalence", "query_equivalence"});
  for (const Row& row : rows) {
    std::printf("%-12s %-26s %-26s\n", row.name, row.logical, row.query);
    report->AddRow("table1_bounded", {row.name, row.logical, row.query});
  }
}

void BM_BoundedConstruction(benchmark::State& state) {
  const size_t which = static_cast<size_t>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Vocabulary vocabulary;
  Formula t;
  Formula p;
  BuildInstance(n, 2, &vocabulary, &t, &p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kCases[which].build(t, p));
  }
  state.SetLabel(std::string(kCases[which].name) + "/n=" +
                 std::to_string(n));
}

void RegisterBenchmarks() {
  for (size_t which = 0; which < std::size(kCases); ++which) {
    for (int n : {16, 64}) {
      benchmark::RegisterBenchmark("BM_BoundedConstruction",
                                   &BM_BoundedConstruction)
          ->Args({static_cast<int>(which), n})
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter(
      "bench_table1_bounded", "BENCH_table1_bounded.json", &argc, argv);
  revise::MeasureBoundedSizes(&reporter.report());
  revise::ValidateEquivalence(&reporter.report());
  revise::ValidateTheorem41(&reporter.report());
  revise::PrintVerdictTable(&reporter.report());
  benchmark::Initialize(&argc, argv);
  revise::RegisterBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
