// Table 2, "Iterated, bounded case": chains of constant-size updates.
//
// YES entries (query equivalence, Corollary 6.4): the expanded schemes
// (12)-(16) for Winslett / Borgida / Satoh / Forbus — per-step sizes over
// long chains (linear growth) and validation against reference semantics.
// NO entries (logical equivalence, Theorem 6.5): the iterated reduction,
// validated over sampled 3-SAT_3 instances for all six model-based
// operators.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "compact/iterated_revision.h"
#include "hardness/families.h"
#include "hardness/random_instances.h"
#include "revision/iterated.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/random.h"

namespace revise {
namespace {

struct StepCase {
  const char* name;
  CompactStepFn step;
  OperatorId op;
};

const StepCase kSteps[] = {
    {"Winslett(16)", &WinslettCompactStep, OperatorId::kWinslett},
    {"Borgida", &BorgidaCompactStep, OperatorId::kBorgida},
    {"Satoh(13)", &SatohCompactStep, OperatorId::kSatoh},
    {"Forbus(14)", &ForbusCompactStep, OperatorId::kForbus},
};

// Chain of constant-size updates: alternately retract/assert one of the
// first two letters, flipping which.
std::vector<Formula> BoundedChain(const std::vector<Var>& vars, int m,
                                  Rng* rng) {
  std::vector<Formula> updates;
  for (int i = 0; i < m; ++i) {
    const Var v = vars[rng->Below(2)];
    updates.push_back(Formula::Literal(v, rng->Chance(0.5)));
  }
  return updates;
}

void MeasureBoundedIteratedSizes(obs::Report* report) {
  bench::Headline(
      "Table 2 bounded YES entries: per-step sizes of the schemes "
      "(12)-(16), n = 10 letters, |P^i| = 1");
  Vocabulary vocabulary;
  std::vector<Var> vars;
  std::vector<Formula> letters;
  for (int i = 0; i < 10; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
    letters.push_back(Formula::Variable(vars.back()));
  }
  const Formula t = ConjoinAll(letters);
  Rng rng(31);
  const std::vector<Formula> updates = BoundedChain(vars, 10, &rng);
  std::printf("%-6s", "m");
  for (const StepCase& c : kSteps) std::printf(" %14s", c.name);
  std::printf("\n");
  std::vector<std::vector<uint64_t>> sizes(std::size(kSteps));
  for (size_t which = 0; which < std::size(kSteps); ++which) {
    const auto steps =
        CompactIterated(kSteps[which].step, t, updates, &vocabulary);
    for (const Formula& f : steps) {
      sizes[which].push_back(f.VarOccurrences());
    }
  }
  report->AddTable("bounded_iterated_sizes",
                   {"m", "operator", "size"});
  for (size_t m = 0; m < updates.size(); ++m) {
    std::printf("%-6zu", m + 1);
    for (size_t which = 0; which < std::size(kSteps); ++which) {
      std::printf(" %14llu",
                  static_cast<unsigned long long>(sizes[which][m]));
      report->AddRow("bounded_iterated_sizes",
                     {m + 1, kSteps[which].name, sizes[which][m]});
    }
    std::printf("\n");
  }
  // Growth is judged against the input size |T| + |P^1| + ... + |P^m|,
  // the measure the paper's polynomial bound is stated in.
  std::vector<double> input_sizes;
  uint64_t input = t.VarOccurrences();
  for (const Formula& p : updates) {
    input += p.VarOccurrences();
    input_sizes.push_back(static_cast<double>(input));
  }
  for (size_t which = 0; which < std::size(kSteps); ++which) {
    const std::string verdict =
        bench::GrowthVerdict(input_sizes, sizes[which]);
    std::printf("%s growth: %s;  ", kSteps[which].name, verdict.c_str());
    report->AddSeries(
        std::string("bounded_iterated_") + kSteps[which].name,
        std::vector<double>(sizes[which].begin(), sizes[which].end()),
        verdict);
  }
  std::printf("(paper: all polynomial in |T| + m)\n");
}

void ValidateQueryEquivalence(obs::Report* report) {
  bench::Headline(
      "query-equivalence validation of the schemes against reference "
      "iterated semantics (n = 5, m = 4, random bounded chains)");
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 5; ++i) {
    vars.push_back(vocabulary.InternIndexed("v", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(32);
  int checks = 0;
  int failures = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Formula t;
    do {
      t = RandomFormula(vars, 4, &rng);
    } while (!IsSatisfiable(t));
    const std::vector<Var> p_vars(vars.begin(), vars.begin() + 2);
    std::vector<Formula> updates;
    for (int i = 0; i < 4; ++i) {
      Formula p;
      do {
        p = RandomFormula(p_vars, 2, &rng);
      } while (!IsSatisfiable(p));
      updates.push_back(p);
    }
    for (const StepCase& c : kSteps) {
      const auto steps = CompactIterated(c.step, t, updates, &vocabulary);
      const ModelSet reference = IteratedReviseModels(
          *OperatorById(c.op), Theory({t}), updates, alphabet);
      ++checks;
      if (!(EnumerateModels(steps.back(), alphabet) == reference)) {
        ++failures;
      }
    }
  }
  std::printf("checks: %d, failures: %d\n", checks, failures);
  report->AddTable("equivalence_validation", {"checks", "failures"});
  report->AddRow("equivalence_validation", {checks, failures});
}

void ValidateTheorem65(obs::Report* report) {
  bench::Headline(
      "Table 2 bounded NO entries: Theorem 6.5 iterated reduction (all six "
      "model-based operators), sampled 3-SAT_3 instances");
  Vocabulary vocabulary;
  const Theorem65Family family(3, &vocabulary);
  const Alphabet alphabet = family.FullAlphabet();
  Rng rng(33);
  std::vector<std::vector<size_t>> instances;
  instances.push_back({});
  std::vector<size_t> all(family.tau.num_clauses());
  for (size_t j = 0; j < all.size(); ++j) all[j] = j;
  instances.push_back(all);
  for (int i = 0; i < 24; ++i) {
    instances.push_back(family.tau.RandomInstance(
        1 + rng.Below(family.tau.num_clauses()), &rng));
  }
  report->AddTable("reductions", {"operator", "agree", "total"});
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    const ModelSet revised = IteratedReviseModels(
        *op, family.t, family.updates, alphabet);
    int agree = 0;
    for (const auto& pi : instances) {
      const bool satisfiable =
          IsSatisfiable(family.tau.InstanceFormula(pi));
      if (satisfiable == revised.Contains(family.CPi(pi, alphabet))) {
        ++agree;
      }
    }
    std::printf("  %-9s: %d/%zu instances decided correctly\n",
                std::string(op->name()).c_str(), agree, instances.size());
    report->AddRow("reductions",
                   {std::string(op->name()), agree, instances.size()});
  }
}

void PrintVerdictTable(obs::Report* report) {
  bench::Headline("Reproduced Table 2 (iterated, bounded case)");
  std::printf("%-12s %-26s %-26s\n", "formalism", "logical equiv. (2)",
              "query equiv. (1)");
  const struct Row {
    const char* name;
    const char* logical;
    const char* query;
  } rows[] = {
      {"GFUV,Nebel", "NO  (Thm 4.1)", "NO  (Thm 4.1)"},
      {"Winslett", "NO  (Thm 6.5 reduc.)", "YES (Cor 6.4 measured)"},
      {"Borgida", "NO  (Thm 6.5 reduc.)", "YES (Cor 6.4 measured)"},
      {"Forbus", "NO  (Thm 6.5 reduc.)", "YES (Cor 6.4 measured)"},
      {"Satoh", "NO  (Thm 6.5 reduc.)", "YES (Cor 6.4 measured)"},
      {"Dalal", "NO  (Thm 6.5 reduc.)", "YES (Thm 5.1 measured)"},
      {"Weber", "NO  (Thm 6.5 reduc.)", "YES (Cor 5.2 measured)"},
      {"WIDTIO", "YES (by construction)", "YES (by construction)"},
  };
  report->AddTable("table2_bounded",
                   {"formalism", "logical_equivalence", "query_equivalence"});
  for (const Row& row : rows) {
    std::printf("%-12s %-26s %-26s\n", row.name, row.logical, row.query);
    report->AddRow("table2_bounded", {row.name, row.logical, row.query});
  }
}

void BM_BoundedIteratedStep(benchmark::State& state) {
  const size_t which = static_cast<size_t>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  Vocabulary vocabulary;
  std::vector<Var> vars;
  std::vector<Formula> letters;
  for (int i = 0; i < 10; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
    letters.push_back(Formula::Variable(vars.back()));
  }
  const Formula t = ConjoinAll(letters);
  Rng rng(34);
  const std::vector<Formula> updates = BoundedChain(vars, m, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CompactIterated(kSteps[which].step, t, updates, &vocabulary));
  }
  state.SetLabel(std::string(kSteps[which].name) + "/m=" +
                 std::to_string(m));
}

void RegisterBenchmarks() {
  for (size_t which = 0; which < std::size(kSteps); ++which) {
    for (int m : {4, 8}) {
      benchmark::RegisterBenchmark("BM_BoundedIteratedStep",
                                   &BM_BoundedIteratedStep)
          ->Args({static_cast<int>(which), m})
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter(
      "bench_table2_bounded", "BENCH_table2_bounded.json", &argc, argv);
  revise::MeasureBoundedIteratedSizes(&reporter.report());
  revise::ValidateQueryEquivalence(&reporter.report());
  revise::ValidateTheorem65(&reporter.report());
  revise::PrintVerdictTable(&reporter.report());
  benchmark::Initialize(&argc, argv);
  revise::RegisterBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
