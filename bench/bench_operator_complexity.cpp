// Section 2.2.4: the complexity of query answering T * P |= Q differs
// across operators — Dalal is Delta_2^p[log n]-complete while the others
// are Pi_2^p-hard.  The paper stresses that compactability and complexity
// are related but distinct.
//
// Reproduction of the *shape*: with the best machinery this library has,
// Dalal and Weber queries run through the polynomial compact
// constructions + one entailment check (a bounded number of SAT calls),
// while the remaining operators go through model-set computation.  We
// time query answering per operator across growing n and report the
// crossover.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "compact/single_revision.h"
#include "hardness/random_instances.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/random.h"

namespace revise {
namespace {

struct Instance {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  Theory t;
  Formula p;
  Formula q;
};

void BuildInstance(int n, uint64_t seed, Instance* out) {
  for (int i = 0; i < n; ++i) {
    out->vars.push_back(out->vocabulary.InternIndexed("x", i));
  }
  Rng rng(seed);
  // The theory is a SET of clauses (formula-based operators do real
  // maximal-consistent-subset work on it).
  Theory t;
  do {
    t = Random3Cnf(out->vars, static_cast<size_t>(n * 2.2), &rng);
  } while (!IsSatisfiable(t.AsFormula()));
  out->t = t;
  do {
    out->p = RandomClauses(out->vars, static_cast<size_t>(n * 2.2), 3, &rng);
  } while (!IsSatisfiable(out->p));
  out->q = RandomClauses(out->vars, 2, 3, &rng);
}

// Query answering for Dalal/Weber through the compact route.
bool AskCompact(OperatorId id, Instance* instance) {
  const Formula compact =
      id == OperatorId::kDalal
          ? DalalCompact(instance->t.AsFormula(), instance->p,
                         &instance->vocabulary)
          : WeberCompact(instance->t.AsFormula(), instance->p,
                         &instance->vocabulary);
  return Entails(compact, instance->q);
}

void MeasureCrossover(obs::Report* report) {
  bench::Headline(
      "Section 2.2.4 shape: wall time of T * P |= Q per operator "
      "(compact route for Dalal/Weber, model-set route otherwise)");
  std::printf("%-4s", "n");
  for (const RevisionOperator* op : AllOperators()) {
    std::printf(" %10s", std::string(op->name()).c_str());
  }
  std::printf("   (milliseconds; '-' = skipped, too slow)\n");
  report->AddTable("query_crossover", {"n", "operator", "milliseconds"});
  for (int n : {6, 8, 10, 12, 16, 24}) {
    std::printf("%-4d", n);
    for (const RevisionOperator* op : AllOperators()) {
      // The enumeration route becomes impractical quickly; cap it.
      const bool enumeration_route = op->id() != OperatorId::kDalal &&
                                     op->id() != OperatorId::kWeber;
      if (enumeration_route && n > 12) {
        std::printf(" %10s", "-");
        report->AddRow("query_crossover",
                       {n, std::string(op->name()), nullptr});
        continue;
      }
      Instance instance;
      BuildInstance(n, 1000 + n, &instance);
      const auto start = std::chrono::steady_clock::now();
      bool answer;
      if (enumeration_route) {
        answer = op->Entails(instance.t, instance.p, instance.q);
      } else {
        answer = AskCompact(op->id(), &instance);
      }
      benchmark::DoNotOptimize(answer);
      const auto elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      std::printf(" %10.2f", elapsed);
      report->AddRow("query_crossover",
                     {n, std::string(op->name()), elapsed});
    }
    std::printf("\n");
  }
  std::printf(
      "\nexpected shape: the Dalal/Weber columns stay flat (their query\n"
      "answering runs through polynomial-size representations), the rest\n"
      "grow with the model count — matching the Delta_2^p[log] vs "
      "Pi_2^p-hard split.\n");
}

void BM_EntailsViaCompactDalal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Instance instance;
  BuildInstance(n, 7, &instance);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AskCompact(OperatorId::kDalal, &instance));
  }
}
BENCHMARK(BM_EntailsViaCompactDalal)->Arg(10)->Arg(20)->Arg(30)
    ->Unit(benchmark::kMillisecond);

void BM_EntailsViaEnumerationWinslett(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Instance instance;
  BuildInstance(n, 8, &instance);
  const RevisionOperator* op = OperatorById(OperatorId::kWinslett);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        op->Entails(instance.t, instance.p, instance.q));
  }
}
BENCHMARK(BM_EntailsViaEnumerationWinslett)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter("bench_operator_complexity",
                                       "BENCH_operator_complexity.json",
                                       &argc, argv);
  revise::MeasureCrossover(&reporter.report());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
