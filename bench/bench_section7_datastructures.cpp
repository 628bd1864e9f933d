// Section 7: the results hold for GENERIC data structures with a
// polynomial ASK model-checking algorithm (Definition 7.1, Theorem 7.1),
// not just propositional formulas.
//
// We instantiate the definition with ROBDDs (canonical, ASK = one
// root-to-terminal walk) and measure |D| for the revised knowledge base:
//   * on the Theorem 3.6 hard gadget, where Theorem 7.1 says the size of
//     ANY such structure is the obstacle;
//   * on random instances, comparing the BDD of the revision against the
//     BDD obtained by projecting the Theorem 3.4 compact formula (they
//     are the identical canonical node — an independent engine confirming
//     query equivalence);
//   * ASK latency vs the SAT-based model checking route.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bdd/bdd.h"
#include "bench/bench_util.h"
#include "compact/single_revision.h"
#include "hardness/families.h"
#include "hardness/random_instances.h"
#include "model/canonical.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/random.h"

namespace revise {
namespace {

void MeasureHardFamilyBddSizes(obs::Report* report) {
  bench::Headline(
      "Theorem 3.6 gadget as an OBDD (n = 3): |D| for T, P and T *_D P");
  Vocabulary vocabulary;
  const Theorem36Family family(3, &vocabulary);
  const Alphabet alphabet = family.FullAlphabet();
  BddManager manager(alphabet.vars());
  const auto t_node = manager.FromFormula(family.t.AsFormula());
  const auto p_node = manager.FromFormula(family.p);
  const ModelSet revised = OperatorById(OperatorId::kDalal)
                               ->ReviseModels(family.t, family.p, alphabet);
  const auto revised_node = manager.FromFormula(CanonicalDnf(revised));
  std::printf("letters: %zu;  |D(T)| = %zu nodes, |D(P)| = %zu, "
              "|D(T *_D P)| = %zu, models of T *_D P: %llu\n",
              alphabet.size(), manager.NodeCount(t_node),
              manager.NodeCount(p_node), manager.NodeCount(revised_node),
              static_cast<unsigned long long>(
                  manager.CountModels(revised_node)));
  report->AddTable("bdd_sizes", {"letters", "nodes_t", "nodes_p",
                                 "nodes_revised", "models_revised"});
  report->AddRow("bdd_sizes",
                 {alphabet.size(), manager.NodeCount(t_node),
                  manager.NodeCount(p_node), manager.NodeCount(revised_node),
                  manager.CountModels(revised_node)});
  std::printf("(Theorem 7.1: if |D(T * P)| were polynomially bounded for "
              "all n, NP ⊆ P/poly — the n = 3 data point is the runnable "
              "instance of the advice argument)\n");
}

void CrossCheckCompactProjection(obs::Report* report) {
  bench::Headline(
      "independent-engine check: BDD(projection of Thm 3.4 formula) == "
      "BDD(reference revision), random instances");
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(55);
  int agree = 0;
  int total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Formula t = RandomFormula(vars, 4, &rng);
    Formula p = RandomFormula(vars, 4, &rng);
    if (!IsSatisfiable(t) || !IsSatisfiable(p)) continue;
    const Formula compact = DalalCompact(t, p, &vocabulary);
    std::vector<Var> aux;
    for (const Var v : compact.Vars()) {
      if (!alphabet.Contains(v)) aux.push_back(v);
    }
    BddManager manager(vars);
    const auto projected =
        manager.Exists(manager.FromFormula(compact), aux);
    const ModelSet reference = OperatorById(OperatorId::kDalal)
                                   ->ReviseModels(Theory({t}), p, alphabet);
    const auto reference_node =
        manager.FromFormula(CanonicalDnf(reference));
    ++total;
    if (projected == reference_node) ++agree;
  }
  std::printf("identical canonical nodes: %d/%d\n", agree, total);
  report->AddTable("projection_crosscheck", {"agree", "total"});
  report->AddRow("projection_crosscheck", {agree, total});
}

void MeasureAskLatency(obs::Report* report) {
  bench::Headline(
      "ASK(D, M) latency: one BDD walk vs recomputing the revision");
  Vocabulary vocabulary;
  const Theorem36Family family(3, &vocabulary);
  const Alphabet alphabet = family.FullAlphabet();
  const ModelSet revised = OperatorById(OperatorId::kDalal)
                               ->ReviseModels(family.t, family.p, alphabet);
  BddManager manager(alphabet.vars());
  const auto d = manager.FromFormula(CanonicalDnf(revised));
  Rng rng(66);
  // Time 10k ASK walks.
  const auto start = std::chrono::steady_clock::now();
  size_t positive = 0;
  const int kQueries = 10000;
  for (int i = 0; i < kQueries; ++i) {
    Interpretation m(alphabet.size());
    for (size_t j = 0; j < alphabet.size(); ++j) {
      m.Set(j, rng.Chance(0.5));
    }
    positive += manager.Evaluate(d, m, alphabet) ? 1 : 0;
  }
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count() /
                    kQueries;
  std::printf("%.3f us per ASK over %zu letters (%zu nodes); %zu of %d "
              "random interpretations were models\n",
              us, alphabet.size(), manager.NodeCount(d), positive,
              kQueries);
  report->AddTable("ask_latency",
                   {"us_per_ask", "letters", "nodes", "positive", "queries"});
  report->AddRow("ask_latency",
                 {us, alphabet.size(), manager.NodeCount(d), positive,
                  kQueries});
}

void BM_BddFromFormula(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
  }
  Rng rng(8);
  const Formula f =
      RandomClauses(vars, static_cast<size_t>(n * 2.0), 3, &rng);
  for (auto _ : state) {
    BddManager manager(vars);
    benchmark::DoNotOptimize(manager.FromFormula(f));
  }
}
BENCHMARK(BM_BddFromFormula)->Arg(10)->Arg(14)->Arg(18)
    ->Unit(benchmark::kMillisecond);

void BM_BddAsk(benchmark::State& state) {
  Vocabulary vocabulary;
  const Theorem36Family family(3, &vocabulary);
  const Alphabet alphabet = family.FullAlphabet();
  BddManager manager(alphabet.vars());
  const auto d = manager.FromFormula(
      Formula::And(family.t.AsFormula(), family.p));
  Rng rng(9);
  Interpretation m(alphabet.size());
  for (auto _ : state) {
    for (size_t j = 0; j < alphabet.size(); ++j) {
      m.Set(j, rng.Chance(0.5));
    }
    benchmark::DoNotOptimize(manager.Evaluate(d, m, alphabet));
  }
}
BENCHMARK(BM_BddAsk)->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter("bench_section7_datastructures",
                                       "BENCH_section7_datastructures.json",
                                       &argc, argv);
  revise::MeasureHardFamilyBddSizes(&reporter.report());
  revise::CrossCheckCompactProjection(&reporter.report());
  revise::MeasureAskLatency(&reporter.report());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
