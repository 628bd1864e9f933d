// Figure 1: the containment lattice between the model sets of the six
// model-based operators.
//
// Reproduction: sweep random satisfiable (T, P) pairs and check every
// claimed arrow (set containment), recording a strictness witness for each
// (a pair where the containment is proper).  Also re-derives the worked
// example of Section 2.2.2.  Timings: ReviseModels per operator.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "hardness/random_instances.h"
#include "logic/evaluate.h"
#include "logic/parser.h"
#include "revision/model_based.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "util/random.h"

namespace revise {
namespace {

struct Edge {
  OperatorId from;
  OperatorId to;
};

// The arrows of Figure 1 (from ⊆ to).
const Edge kEdges[] = {
    {OperatorId::kDalal, OperatorId::kForbus},
    {OperatorId::kDalal, OperatorId::kSatoh},
    {OperatorId::kDalal, OperatorId::kBorgida},
    {OperatorId::kForbus, OperatorId::kWinslett},
    {OperatorId::kSatoh, OperatorId::kWinslett},
    {OperatorId::kSatoh, OperatorId::kWeber},
    {OperatorId::kBorgida, OperatorId::kWinslett},
};

void ReproduceFigure1(obs::Report* report) {
  bench::Headline("Figure 1: containment between operator model sets");
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 5; ++i) {
    vars.push_back(vocabulary.InternIndexed("f", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(42);
  const int kPairs = 400;
  int violations = 0;
  std::vector<int> strict(std::size(kEdges), 0);
  // Also check the three NON-arrows stay non-arrows (Winslett vs Weber in
  // both directions, Forbus vs Borgida).
  int win_not_in_web = 0;
  int web_not_in_win = 0;
  int forbus_not_in_borgida = 0;
  int tested = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    Formula t = RandomFormula(vars, 4, &rng);
    Formula p = RandomFormula(vars, 4, &rng);
    if (pair % 2 == 1) {
      // Force the interesting (inconsistent) regime on half the pairs:
      // with T & P consistent all four revision operators collapse to
      // M(T & P) and the containments are trivially equalities.
      t = Formula::And(t, Formula::Not(p));
    }
    if (!IsSatisfiable(t) || !IsSatisfiable(p)) continue;
    ++tested;
    const ModelSet mt = EnumerateModels(t, alphabet);
    const ModelSet mp = EnumerateModels(p, alphabet);
    const ModelSet win = WinslettModels(mt, mp);
    const ModelSet borgida = BorgidaModels(mt, mp);
    const ModelSet forbus = ForbusModels(mt, mp);
    const ModelSet satoh = SatohModels(mt, mp);
    const ModelSet dalal = DalalModels(mt, mp);
    const ModelSet weber = WeberModels(mt, mp);
    auto of = [&](OperatorId id) -> const ModelSet& {
      switch (id) {
        case OperatorId::kWinslett:
          return win;
        case OperatorId::kBorgida:
          return borgida;
        case OperatorId::kForbus:
          return forbus;
        case OperatorId::kSatoh:
          return satoh;
        case OperatorId::kDalal:
          return dalal;
        default:
          return weber;
      }
    };
    for (size_t e = 0; e < std::size(kEdges); ++e) {
      const ModelSet& small = of(kEdges[e].from);
      const ModelSet& big = of(kEdges[e].to);
      if (!small.IsSubsetOf(big)) ++violations;
      if (small.size() < big.size()) ++strict[e];
    }
    if (!win.IsSubsetOf(weber)) ++win_not_in_web;
    if (!weber.IsSubsetOf(win)) ++web_not_in_win;
    if (!forbus.IsSubsetOf(borgida)) ++forbus_not_in_borgida;
  }
  std::printf("random pairs tested: %d (5 letters)\n", tested);
  std::printf("%-22s %-12s %s\n", "arrow (subset)", "violations",
              "proper on");
  report->AddTable("figure1_arrows",
                   {"from", "to", "violations", "proper_on"});
  for (size_t e = 0; e < std::size(kEdges); ++e) {
    std::printf("%-8s -> %-10s %-12d %d pairs\n",
                std::string(OperatorById(kEdges[e].from)->name()).c_str(),
                std::string(OperatorById(kEdges[e].to)->name()).c_str(),
                violations == 0 ? 0 : violations, strict[e]);
    report->AddRow("figure1_arrows",
                   {std::string(OperatorById(kEdges[e].from)->name()),
                    std::string(OperatorById(kEdges[e].to)->name()),
                    violations, strict[e]});
  }
  std::printf("non-arrows confirmed: Winslett !⊆ Weber on %d pairs, "
              "Weber !⊆ Winslett on %d, Forbus !⊆ Borgida on %d\n",
              win_not_in_web, web_not_in_win, forbus_not_in_borgida);
  std::printf("total containment violations: %d (paper predicts 0)\n",
              violations);
  report->AddTable("figure1_summary",
                   {"pairs_tested", "violations", "winslett_not_in_weber",
                    "weber_not_in_winslett", "forbus_not_in_borgida"});
  report->AddRow("figure1_summary",
                 {tested, violations, win_not_in_web, web_not_in_win,
                  forbus_not_in_borgida});

  // Section 2.2.2 worked example.
  bench::Headline("Section 2.2.2 worked example (exact model sets)");
  Vocabulary v2;
  const Theory t = Theory({ParseOrDie("a & b & c", &v2)});
  const Formula p =
      ParseOrDie("(!a & !b & !d) | (!c & b & (a ^ d))", &v2);
  const Alphabet ex_alphabet = RevisionAlphabet(t, p);
  report->AddTable("worked_example", {"operator", "models"});
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    const ModelSet result = op->ReviseModels(t, p, ex_alphabet);
    std::printf("  %-9s:", std::string(op->name()).c_str());
    std::string models;
    for (const Interpretation& m : result) {
      std::printf(" %s", m.ToString(ex_alphabet, v2).c_str());
      if (!models.empty()) models += ' ';
      models += m.ToString(ex_alphabet, v2);
    }
    std::printf("\n");
    report->AddRow("worked_example", {std::string(op->name()), models});
  }
  std::printf("expected (paper): Winslett/Borgida {a,b},{c},{b,d}; "
              "Forbus {a,b},{b,d}; Satoh {a,b},{c}; Dalal {a,b}; "
              "Weber all four models of P\n");
}

void BM_ReviseModels(benchmark::State& state) {
  const OperatorId id = static_cast<OperatorId>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(vocabulary.InternIndexed("g", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(7);
  Formula t = RandomFormula(vars, 4, &rng);
  while (!IsSatisfiable(t)) t = RandomFormula(vars, 4, &rng);
  Formula p = RandomFormula(vars, 4, &rng);
  while (!IsSatisfiable(p)) p = RandomFormula(vars, 4, &rng);
  const Theory theory({t});
  const RevisionOperator* op = OperatorById(id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(op->ReviseModels(theory, p, alphabet));
  }
  state.SetLabel(std::string(op->name()) + "/n=" + std::to_string(n));
}

void RegisterBenchmarks() {
  for (const RevisionOperator* op : AllOperators()) {
    for (int n : {4, 6, 8}) {
      benchmark::RegisterBenchmark("BM_ReviseModels", &BM_ReviseModels)
          ->Args({static_cast<int>(op->id()), n})
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

}  // namespace
}  // namespace revise

int main(int argc, char** argv) {
  revise::bench::JsonReporter reporter("bench_figure1_containment",
                                       "BENCH_figure1_containment.json",
                                       &argc, argv);
  revise::ReproduceFigure1(&reporter.report());
  revise::RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteIfRequested() ? 0 : 1;
}
