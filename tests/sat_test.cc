#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "obs/metrics.h"
#include "sat/cardinality.h"
#include "sat/cnf.h"
#include "sat/literal.h"
#include "sat/solver.h"
#include "util/random.h"

namespace revise::sat {
namespace {

TEST(LiteralTest, Encoding) {
  EXPECT_EQ(0, PosLit(0));
  EXPECT_EQ(1, NegLit(0));
  EXPECT_EQ(6, PosLit(3));
  EXPECT_EQ(7, NegLit(3));
  EXPECT_EQ(3, LitVar(PosLit(3)));
  EXPECT_FALSE(LitSign(PosLit(3)));
  EXPECT_TRUE(LitSign(NegLit(3)));
  EXPECT_EQ(PosLit(3), Negate(NegLit(3)));
}

TEST(SolverTest, EmptyProblemIsSat) {
  Solver solver;
  EXPECT_EQ(Solver::Result::kSat, solver.Solve());
}

TEST(SolverTest, SingleUnit) {
  Solver solver;
  const int v = solver.NewVar();
  ASSERT_TRUE(solver.AddUnit(PosLit(v)));
  EXPECT_EQ(Solver::Result::kSat, solver.Solve());
  EXPECT_TRUE(solver.ModelValue(v));
}

TEST(SolverTest, ContradictoryUnitsAreUnsat) {
  Solver solver;
  const int v = solver.NewVar();
  ASSERT_TRUE(solver.AddUnit(PosLit(v)));
  EXPECT_FALSE(solver.AddUnit(NegLit(v)));
  EXPECT_FALSE(solver.Okay());
  EXPECT_EQ(Solver::Result::kUnsat, solver.Solve());
}

TEST(SolverTest, SimplePropagationChain) {
  Solver solver;
  solver.EnsureVarCount(4);
  // 0 -> 1 -> 2 -> 3, assert 0.
  ASSERT_TRUE(solver.AddClause({NegLit(0), PosLit(1)}));
  ASSERT_TRUE(solver.AddClause({NegLit(1), PosLit(2)}));
  ASSERT_TRUE(solver.AddClause({NegLit(2), PosLit(3)}));
  ASSERT_TRUE(solver.AddUnit(PosLit(0)));
  EXPECT_EQ(Solver::Result::kSat, solver.Solve());
  EXPECT_TRUE(solver.ModelValue(0));
  EXPECT_TRUE(solver.ModelValue(1));
  EXPECT_TRUE(solver.ModelValue(2));
  EXPECT_TRUE(solver.ModelValue(3));
}

TEST(SolverTest, TautologicalClauseIsIgnored) {
  Solver solver;
  solver.EnsureVarCount(1);
  ASSERT_TRUE(solver.AddClause({PosLit(0), NegLit(0)}));
  EXPECT_EQ(Solver::Result::kSat, solver.Solve());
}

TEST(SolverTest, PigeonHole3Into2IsUnsat) {
  // p_{ij}: pigeon i in hole j; 3 pigeons, 2 holes.
  Solver solver;
  auto var = [](int pigeon, int hole) { return pigeon * 2 + hole; };
  solver.EnsureVarCount(6);
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(
        solver.AddClause({PosLit(var(p, 0)), PosLit(var(p, 1))}));
  }
  for (int h = 0; h < 2; ++h) {
    for (int p1 = 0; p1 < 3; ++p1) {
      for (int p2 = p1 + 1; p2 < 3; ++p2) {
        ASSERT_TRUE(solver.AddClause(
            {NegLit(var(p1, h)), NegLit(var(p2, h))}));
      }
    }
  }
  EXPECT_EQ(Solver::Result::kUnsat, solver.Solve());
}

TEST(SolverTest, AssumptionsDoNotPersist) {
  Solver solver;
  const int v = solver.NewVar();
  const int w = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({PosLit(v), PosLit(w)}));
  EXPECT_EQ(Solver::Result::kSat, solver.SolveAssuming({NegLit(v)}));
  EXPECT_TRUE(solver.ModelValue(w));
  EXPECT_EQ(Solver::Result::kSat, solver.SolveAssuming({NegLit(w)}));
  EXPECT_TRUE(solver.ModelValue(v));
  EXPECT_EQ(Solver::Result::kUnsat,
            solver.SolveAssuming({NegLit(v), NegLit(w)}));
  // The solver is still usable and satisfiable.
  EXPECT_EQ(Solver::Result::kSat, solver.Solve());
}

TEST(SolverTest, IncrementalClauseAddition) {
  Solver solver;
  solver.EnsureVarCount(3);
  ASSERT_TRUE(solver.AddClause({PosLit(0), PosLit(1), PosLit(2)}));
  EXPECT_EQ(Solver::Result::kSat, solver.Solve());
  ASSERT_TRUE(solver.AddUnit(NegLit(0)));
  EXPECT_EQ(Solver::Result::kSat, solver.Solve());
  ASSERT_TRUE(solver.AddUnit(NegLit(1)));
  EXPECT_EQ(Solver::Result::kSat, solver.Solve());
  EXPECT_TRUE(solver.ModelValue(2));
  EXPECT_FALSE(solver.ModelValue(0));
  EXPECT_FALSE(solver.ModelValue(1));
}

// Brute-force evaluation of a clause set.
bool BruteForceSatisfiable(int num_vars,
                           const std::vector<std::vector<Lit>>& clauses) {
  for (uint64_t assignment = 0; assignment < (uint64_t{1} << num_vars);
       ++assignment) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (const Lit lit : clause) {
        const bool value = (assignment >> LitVar(lit)) & 1;
        if (value != LitSign(lit)) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class RandomCnfTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnfTest, AgreesWithBruteForceNearPhaseTransition) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    const int num_vars = 4 + static_cast<int>(rng.Below(9));  // 4..12
    // Clause counts around the 3-SAT phase transition ratio ~4.27.
    const int num_clauses =
        static_cast<int>(num_vars * (3.0 + rng.Below(30) / 10.0));
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<Lit> clause;
      // Three distinct variables.
      int a = static_cast<int>(rng.Below(num_vars));
      int b = static_cast<int>(rng.Below(num_vars));
      int d = static_cast<int>(rng.Below(num_vars));
      while (b == a) b = static_cast<int>(rng.Below(num_vars));
      while (d == a || d == b) d = static_cast<int>(rng.Below(num_vars));
      clause.push_back(MakeLit(a, rng.Chance(0.5)));
      clause.push_back(MakeLit(b, rng.Chance(0.5)));
      clause.push_back(MakeLit(d, rng.Chance(0.5)));
      clauses.push_back(clause);
    }
    Solver solver;
    solver.EnsureVarCount(num_vars);
    bool trivially_unsat = false;
    for (const auto& clause : clauses) {
      if (!solver.AddClause(clause)) trivially_unsat = true;
    }
    const bool expected = BruteForceSatisfiable(num_vars, clauses);
    const bool actual =
        !trivially_unsat && solver.Solve() == Solver::Result::kSat;
    ASSERT_EQ(expected, actual)
        << "seed=" << GetParam() << " round=" << round;
    if (actual) {
      // Verify the model actually satisfies every clause.
      for (const auto& clause : clauses) {
        bool any = false;
        for (const Lit lit : clause) {
          if (solver.ModelValue(LitVar(lit)) != LitSign(lit)) {
            any = true;
            break;
          }
        }
        ASSERT_TRUE(any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest,
                         ::testing::Range(1, 11));

// Counts models of a CNF restricted to the first `num_inputs` variables
// using the solver with blocking clauses.
size_t CountProjectedModels(const Cnf& cnf, int num_inputs) {
  Solver solver;
  solver.EnsureVarCount(cnf.num_vars());
  for (const auto& clause : cnf.clauses()) {
    if (!solver.AddClause(clause)) return 0;
  }
  size_t count = 0;
  while (solver.Solve() == Solver::Result::kSat) {
    ++count;
    std::vector<Lit> blocking;
    for (int v = 0; v < num_inputs; ++v) {
      blocking.push_back(MakeLit(v, solver.ModelValue(v)));
    }
    if (!solver.AddClause(blocking)) break;
  }
  return count;
}

uint64_t Binomial(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  uint64_t result = 1;
  for (uint64_t i = 0; i < k; ++i) {
    result = result * (n - i) / (i + 1);
  }
  return result;
}

class CardinalityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CardinalityTest, AtMostCountsMatchBinomialSums) {
  const int n = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  Cnf cnf;
  std::vector<Lit> lits;
  for (int i = 0; i < n; ++i) lits.push_back(PosLit(cnf.NewVar()));
  EncodeAtMost(lits, k, &cnf);
  uint64_t expected = 0;
  for (int j = 0; j <= k && j <= n; ++j) expected += Binomial(n, j);
  EXPECT_EQ(expected, CountProjectedModels(cnf, n));
}

TEST_P(CardinalityTest, ExactlyCountsMatchBinomial) {
  const int n = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  Cnf cnf;
  std::vector<Lit> lits;
  for (int i = 0; i < n; ++i) lits.push_back(PosLit(cnf.NewVar()));
  EncodeExactly(lits, k, &cnf);
  EXPECT_EQ(Binomial(n, k), CountProjectedModels(cnf, n));
}

TEST_P(CardinalityTest, AtLeastCountsMatchBinomialSums) {
  const int n = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  Cnf cnf;
  std::vector<Lit> lits;
  for (int i = 0; i < n; ++i) lits.push_back(PosLit(cnf.NewVar()));
  EncodeAtLeast(lits, k, &cnf);
  uint64_t expected = 0;
  for (int j = k; j <= n; ++j) expected += Binomial(n, j);
  EXPECT_EQ(expected, CountProjectedModels(cnf, n));
}

INSTANTIATE_TEST_SUITE_P(
    SmallSweep, CardinalityTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(0, 1, 2, 3, 5, 8)));

TEST(TotalizerTest, OutputsReflectTrueCount) {
  // Fix an assignment of the inputs and check each output literal.
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.Below(8));
    Cnf cnf;
    std::vector<Lit> lits;
    for (int i = 0; i < n; ++i) lits.push_back(PosLit(cnf.NewVar()));
    std::vector<Lit> counts = EncodeTotalizer(lits, &cnf);
    ASSERT_EQ(static_cast<size_t>(n), counts.size());
    Solver solver;
    solver.EnsureVarCount(cnf.num_vars());
    for (const auto& clause : cnf.clauses()) {
      ASSERT_TRUE(solver.AddClause(clause));
    }
    const uint64_t assignment = rng.Below(uint64_t{1} << n);
    std::vector<Lit> assumptions;
    int true_count = 0;
    for (int i = 0; i < n; ++i) {
      const bool value = (assignment >> i) & 1;
      true_count += value ? 1 : 0;
      assumptions.push_back(MakeLit(LitVar(lits[i]), !value));
    }
    ASSERT_EQ(Solver::Result::kSat, solver.SolveAssuming(assumptions));
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(true_count >= j + 1,
                solver.ModelValue(LitVar(counts[j])) != LitSign(counts[j]));
    }
  }
}

TEST(CnfTest, DimacsRoundTrip) {
  Cnf cnf;
  cnf.EnsureVarCount(3);
  cnf.AddClause({PosLit(0), NegLit(2)});
  cnf.AddUnit(PosLit(1));
  const std::string text = cnf.ToDimacs();
  StatusOr<Cnf> parsed = Cnf::FromDimacs(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(3, parsed->num_vars());
  ASSERT_EQ(2u, parsed->num_clauses());
  EXPECT_EQ(cnf.clauses()[0], parsed->clauses()[0]);
  EXPECT_EQ(cnf.clauses()[1], parsed->clauses()[1]);
}

TEST(CnfTest, DimacsRejectsGarbage) {
  EXPECT_FALSE(Cnf::FromDimacs("p cnf x y").ok());
  EXPECT_FALSE(Cnf::FromDimacs("1 2 0").ok());
  EXPECT_FALSE(Cnf::FromDimacs("p cnf 2 1\n1 2").ok());
}

// Incremental stress: interleave clause additions with solves under
// random assumptions, cross-checking every answer against a fresh
// brute-force evaluation of the accumulated clause set.
class IncrementalStressTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalStressTest, InterleavedAddAndSolveMatchesBruteForce) {
  Rng rng(GetParam());
  const int num_vars = 8;
  Solver solver;
  solver.EnsureVarCount(num_vars);
  std::vector<std::vector<Lit>> clauses;
  bool trivially_unsat = false;
  for (int round = 0; round < 60; ++round) {
    // Add 1-3 random clauses of random width 1-3.
    const int batch = 1 + static_cast<int>(rng.Below(3));
    for (int c = 0; c < batch; ++c) {
      std::vector<Lit> clause;
      const int width = 1 + static_cast<int>(rng.Below(3));
      for (int k = 0; k < width; ++k) {
        clause.push_back(MakeLit(static_cast<int>(rng.Below(num_vars)),
                                 rng.Chance(0.5)));
      }
      clauses.push_back(clause);
      if (!solver.AddClause(clause)) trivially_unsat = true;
    }
    // Solve under 0-2 random assumptions.
    std::vector<Lit> assumptions;
    const int num_assumptions = static_cast<int>(rng.Below(3));
    for (int a = 0; a < num_assumptions; ++a) {
      assumptions.push_back(MakeLit(static_cast<int>(rng.Below(num_vars)),
                                    rng.Chance(0.5)));
    }
    // Brute-force ground truth: clauses plus unit assumptions.
    std::vector<std::vector<Lit>> augmented = clauses;
    for (const Lit a : assumptions) augmented.push_back({a});
    const bool expected = BruteForceSatisfiable(num_vars, augmented);
    const bool actual = !trivially_unsat &&
                        solver.SolveAssuming(assumptions) ==
                            Solver::Result::kSat;
    ASSERT_EQ(expected, actual)
        << "round " << round << " seed " << GetParam();
    if (!expected && assumptions.empty()) break;  // permanently UNSAT
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalStressTest,
                         ::testing::Range(20, 28));

TEST(SolverTest, StatsAccumulate) {
  Solver solver;
  solver.EnsureVarCount(10);
  Rng rng(3);
  for (int c = 0; c < 42; ++c) {
    std::vector<Lit> clause;
    for (int i = 0; i < 3; ++i) {
      clause.push_back(
          MakeLit(static_cast<int>(rng.Below(10)), rng.Chance(0.5)));
    }
    Solver::LatchConflict(solver.AddClause(clause));
  }
  EXPECT_NE(solver.Solve(), Solver::Result::kUnknown);
  EXPECT_GT(solver.stats().propagations, 0u);
}

TEST(SolverTest, AddClauseNormalisesThroughTheSpanEntry) {
  Solver solver;
  solver.EnsureVarCount(6);
  ASSERT_TRUE(solver.AddUnit(NegLit(0)));  // 0 is false at level 0
  // Duplicates collapse: the clause is the binary (!1 | !2).
  const std::vector<Lit> duplicates = {NegLit(1), NegLit(2), NegLit(1),
                                       NegLit(2)};
  ASSERT_TRUE(solver.AddClause(std::span<const Lit>(duplicates)));
  // A tautology is accepted and ignored.
  const std::vector<Lit> tautology = {PosLit(3), PosLit(1), NegLit(3)};
  ASSERT_TRUE(solver.AddClause(std::span<const Lit>(tautology)));
  EXPECT_EQ(Solver::Result::kSat, solver.SolveAssuming({PosLit(1)}));
  // The literal false at level 0 is dropped, leaving the unit 1, which
  // propagates !2 through the binary clause.
  const std::vector<Lit> with_false = {PosLit(0), PosLit(1), PosLit(0)};
  ASSERT_TRUE(solver.AddClause(std::span<const Lit>(with_false)));
  EXPECT_EQ(Solver::Result::kUnsat, solver.SolveAssuming({NegLit(1)}));
  EXPECT_EQ(Solver::Result::kUnsat, solver.SolveAssuming({PosLit(2)}));
  ASSERT_EQ(Solver::Result::kSat, solver.Solve());
  EXPECT_TRUE(solver.ModelValue(1));
  EXPECT_FALSE(solver.ModelValue(2));
  // A clause true at level 0 is skipped.
  const std::vector<Lit> satisfied = {PosLit(1), NegLit(4)};
  ASSERT_TRUE(solver.AddClause(std::span<const Lit>(satisfied)));
  EXPECT_EQ(Solver::Result::kSat, solver.SolveAssuming({PosLit(4)}));
  // A unit whose propagation conflicts: 5 forces both 3 and !3.
  ASSERT_TRUE(solver.AddBinary(NegLit(5), PosLit(3)));
  ASSERT_TRUE(solver.AddBinary(NegLit(5), NegLit(3)));
  const std::vector<Lit> conflicting = {PosLit(5), PosLit(0), PosLit(5)};
  EXPECT_FALSE(solver.AddClause(std::span<const Lit>(conflicting)));
  EXPECT_FALSE(solver.Okay());
  EXPECT_EQ(Solver::Result::kUnsat, solver.Solve());
}

TEST(SolverTest, ReduceDbFreesLearntClauses) {
  // Pigeonhole 8->7.  Each Solve call starts the learnt database's
  // budget at 2,000 clauses and grows it at every restart, so a first
  // call stopped after 2,560 conflicts leaves more learnt clauses than
  // the second call's budget: ReduceDb detaches and frees half of them
  // before that call goes on to refute the instance.  The sanitizer
  // builds check every freed clause.
  const int holes = 7;
  const int pigeons = 8;
  Solver solver;
  solver.EnsureVarCount(pigeons * holes);
  auto var = [&](int p, int h) { return p * holes + h; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(PosLit(var(p, h)));
    ASSERT_TRUE(solver.AddClause(clause));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(
            solver.AddClause({NegLit(var(p1, h)), NegLit(var(p2, h))}));
      }
    }
  }
  solver.SetInterrupt([&solver] { return solver.stats().conflicts >= 2560; });
  ASSERT_EQ(Solver::Result::kUnknown, solver.Solve());
  ASSERT_GT(solver.stats().learned_clauses, 2000u);
  EXPECT_EQ(0u, solver.stats().deleted_clauses);
  solver.SetInterrupt(nullptr);
  EXPECT_EQ(Solver::Result::kUnsat, solver.Solve());
  EXPECT_GT(solver.stats().deleted_clauses, 0u);
}

TEST(SolverTest, CountersConsistentAfterUnsatSolve) {
  // Pigeonhole 5→4 forces real search: conflicts, decisions, learning.
  // The per-solver stats must be internally consistent, and solving must
  // publish matching deltas to the global counter registry.
  obs::Counter* global_conflicts =
      obs::Registry::Global().GetCounter("sat.conflicts");
  obs::Counter* global_decisions =
      obs::Registry::Global().GetCounter("sat.decisions");
  obs::Counter* global_solves =
      obs::Registry::Global().GetCounter("sat.solves");
  const uint64_t conflicts_before = global_conflicts->Value();
  const uint64_t decisions_before = global_decisions->Value();
  const uint64_t solves_before = global_solves->Value();

  const int holes = 4;
  const int pigeons = 5;
  Solver solver;
  solver.EnsureVarCount(pigeons * holes);
  auto var = [&](int p, int h) { return p * holes + h; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(PosLit(var(p, h)));
    ASSERT_TRUE(solver.AddClause(std::move(clause)));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(
            solver.AddClause({NegLit(var(p1, h)), NegLit(var(p2, h))}));
      }
    }
  }
  EXPECT_EQ(solver.Solve(), Solver::Result::kUnsat);

  const SolverStats& stats = solver.stats();
  EXPECT_GE(stats.conflicts, 1u);
  EXPECT_GE(stats.decisions, 1u);
  // Every decision is followed by at least one propagation (its own
  // enqueue), so propagations dominate decisions.
  EXPECT_GE(stats.propagations, stats.decisions);
  // Each learned clause comes from a conflict.
  EXPECT_LE(stats.learned_clauses, stats.conflicts);
  EXPECT_LE(stats.deleted_clauses, stats.learned_clauses);

  // The solve published its deltas to the global registry.
  EXPECT_EQ(global_conflicts->Value() - conflicts_before, stats.conflicts);
  EXPECT_EQ(global_decisions->Value() - decisions_before, stats.decisions);
  EXPECT_EQ(global_solves->Value() - solves_before, 1u);
}

}  // namespace
}  // namespace revise::sat
