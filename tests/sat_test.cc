#include <gtest/gtest.h>

#include <memory>
#include <set>
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
// by projected enumeration.
size_t CountProjectedModels(const Cnf& cnf, int num_inputs) {
  Solver solver;
  solver.EnsureVarCount(cnf.num_vars());
  for (const auto& clause : cnf.clauses()) {
    if (!solver.AddClause(clause)) return 0;
  }
  std::vector<int> inputs(num_inputs);
  for (int v = 0; v < num_inputs; ++v) inputs[v] = v;
  size_t count = 0;
  EXPECT_EQ(Solver::Result::kUnsat,
            solver.EnumerateProjections(inputs, [&](std::span<const Lit>) {
              ++count;
              return true;
            }));
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

// --- projected enumeration -------------------------------------------

// The projections onto `vars` of the models of `clauses` over `num_vars`
// variables, by brute force; bit i of a projection is vars[i]'s value.
std::set<uint64_t> BruteForceProjections(
    int num_vars, const std::vector<std::vector<Lit>>& clauses,
    const std::vector<int>& vars) {
  std::set<uint64_t> projections;
  for (uint64_t assignment = 0; assignment < (uint64_t{1} << num_vars);
       ++assignment) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (const Lit lit : clause) {
        if (((assignment >> LitVar(lit)) & 1) != LitSign(lit)) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (!all) continue;
    uint64_t projection = 0;
    for (size_t i = 0; i < vars.size(); ++i) {
      if ((assignment >> vars[i]) & 1) projection |= uint64_t{1} << i;
    }
    projections.insert(projection);
  }
  return projections;
}

// What one EnumerateProjections call visited, in order, as projections
// in BruteForceProjections' encoding.
struct Enumerated {
  Solver::Result result;
  std::vector<uint64_t> projections;
};

// Runs EnumerateProjections, checking that each visit hands over the
// projection variables in order; `stop_after` (0 = never) visits make
// the visitor return false.
Enumerated Enumerate(Solver& solver, const std::vector<int>& vars,
                     size_t stop_after = 0) {
  Enumerated out;
  out.result = solver.EnumerateProjections(
      vars, [&](std::span<const Lit> projection) {
        EXPECT_EQ(projection.size(), vars.size());
        uint64_t bits = 0;
        for (size_t i = 0; i < projection.size(); ++i) {
          EXPECT_EQ(LitVar(projection[i]), vars[i]);
          if (!LitSign(projection[i])) bits |= uint64_t{1} << i;
        }
        out.projections.push_back(bits);
        return stop_after == 0 || out.projections.size() < stop_after;
      });
  return out;
}

// A solver holding `clauses` over `num_vars` variables, or nullptr when
// AddClause already found them unsatisfiable.
std::unique_ptr<Solver> SolverFor(
    int num_vars, const std::vector<std::vector<Lit>>& clauses) {
  auto solver = std::make_unique<Solver>();
  solver->EnsureVarCount(num_vars);
  for (const auto& clause : clauses) {
    if (!solver->AddClause(clause)) return nullptr;
  }
  return solver;
}

// Random inputs 0..num_inputs-1 under Tseitin-style AND/OR gates (the
// auxiliary variables a formula's encoding adds), with random clauses
// over inputs and gates asserted on top.
std::vector<std::vector<Lit>> RandomGatedCnf(Rng& rng, int num_inputs,
                                             int num_gates) {
  std::vector<std::vector<Lit>> clauses;
  auto random_lit = [&](int below) {
    return MakeLit(static_cast<int>(rng.Below(below)), rng.Chance(0.5));
  };
  for (int g = num_inputs; g < num_inputs + num_gates; ++g) {
    const Lit a = random_lit(g);
    const Lit b = random_lit(g);
    if (rng.Chance(0.5)) {  // g <-> a & b
      clauses.push_back({NegLit(g), a});
      clauses.push_back({NegLit(g), b});
      clauses.push_back({PosLit(g), Negate(a), Negate(b)});
    } else {  // g <-> a | b
      clauses.push_back({PosLit(g), Negate(a)});
      clauses.push_back({PosLit(g), Negate(b)});
      clauses.push_back({NegLit(g), a, b});
    }
  }
  const int num_vars = num_inputs + num_gates;
  const int asserted = 1 + static_cast<int>(rng.Below(num_vars / 2 + 1));
  for (int c = 0; c < asserted; ++c) {
    std::vector<Lit> clause;
    const int width = 1 + static_cast<int>(rng.Below(3));
    for (int k = 0; k < width; ++k) clause.push_back(random_lit(num_vars));
    clauses.push_back(clause);
  }
  return clauses;
}

class EnumerationTest : public ::testing::TestWithParam<int> {};

TEST_P(EnumerationTest, ProjectionOntoASubsetMatchesBruteForce) {
  // Projections onto a random subset of the inputs, listed in
  // descending order, with the gate variables (never projected) left to
  // the search.
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const int num_inputs = 3 + static_cast<int>(rng.Below(6));  // 3..8
    const int num_gates = 2 + static_cast<int>(rng.Below(7));   // 2..8
    const std::vector<std::vector<Lit>> clauses =
        RandomGatedCnf(rng, num_inputs, num_gates);
    std::vector<int> vars;
    for (int v = num_inputs; v-- > 0;) {
      if (rng.Chance(0.7)) vars.push_back(v);
    }
    const std::set<uint64_t> want =
        BruteForceProjections(num_inputs + num_gates, clauses, vars);
    std::unique_ptr<Solver> solver =
        SolverFor(num_inputs + num_gates, clauses);
    if (solver == nullptr) {
      EXPECT_TRUE(want.empty()) << "round " << round;
      continue;
    }
    const Enumerated got = Enumerate(*solver, vars);
    EXPECT_EQ(Solver::Result::kUnsat, got.result) << "round " << round;
    EXPECT_FALSE(solver->Okay());
    const std::set<uint64_t> distinct(got.projections.begin(),
                                      got.projections.end());
    EXPECT_EQ(distinct.size(), got.projections.size()) << "round " << round;
    EXPECT_EQ(want, distinct) << "round " << round;
  }
}

TEST_P(EnumerationTest, EmptyProjectionVisitsOnceIffSatisfiable) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const std::vector<std::vector<Lit>> clauses = RandomGatedCnf(rng, 4, 4);
    const bool satisfiable = BruteForceSatisfiable(8, clauses);
    std::unique_ptr<Solver> solver = SolverFor(8, clauses);
    if (solver == nullptr) {
      EXPECT_FALSE(satisfiable);
      continue;
    }
    const Enumerated got = Enumerate(*solver, {});
    EXPECT_EQ(satisfiable ? 1u : 0u, got.projections.size())
        << "round " << round;
    EXPECT_EQ(Solver::Result::kUnsat, got.result);
  }
}

TEST_P(EnumerationTest, AgreesWithOneSolvePerProjectionUnderRestarts) {
  // Random 3-CNF over 50 variables at clause ratio 3, projected onto 10:
  // hundreds of projections, and enough conflicts to learn and restart
  // between them.  Each of the 2^10 projections is checked by one
  // assumption solve on a second solver.
  Rng rng(GetParam());
  const int num_vars = 50;
  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < 150; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(MakeLit(static_cast<int>(rng.Below(num_vars)),
                               rng.Chance(0.5)));
    }
    clauses.push_back(clause);
  }
  const std::vector<int> vars = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::unique_ptr<Solver> oracle = SolverFor(num_vars, clauses);
  std::unique_ptr<Solver> solver = SolverFor(num_vars, clauses);
  ASSERT_NE(nullptr, oracle);
  ASSERT_NE(nullptr, solver);
  std::set<uint64_t> want;
  for (uint64_t bits = 0; bits < 1024; ++bits) {
    std::vector<Lit> assumptions;
    for (size_t i = 0; i < vars.size(); ++i) {
      assumptions.push_back(MakeLit(vars[i], ((bits >> i) & 1) == 0));
    }
    if (oracle->SolveAssuming(assumptions) == Solver::Result::kSat) {
      want.insert(bits);
    }
  }
  const Enumerated got = Enumerate(*solver, vars);
  EXPECT_EQ(Solver::Result::kUnsat, got.result);
  const std::set<uint64_t> distinct(got.projections.begin(),
                                    got.projections.end());
  EXPECT_EQ(distinct.size(), got.projections.size());
  EXPECT_EQ(want, distinct);
  EXPECT_GT(solver->stats().restarts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerationTest, ::testing::Range(1, 9));

TEST(EnumerationTest, OneProjectionVarTakesTheUnitBlockingPath) {
  // x0 free under (x1 | x2): both values, each blocked by a unit clause.
  Solver free_solver;
  free_solver.EnsureVarCount(3);
  ASSERT_TRUE(free_solver.AddBinary(PosLit(1), PosLit(2)));
  Enumerated got = Enumerate(free_solver, {0});
  EXPECT_EQ(Solver::Result::kUnsat, got.result);
  EXPECT_EQ((std::set<uint64_t>{0, 1}),
            std::set<uint64_t>(got.projections.begin(),
                               got.projections.end()));
  EXPECT_EQ(2u, got.projections.size());
  // x0 forced by binary clauses, not by a level-0 unit: one projection.
  Solver forced;
  forced.EnsureVarCount(2);
  ASSERT_TRUE(forced.AddBinary(PosLit(0), PosLit(1)));
  ASSERT_TRUE(forced.AddBinary(PosLit(0), NegLit(1)));
  got = Enumerate(forced, {0});
  EXPECT_EQ(Solver::Result::kUnsat, got.result);
  EXPECT_EQ(std::vector<uint64_t>{1}, got.projections);
}

TEST(EnumerationTest, ProjectionFixedAtLevelZero) {
  // x0 and x1 are level-0 units: exactly one projection, after which the
  // blocking clause would be empty.
  Solver solver;
  solver.EnsureVarCount(4);
  ASSERT_TRUE(solver.AddUnit(PosLit(0)));
  ASSERT_TRUE(solver.AddUnit(NegLit(1)));
  ASSERT_TRUE(solver.AddBinary(PosLit(2), PosLit(3)));
  Enumerated got = Enumerate(solver, {0, 1});
  EXPECT_EQ(Solver::Result::kUnsat, got.result);
  EXPECT_EQ(std::vector<uint64_t>{1}, got.projections);
  EXPECT_FALSE(solver.Okay());
  // A fixed var beside a free one: the blocking clauses drop the fixed
  // literal, and both values of the free one appear.
  Solver mixed;
  mixed.EnsureVarCount(3);
  ASSERT_TRUE(mixed.AddUnit(NegLit(0)));
  ASSERT_TRUE(mixed.AddBinary(PosLit(1), PosLit(2)));
  got = Enumerate(mixed, {0, 1});
  EXPECT_EQ(Solver::Result::kUnsat, got.result);
  EXPECT_EQ((std::set<uint64_t>{0, 2}),
            std::set<uint64_t>(got.projections.begin(),
                               got.projections.end()));
  EXPECT_EQ(2u, got.projections.size());
}

TEST(EnumerationTest, UnsatisfiableFormulaVisitsNothing) {
  // Pigeonhole 4 -> 3 needs search to refute.
  const int holes = 3;
  const int pigeons = 4;
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
  const Enumerated got = Enumerate(solver, {0, 1, 2, 3});
  EXPECT_EQ(Solver::Result::kUnsat, got.result);
  EXPECT_TRUE(got.projections.empty());
  // A solver already refuted by AddClause visits nothing either.
  Solver refuted;
  refuted.EnsureVarCount(1);
  ASSERT_TRUE(refuted.AddUnit(PosLit(0)));
  ASSERT_FALSE(refuted.AddUnit(NegLit(0)));
  EXPECT_TRUE(Enumerate(refuted, {0}).projections.empty());
}

TEST(EnumerationTest, VisitorStopsEarly) {
  // 6 free variables, 64 projections; the visitor stops at the third.
  Solver solver;
  solver.EnsureVarCount(6);
  const std::vector<int> vars = {0, 1, 2, 3, 4, 5};
  const Enumerated got = Enumerate(solver, vars, 3);
  EXPECT_EQ(Solver::Result::kSat, got.result);
  EXPECT_EQ(3u, got.projections.size());
  EXPECT_EQ(3u, std::set<uint64_t>(got.projections.begin(),
                                   got.projections.end())
                    .size());
  EXPECT_TRUE(solver.Okay());
}

TEST(EnumerationTest, InterruptStopsAndALaterCallResumes) {
  // No conflict occurs while enumerating 8 free variables, so only the
  // per-model poll can see the interrupt: the call stops with kUnknown
  // after 64 projections, not with a silently truncated set.  The
  // blocking clauses stay, so the next call visits exactly the rest.
  Solver solver;
  solver.EnsureVarCount(8);
  const std::vector<int> vars = {0, 1, 2, 3, 4, 5, 6, 7};
  solver.SetInterrupt([] { return true; });
  const Enumerated first = Enumerate(solver, vars);
  EXPECT_EQ(Solver::Result::kUnknown, first.result);
  EXPECT_EQ(64u, first.projections.size());
  solver.SetInterrupt(nullptr);
  const Enumerated rest = Enumerate(solver, vars);
  EXPECT_EQ(Solver::Result::kUnsat, rest.result);
  std::set<uint64_t> all(first.projections.begin(), first.projections.end());
  all.insert(rest.projections.begin(), rest.projections.end());
  EXPECT_EQ(256u, first.projections.size() + rest.projections.size());
  EXPECT_EQ(256u, all.size());
}

TEST(EnumerationTest, CountsOneEnumerationNotOneSolvePerModel) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* enumerations = registry.GetCounter("sat.enumerations");
  obs::Counter* solves = registry.GetCounter("sat.solves");
  obs::Counter* decisions = registry.GetCounter("sat.decisions");
  const uint64_t enumerations_before = enumerations->Value();
  const uint64_t solves_before = solves->Value();
  const uint64_t decisions_before = decisions->Value();
  Solver solver;
  solver.EnsureVarCount(5);
  ASSERT_TRUE(solver.AddBinary(PosLit(0), PosLit(1)));
  EXPECT_EQ(24u, Enumerate(solver, {0, 1, 2, 3, 4}).projections.size());
  EXPECT_EQ(1u, enumerations->Value() - enumerations_before);
  EXPECT_EQ(0u, solves->Value() - solves_before);
  EXPECT_EQ(solver.stats().decisions,
            decisions->Value() - decisions_before);
}

// --- problem-clause arena ----------------------------------------------

TEST(ClauseArenaTest, ClauseWiderThanAChunk) {
  // 40,000 literals (160 KB) exceed the largest arena chunk (64 KiB), so
  // the clause gets a chunk of its own between ordinary ones.
  const int n = 40000;
  Solver solver;
  solver.EnsureVarCount(n + 2);
  ASSERT_TRUE(solver.AddBinary(PosLit(n), PosLit(n + 1)));
  std::vector<Lit> wide(n);
  for (int v = 0; v < n; ++v) wide[v] = PosLit(v);
  ASSERT_TRUE(solver.AddClause(wide));
  ASSERT_TRUE(solver.AddBinary(NegLit(n), NegLit(n + 1)));
  for (int v = 1; v < n; ++v) ASSERT_TRUE(solver.AddUnit(NegLit(v)));
  ASSERT_EQ(Solver::Result::kSat, solver.Solve());
  EXPECT_TRUE(solver.ModelValue(0));
  EXPECT_NE(solver.ModelValue(n), solver.ModelValue(n + 1));
  EXPECT_FALSE(solver.AddUnit(NegLit(0)));
}

TEST(ClauseArenaTest, ManyShortLivedSolvers) {
  // Solvers of growing size cross chunk boundaries at different clause
  // widths, enumerate (adding blocking clauses to the arena) and go; the
  // sanitizer builds check every byte written and the chunks' release.
  Rng rng(17);
  for (int round = 0; round < 300; ++round) {
    const int num_inputs = 6;
    const int num_gates = 1 + round % 40;
    const std::vector<std::vector<Lit>> clauses =
        RandomGatedCnf(rng, num_inputs, num_gates);
    std::unique_ptr<Solver> solver =
        SolverFor(num_inputs + num_gates, clauses);
    if (solver == nullptr) continue;
    std::vector<Lit> wide;
    for (int v = 0; v < num_inputs + num_gates; ++v) {
      wide.push_back(MakeLit(v, rng.Chance(0.5)));
    }
    Solver::LatchConflict(solver->AddClause(wide));
    const Enumerated got = Enumerate(*solver, {0, 1, 2, 3, 4, 5});
    EXPECT_NE(Solver::Result::kUnknown, got.result);
    EXPECT_LE(got.projections.size(), 64u);
  }
}

}  // namespace
}  // namespace revise::sat
