#include <gtest/gtest.h>

#include <algorithm>

#include "compact/bounded_revision.h"
#include "compact/circuits.h"
#include "compact/iterated_revision.h"
#include "compact/query.h"
#include "compact/single_revision.h"
#include "hardness/random_instances.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "model/canonical.h"
#include "revision/iterated.h"
#include "revision/operator.h"
#include "solve/distance.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceModels;
using ::revise::testing::BruteForceSat;

// -------------------------------------------------------------------------
// Counting circuits.
// -------------------------------------------------------------------------
class CounterCircuitTest : public ::testing::TestWithParam<int> {};

TEST_P(CounterCircuitTest, GeqOutputsMatchPopcount) {
  const int n = GetParam();
  Vocabulary vocabulary;
  std::vector<Var> inputs_vars;
  std::vector<Formula> inputs;
  for (int i = 0; i < n; ++i) {
    const Var v = vocabulary.InternIndexed("i", i);
    inputs_vars.push_back(v);
    inputs.push_back(Formula::Variable(v));
  }
  const CounterCircuit counter =
      BuildCounter(inputs, static_cast<size_t>(n), &vocabulary);
  // Every full assignment of the inputs extends to exactly one model of
  // the definitions, whose geq outputs reflect the popcount.
  std::vector<Var> all_vars = inputs_vars;
  all_vars.insert(all_vars.end(), counter.aux.begin(), counter.aux.end());
  const Alphabet alphabet(all_vars);
  const ModelSet defs_models =
      EnumerateModels(counter.definitions, alphabet);
  // Functional determination: 2^n models.
  EXPECT_EQ(uint64_t{1} << n, defs_models.size());
  for (const Interpretation& m : defs_models) {
    size_t count = 0;
    for (const Var v : inputs_vars) {
      if (m.Get(*alphabet.IndexOf(v))) ++count;
    }
    for (size_t j = 0; j <= static_cast<size_t>(n) + 1; ++j) {
      const Formula geq = counter.AtLeast(j);
      EXPECT_EQ(count >= j, Evaluate(geq, alphabet, m))
          << "n=" << n << " j=" << j;
    }
    for (size_t k = 0; k <= static_cast<size_t>(n); ++k) {
      EXPECT_EQ(count == k, Evaluate(counter.Exactly(k), alphabet, m));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CounterCircuitTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

class ExaTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExaTest, TrueIffHammingDistanceExactlyK) {
  const int n = std::get<0>(GetParam());
  const size_t k = static_cast<size_t>(std::get<1>(GetParam()));
  Vocabulary vocabulary;
  std::vector<Var> x;
  std::vector<Var> y;
  for (int i = 0; i < n; ++i) {
    x.push_back(vocabulary.InternIndexed("x", i));
    y.push_back(vocabulary.InternIndexed("y", i));
  }
  const Formula exa = ExaFormula(k, x, y, &vocabulary);
  // Project models onto X ∪ Y; expect exactly the pairs at distance k.
  std::vector<Var> xy = x;
  xy.insert(xy.end(), y.begin(), y.end());
  const Alphabet alphabet(xy);
  const ModelSet projected = EnumerateModels(exa, alphabet);
  size_t expected = 0;
  for (uint64_t xv = 0; xv < (uint64_t{1} << n); ++xv) {
    for (uint64_t yv = 0; yv < (uint64_t{1} << n); ++yv) {
      if (static_cast<size_t>(std::popcount(xv ^ yv)) == k) ++expected;
    }
  }
  EXPECT_EQ(expected, projected.size());
  for (const Interpretation& m : projected) {
    size_t distance = 0;
    for (int i = 0; i < n; ++i) {
      const bool xb = m.Get(*alphabet.IndexOf(x[i]));
      const bool yb = m.Get(*alphabet.IndexOf(y[i]));
      if (xb != yb) ++distance;
    }
    EXPECT_EQ(k, distance);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExaTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

TEST(ExaTest, SizeGrowsPolynomially) {
  // |EXA(k, X, Y, W)| should be O(n*k); check it stays well under n^3.
  Vocabulary vocabulary;
  for (int n : {4, 8, 16, 32}) {
    std::vector<Var> x;
    std::vector<Var> y;
    for (int i = 0; i < n; ++i) {
      x.push_back(vocabulary.Fresh("x"));
      y.push_back(vocabulary.Fresh("y"));
    }
    const Formula exa = ExaFormula(n / 2, x, y, &vocabulary);
    EXPECT_LT(exa.VarOccurrences(),
              static_cast<uint64_t>(n) * n * n);
  }
}

TEST(CountLessThanTest, ComparesPopcounts) {
  Vocabulary vocabulary;
  std::vector<Var> a_vars;
  std::vector<Var> b_vars;
  std::vector<Formula> a;
  std::vector<Formula> b;
  for (int i = 0; i < 3; ++i) {
    a_vars.push_back(vocabulary.InternIndexed("a", i));
    b_vars.push_back(vocabulary.InternIndexed("b", i));
    a.push_back(Formula::Variable(a_vars.back()));
    b.push_back(Formula::Variable(b_vars.back()));
  }
  const Formula less = CountLessThan(a, b, &vocabulary);
  std::vector<Var> ab = a_vars;
  ab.insert(ab.end(), b_vars.begin(), b_vars.end());
  const Alphabet alphabet(ab);
  const ModelSet projected = EnumerateModels(less, alphabet);
  size_t expected = 0;
  for (uint64_t av = 0; av < 8; ++av) {
    for (uint64_t bv = 0; bv < 8; ++bv) {
      if (std::popcount(av) < std::popcount(bv)) ++expected;
    }
  }
  EXPECT_EQ(expected, projected.size());
}

// -------------------------------------------------------------------------
// Single-revision compact representations (Theorems 3.4, 3.5).
// -------------------------------------------------------------------------
class SingleCompactRandomTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    for (int i = 0; i < 5; ++i) {
      vars_.push_back(vocabulary_.InternIndexed("v", i));
    }
    alphabet_ = Alphabet(vars_);
  }

  Formula DrawSatisfiable(Rng* rng) {
    for (;;) {
      Formula f = RandomFormula(vars_, 4, rng);
      if (BruteForceSat(f, alphabet_)) return f;
    }
  }

  Vocabulary vocabulary_;
  std::vector<Var> vars_;
  Alphabet alphabet_;
};

TEST_P(SingleCompactRandomTest, DalalCompactIsQueryEquivalent) {
  Rng rng(GetParam());
  const DalalOperator dalal;
  for (int trial = 0; trial < 15; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    const Formula compact = DalalCompact(t, p, &vocabulary_);
    const ModelSet reference =
        dalal.ReviseModels(Theory({t}), p, alphabet_);
    EXPECT_EQ(reference, EnumerateModels(compact, alphabet_))
        << "T=" << ToString(t, vocabulary_)
        << " P=" << ToString(p, vocabulary_);
  }
}

TEST_P(SingleCompactRandomTest, WeberCompactIsQueryEquivalent) {
  Rng rng(GetParam() + 50);
  const WeberOperator weber;
  for (int trial = 0; trial < 15; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    const Formula compact = WeberCompact(t, p, &vocabulary_);
    const ModelSet reference =
        weber.ReviseModels(Theory({t}), p, alphabet_);
    EXPECT_EQ(reference, EnumerateModels(compact, alphabet_))
        << "T=" << ToString(t, vocabulary_)
        << " P=" << ToString(p, vocabulary_);
  }
}

TEST_P(SingleCompactRandomTest, BoundedFormulasAreLogicallyEquivalent) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 8; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    // Bounded P: over the first 2 letters only.
    std::vector<Var> p_vars(vars_.begin(), vars_.begin() + 2);
    Formula p = RandomFormula(p_vars, 3, &rng);
    if (!BruteForceSat(p, alphabet_)) continue;
    const Theory theory({t});

    struct Case {
      const char* name;
      Formula compact;
      const RevisionOperator* op;
    };
    const Case cases[] = {
        {"Winslett(5)", WinslettBounded(t, p),
         OperatorById(OperatorId::kWinslett)},
        {"Forbus(6)", ForbusBounded(t, p),
         OperatorById(OperatorId::kForbus)},
        {"Satoh(7)", SatohBounded(t, p), OperatorById(OperatorId::kSatoh)},
        {"Dalal(8)", DalalBounded(t, p), OperatorById(OperatorId::kDalal)},
        {"Weber(9)", WeberBounded(t, p), OperatorById(OperatorId::kWeber)},
        {"Borgida", BorgidaBounded(t, p),
         OperatorById(OperatorId::kBorgida)},
    };
    for (const Case& c : cases) {
      const ModelSet reference = c.op->ReviseModels(theory, p, alphabet_);
      // Logical equivalence: no new letters, identical model sets.
      EXPECT_EQ(reference, BruteForceModels(c.compact, alphabet_))
          << c.name << " T=" << ToString(t, vocabulary_)
          << " P=" << ToString(p, vocabulary_);
      // No letters beyond V(T) ∪ V(P).
      for (const Var v : c.compact.Vars()) {
        EXPECT_TRUE(alphabet_.Contains(v)) << c.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleCompactRandomTest,
                         ::testing::Range(300, 306));

TEST(SingleCompactTest, Section4ExampleForbusFormula) {
  // The worked example after Theorem 4.5: T = a&b&c&d&e, P = !a | !b.
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("a & b & c & d & e", &vocabulary);
  const Formula p = ParseOrDie("!a | !b", &vocabulary);
  const Formula compact = ForbusBounded(t, p);
  // Exactly two models: {b,c,d,e} and {a,c,d,e}.
  const Alphabet alphabet(UnionOfVars(std::vector<Formula>{t, p}));
  const ModelSet models = BruteForceModels(compact, alphabet);
  EXPECT_EQ(2u, models.size());
  EXPECT_TRUE(AreEquivalent(
      compact, ParseOrDie("(!a & b & c & d & e) | (a & !b & c & d & e)",
                          &vocabulary)));
}

TEST(SingleCompactTest, Section4ExampleSatohDalalWeberFormulas) {
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("a & b & c & d & e", &vocabulary);
  const Formula p = ParseOrDie("!a | !b", &vocabulary);
  const Formula two_models = ParseOrDie(
      "(!a & b & c & d & e) | (a & !b & c & d & e)", &vocabulary);
  EXPECT_TRUE(AreEquivalent(SatohBounded(t, p), two_models));
  EXPECT_TRUE(AreEquivalent(DalalBounded(t, p), two_models));
  const Formula three_models = ParseOrDie(
      "(!a & b & c & d & e) | (a & !b & c & d & e) | (!a & !b & c & d & e)",
      &vocabulary);
  EXPECT_TRUE(AreEquivalent(WeberBounded(t, p), three_models));
}

TEST(SingleCompactTest, WidtioCompactSizeIsBounded) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a; b; c; a -> d", &vocabulary);
  const Formula p = ParseOrDie("!a", &vocabulary);
  const Formula compact = WidtioCompact(t, p);
  EXPECT_LE(compact.VarOccurrences(),
            t.VarOccurrences() + p.VarOccurrences());
  const WidtioOperator widtio;
  EXPECT_TRUE(AreEquivalent(compact, widtio.ReviseFormula(t, p)));
}

TEST(SingleCompactTest, DegenerateCases) {
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("a", &vocabulary);
  const Formula contradiction = ParseOrDie("a & !a", &vocabulary);
  EXPECT_TRUE(DalalCompact(t, contradiction, &vocabulary).IsFalse());
  EXPECT_TRUE(WeberCompact(t, contradiction, &vocabulary).IsFalse());
  EXPECT_TRUE(
      AreEquivalent(DalalCompact(contradiction, t, &vocabulary), t));
  EXPECT_TRUE(
      AreEquivalent(WeberCompact(contradiction, t, &vocabulary), t));
  EXPECT_TRUE(WinslettBounded(t, contradiction).IsFalse());
  EXPECT_TRUE(AreEquivalent(WinslettBounded(contradiction, t), t));
}

// Dalal's construction must NOT be logically equivalent in general — it
// introduces fresh letters (this is the paper's criterion (1) vs (2)
// distinction, Theorem 3.6).
TEST(SingleCompactTest, DalalCompactUsesFreshLetters) {
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("a & b & c", &vocabulary);
  const Formula p = ParseOrDie("!a | !b", &vocabulary);
  const Formula compact = DalalCompact(t, p, &vocabulary);
  const Alphabet original(UnionOfVars(std::vector<Formula>{t, p}));
  bool has_fresh = false;
  for (const Var v : compact.Vars()) {
    if (!original.Contains(v)) has_fresh = true;
  }
  EXPECT_TRUE(has_fresh);
}

// -------------------------------------------------------------------------
// Query answering through the compact route (compact/query.h).
// -------------------------------------------------------------------------
class CompactQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(CompactQueryTest, MatchesReferenceEntailment) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(vocabulary.InternIndexed("cq", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(GetParam());
  const DalalOperator dalal;
  const WeberOperator weber;
  for (int trial = 0; trial < 10; ++trial) {
    Formula t = RandomFormula(vars, 3, &rng);
    Formula p = RandomFormula(vars, 3, &rng);
    if (!BruteForceSat(t, alphabet) || !BruteForceSat(p, alphabet)) {
      continue;
    }
    const Formula q = RandomFormula(vars, 3, &rng);
    ASSERT_EQ(dalal.Entails(Theory({t}), p, q),
              DalalEntailsCompact(t, p, q, &vocabulary));
    ASSERT_EQ(weber.Entails(Theory({t}), p, q),
              WeberEntailsCompact(t, p, q, &vocabulary));
  }
}

TEST_P(CompactQueryTest, BinarySearchDistanceMatchesLinear) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(vocabulary.InternIndexed("bs", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(GetParam() + 70);
  for (int trial = 0; trial < 15; ++trial) {
    const Formula t = RandomFormula(vars, 4, &rng);
    const Formula p = RandomFormula(vars, 4, &rng);
    EXPECT_EQ(MinHammingDistance(t, p, alphabet),
              MinHammingDistanceBinarySearch(t, p, alphabet));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactQueryTest,
                         ::testing::Range(600, 604));

TEST(CompactQueryTest2, DegenerateCases) {
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("a", &vocabulary);
  const Formula contradiction = ParseOrDie("a & !a", &vocabulary);
  const Formula q = ParseOrDie("a | !a", &vocabulary);
  // Unsatisfiable P: the revision is empty and entails everything.
  EXPECT_TRUE(DalalEntailsCompact(t, contradiction, q, &vocabulary));
  EXPECT_TRUE(DalalEntailsCompact(t, contradiction,
                                  ParseOrDie("a & !a", &vocabulary),
                                  &vocabulary));
  // Unsatisfiable T: the revision is P.
  EXPECT_TRUE(DalalEntailsCompact(contradiction, t, t, &vocabulary));
  EXPECT_FALSE(DalalEntailsCompact(contradiction, t,
                                   ParseOrDie("b9", &vocabulary),
                                   &vocabulary));
}

// -------------------------------------------------------------------------
// Iterated compact representations (Theorems 5.1, Corollary 5.2,
// Theorems 6.1-6.3 / Corollary 6.4).
// -------------------------------------------------------------------------
class IteratedCompactTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    for (int i = 0; i < 5; ++i) {
      vars_.push_back(vocabulary_.InternIndexed("v", i));
    }
    alphabet_ = Alphabet(vars_);
  }

  Formula DrawSatisfiable(const std::vector<Var>& vars, Rng* rng) {
    for (;;) {
      Formula f = RandomFormula(vars, 3, rng);
      if (BruteForceSat(f, alphabet_)) return f;
    }
  }

  Vocabulary vocabulary_;
  std::vector<Var> vars_;
  Alphabet alphabet_;
};

TEST_P(IteratedCompactTest, DalalPhiIsQueryEquivalentStepwise) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    const Formula t = DrawSatisfiable(vars_, &rng);
    std::vector<Formula> updates;
    for (int i = 0; i < 3; ++i) {
      updates.push_back(DrawSatisfiable(vars_, &rng));
    }
    const auto phis = DalalCompactIterated(t, updates, alphabet_.vars(),
                                           &vocabulary_);
    ASSERT_EQ(updates.size(), phis.size());
    for (size_t i = 0; i < updates.size(); ++i) {
      const std::vector<Formula> prefix(updates.begin(),
                                        updates.begin() + i + 1);
      const ModelSet reference = IteratedReviseModels(
          DalalOperator(), Theory({t}), prefix, alphabet_);
      EXPECT_EQ(reference, EnumerateModels(phis[i], alphabet_))
          << "step " << i;
    }
  }
}

TEST_P(IteratedCompactTest, WeberFormula10IsQueryEquivalentStepwise) {
  Rng rng(GetParam() + 40);
  for (int trial = 0; trial < 5; ++trial) {
    const Formula t = DrawSatisfiable(vars_, &rng);
    std::vector<Formula> updates;
    for (int i = 0; i < 3; ++i) {
      updates.push_back(DrawSatisfiable(vars_, &rng));
    }
    const auto psis = WeberCompactIterated(t, updates, alphabet_.vars(),
                                           &vocabulary_);
    for (size_t i = 0; i < updates.size(); ++i) {
      const std::vector<Formula> prefix(updates.begin(),
                                        updates.begin() + i + 1);
      const ModelSet reference = IteratedReviseModels(
          WeberOperator(), Theory({t}), prefix, alphabet_);
      EXPECT_EQ(reference, EnumerateModels(psis[i], alphabet_))
          << "step " << i;
    }
  }
}

TEST_P(IteratedCompactTest, BoundedIteratedStepsAreQueryEquivalent) {
  Rng rng(GetParam() + 80);
  // Bounded updates over 2 letters each.
  const std::vector<Var> p_vars(vars_.begin(), vars_.begin() + 2);
  struct StepCase {
    const char* name;
    CompactStepFn step;
    OperatorId op;
  };
  const StepCase cases[] = {
      {"Winslett(16)", &WinslettCompactStep, OperatorId::kWinslett},
      {"Borgida", &BorgidaCompactStep, OperatorId::kBorgida},
      {"Satoh(13)", &SatohCompactStep, OperatorId::kSatoh},
      {"Forbus(14)", &ForbusCompactStep, OperatorId::kForbus},
  };
  for (int trial = 0; trial < 4; ++trial) {
    const Formula t = DrawSatisfiable(vars_, &rng);
    std::vector<Formula> updates;
    for (int i = 0; i < 3; ++i) {
      updates.push_back(DrawSatisfiable(p_vars, &rng));
    }
    for (const StepCase& c : cases) {
      const auto steps =
          CompactIterated(c.step, t, updates, &vocabulary_);
      for (size_t i = 0; i < updates.size(); ++i) {
        const std::vector<Formula> prefix(updates.begin(),
                                          updates.begin() + i + 1);
        const ModelSet reference = IteratedReviseModels(
            *OperatorById(c.op), Theory({t}), prefix, alphabet_);
        ASSERT_EQ(reference, EnumerateModels(steps[i], alphabet_))
            << c.name << " step " << i
            << " T=" << ToString(t, vocabulary_);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IteratedCompactTest,
                         ::testing::Range(400, 404));

TEST(IteratedCompactTest2, Section5WeberExampleFormulaShape) {
  // The Section 5 example: T = x1&..&x5, P1 = !x1 | !x2, P2 = !x5.
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("x1 & x2 & x3 & x4 & x5", &vocabulary);
  const std::vector<Formula> updates = {
      ParseOrDie("!x1 | !x2", &vocabulary), ParseOrDie("!x5", &vocabulary)};
  std::vector<Var> x;
  for (const char* name : {"x1", "x2", "x3", "x4", "x5"}) {
    x.push_back(vocabulary.Find(name));
  }
  const auto psis =
      WeberCompactIterated(t, updates, x, &vocabulary);
  const Alphabet alphabet(x);
  // Expected models: {x1,x3,x4}, {x2,x3,x4}, {x3,x4}.
  const ModelSet projected = EnumerateModels(psis.back(), alphabet);
  EXPECT_EQ(3u, projected.size());
  // The formula's size stays linear: |T| + |P1| + |P2| occurrences.
  EXPECT_EQ(t.VarOccurrences() + updates[0].VarOccurrences() +
                updates[1].VarOccurrences(),
            psis.back().VarOccurrences());
}

TEST(IteratedCompactTest2, LinearGrowthOfCompactChains) {
  // Sizes of the per-step compact formulas must grow (at most) linearly
  // in the number of bounded revisions — this is the content of
  // Theorems 5.1/6.1 as opposed to the exponential naive representation.
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(vocabulary.InternIndexed("x", i));
  }
  std::vector<Formula> all;
  for (const Var v : vars) all.push_back(Formula::Variable(v));
  const Formula t = ConjoinAll(all);
  // Alternate !x0 / x0 updates, 8 steps.
  std::vector<Formula> updates;
  for (int i = 0; i < 8; ++i) {
    updates.push_back(Formula::Literal(vars[0], i % 2 == 0 ? false : true));
  }
  const auto steps =
      CompactIterated(&WinslettCompactStep, t, updates, &vocabulary);
  // Per-step increment must be bounded by a constant (the update size is
  // constant), so total size is O(m).
  uint64_t prev = t.VarOccurrences();
  uint64_t max_increment = 0;
  for (const Formula& f : steps) {
    const uint64_t size = f.VarOccurrences();
    max_increment = std::max(max_increment, size - prev);
    prev = size;
  }
  EXPECT_LE(max_increment, 40u);
}

}  // namespace
}  // namespace revise
