#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/knowledge_base.h"
#include "hardness/random_instances.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "model/canonical.h"
#include "revision/candidates.h"
#include "revision/formula_based.h"
#include "revision/iterated.h"
#include "revision/model_based.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceModels;
using ::revise::testing::BruteForceSat;

// Builds an interpretation over `alphabet` from named letters.
Interpretation MakeModel(const Alphabet& alphabet,
                         const Vocabulary& vocabulary,
                         const std::vector<std::string>& true_letters) {
  Interpretation m(alphabet.size());
  for (const std::string& name : true_letters) {
    const Var v = vocabulary.Find(name);
    EXPECT_NE(kInvalidVar, v) << name;
    const auto index = alphabet.IndexOf(v);
    EXPECT_TRUE(index.has_value()) << name;
    m.Set(*index, true);
  }
  return m;
}

ModelSet MakeModelSet(const Alphabet& alphabet,
                      const Vocabulary& vocabulary,
                      std::vector<std::vector<std::string>> models) {
  std::vector<Interpretation> result;
  for (const auto& letters : models) {
    result.push_back(MakeModel(alphabet, vocabulary, letters));
  }
  return ModelSet(alphabet, std::move(result));
}

// -------------------------------------------------------------------------
// Section 2.2.2 worked example: T = a&b&c,
// P = (!a & !b & !d) | (!c & b & (a ^ d)).
// -------------------------------------------------------------------------
class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t_ = Theory({ParseOrDie("a & b & c", &vocabulary_)});
    p_ = ParseOrDie("(!a & !b & !d) | (!c & b & (a ^ d))", &vocabulary_);
    alphabet_ = Alphabet({vocabulary_.Find("a"), vocabulary_.Find("b"),
                          vocabulary_.Find("c"), vocabulary_.Find("d")});
  }

  ModelSet Expect(std::vector<std::vector<std::string>> models) {
    return MakeModelSet(alphabet_, vocabulary_, std::move(models));
  }

  Vocabulary vocabulary_;
  Theory t_;
  Formula p_;
  Alphabet alphabet_;
};

TEST_F(PaperExampleTest, ModelsOfTAndP) {
  const ModelSet mt = EnumerateModels(t_.AsFormula(), alphabet_);
  EXPECT_EQ(Expect({{"a", "b", "c", "d"}, {"a", "b", "c"}}), mt);
  const ModelSet mp = EnumerateModels(p_, alphabet_);
  EXPECT_EQ(Expect({{"a", "b"}, {"c"}, {"b", "d"}, {}}), mp);
}

TEST_F(PaperExampleTest, WinslettSelectsN1N2N3) {
  const ModelSet result =
      WinslettOperator().ReviseModels(t_, p_, alphabet_);
  EXPECT_EQ(Expect({{"a", "b"}, {"c"}, {"b", "d"}}), result);
}

TEST_F(PaperExampleTest, BorgidaCoincidesWithWinslettWhenInconsistent) {
  const ModelSet result =
      BorgidaOperator().ReviseModels(t_, p_, alphabet_);
  EXPECT_EQ(Expect({{"a", "b"}, {"c"}, {"b", "d"}}), result);
}

TEST_F(PaperExampleTest, ForbusSelectsN1N3) {
  const ModelSet result = ForbusOperator().ReviseModels(t_, p_, alphabet_);
  EXPECT_EQ(Expect({{"a", "b"}, {"b", "d"}}), result);
}

TEST_F(PaperExampleTest, SatohSelectsN1N2) {
  const ModelSet result = SatohOperator().ReviseModels(t_, p_, alphabet_);
  EXPECT_EQ(Expect({{"a", "b"}, {"c"}}), result);
}

TEST_F(PaperExampleTest, DalalSelectsOnlyN1) {
  const ModelSet result = DalalOperator().ReviseModels(t_, p_, alphabet_);
  EXPECT_EQ(Expect({{"a", "b"}}), result);
}

TEST_F(PaperExampleTest, WeberSelectsAllModelsOfP) {
  const ModelSet result = WeberOperator().ReviseModels(t_, p_, alphabet_);
  EXPECT_EQ(Expect({{"a", "b"}, {"c"}, {"b", "d"}, {}}), result);
}

TEST_F(PaperExampleTest, MuOfM1MatchesPaper) {
  // mu(M1, P) = {{c,d}, {a,b,d}, {a,c}} for M1 = {a,b,c,d}.
  const ModelSet mp = EnumerateModels(p_, alphabet_);
  const Interpretation m1 =
      MakeModel(alphabet_, vocabulary_, {"a", "b", "c", "d"});
  auto mu = PointwiseMinimalDiffs(m1, mp);
  const ModelSet mu_set(alphabet_, std::move(mu));
  EXPECT_EQ(Expect({{"c", "d"}, {"a", "b", "d"}, {"a", "c"}}), mu_set);
}

TEST_F(PaperExampleTest, MuOfM2MatchesPaper) {
  // mu(M2, P) = {{c}, {a,b}} for M2 = {a,b,c}.
  const ModelSet mp = EnumerateModels(p_, alphabet_);
  const Interpretation m2 = MakeModel(alphabet_, vocabulary_, {"a", "b", "c"});
  auto mu = PointwiseMinimalDiffs(m2, mp);
  const ModelSet mu_set(alphabet_, std::move(mu));
  EXPECT_EQ(Expect({{"c"}, {"a", "b"}}), mu_set);
}

// -------------------------------------------------------------------------
// Section 4 worked example: T = a&b&c&d&e, P = !a | !b.
// -------------------------------------------------------------------------
class Section4ExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t_ = Theory({ParseOrDie("a & b & c & d & e", &vocabulary_)});
    p_ = ParseOrDie("!a | !b", &vocabulary_);
    alphabet_ = RevisionAlphabet(t_, p_);
  }

  ModelSet Expect(std::vector<std::vector<std::string>> models) {
    return MakeModelSet(alphabet_, vocabulary_, std::move(models));
  }

  Vocabulary vocabulary_;
  Theory t_;
  Formula p_;
  Alphabet alphabet_;
};

TEST_F(Section4ExampleTest, ForbusAndDalalAndSatohModels) {
  const ModelSet expected =
      Expect({{"a", "c", "d", "e"}, {"b", "c", "d", "e"}});
  EXPECT_EQ(expected, ForbusOperator().ReviseModels(t_, p_, alphabet_));
  EXPECT_EQ(expected, DalalOperator().ReviseModels(t_, p_, alphabet_));
  EXPECT_EQ(expected, SatohOperator().ReviseModels(t_, p_, alphabet_));
  EXPECT_EQ(expected, WinslettOperator().ReviseModels(t_, p_, alphabet_));
}

TEST_F(Section4ExampleTest, WeberAddsThirdModel) {
  const ModelSet expected = Expect(
      {{"a", "c", "d", "e"}, {"b", "c", "d", "e"}, {"c", "d", "e"}});
  EXPECT_EQ(expected, WeberOperator().ReviseModels(t_, p_, alphabet_));
}

// -------------------------------------------------------------------------
// Section 2.2.1 example: sensitivity to syntax of formula-based revision.
// -------------------------------------------------------------------------
TEST(FormulaBasedTest, SyntaxSensitivityExample) {
  Vocabulary vocabulary;
  const Theory t1 = Theory::ParseOrDie("a; b", &vocabulary);
  const Theory t2 = Theory::ParseOrDie("a; a -> b", &vocabulary);
  const Formula p = ParseOrDie("!b", &vocabulary);

  // T1 and T2 are logically equivalent.
  EXPECT_TRUE(AreEquivalent(t1.AsFormula(), t2.AsFormula()));

  // T1 *_GFUV P == a & !b;  T2 *_GFUV P == !b.
  EXPECT_TRUE(AreEquivalent(GfuvFormula(t1, p),
                            ParseOrDie("a & !b", &vocabulary)));
  EXPECT_TRUE(
      AreEquivalent(GfuvFormula(t2, p), ParseOrDie("!b", &vocabulary)));

  // WIDTIO gives the same results here (per the paper).
  EXPECT_TRUE(AreEquivalent(WidtioTheory(t1, p).AsFormula(),
                            ParseOrDie("a & !b", &vocabulary)));
  EXPECT_TRUE(AreEquivalent(WidtioTheory(t2, p).AsFormula(),
                            ParseOrDie("!b", &vocabulary)));
}

TEST(FormulaBasedTest, MaximalConsistentSubsetsBasics) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a; b; a -> b", &vocabulary);
  const Formula p = ParseOrDie("!b", &vocabulary);
  // Consistent-with-!b subsets: {a}, {a->b} maximal? {a, a->b} |= b:
  // inconsistent.  Maximal: {a} and {a->b}.  Masks: 0b001 and 0b100.
  const auto worlds = MaximalConsistentSubsets(t, p);
  const std::set<uint64_t> got(worlds.begin(), worlds.end());
  EXPECT_EQ((std::set<uint64_t>{0b001, 0b100}), got);
}

TEST(FormulaBasedTest, WholeTheoryConsistentGivesSingleWorld) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a; b", &vocabulary);
  const Formula p = ParseOrDie("a | b", &vocabulary);
  const auto worlds = MaximalConsistentSubsets(t, p);
  ASSERT_EQ(1u, worlds.size());
  EXPECT_EQ(0b11u, worlds[0]);
}

TEST(FormulaBasedTest, UnsatisfiablePGivesNoWorlds) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a", &vocabulary);
  const Formula p = ParseOrDie("b & !b", &vocabulary);
  EXPECT_TRUE(MaximalConsistentSubsets(t, p).empty());
}

TEST(FormulaBasedTest, AllElementsInconsistentGivesEmptyWorld) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("b; b | b", &vocabulary);
  const Formula p = ParseOrDie("!b", &vocabulary);
  const auto worlds = MaximalConsistentSubsets(t, p);
  ASSERT_EQ(1u, worlds.size());
  EXPECT_EQ(0u, worlds[0]);
}

TEST(FormulaBasedTest, EmptyTheory) {
  Vocabulary vocabulary;
  const Theory t;
  const Formula p = ParseOrDie("a", &vocabulary);
  const auto worlds = MaximalConsistentSubsets(t, p);
  ASSERT_EQ(1u, worlds.size());
  EXPECT_EQ(0u, worlds[0]);
}

TEST(FormulaBasedTest, NebelExampleExponentialWorlds) {
  // Nebel's T1 = {x1..xm, y1..ym}, P1 = AND(xi ^ yi): |W| = 2^m.
  Vocabulary vocabulary;
  Theory t;
  std::vector<Formula> equivalences;
  const int m = 3;
  for (int i = 0; i < m; ++i) {
    const Formula x =
        Formula::Variable(vocabulary.InternIndexed("x", i));
    const Formula y =
        Formula::Variable(vocabulary.InternIndexed("y", i));
    t.Add(x);
    t.Add(y);
    equivalences.push_back(Formula::Xor(x, y));
  }
  const Formula p = ConjoinAll(equivalences);
  EXPECT_EQ(8u, MaximalConsistentSubsets(t, p).size());
  // And the GFUV revision is nevertheless equivalent to P itself here.
  EXPECT_TRUE(AreEquivalent(GfuvFormula(t, p), p));
}

TEST(FormulaBasedTest, NebelPrioritiesOverrideGfuvChoice) {
  Vocabulary vocabulary;
  const Formula a = ParseOrDie("a", &vocabulary);
  const Formula b = ParseOrDie("b", &vocabulary);
  const Formula p = ParseOrDie("!(a & b)", &vocabulary);
  // With a prioritized over b, only {a} survives.
  const auto worlds =
      PrioritizedMaximalSubsets({Theory({a}), Theory({b})}, p);
  ASSERT_EQ(1u, worlds.size());
  EXPECT_EQ(0b01u, worlds[0]);
  // GFUV (flat) keeps both possible worlds.
  const auto flat = MaximalConsistentSubsets(Theory({a, b}), p);
  EXPECT_EQ(2u, flat.size());
}

TEST(FormulaBasedTest, NebelWithSingleClassMatchesGfuv) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a; b; a -> b", &vocabulary);
  const Formula p = ParseOrDie("!b", &vocabulary);
  const auto nebel = PrioritizedMaximalSubsets({t}, p);
  const auto gfuv = MaximalConsistentSubsets(t, p);
  EXPECT_EQ(std::set<uint64_t>(gfuv.begin(), gfuv.end()),
            std::set<uint64_t>(nebel.begin(), nebel.end()));
}

// -------------------------------------------------------------------------
// Intro example (Section 1): revision vs update.
// -------------------------------------------------------------------------
TEST(IntroExampleTest, RevisionConcludesBillWasInOffice) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("g | b", &vocabulary);
  const Formula p = ParseOrDie("!g", &vocabulary);
  // Dalal (a *revision* operator): T & P consistent, result == T & P.
  const DalalOperator dalal;
  EXPECT_TRUE(dalal.Entails(t, p, ParseOrDie("b", &vocabulary)));
}

TEST(IntroExampleTest, UpdateDoesNotConcludeBillWasInOffice) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("g | b", &vocabulary);
  const Formula p = ParseOrDie("!g", &vocabulary);
  // Winslett (an *update* operator): even though T & P is consistent, the
  // result keeps a model where Bill is absent.
  const WinslettOperator winslett;
  EXPECT_FALSE(winslett.Entails(t, p, ParseOrDie("b", &vocabulary)));
  // The update result here is exactly P.
  const Alphabet alphabet = RevisionAlphabet(t, p);
  EXPECT_EQ(EnumerateModels(p, alphabet),
            winslett.ReviseModels(t, p, alphabet));
}

// -------------------------------------------------------------------------
// Property tests on random instances.
// -------------------------------------------------------------------------
struct RandomRevisionCase {
  int seed;
  int num_vars;
};

class RandomRevisionTest
    : public ::testing::TestWithParam<RandomRevisionCase> {
 protected:
  void SetUp() override {
    for (int i = 0; i < GetParam().num_vars; ++i) {
      vars_.push_back(vocabulary_.InternIndexed("v", i));
    }
    alphabet_ = Alphabet(vars_);
  }

  // Draws a satisfiable random formula.
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

TEST_P(RandomRevisionTest, Figure1Containments) {
  Rng rng(GetParam().seed);
  for (int trial = 0; trial < 20; ++trial) {
    const Theory t = Theory({DrawSatisfiable(&rng)});
    const Formula p = DrawSatisfiable(&rng);
    const ModelSet mt = BruteForceModels(t.AsFormula(), alphabet_);
    const ModelSet mp = BruteForceModels(p, alphabet_);
    const ModelSet win = WinslettModels(mt, mp);
    const ModelSet borgida = BorgidaModels(mt, mp);
    const ModelSet forbus = ForbusModels(mt, mp);
    const ModelSet satoh = SatohModels(mt, mp);
    const ModelSet dalal = DalalModels(mt, mp);
    const ModelSet weber = WeberModels(mt, mp);
    // The arrows of Figure 1.
    EXPECT_TRUE(dalal.IsSubsetOf(forbus));
    EXPECT_TRUE(dalal.IsSubsetOf(satoh));
    EXPECT_TRUE(dalal.IsSubsetOf(borgida));
    EXPECT_TRUE(forbus.IsSubsetOf(win));
    EXPECT_TRUE(satoh.IsSubsetOf(win));
    EXPECT_TRUE(satoh.IsSubsetOf(weber));
    EXPECT_TRUE(borgida.IsSubsetOf(win));
    // Everything is a set of models of P, and nonempty.
    for (const ModelSet* s :
         {&win, &borgida, &forbus, &satoh, &dalal, &weber}) {
      EXPECT_TRUE(s->IsSubsetOf(mp));
      EXPECT_FALSE(s->empty());
    }
  }
}

TEST_P(RandomRevisionTest, ConsistentCaseCollapsesForRevisionOperators) {
  Rng rng(GetParam().seed + 1000);
  for (int trial = 0; trial < 20; ++trial) {
    const Theory t = Theory({DrawSatisfiable(&rng)});
    const Formula p = DrawSatisfiable(&rng);
    const Formula both = Formula::And(t.AsFormula(), p);
    if (!BruteForceSat(both, alphabet_)) continue;
    const ModelSet expected = BruteForceModels(both, alphabet_);
    const ModelSet mt = BruteForceModels(t.AsFormula(), alphabet_);
    const ModelSet mp = BruteForceModels(p, alphabet_);
    // A fundamental property of *revision*: consistent T & P is the
    // result.  Holds for Borgida, Satoh, Dalal, Weber; NOT for the update
    // operators Winslett and Forbus.
    EXPECT_EQ(expected, BorgidaModels(mt, mp));
    EXPECT_EQ(expected, SatohModels(mt, mp));
    EXPECT_EQ(expected, DalalModels(mt, mp));
    EXPECT_EQ(expected, WeberModels(mt, mp));
    // Update operators still contain all of M(T & P).
    EXPECT_TRUE(expected.IsSubsetOf(WinslettModels(mt, mp)));
    EXPECT_TRUE(expected.IsSubsetOf(ForbusModels(mt, mp)));
  }
}

// Proposition 2.1 (in the form Eiter and Gottlob's Lemma 6.1 proof uses
// it): the revision only involves letters of P.  Concretely:
//  (a) every selected model N of T * P differs from SOME model of T only
//      on V(P) — holds for all six model-based operators;
//  (b) for the pointwise operators (Winslett, Forbus) additionally EVERY
//      model M of T has a selected witness N with M delta N ⊆ V(P).
// (The literal per-M form fails for the global operators: with
// T = (!p & !a) | (p & a) and P = p, Dalal selects only {p,a}, and the
// T-model {} has no selected model within V(P) = {p}.)
TEST_P(RandomRevisionTest, Proposition21BoundedDistanceWitness) {
  Rng rng(GetParam().seed + 2000);
  for (int trial = 0; trial < 10; ++trial) {
    const Theory t = Theory({DrawSatisfiable(&rng)});
    // P over a sub-alphabet so V(P) ⊂ V(T) is typical.
    std::vector<Var> p_vars(vars_.begin(),
                            vars_.begin() + 1 + rng.Below(vars_.size()));
    Formula p = RandomFormula(p_vars, 3, &rng);
    if (!BruteForceSat(p, alphabet_)) continue;
    const ModelSet mt = BruteForceModels(t.AsFormula(), alphabet_);
    const ModelSet mp = BruteForceModels(p, alphabet_);
    Interpretation vp_mask(alphabet_.size());
    for (const Var v : p.Vars()) {
      vp_mask.Set(*alphabet_.IndexOf(v), true);
    }
    for (const ModelBasedOperator* op : AllModelBasedOperators()) {
      const ModelSet revised = op->ReviseModelSets(mt, mp);
      // (a) every selected model has a T-model witness within V(P).
      for (const Interpretation& n : revised) {
        bool witness = false;
        for (const Interpretation& m : mt) {
          if (n.SymmetricDifference(m).IsSubsetOf(vp_mask)) {
            witness = true;
            break;
          }
        }
        EXPECT_TRUE(witness) << op->name();
      }
    }
    // (b) pointwise operators: every T-model has a selected witness.
    const WinslettOperator winslett;
    const ForbusOperator forbus;
    for (const ModelBasedOperator* op :
         std::initializer_list<const ModelBasedOperator*>{&winslett,
                                                          &forbus}) {
      const ModelSet revised = op->ReviseModelSets(mt, mp);
      for (const Interpretation& m : mt) {
        bool witness = false;
        for (const Interpretation& n : revised) {
          if (m.SymmetricDifference(n).IsSubsetOf(vp_mask)) {
            witness = true;
            break;
          }
        }
        EXPECT_TRUE(witness) << op->name();
      }
    }
  }
}

// The concrete counterexample from the comment above, pinned as a test.
TEST(Proposition21Test, LiteralPerModelFormFailsForGlobalOperators) {
  Vocabulary vocabulary;
  const Theory t = Theory({ParseOrDie("(!p & !a) | (p & a)", &vocabulary)});
  const Formula p = ParseOrDie("p", &vocabulary);
  const Alphabet alphabet = RevisionAlphabet(t, p);
  const ModelSet revised = DalalOperator().ReviseModels(t, p, alphabet);
  ASSERT_EQ(1u, revised.size());
  // The selected model is {p, a}; the T-model {} differs from it on `a`,
  // which is outside V(P).
  Interpretation pa(alphabet.size());
  pa.Set(*alphabet.IndexOf(vocabulary.Find("p")), true);
  pa.Set(*alphabet.IndexOf(vocabulary.Find("a")), true);
  EXPECT_EQ(pa, revised[0]);
}

TEST_P(RandomRevisionTest, ModelBasedOperatorsIgnoreSyntax) {
  Rng rng(GetParam().seed + 3000);
  for (int trial = 0; trial < 10; ++trial) {
    const Formula f = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    // Two syntactically different, logically equivalent presentations.
    const Theory t1 = Theory({f});
    const Theory t2 =
        Theory({Formula::Not(Formula::Not(f)), Formula::Or(f, f)});
    for (const ModelBasedOperator* op : AllModelBasedOperators()) {
      EXPECT_EQ(op->ReviseModels(t1, p, alphabet_),
                op->ReviseModels(t2, p, alphabet_))
          << op->name();
    }
  }
}

TEST_P(RandomRevisionTest, CandidatePathMatchesPureSetSemantics) {
  // ReviseSetByFormula (the Proposition 2.1 fast path) must agree with
  // the obviously-correct pure set-level semantics.
  Rng rng(GetParam().seed + 5000);
  for (int trial = 0; trial < 12; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    const ModelSet mt = BruteForceModels(t, alphabet_);
    const ModelSet mp = BruteForceModels(p, alphabet_);
    for (const ModelBasedOperator* op : AllModelBasedOperators()) {
      ASSERT_EQ(op->ReviseModelSets(mt, mp),
                ReviseSetByFormula(op->id(), mt, p))
          << op->name();
    }
  }
}

// The candidate path where P's truth table spans several words: |V(P)| = 7
// (two words) and 16 (1024 words), over an alphabet with two letters
// outside V(P).
TEST(CandidatePathTest, MultiWordTablesMatchPureSetSemantics) {
  for (const size_t width : {size_t{7}, size_t{16}}) {
    Vocabulary vocabulary;
    std::vector<Var> vp;
    vp.reserve(width);
    for (size_t i = 0; i < width; ++i) {
      vp.push_back(vocabulary.InternIndexed("p", i));
    }
    std::vector<Var> all = vp;
    all.push_back(vocabulary.Intern("u"));
    all.push_back(vocabulary.Intern("w"));
    const Alphabet alphabet(all);
    Rng rng(7100 + width);
    Formula p;
    do {
      p = width <= 8 ? RandomFormula(vp, 6, &rng)
                     : RandomClauses(vp, 2 * width, 3, &rng);
    } while (p.Vars().size() != width || !IsSatisfiable(p));
    const ModelSet mp = EnumerateModels(p, alphabet);
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<Interpretation> rows;
      rows.reserve(25);
      for (int i = 0; i < 24; ++i) {
        rows.push_back(Interpretation::FromIndex(
            alphabet.size(), rng.Below(uint64_t{1} << alphabet.size())));
      }
      // A repeated V(P)-projection: models sharing one candidate list.
      Interpretation twin = rows[0];
      const size_t w = *alphabet.IndexOf(all.back());
      twin.Set(w, !twin.Get(w));
      rows.push_back(twin);
      const ModelSet mt(alphabet, std::move(rows));
      for (const ModelBasedOperator* op : AllModelBasedOperators()) {
        ASSERT_EQ(op->ReviseModelSets(mt, mp),
                  ReviseSetByFormula(op->id(), mt, p))
            << op->name() << " at |V(P)| = " << width << ", trial " << trial;
      }
    }
  }
}

TEST_P(RandomRevisionTest, ReviseFormulaMatchesReviseModels) {
  Rng rng(GetParam().seed + 4000);
  for (int trial = 0; trial < 6; ++trial) {
    const Theory t =
        Theory({DrawSatisfiable(&rng), DrawSatisfiable(&rng)});
    const Formula p = DrawSatisfiable(&rng);
    for (const RevisionOperator* op : AllOperators()) {
      const Formula formula = op->ReviseFormula(t, p);
      const ModelSet from_formula = EnumerateModels(formula, alphabet_);
      const ModelSet from_models = op->ReviseModels(t, p, alphabet_);
      EXPECT_EQ(from_models, from_formula) << op->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomRevisionTest,
    ::testing::Values(RandomRevisionCase{1, 3}, RandomRevisionCase{2, 4},
                      RandomRevisionCase{3, 5}, RandomRevisionCase{4, 6},
                      RandomRevisionCase{5, 4}, RandomRevisionCase{6, 5}));

// -------------------------------------------------------------------------
// Degenerate inputs.
// -------------------------------------------------------------------------
TEST(DegenerateTest, UnsatisfiablePGivesEmptyResult) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a", &vocabulary);
  const Formula p = ParseOrDie("b & !b", &vocabulary);
  const Alphabet alphabet = RevisionAlphabet(t, p);
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    EXPECT_TRUE(op->ReviseModels(t, p, alphabet).empty()) << op->name();
  }
}

TEST(DegenerateTest, UnsatisfiableTGivesP) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & !a", &vocabulary);
  const Formula p = ParseOrDie("b", &vocabulary);
  const Alphabet alphabet = RevisionAlphabet(t, p);
  const ModelSet mp = EnumerateModels(p, alphabet);
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    EXPECT_EQ(mp, op->ReviseModels(t, p, alphabet)) << op->name();
  }
}

// -------------------------------------------------------------------------
// Entailment and model checking.
// -------------------------------------------------------------------------
TEST(EntailmentTest, QueriesWithFreshLettersAreUnconstrained) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a", &vocabulary);
  const Formula p = ParseOrDie("a", &vocabulary);
  const DalalOperator dalal;
  EXPECT_TRUE(dalal.Entails(t, p, ParseOrDie("a", &vocabulary)));
  EXPECT_FALSE(dalal.Entails(t, p, ParseOrDie("z9", &vocabulary)));
  EXPECT_TRUE(dalal.Entails(t, p, ParseOrDie("z9 | !z9", &vocabulary)));
}

TEST(EntailmentTest, QueriesWithTwentyFourFreshLettersAreAnswered) {
  // Each model of T * P has 2^24 extensions to the query's letters; the
  // answer must come from the model set, not from enumerating them.
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & b", &vocabulary);
  const Formula p = ParseOrDie("!a | !b", &vocabulary);
  std::vector<Formula> fresh;
  for (int i = 0; i < 24; ++i) {
    fresh.push_back(
        Formula::Variable(vocabulary.InternIndexed("w", i)));
  }
  const Formula all = ConjoinAll(fresh);
  const Formula any = DisjoinAll(fresh);
  const Formula a = ParseOrDie("a", &vocabulary);
  const Formula b = ParseOrDie("b", &vocabulary);
  // Dalal: T * P = a xor b.
  const DalalOperator dalal;
  const struct {
    Formula query;
    bool entailed;
  } cases[] = {
      {Formula::Or(Formula::Or(a, b), all), true},
      {Formula::Implies(all, Formula::Xor(a, b)), true},
      {Formula::Or(Formula::Iff(a, Formula::Not(b)), any), true},
      {Formula::Or(Formula::And(a, b), any), false},
      {Formula::Or(a, any), false},
      {Formula::Implies(any, a), false},
  };
  const ModelSet revised = dalal.ReviseModels(t, p, RevisionAlphabet(t, p));
  for (const auto& c : cases) {
    EXPECT_EQ(c.entailed, dalal.Entails(t, p, c.query));
    EXPECT_EQ(c.entailed, Entails(CanonicalDnf(revised), c.query));
  }
}

TEST(EntailmentTest, IsModelMatchesReviseModels) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & b & c", &vocabulary);
  const Formula p = ParseOrDie("!a | !b", &vocabulary);
  const Alphabet alphabet = RevisionAlphabet(t, p);
  const DalalOperator dalal;
  const ModelSet revised = dalal.ReviseModels(t, p, alphabet);
  for (uint64_t index = 0; index < (uint64_t{1} << alphabet.size());
       ++index) {
    const Interpretation m =
        Interpretation::FromIndex(alphabet.size(), index);
    EXPECT_EQ(revised.Contains(m), dalal.IsModel(t, p, m, alphabet));
  }
}

// -------------------------------------------------------------------------
// Iterated revision.
// -------------------------------------------------------------------------
TEST(IteratedTest, Section5WeberExample) {
  // T = x1&..&x5, P1 = !x1 | !x2, P2 = !x5.
  Vocabulary vocabulary;
  const Theory t =
      Theory({ParseOrDie("x1 & x2 & x3 & x4 & x5", &vocabulary)});
  const std::vector<Formula> updates = {
      ParseOrDie("!x1 | !x2", &vocabulary), ParseOrDie("!x5", &vocabulary)};
  const Alphabet alphabet = IteratedAlphabet(t, updates);
  const ModelSet result =
      IteratedReviseModels(WeberOperator(), t, updates, alphabet);
  const ModelSet expected = MakeModelSet(
      alphabet, vocabulary,
      {{"x1", "x3", "x4"}, {"x2", "x3", "x4"}, {"x3", "x4"}});
  EXPECT_EQ(expected, result);
}

TEST(IteratedTest, Section6WinslettExample) {
  // T = x1&..&x5, P = !x1: single model {x2,x3,x4,x5}.
  Vocabulary vocabulary;
  const Theory t =
      Theory({ParseOrDie("x1 & x2 & x3 & x4 & x5", &vocabulary)});
  const std::vector<Formula> updates = {ParseOrDie("!x1", &vocabulary)};
  const Alphabet alphabet = IteratedAlphabet(t, updates);
  const ModelSet result =
      IteratedReviseModels(WinslettOperator(), t, updates, alphabet);
  const ModelSet expected =
      MakeModelSet(alphabet, vocabulary, {{"x2", "x3", "x4", "x5"}});
  EXPECT_EQ(expected, result);
}

TEST(IteratedTest, SingleStepMatchesPlainRevision) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(vocabulary.InternIndexed("w", i));
  }
  Rng rng(77);
  const Alphabet alphabet(vars);
  for (int trial = 0; trial < 10; ++trial) {
    const Theory t = Theory({RandomFormula(vars, 3, &rng)});
    const std::vector<Formula> updates = {RandomFormula(vars, 3, &rng)};
    for (const RevisionOperator* op : AllOperators()) {
      EXPECT_EQ(op->ReviseModels(t, updates[0], alphabet),
                IteratedReviseModels(*op, t, updates, alphabet))
          << op->name();
    }
  }
}

TEST(IteratedTest, DalalChainOfUnitRetractions) {
  // T = a&b&c revised by !a then !b: models should be {c} extensions at
  // distance 1 each time: after !a: {b,c}; after !b: {c}.
  Vocabulary vocabulary;
  const Theory t = Theory({ParseOrDie("a & b & c", &vocabulary)});
  const std::vector<Formula> updates = {ParseOrDie("!a", &vocabulary),
                                        ParseOrDie("!b", &vocabulary)};
  const Alphabet alphabet = IteratedAlphabet(t, updates);
  const ModelSet result =
      IteratedReviseModels(DalalOperator(), t, updates, alphabet);
  const ModelSet expected = MakeModelSet(alphabet, vocabulary, {{"c"}});
  EXPECT_EQ(expected, result);
}

TEST(IteratedTest, WidtioIteratedKeepsTheoryStructure) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a; b; c", &vocabulary);
  const std::vector<Formula> updates = {ParseOrDie("!a", &vocabulary),
                                        ParseOrDie("!b", &vocabulary)};
  const Alphabet alphabet = IteratedAlphabet(t, updates);
  const ModelSet result =
      IteratedReviseModels(WidtioOperator(), t, updates, alphabet);
  // {a,b,c} * !a = {b, c, !a}; * !b = {c, !a, !b}: single model {c}.
  const ModelSet expected = MakeModelSet(alphabet, vocabulary, {{"c"}});
  EXPECT_EQ(expected, result);
}

TEST(IteratedTest, IteratedFormulasAgreeWithIteratedModels) {
  // The explicit KnowledgeBase folds one update at a time; after every
  // step its formula has the models the from-scratch reference gives.
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(vocabulary.InternIndexed("u", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const Theory t = Theory({RandomFormula(vars, 3, &rng)});
    const std::vector<Formula> updates = {RandomFormula(vars, 3, &rng),
                                          RandomFormula(vars, 3, &rng)};
    for (const RevisionOperator* op : AllOperators()) {
      StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
          t, op, RevisionStrategy::kExplicit, &vocabulary);
      ASSERT_TRUE(kb.ok()) << kb.status().ToString();
      std::vector<Formula> absorbed;
      for (const Formula& p : updates) {
        kb->Revise(p);
        absorbed.push_back(p);
        EXPECT_EQ(EnumerateModels(kb->folded(), alphabet),
                  IteratedReviseModels(*op, t, absorbed, alphabet))
            << op->name() << " after " << absorbed.size() << " updates";
      }
    }
  }
}

// -------------------------------------------------------------------------
// Registry.
// -------------------------------------------------------------------------
TEST(RegistryTest, AllNineOperatorsPresent) {
  EXPECT_EQ(9u, AllOperators().size());
  EXPECT_EQ(6u, AllModelBasedOperators().size());
  std::set<std::string_view> names;
  for (const RevisionOperator* op : AllOperators()) {
    names.insert(op->name());
    EXPECT_EQ(op, OperatorById(op->id()));
  }
  EXPECT_EQ(9u, names.size());
}

TEST(RegistryTest, FormulaBasedFlag) {
  EXPECT_TRUE(OperatorById(OperatorId::kGfuv)->is_formula_based());
  EXPECT_TRUE(OperatorById(OperatorId::kWidtio)->is_formula_based());
  EXPECT_TRUE(OperatorById(OperatorId::kNebel)->is_formula_based());
  EXPECT_FALSE(OperatorById(OperatorId::kDalal)->is_formula_based());
  EXPECT_FALSE(OperatorById(OperatorId::kWinslett)->is_formula_based());
}

}  // namespace
}  // namespace revise
