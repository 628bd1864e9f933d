#include <gtest/gtest.h>

#include "bdd/bdd.h"
#include "compact/single_revision.h"
#include "hardness/families.h"
#include "hardness/random_instances.h"
#include "logic/evaluate.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/transform.h"
#include "model/canonical.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceModels;
using ::revise::testing::BruteForceSat;

TEST(BddTest, Terminals) {
  BddManager manager;
  EXPECT_EQ(BddManager::kFalse, manager.And(BddManager::kTrue,
                                            BddManager::kFalse));
  EXPECT_EQ(BddManager::kTrue, manager.Or(BddManager::kTrue,
                                          BddManager::kFalse));
  EXPECT_EQ(BddManager::kTrue, manager.Not(BddManager::kFalse));
}

TEST(BddTest, VarNodeIsCanonical) {
  BddManager manager;
  EXPECT_EQ(manager.VarNode(3), manager.VarNode(3));
  EXPECT_NE(manager.VarNode(3), manager.VarNode(4));
}

class BddRandomTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    for (int i = 0; i < 5; ++i) {
      vars_.push_back(vocabulary_.InternIndexed("b", i));
    }
    alphabet_ = Alphabet(vars_);
  }

  Vocabulary vocabulary_;
  std::vector<Var> vars_;
  Alphabet alphabet_;
};

TEST_P(BddRandomTest, EvaluateMatchesTruthTable) {
  Rng rng(GetParam());
  BddManager manager(vars_);
  for (int trial = 0; trial < 30; ++trial) {
    const Formula f = RandomFormula(vars_, 4, &rng);
    const BddManager::NodeRef node = manager.FromFormula(f);
    for (uint64_t v = 0; v < 32; ++v) {
      const Interpretation m = Interpretation::FromIndex(5, v);
      ASSERT_EQ(Evaluate(f, alphabet_, m),
                manager.Evaluate(node, m, alphabet_))
          << ToString(f, vocabulary_);
    }
  }
}

TEST_P(BddRandomTest, CanonicityEquivalentFormulasSameNode) {
  Rng rng(GetParam() + 10);
  BddManager manager(vars_);
  for (int trial = 0; trial < 30; ++trial) {
    const Formula f = RandomFormula(vars_, 4, &rng);
    // NNF and a reparse of the printed form are logically equivalent.
    EXPECT_EQ(manager.FromFormula(f), manager.FromFormula(ToNnf(f)));
    EXPECT_EQ(manager.FromFormula(f),
              manager.FromFormula(
                  ParseOrDie(ToString(f, vocabulary_), &vocabulary_)));
    // And inequivalent formulas get different nodes.
    const Formula g = RandomFormula(vars_, 4, &rng);
    const bool equivalent = AreEquivalent(f, g);
    EXPECT_EQ(equivalent,
              manager.FromFormula(f) == manager.FromFormula(g));
  }
}

TEST_P(BddRandomTest, CountModelsMatchesBruteForce) {
  Rng rng(GetParam() + 20);
  BddManager manager(vars_);
  for (int trial = 0; trial < 30; ++trial) {
    const Formula f = RandomFormula(vars_, 4, &rng);
    EXPECT_EQ(BruteForceModels(f, alphabet_).size(),
              manager.CountModels(manager.FromFormula(f)));
  }
}

TEST_P(BddRandomTest, RestrictMatchesSubstitution) {
  Rng rng(GetParam() + 30);
  BddManager manager(vars_);
  for (int trial = 0; trial < 20; ++trial) {
    const Formula f = RandomFormula(vars_, 4, &rng);
    const Var v = vars_[rng.Below(vars_.size())];
    const bool value = rng.Chance(0.5);
    EXPECT_EQ(manager.FromFormula(Restrict(f, v, value)),
              manager.Restrict(manager.FromFormula(f), v, value));
  }
}

TEST_P(BddRandomTest, ExistsMatchesDisjunctionOfRestrictions) {
  Rng rng(GetParam() + 40);
  BddManager manager(vars_);
  for (int trial = 0; trial < 20; ++trial) {
    const Formula f = RandomFormula(vars_, 4, &rng);
    const Var v = vars_[rng.Below(vars_.size())];
    const Formula expected =
        Formula::Or(Restrict(f, v, false), Restrict(f, v, true));
    EXPECT_EQ(manager.FromFormula(expected),
              manager.Exists(manager.FromFormula(f), {v}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomTest, ::testing::Range(700, 705));

TEST(BddTest, XorChainHasLinearNodeCount) {
  Vocabulary vocabulary;
  for (int n : {4, 8, 16}) {
    std::vector<Var> vars;
    Formula chain = Formula::False();
    for (int i = 0; i < n; ++i) {
      const Var v = vocabulary.InternIndexed("x", i);
      vars.push_back(v);
      chain = Formula::Xor(chain, Formula::Variable(v));
    }
    BddManager manager(vars);
    const auto node = manager.FromFormula(chain);
    // Parity functions have exactly 2n - 1 internal nodes.
    EXPECT_EQ(static_cast<size_t>(2 * n - 1), manager.NodeCount(node));
  }
}

// Section 7 cross-check: projecting the Theorem 3.4 compact formula onto
// the original alphabet (existentially quantifying the fresh Y/W letters)
// must produce the IDENTICAL canonical node as the reference revision —
// query equivalence verified by a second, independent engine.
TEST(BddSection7Test, DalalCompactProjectsToReferenceRevision) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(vocabulary.InternIndexed("s", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(77);
  const DalalOperator dalal;
  for (int trial = 0; trial < 10; ++trial) {
    Formula t = RandomFormula(vars, 3, &rng);
    Formula p = RandomFormula(vars, 3, &rng);
    if (!BruteForceSat(t, alphabet) || !BruteForceSat(p, alphabet)) {
      continue;
    }
    const Formula compact = DalalCompact(t, p, &vocabulary);
    // Fresh letters to project out.
    std::vector<Var> aux;
    for (const Var v : compact.Vars()) {
      if (!alphabet.Contains(v)) aux.push_back(v);
    }
    BddManager manager(vars);  // original letters first in the order
    const auto projected =
        manager.Exists(manager.FromFormula(compact), aux);
    const ModelSet reference = dalal.ReviseModels(Theory({t}), p, alphabet);
    const auto reference_node =
        manager.FromFormula(CanonicalDnf(reference));
    EXPECT_EQ(reference_node, projected);
  }
}

TEST(BddTest, ExistsOverMultipleVariables) {
  Vocabulary vocabulary;
  const Var a = vocabulary.Intern("a");
  const Var b = vocabulary.Intern("b");
  const Var c = vocabulary.Intern("c");
  BddManager manager({a, b, c});
  // ∃b,c. (a & b & c) == a.
  const auto f = manager.FromFormula(ParseOrDie("a & b & c", &vocabulary));
  EXPECT_EQ(manager.VarNode(a), manager.Exists(f, {b, c}));
  // ∃a,b,c. (a & b & c) == true.
  EXPECT_EQ(BddManager::kTrue, manager.Exists(f, {a, b, c}));
  // ∃a. (a ^ b) == true.
  const auto g = manager.FromFormula(ParseOrDie("a ^ b", &vocabulary));
  EXPECT_EQ(BddManager::kTrue, manager.Exists(g, {a}));
}

TEST(BddTest, VariableOrderChangesNodeCountNotModelCount) {
  // The classic order-sensitive function (x1&y1) | (x2&y2) | (x3&y3):
  // interleaved order is linear, separated order is exponential.
  Vocabulary vocabulary;
  std::vector<Var> x;
  std::vector<Var> y;
  std::vector<Formula> terms;
  for (int i = 0; i < 3; ++i) {
    x.push_back(vocabulary.InternIndexed("ox", i));
    y.push_back(vocabulary.InternIndexed("oy", i));
    terms.push_back(Formula::And(Formula::Variable(x.back()),
                                 Formula::Variable(y.back())));
  }
  const Formula f = DisjoinAll(terms);
  std::vector<Var> interleaved = {x[0], y[0], x[1], y[1], x[2], y[2]};
  std::vector<Var> separated = {x[0], x[1], x[2], y[0], y[1], y[2]};
  BddManager good(interleaved);
  BddManager bad(separated);
  const auto good_node = good.FromFormula(f);
  const auto bad_node = bad.FromFormula(f);
  EXPECT_LT(good.NodeCount(good_node), bad.NodeCount(bad_node));
  EXPECT_EQ(good.CountModels(good_node), bad.CountModels(bad_node));
}

TEST(BddTest, HardFamilyGadgetCompiles) {
  // The Theorem 3.6 gadget compiles and counts models consistently with
  // enumeration.
  Vocabulary vocabulary;
  const Theorem36Family family(3, &vocabulary);
  const Alphabet alphabet = family.FullAlphabet();
  BddManager manager(alphabet.vars());
  const auto t_node = manager.FromFormula(family.t.AsFormula());
  EXPECT_EQ(EnumerateModels(family.t.AsFormula(), alphabet).size(),
            manager.CountModels(t_node));
}

// The ASK algorithm of Definition 7.1: model checking through the BDD in
// one O(|order|) walk agrees with the revised model set.
TEST(BddSection7Test, AskAgreesWithRevisedModelSet) {
  Vocabulary vocabulary;
  const Theory t = Theory({ParseOrDie("a & b & c", &vocabulary)});
  const Formula p = ParseOrDie("!a | !b", &vocabulary);
  const Alphabet alphabet = RevisionAlphabet(t, p);
  const ModelSet revised =
      DalalOperator().ReviseModels(t, p, alphabet);
  BddManager manager(alphabet.vars());
  const auto d = manager.FromFormula(CanonicalDnf(revised));
  for (uint64_t v = 0; v < (uint64_t{1} << alphabet.size()); ++v) {
    const Interpretation m = Interpretation::FromIndex(alphabet.size(), v);
    EXPECT_EQ(revised.Contains(m), manager.Evaluate(d, m, alphabet));
  }
}

}  // namespace
}  // namespace revise
