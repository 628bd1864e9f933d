#include <gtest/gtest.h>

#include "hardness/random_instances.h"
#include "logic/cnf_transform.h"
#include "logic/transform.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceModels;

TEST(IsCnfTest, Recognition) {
  Vocabulary vocabulary;
  EXPECT_TRUE(IsCnf(ParseOrDie("a", &vocabulary)));
  EXPECT_TRUE(IsCnf(ParseOrDie("!a", &vocabulary)));
  EXPECT_TRUE(IsCnf(ParseOrDie("a | !b", &vocabulary)));
  EXPECT_TRUE(IsCnf(ParseOrDie("(a | b) & (!a | c) & b", &vocabulary)));
  EXPECT_TRUE(IsCnf(Formula::True()));
  EXPECT_FALSE(IsCnf(ParseOrDie("a & b | c", &vocabulary)));
  EXPECT_FALSE(IsCnf(ParseOrDie("!(a | b)", &vocabulary)));
  EXPECT_FALSE(IsCnf(ParseOrDie("a -> b", &vocabulary)));
}

TEST(IsCnfTest, ClauseCount) {
  Vocabulary vocabulary;
  EXPECT_EQ(0u, CnfClauseCount(Formula::True()));
  EXPECT_EQ(1u, CnfClauseCount(ParseOrDie("a | b", &vocabulary)));
  EXPECT_EQ(3u,
            CnfClauseCount(ParseOrDie("(a | b) & c & (!a | !b)",
                                      &vocabulary)));
}

class CnfTransformRandomTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) {
      vars_.push_back(vocabulary_.InternIndexed("cf", i));
    }
    alphabet_ = Alphabet(vars_);
  }

  Vocabulary vocabulary_;
  std::vector<Var> vars_;
  Alphabet alphabet_;
};

TEST_P(CnfTransformRandomTest, NaiveCnfIsLogicallyEquivalent) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const Formula f = RandomFormula(vars_, 4, &rng);
    const StatusOr<Formula> cnf = NaiveCnf(f, 1u << 20);
    if (!cnf.ok()) {
      // Distribution legitimately explodes past the budget on some draws
      // (the very phenomenon the API surfaces); skip those.
      EXPECT_EQ(StatusCode::kResourceExhausted, cnf.status().code());
      continue;
    }
    EXPECT_TRUE(IsCnf(*cnf)) << ToString(*cnf, vocabulary_);
    EXPECT_EQ(BruteForceModels(f, alphabet_),
              BruteForceModels(*cnf, alphabet_));
  }
}

TEST_P(CnfTransformRandomTest, TseitinCnfIsQueryEquivalent) {
  Rng rng(GetParam() + 10);
  for (int trial = 0; trial < 25; ++trial) {
    const Formula f = RandomFormula(vars_, 4, &rng);
    const Formula cnf = TseitinCnf(f, &vocabulary_);
    EXPECT_TRUE(IsCnf(cnf));
    // Query equivalent over V(f): identical projections.
    EXPECT_TRUE(QueryEquivalent(cnf, f, alphabet_));
  }
}

TEST_P(CnfTransformRandomTest, TseitinSizeIsLinear) {
  Rng rng(GetParam() + 20);
  for (int trial = 0; trial < 10; ++trial) {
    const Formula f = RandomFormula(vars_, 6, &rng);
    const Formula cnf = TseitinCnf(f, &vocabulary_);
    // Each connective contributes O(arity) occurrences: linear overall.
    EXPECT_LE(cnf.VarOccurrences(), 8 * f.TreeSize());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfTransformRandomTest,
                         ::testing::Range(800, 804));

TEST(NaiveCnfTest, ExplodesOnXorChainAndReportsBudget) {
  // x0 ^ x1 ^ ... ^ x_{n-1} has 2^{n-1} clauses in CNF.
  Vocabulary vocabulary;
  Formula chain = Formula::False();
  for (int i = 0; i < 12; ++i) {
    chain = Formula::Xor(
        chain, Formula::Variable(vocabulary.InternIndexed("p", i)));
  }
  const StatusOr<Formula> limited = NaiveCnf(chain, 1000);
  EXPECT_FALSE(limited.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, limited.status().code());
  // A Tseitin conversion of the same formula stays small.
  const Formula tseitin = TseitinCnf(chain, &vocabulary);
  EXPECT_LT(tseitin.VarOccurrences(), 1000u);
}

TEST(NaiveCnfTest, SmallXorExactClauseCount) {
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a ^ b ^ c", &vocabulary);
  const StatusOr<Formula> cnf = NaiveCnf(f, 1u << 16);
  ASSERT_TRUE(cnf.ok());
  // Minimal CNF of 3-xor has 4 clauses; distribution may give more but
  // must be equivalent.
  EXPECT_GE(CnfClauseCount(*cnf), 4u);
  EXPECT_TRUE(AreEquivalent(f, *cnf));
}

TEST(NaiveCnfTest, Constants) {
  const StatusOr<Formula> t = NaiveCnf(Formula::True(), 10);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->IsTrue());
  const StatusOr<Formula> f = NaiveCnf(Formula::False(), 10);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->IsFalse());
}

}  // namespace
}  // namespace revise
