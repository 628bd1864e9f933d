#include <gtest/gtest.h>

#include "hardness/random_instances.h"
#include "logic/parser.h"
#include "minimize/quine_mccluskey.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceModels;

TEST(ImplicantTest, CoversAndLiterals) {
  // x1=1, x3=0 (care bits 0 and 2).
  const Implicant imp{0b001, 0b101};
  EXPECT_TRUE(imp.Covers(0b001));
  EXPECT_TRUE(imp.Covers(0b011));
  EXPECT_FALSE(imp.Covers(0b000));
  EXPECT_FALSE(imp.Covers(0b101));
  EXPECT_EQ(2, imp.NumLiterals());
}

TEST(PrimeImplicantTest, ClassicTextbookExample) {
  // f(x2,x1,x0) with on-set {0,1,2,5,6,7}: primes are
  // x1'x0' (0,1... ) — just validate count and coverage soundness.
  const std::vector<uint32_t> on = {0, 1, 2, 5, 6, 7};
  const auto primes = PrimeImplicants(on, 3);
  for (const Implicant& p : primes) {
    // Every prime must cover only on-set minterms.
    for (uint32_t v = 0; v < 8; ++v) {
      if (p.Covers(v)) {
        EXPECT_TRUE(std::find(on.begin(), on.end(), v) != on.end());
      }
    }
  }
  // Every on-set minterm must be covered by some prime.
  for (const uint32_t v : on) {
    bool covered = false;
    for (const Implicant& p : primes) covered = covered || p.Covers(v);
    EXPECT_TRUE(covered);
  }
}

TEST(MinimizeDnfTest, ConstantFunctions) {
  EXPECT_EQ(0u, MinimizeDnf({}, 3).literal_count);
  EXPECT_TRUE(MinimizeDnf({}, 3).terms.empty());
  std::vector<uint32_t> all;
  for (uint32_t v = 0; v < 8; ++v) all.push_back(v);
  const auto result = MinimizeDnf(all, 3);
  ASSERT_EQ(1u, result.terms.size());
  EXPECT_EQ(0u, result.literal_count);  // the empty (true) term
}

TEST(MinimizeDnfTest, XorNeedsExponentialTerms) {
  // x0 ^ x1 ^ x2: minimal DNF has 4 terms of 3 literals = 12 literals.
  std::vector<uint32_t> on;
  for (uint32_t v = 0; v < 8; ++v) {
    if (std::popcount(v) % 2 == 1) on.push_back(v);
  }
  const auto result = MinimizeDnf(on, 3);
  EXPECT_EQ(4u, result.terms.size());
  EXPECT_EQ(12u, result.literal_count);
}

TEST(MinimizeDnfTest, SingleCube) {
  // f = x0 & !x2 over 3 vars: on-set {1, 3}: single cube, 2 literals.
  const auto result = MinimizeDnf({0b001, 0b011}, 3);
  EXPECT_EQ(1u, result.terms.size());
  EXPECT_EQ(2u, result.literal_count);
}

class RandomMinimizeTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMinimizeTest, MinimizedDnfAndCnfAreEquivalentToInput) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(vocabulary.InternIndexed("m", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const Formula f = RandomFormula(vars, 4, &rng);
    const ModelSet models = BruteForceModels(f, alphabet);
    const auto dnf = MinimizeDnf(models);
    const Formula dnf_formula = DnfToFormula(dnf, alphabet);
    EXPECT_EQ(models, BruteForceModels(dnf_formula, alphabet));
    const auto cnf = MinimizeCnf(models);
    const Formula cnf_formula = CnfToFormula(cnf, alphabet);
    EXPECT_EQ(models, BruteForceModels(cnf_formula, alphabet));
    // The two-level proxy never exceeds the canonical DNF size.
    EXPECT_LE(MinimalTwoLevelSize(models),
              models.size() * alphabet.size());
  }
}

TEST_P(RandomMinimizeTest, CoverIsOptimalVersusBruteForce) {
  // For tiny functions, compare against brute-force search over all
  // subsets of the primes.
  Rng rng(GetParam() + 10);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint32_t> on;
    for (uint32_t v = 0; v < 8; ++v) {
      if (rng.Chance(0.4)) on.push_back(v);
    }
    if (on.empty()) continue;
    const auto primes = PrimeImplicants(on, 3);
    ASSERT_LE(primes.size(), 16u);
    uint64_t best = ~uint64_t{0};
    for (uint64_t mask = 0; mask < (uint64_t{1} << primes.size());
         ++mask) {
      bool all_covered = true;
      uint64_t cost = 0;
      for (const uint32_t v : on) {
        bool covered = false;
        for (size_t p = 0; p < primes.size(); ++p) {
          if ((mask >> p) & 1 && primes[p].Covers(v)) covered = true;
        }
        if (!covered) {
          all_covered = false;
          break;
        }
      }
      if (!all_covered) continue;
      for (size_t p = 0; p < primes.size(); ++p) {
        if ((mask >> p) & 1) cost += primes[p].NumLiterals();
      }
      best = std::min(best, cost);
    }
    EXPECT_EQ(best, MinimizeDnf(on, 3).literal_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMinimizeTest,
                         ::testing::Range(500, 505));

}  // namespace
}  // namespace revise
