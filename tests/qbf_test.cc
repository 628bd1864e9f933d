#include <gtest/gtest.h>

#include "compact/single_revision.h"
#include "hardness/random_instances.h"
#include "logic/cnf_transform.h"
#include "logic/evaluate.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "revision/operator.h"
#include "solve/qbf.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceSat;

// Brute-force ∃X ∀Y. phi.
bool BruteForceExistsForall(const std::vector<Var>& exists_vars,
                            const std::vector<Var>& forall_vars,
                            const Formula& matrix) {
  std::vector<Var> all = exists_vars;
  all.insert(all.end(), forall_vars.begin(), forall_vars.end());
  const Alphabet alphabet(all);
  const size_t ne = exists_vars.size();
  const size_t nf = forall_vars.size();
  for (uint64_t xv = 0; xv < (uint64_t{1} << ne); ++xv) {
    bool all_y = true;
    for (uint64_t yv = 0; yv < (uint64_t{1} << nf); ++yv) {
      Interpretation m(alphabet.size());
      for (size_t i = 0; i < ne; ++i) {
        if ((xv >> i) & 1) m.Set(*alphabet.IndexOf(exists_vars[i]), true);
      }
      for (size_t i = 0; i < nf; ++i) {
        if ((yv >> i) & 1) m.Set(*alphabet.IndexOf(forall_vars[i]), true);
      }
      if (!Evaluate(matrix, alphabet, m)) {
        all_y = false;
        break;
      }
    }
    if (all_y) return true;
  }
  return false;
}

TEST(QbfTest, HandCases) {
  Vocabulary vocabulary;
  const Var x = vocabulary.Intern("x");
  const Var y = vocabulary.Intern("y");
  // ∃x ∀y. x | y  — x = true works.
  EXPECT_TRUE(ExistsForallSat({x}, {y},
                              ParseOrDie("x | y", &vocabulary))
                  .satisfiable);
  // ∃x ∀y. x ^ y  — no x works.
  EXPECT_FALSE(
      ExistsForallSat({x}, {y}, ParseOrDie("x ^ y", &vocabulary))
          .satisfiable);
  // ∃x ∀y. x  — trivially witness x = true.
  const auto result =
      ExistsForallSat({x}, {y}, ParseOrDie("x", &vocabulary));
  EXPECT_TRUE(result.satisfiable);
  EXPECT_TRUE(result.witness.Get(0));
  // Empty universal block degenerates to SAT.
  EXPECT_TRUE(
      ExistsForallSat({x}, {}, ParseOrDie("x", &vocabulary)).satisfiable);
  EXPECT_FALSE(ExistsForallSat({x}, {},
                               ParseOrDie("x & !x", &vocabulary))
                   .satisfiable);
}

class QbfRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(QbfRandomTest, AgreesWithBruteForce) {
  Vocabulary vocabulary;
  std::vector<Var> xs;
  std::vector<Var> ys;
  for (int i = 0; i < 3; ++i) {
    xs.push_back(vocabulary.InternIndexed("qx", i));
    ys.push_back(vocabulary.InternIndexed("qy", i));
  }
  std::vector<Var> all = xs;
  all.insert(all.end(), ys.begin(), ys.end());
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const Formula matrix = RandomFormula(all, 4, &rng);
    const bool expected = BruteForceExistsForall(xs, ys, matrix);
    const auto result = ExistsForallSat(xs, ys, matrix);
    ASSERT_EQ(expected, result.satisfiable)
        << ToString(matrix, vocabulary);
    if (result.satisfiable) {
      // The witness must be genuine: matrix holds for all y.
      const Alphabet alphabet(all);
      for (uint64_t yv = 0; yv < 8; ++yv) {
        Interpretation m(alphabet.size());
        const Alphabet ex_alphabet(xs);
        for (size_t i = 0; i < xs.size(); ++i) {
          if (result.witness.Get(*ex_alphabet.IndexOf(xs[i]))) {
            m.Set(*alphabet.IndexOf(xs[i]), true);
          }
        }
        for (size_t i = 0; i < ys.size(); ++i) {
          if ((yv >> i) & 1) m.Set(*alphabet.IndexOf(ys[i]), true);
        }
        ASSERT_TRUE(Evaluate(matrix, alphabet, m));
      }
    }
  }
}

TEST_P(QbfRandomTest, QueryEquivalenceAgreesWithEnumeration) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(vocabulary.InternIndexed("qe", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 15; ++trial) {
    const Formula f = RandomFormula(vars, 4, &rng);
    const Formula g = RandomFormula(vars, 4, &rng);
    // Tseitin versions introduce private auxiliary letters.
    const Formula tf = TseitinCnf(f, &vocabulary);
    const Formula tg = TseitinCnf(g, &vocabulary);
    ASSERT_EQ(QueryEquivalent(tf, tg, alphabet),
              QueryEquivalentQbf(tf, tg, alphabet));
    // Each Tseitin version is query-equivalent to its source.
    ASSERT_TRUE(QueryEquivalentQbf(tf, f, alphabet));
    ASSERT_TRUE(QueryEquivalentQbf(tg, g, alphabet));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QbfRandomTest, ::testing::Range(900, 904));

// The QBF route certifies Theorem 3.4's query equivalence on instances
// and validates DalalCompact without model enumeration.
TEST(QbfTest, CertifiesDalalCompactQueryEquivalence) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 5; ++i) {
    vars.push_back(vocabulary.InternIndexed("dc", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(41);
  const DalalOperator dalal;
  for (int trial = 0; trial < 6; ++trial) {
    Formula t = RandomFormula(vars, 3, &rng);
    Formula p = RandomFormula(vars, 3, &rng);
    if (!BruteForceSat(t, alphabet) || !BruteForceSat(p, alphabet)) {
      continue;
    }
    const Formula compact = DalalCompact(t, p, &vocabulary);
    const Formula reference = dalal.ReviseFormula(Theory({t}), p);
    EXPECT_TRUE(QueryEquivalentQbf(compact, reference, alphabet));
  }
}

}  // namespace
}  // namespace revise
