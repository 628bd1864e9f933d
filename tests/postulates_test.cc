// Katsuno-Mendelzon postulate suite.
//
// The paper's operator classification (revision vs update, Section 1-2,
// reference [19]) rests on the KM postulates.  This suite checks them on
// random instances:
//   revision postulates R1-R6 — Dalal satisfies all six (it is a genuine
//   KM revision operator); Borgida/Satoh/Weber satisfy R1-R4;
//   update postulates U1, U2, U3, U4, U5, U8 — Winslett's PMA satisfies
//   all of them (KM 1991); Forbus satisfies the subset checked here.
// For postulates known to FAIL for particular operators (e.g. R2 for the
// update operators), the suite pins concrete counterexamples.

#include <gtest/gtest.h>

#include "hardness/random_instances.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "revision/model_based.h"
#include "revision/postulates.h"
#include "revision/operator.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceModels;
using ::revise::testing::BruteForceSat;

class PostulateTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) {
      vars_.push_back(vocabulary_.InternIndexed("p", i));
    }
    alphabet_ = Alphabet(vars_);
  }

  Formula DrawSatisfiable(Rng* rng) {
    for (;;) {
      Formula f = RandomFormula(vars_, 4, rng);
      if (BruteForceSat(f, alphabet_)) return f;
    }
  }

  ModelSet Revise(const ModelBasedOperator& op, const Formula& t,
                  const Formula& p) {
    return op.ReviseModelSets(BruteForceModels(t, alphabet_),
                              BruteForceModels(p, alphabet_));
  }

  Vocabulary vocabulary_;
  std::vector<Var> vars_;
  Alphabet alphabet_;
};

// R1 / U1 (success): T * P |= P.
TEST_P(PostulateTest, R1SuccessHoldsForAllModelBasedOperators) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    const ModelSet mp = BruteForceModels(p, alphabet_);
    for (const ModelBasedOperator* op : AllModelBasedOperators()) {
      EXPECT_TRUE(Revise(*op, t, p).IsSubsetOf(mp)) << op->name();
    }
  }
}

// R3 / U3 (consistency preservation): satisfiable T, P give satisfiable
// T * P.
TEST_P(PostulateTest, R3ConsistencyHoldsForAllModelBasedOperators) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 25; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    for (const ModelBasedOperator* op : AllModelBasedOperators()) {
      EXPECT_FALSE(Revise(*op, t, p).empty()) << op->name();
    }
  }
}

// R2 (vacuity): T & P satisfiable implies T * P == T & P — the defining
// property of REVISION, satisfied by Borgida/Satoh/Dalal/Weber.
TEST_P(PostulateTest, R2VacuityHoldsForRevisionOperators) {
  Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 25; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    const Formula both = Formula::And(t, p);
    if (!BruteForceSat(both, alphabet_)) continue;
    const ModelSet expected = BruteForceModels(both, alphabet_);
    for (const OperatorId id : {OperatorId::kBorgida, OperatorId::kSatoh,
                                OperatorId::kDalal, OperatorId::kWeber}) {
      const auto* op =
          dynamic_cast<const ModelBasedOperator*>(OperatorById(id));
      ASSERT_NE(nullptr, op);
      EXPECT_EQ(expected, Revise(*op, t, p)) << op->name();
    }
  }
}

// R2 fails for the update operators: the paper's own intro example.
TEST(PostulateCounterexampleTest, R2FailsForWinslettAndForbus) {
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("g | b", &vocabulary);
  const Formula p = ParseOrDie("!g", &vocabulary);
  const Alphabet alphabet(UnionOfVars(std::vector<Formula>{t, p}));
  const ModelSet both =
      EnumerateModels(Formula::And(t, p), alphabet);
  const WinslettOperator winslett;
  const ForbusOperator forbus;
  const ModelSet mt = EnumerateModels(t, alphabet);
  const ModelSet mp = EnumerateModels(p, alphabet);
  EXPECT_NE(both, winslett.ReviseModelSets(mt, mp));
  EXPECT_NE(both, forbus.ReviseModelSets(mt, mp));
}

// R4 / U4 (irrelevance of syntax, semantic version): equivalent inputs
// give identical outputs.  Trivially structural for our model-based
// implementations, but checked end-to-end through formulas.
TEST_P(PostulateTest, R4SyntaxIrrelevanceForModelBasedOperators) {
  Rng rng(GetParam() + 300);
  for (int trial = 0; trial < 10; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    // De Morgan-restated variants.
    const Formula t2 = Formula::Not(Formula::Not(t));
    const Formula p2 = Formula::And(p, Formula::Or(p, t));
    for (const ModelBasedOperator* op : AllModelBasedOperators()) {
      EXPECT_EQ(Revise(*op, t, p), Revise(*op, t2, p2)) << op->name();
    }
  }
}

// R5 and R6 (the "supplementary" postulates): Dalal satisfies both —
// (T*P) & Q |= T*(P & Q), and if (T*P) & Q is satisfiable then
// T*(P & Q) |= (T*P) & Q.
TEST_P(PostulateTest, R5R6HoldForDalal) {
  Rng rng(GetParam() + 400);
  const DalalOperator dalal;
  for (int trial = 0; trial < 25; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    const Formula q = RandomFormula(vars_, 3, &rng);
    const ModelSet t_star_p = Revise(dalal, t, p);
    const ModelSet q_models = BruteForceModels(q, alphabet_);
    const ModelSet lhs = ModelSet::Intersection(t_star_p, q_models);
    if (!BruteForceSat(Formula::And(p, q), alphabet_)) continue;
    const ModelSet rhs = Revise(dalal, t, Formula::And(p, q));
    EXPECT_TRUE(lhs.IsSubsetOf(rhs));  // R5
    if (!lhs.empty()) {
      EXPECT_TRUE(rhs.IsSubsetOf(lhs));  // R6
    }
  }
}

// U2 (update vacuity): T |= P implies T * P == T.  Holds for both update
// operators (every model of T is already a model of P at distance 0).
TEST_P(PostulateTest, U2HoldsForUpdateOperators) {
  Rng rng(GetParam() + 500);
  const WinslettOperator winslett;
  const ForbusOperator forbus;
  for (int trial = 0; trial < 25; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    // Build P entailed by T: P = T | random.
    const Formula p = Formula::Or(t, RandomFormula(vars_, 3, &rng));
    const ModelSet mt = BruteForceModels(t, alphabet_);
    EXPECT_EQ(mt, Revise(winslett, t, p));
    EXPECT_EQ(mt, Revise(forbus, t, p));
  }
}

// U8 (disjunction decomposition): (T1 | T2) * P == (T1 * P) | (T2 * P).
// This is the structural signature of pointwise update semantics.
TEST_P(PostulateTest, U8HoldsForUpdateOperators) {
  Rng rng(GetParam() + 600);
  const WinslettOperator winslett;
  const ForbusOperator forbus;
  for (int trial = 0; trial < 20; ++trial) {
    const Formula t1 = DrawSatisfiable(&rng);
    const Formula t2 = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    for (const ModelBasedOperator* op :
         std::initializer_list<const ModelBasedOperator*>{&winslett,
                                                          &forbus}) {
      const ModelSet whole = Revise(*op, Formula::Or(t1, t2), p);
      const ModelSet split = ModelSet::Union(Revise(*op, t1, p),
                                             Revise(*op, t2, p));
      EXPECT_EQ(split, whole) << op->name();
    }
  }
}

// U8 FAILS for the global operators (they compare across all models of
// T): pinned counterexample for Dalal.
TEST(PostulateCounterexampleTest, U8FailsForDalal) {
  // T1 = a & b, T2 = !a & !b, P = !a & b.  Dalal on T1|T2: global minimum
  // distance 1 (from T1), so only T1's side contributes; the split union
  // also contains T2's best model at distance 2.
  Vocabulary vocabulary;
  const Formula t1 = ParseOrDie("a & b", &vocabulary);
  const Formula t2 = ParseOrDie("!a & !b", &vocabulary);
  const Formula p = ParseOrDie("!a & b", &vocabulary);
  const Alphabet alphabet(
      UnionOfVars(std::vector<Formula>{t1, t2, p}));
  const DalalOperator dalal;
  auto revise = [&](const Formula& t) {
    return dalal.ReviseModelSets(EnumerateModels(t, alphabet),
                                 EnumerateModels(p, alphabet));
  };
  const ModelSet whole = revise(Formula::Or(t1, t2));
  const ModelSet split = ModelSet::Union(revise(t1), revise(t2));
  // Both sides reduce to the single model {b} here because P is complete
  // — so instead use the distance structure: whole == split must already
  // hold when P is complete; pick a P with two models.
  const Formula p2 = ParseOrDie("!a", &vocabulary);
  auto revise2 = [&](const Formula& t) {
    return dalal.ReviseModelSets(EnumerateModels(t, alphabet),
                                 EnumerateModels(p2, alphabet));
  };
  const ModelSet whole2 = revise2(Formula::Or(t1, t2));
  const ModelSet split2 = ModelSet::Union(revise2(t1), revise2(t2));
  EXPECT_NE(whole2, split2);
  EXPECT_TRUE(whole2.IsSubsetOf(split2));
  (void)whole;
  (void)split;
}

// U5 for Winslett's PMA: (T*P) & Q |= T*(P & Q).
TEST_P(PostulateTest, U5HoldsForWinslett) {
  Rng rng(GetParam() + 700);
  const WinslettOperator winslett;
  for (int trial = 0; trial < 20; ++trial) {
    const Formula t = DrawSatisfiable(&rng);
    const Formula p = DrawSatisfiable(&rng);
    const Formula q = RandomFormula(vars_, 3, &rng);
    if (!BruteForceSat(Formula::And(p, q), alphabet_)) continue;
    const ModelSet lhs = ModelSet::Intersection(
        Revise(winslett, t, p), BruteForceModels(q, alphabet_));
    const ModelSet rhs = Revise(winslett, t, Formula::And(p, q));
    EXPECT_TRUE(lhs.IsSubsetOf(rhs));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostulateTest, ::testing::Range(600, 605));

// ---- The library-level postulate checker (revision/postulates.h). ----

TEST(PostulateCheckerTest, DalalProfilesAsKmRevisionOperator) {
  Vocabulary vocabulary;
  const DalalOperator dalal;
  PostulateSweepOptions options;
  options.trials = 30;
  const PostulateReport report =
      CheckKmPostulates(dalal, options, &vocabulary);
  EXPECT_TRUE(report.Satisfies(KmPostulate::kR1Success));
  EXPECT_TRUE(report.Satisfies(KmPostulate::kR2Vacuity));
  EXPECT_TRUE(report.Satisfies(KmPostulate::kR3Consistency));
  EXPECT_TRUE(report.Satisfies(KmPostulate::kR4Syntax));
  EXPECT_TRUE(report.Satisfies(KmPostulate::kR5Conjunction));
  EXPECT_TRUE(report.Satisfies(KmPostulate::kR6Conjunction));
  EXPECT_FALSE(report.ToString(vocabulary).empty());
}

TEST(PostulateCheckerTest, WinslettProfilesAsKmUpdateOperator) {
  Vocabulary vocabulary;
  const WinslettOperator winslett;
  PostulateSweepOptions options;
  options.trials = 30;
  const PostulateReport report =
      CheckKmPostulates(winslett, options, &vocabulary);
  EXPECT_TRUE(report.Satisfies(KmPostulate::kR1Success));
  EXPECT_TRUE(report.Satisfies(KmPostulate::kR3Consistency));
  EXPECT_TRUE(report.Satisfies(KmPostulate::kU2UpdateVacuity));
  EXPECT_TRUE(report.Satisfies(KmPostulate::kU8Disjunction));
  // R2 must show violations (it is an update, not a revision, operator)
  // and the report must carry a witness.
  EXPECT_FALSE(report.Satisfies(KmPostulate::kR2Vacuity));
  for (size_t i = 0; i < report.postulates.size(); ++i) {
    if (report.postulates[i] == KmPostulate::kR2Vacuity) {
      EXPECT_TRUE(report.witnesses[i].has_value());
    }
  }
}

TEST(PostulateCheckerTest, SweepIsDeterministicForFixedSeed) {
  Vocabulary vocabulary;
  const WeberOperator weber;
  PostulateSweepOptions options;
  options.trials = 10;
  options.seed = 99;
  const PostulateReport a = CheckKmPostulates(weber, options, &vocabulary);
  const PostulateReport b = CheckKmPostulates(weber, options, &vocabulary);
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.checked, b.checked);
}

}  // namespace
}  // namespace revise
