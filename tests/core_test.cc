#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "compact/iterated_revision.h"
#include "core/advice_oracle.h"
#include "core/knowledge_base.h"
#include "core/io.h"
#include "core/kb_artifact.h"
#include "core/librevise.h"  // umbrella must be self-contained
#include "hardness/random_instances.h"
#include "logic/parser.h"
#include "model/canonical.h"
#include "obs/metrics.h"
#include "revision/formula_based.h"
#include "revision/iterated.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/file.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceModels;
using ::revise::testing::BruteForceSat;

// Create, for the operator/strategy pairs it accepts.
KnowledgeBase MakeKb(const Theory& t, const RevisionOperator* op,
                     RevisionStrategy strategy, Vocabulary* vocabulary) {
  return KnowledgeBase::Create(t, op, strategy, vocabulary).value();
}

// Create is the only way in: the constructor, which skipped its checks,
// is private, so a compact GFUV or Nebel KB can no longer be built and
// then abort on its first Revise.
static_assert(!std::is_constructible_v<KnowledgeBase, Theory,
                                       const RevisionOperator*,
                                       RevisionStrategy, Vocabulary*>);

TEST(KnowledgeBaseTest, CreateRejectsCompactGfuv) {
  // Exactly compact GFUV and Nebel are rejected; every other pair is
  // created and revises.
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & b", &vocabulary);
  const Formula p = ParseOrDie("!a", &vocabulary);
  for (const RevisionOperator* op : AllOperators()) {
    for (const RevisionStrategy strategy :
         {RevisionStrategy::kDelayed, RevisionStrategy::kExplicit,
          RevisionStrategy::kCompact}) {
      const bool unsupported =
          strategy == RevisionStrategy::kCompact &&
          (op->id() == OperatorId::kGfuv || op->id() == OperatorId::kNebel);
      StatusOr<KnowledgeBase> kb =
          KnowledgeBase::Create(t, op, strategy, &vocabulary);
      ASSERT_EQ(kb.ok(), !unsupported) << op->name();
      if (unsupported) {
        EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(kb.status().message().find(op->name()), std::string::npos);
        continue;
      }
      kb->Revise(p);
      EXPECT_TRUE(kb->Ask(ParseOrDie("!a", &vocabulary))) << op->name();
    }
  }
}

TEST(KnowledgeBaseTest, OfficeExampleEndToEnd) {
  // The George & Bill example through the public API.
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("g | b", &vocabulary);
  KnowledgeBase kb = MakeKb(t, OperatorById(OperatorId::kDalal),
                            RevisionStrategy::kDelayed, &vocabulary);
  EXPECT_FALSE(kb.Ask(ParseOrDie("b", &vocabulary)));
  kb.Revise(ParseOrDie("!g", &vocabulary));
  EXPECT_TRUE(kb.Ask(ParseOrDie("b", &vocabulary)));
  EXPECT_TRUE(kb.Ask(ParseOrDie("!g", &vocabulary)));
  EXPECT_EQ(1u, kb.num_revisions());
}

TEST(KnowledgeBaseTest, AskBeforeAnyRevision) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a; a -> b", &vocabulary);
  for (const RevisionStrategy strategy :
       {RevisionStrategy::kDelayed, RevisionStrategy::kExplicit,
        RevisionStrategy::kCompact}) {
    KnowledgeBase kb =
        MakeKb(t, OperatorById(OperatorId::kDalal), strategy, &vocabulary);
    EXPECT_TRUE(kb.Ask(ParseOrDie("b", &vocabulary)));
    EXPECT_FALSE(kb.Ask(ParseOrDie("!a", &vocabulary)));
  }
}

struct StrategyAgreementCase {
  OperatorId op;
  int seed;
};

class StrategyAgreementTest
    : public ::testing::TestWithParam<StrategyAgreementCase> {};

TEST_P(StrategyAgreementTest, AllStrategiesAnswerQueriesIdentically) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(vocabulary.InternIndexed("k", i));
  }
  const Alphabet alphabet(vars);
  // Bounded-alphabet updates so the compact steps apply to all operators.
  const std::vector<Var> p_vars(vars.begin(), vars.begin() + 2);
  Rng rng(GetParam().seed);
  const RevisionOperator* op = OperatorById(GetParam().op);
  for (int trial = 0; trial < 3; ++trial) {
    Formula t_formula = RandomFormula(vars, 3, &rng);
    while (!BruteForceSat(t_formula, alphabet)) {
      t_formula = RandomFormula(vars, 3, &rng);
    }
    const Theory t({t_formula});
    KnowledgeBase delayed =
        MakeKb(t, op, RevisionStrategy::kDelayed, &vocabulary);
    KnowledgeBase explicit_kb =
        MakeKb(t, op, RevisionStrategy::kExplicit, &vocabulary);
    KnowledgeBase compact =
        MakeKb(t, op, RevisionStrategy::kCompact, &vocabulary);
    for (int step = 0; step < 3; ++step) {
      Formula p = RandomFormula(p_vars, 2, &rng);
      while (!BruteForceSat(p, alphabet)) {
        p = RandomFormula(p_vars, 2, &rng);
      }
      delayed.Revise(p);
      explicit_kb.Revise(p);
      compact.Revise(p);
      // Model sets over the original letters agree across strategies.
      const ModelSet reference = delayed.Models();
      ASSERT_EQ(reference, explicit_kb.Models())
          << op->name() << " step " << step;
      ASSERT_EQ(reference.ProjectTo(alphabet),
                compact.Models().ProjectTo(alphabet))
          << op->name() << " step " << step;
      // Spot-check queries.
      for (int q = 0; q < 4; ++q) {
        const Formula query = RandomFormula(vars, 2, &rng);
        const bool expected = delayed.Ask(query);
        ASSERT_EQ(expected, explicit_kb.Ask(query)) << op->name();
        ASSERT_EQ(expected, compact.Ask(query)) << op->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, StrategyAgreementTest,
    ::testing::Values(
        StrategyAgreementCase{OperatorId::kDalal, 1},
        StrategyAgreementCase{OperatorId::kWeber, 2},
        StrategyAgreementCase{OperatorId::kWinslett, 3},
        StrategyAgreementCase{OperatorId::kBorgida, 4},
        StrategyAgreementCase{OperatorId::kSatoh, 5},
        StrategyAgreementCase{OperatorId::kForbus, 6},
        StrategyAgreementCase{OperatorId::kWidtio, 7}));

TEST(KnowledgeBaseTest, IsModelMatchesModels) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & b & c", &vocabulary);
  KnowledgeBase kb = MakeKb(t, OperatorById(OperatorId::kDalal),
                            RevisionStrategy::kDelayed, &vocabulary);
  kb.Revise(ParseOrDie("!a | !b", &vocabulary));
  const Alphabet alphabet = kb.CurrentAlphabet();
  const ModelSet models = kb.Models();
  for (uint64_t v = 0; v < (uint64_t{1} << alphabet.size()); ++v) {
    const Interpretation m = Interpretation::FromIndex(alphabet.size(), v);
    EXPECT_EQ(models.Contains(m), kb.IsModel(m, alphabet));
  }
}

TEST(KnowledgeBaseTest, ExplicitGfuvAnswersAlikeBeforeAndAfterIsModel) {
  // The IsModel fill reads a truth table of folded() and leaves Ask's
  // solver as it was; Ask then answers on the memo.  Answers on the
  // solver before the fill, on the memo after it, and on a copy (a fresh
  // solver) must agree with SAT entailment on folded().
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a; b; c; a & b -> d", &vocabulary);
  KnowledgeBase kb = MakeKb(t, OperatorById(OperatorId::kGfuv),
                            RevisionStrategy::kExplicit, &vocabulary);
  kb.Revise(ParseOrDie("!a | !b", &vocabulary));
  kb.Revise(ParseOrDie("!c | !d", &vocabulary));
  std::vector<Formula> queries;
  for (const char* text : {"a | b", "a", "!c | !d", "c", "d -> !c", "b & c",
                           "a | z", "z | !z"}) {
    queries.push_back(ParseOrDie(text, &vocabulary));
  }
  const KnowledgeBase unfilled = kb;
  std::vector<bool> before;
  for (const Formula& q : queries) before.push_back(kb.Ask(q));
  const Alphabet alphabet = kb.CurrentAlphabet();
  const ModelSet want = BruteForceModels(kb.folded(), alphabet);
  for (uint64_t v = 0; v < (uint64_t{1} << alphabet.size()); ++v) {
    const Interpretation m = Interpretation::FromIndex(alphabet.size(), v);
    EXPECT_EQ(kb.IsModel(m, alphabet), want.Contains(m));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool expected = Entails(kb.folded(), queries[i]);
    EXPECT_EQ(before[i], expected) << i;
    EXPECT_EQ(kb.Ask(queries[i]), expected) << i;
    EXPECT_EQ(unfilled.Ask(queries[i]), expected) << i;
  }
  EXPECT_EQ(kb.Models(), want);
}

TEST(KnowledgeBaseTest, StrategiesAgreeOnQueriesBeyondTheKbLetters) {
  // Ask and IsModel under all three strategies, with queries and model
  // alphabets that reach letters the KB never mentions.
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & b; c -> a", &vocabulary);
  const std::vector<Formula> updates = {ParseOrDie("!a | !b", &vocabulary),
                                        ParseOrDie("c | !b", &vocabulary)};
  const Var outside = vocabulary.Intern("out0");
  const std::vector<Formula> queries = {
      ParseOrDie("a | b", &vocabulary),
      ParseOrDie("a | b | out0", &vocabulary),
      ParseOrDie("(a ^ b) | (out0 & out1)", &vocabulary),
      ParseOrDie("out0 -> (c | !c)", &vocabulary),
      ParseOrDie("out2", &vocabulary),
      ParseOrDie("(out1 <-> a) | (out1 <-> !a)", &vocabulary),
      ParseOrDie("c & out2", &vocabulary)};
  for (const OperatorId id :
       {OperatorId::kDalal, OperatorId::kWeber, OperatorId::kWinslett,
        OperatorId::kSatoh}) {
    const RevisionOperator* op = OperatorById(id);
    std::vector<KnowledgeBase> kbs;
    for (const RevisionStrategy strategy :
         {RevisionStrategy::kDelayed, RevisionStrategy::kExplicit,
          RevisionStrategy::kCompact}) {
      StatusOr<KnowledgeBase> kb =
          KnowledgeBase::Create(t, op, strategy, &vocabulary);
      ASSERT_TRUE(kb.ok());
      kbs.push_back(*std::move(kb));
    }
    for (const Formula& p : updates) {
      for (KnowledgeBase& kb : kbs) kb.Revise(p);
      for (const Formula& query : queries) {
        const bool expected = kbs[0].Ask(query);
        EXPECT_EQ(expected, Entails(CanonicalDnf(kbs[0].Models()), query))
            << op->name();
        EXPECT_EQ(expected, kbs[1].Ask(query)) << op->name();
        EXPECT_EQ(expected, kbs[2].Ask(query)) << op->name();
      }
      // Interpretations over the KB letters plus one outside letter.
      std::vector<Var> vars = kbs[0].CurrentAlphabet().vars();
      vars.push_back(outside);
      const Alphabet wide(vars);
      for (uint64_t v = 0; v < (uint64_t{1} << wide.size()); ++v) {
        const Interpretation m = Interpretation::FromIndex(wide.size(), v);
        const bool expected = kbs[0].IsModel(m, wide);
        EXPECT_EQ(expected, kbs[1].IsModel(m, wide)) << op->name();
        EXPECT_EQ(expected, kbs[2].IsModel(m, wide)) << op->name();
      }
    }
  }
}

TEST(KnowledgeBaseTest, DelayedKbLoadedFromArtifactAnswersAcrossRevise) {
  Vocabulary vocabulary;
  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      Theory::ParseOrDie("a & b & c", &vocabulary),
      OperatorById(OperatorId::kDalal), RevisionStrategy::kDelayed,
      &vocabulary);
  ASSERT_TRUE(kb.ok());
  kb->Revise(ParseOrDie("!a | !b", &vocabulary));
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("core_delayed_" + std::to_string(::getpid()) +
                             ".rkb"))
                               .string();
  ASSERT_TRUE(SaveKnowledgeBaseArtifact(*kb, path).ok());
  Vocabulary fresh;
  StatusOr<KnowledgeBase> loaded = LoadKnowledgeBaseArtifact(path, &fresh);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Before any Revise, from the memo the artifact seeded: Dalal keeps
  // c and exactly one of a, b.
  EXPECT_TRUE(loaded->Ask(ParseOrDie("c & (a ^ b)", &fresh)));
  EXPECT_FALSE(loaded->Ask(ParseOrDie("a", &fresh)));
  EXPECT_FALSE(loaded->Ask(ParseOrDie("c & z", &fresh)));
  EXPECT_TRUE(loaded->Ask(ParseOrDie("c | z", &fresh)));
  const Alphabet before = loaded->CurrentAlphabet();
  Interpretation m(before.size());
  m.Set(*before.IndexOf(fresh.Find("a")), true);
  m.Set(*before.IndexOf(fresh.Find("c")), true);
  EXPECT_TRUE(loaded->IsModel(m, before));
  // The first Revise is folded into the seeded memo at the next query;
  // answers follow the new state.
  loaded->Revise(ParseOrDie("!c & z", &fresh));
  EXPECT_TRUE(loaded->Ask(ParseOrDie("!c & z & (a ^ b)", &fresh)));
  EXPECT_FALSE(loaded->Ask(ParseOrDie("c", &fresh)));
  const Alphabet after = loaded->CurrentAlphabet();
  Interpretation n(after.size());
  n.Set(*after.IndexOf(fresh.Find("b")), true);
  n.Set(*after.IndexOf(fresh.Find("z")), true);
  EXPECT_TRUE(loaded->IsModel(n, after));
  EXPECT_FALSE(loaded->IsModel(Reinterpret(m, before, after), after));
}

// After a kExplicit Revise: folded() is the fold the operator's own
// ReviseFormula gives on the previous folded theory, Models() is exactly
// the models of folded(), and Ask agrees with SAT entailment on folded(),
// both before Models() (on whatever memo Revise left) and after it.
void ExpectExplicitFold(const KnowledgeBase& kb, const Formula& expected,
                        const std::vector<Formula>& queries,
                        const std::string& label) {
  EXPECT_TRUE(kb.folded().StructurallyEqual(expected)) << label;
  for (const Formula& q : queries) {
    EXPECT_EQ(kb.Ask(q), Entails(kb.folded(), q)) << label;
  }
  EXPECT_EQ(kb.Models(), EnumerateModels(kb.folded(), kb.CurrentAlphabet()))
      << label;
  for (const Formula& q : queries) {
    EXPECT_EQ(kb.Ask(q), Entails(kb.folded(), q)) << label;
  }
}

TEST(KnowledgeBaseTest, ExplicitFoldMatchesReviseFormulaAcrossChains) {
  Vocabulary vocabulary;
  const struct {
    const char* label;
    const char* theory;
    std::vector<const char*> updates;
  } chains[] = {
      // d and e are new letters; the last update shrinks nothing.
      {"satisfiable", "a & b; c -> a",
       {"!a | !b", "c | !b", "d & !c", "e ^ a"}},
      // T unsatisfiable (no models); then an unsatisfiable update folds
      // to False, and the next one starts from letters the KB lost.
      {"unsatisfiable", "a; !a; b", {"a | c", "c & !c", "d | a", "!d"}},
  };
  const std::vector<Formula> queries = {
      ParseOrDie("a | b", &vocabulary),
      ParseOrDie("!a -> b", &vocabulary),
      ParseOrDie("a | out0", &vocabulary),
      ParseOrDie("(d ^ e) | out1", &vocabulary),
      ParseOrDie("out0", &vocabulary),
      ParseOrDie("c & out2", &vocabulary),
      ParseOrDie("(out1 <-> d) | (out1 <-> !d)", &vocabulary)};
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    for (const auto& chain : chains) {
      const Theory t = Theory::ParseOrDie(chain.theory, &vocabulary);
      KnowledgeBase kb =
          MakeKb(t, op, RevisionStrategy::kExplicit, &vocabulary);
      Theory previous = t;
      for (size_t i = 0; i < chain.updates.size(); ++i) {
        const Formula p = ParseOrDie(chain.updates[i], &vocabulary);
        const Formula expected = op->ReviseFormula(previous, p);
        kb.Revise(p);
        ExpectExplicitFold(kb, expected, queries,
                           std::string(op->name()) + " " + chain.label +
                               " step " + std::to_string(i));
        previous = Theory({expected});
      }
    }
  }
}

TEST(KnowledgeBaseTest, ExplicitKbLoadedFromArtifactRevisesFromItsMemo) {
  Vocabulary vocabulary;
  const std::vector<Formula> queries = {
      ParseOrDie("c & (a ^ b)", &vocabulary),
      ParseOrDie("a | z", &vocabulary), ParseOrDie("!c | w", &vocabulary)};
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    KnowledgeBase kb =
        MakeKb(Theory::ParseOrDie("a & b & c", &vocabulary), op,
               RevisionStrategy::kExplicit, &vocabulary);
    kb.Revise(ParseOrDie("!a | !b", &vocabulary));
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("core_explicit_" + std::to_string(::getpid()) + ".rkb"))
            .string();
    ASSERT_TRUE(SaveKnowledgeBaseArtifact(kb, path).ok());
    // Loading into the same vocabulary keeps the formulas comparable.
    StatusOr<KnowledgeBase> loaded =
        LoadKnowledgeBaseArtifact(path, &vocabulary);
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Theory previous({loaded->folded()});
    for (const char* text : {"!c & z", "a | !z", "w -> b"}) {
      const Formula p = ParseOrDie(text, &vocabulary);
      const Formula expected = op->ReviseFormula(previous, p);
      loaded->Revise(p);
      ExpectExplicitFold(*loaded, expected, queries,
                         std::string(op->name()) + " after " + text);
      previous = Theory({expected});
    }
  }
}

TEST(KnowledgeBaseTest, ExplicitReviseKeepsItsModelSet) {
  // Under a model-based operator explicit and delayed Revise share one
  // model-set memo, which each later Revise (explicit) or query (delayed)
  // carries forward: after the first fill, queries over the KB's letters
  // and later revisions with small updates run no enumeration and no SAT
  // solve.
  obs::Registry& registry = obs::Registry::Global();
  const auto work = [&] {
    return registry.GetCounter("sat.solves")->Value() +
           registry.GetCounter("solve.model_cache.hits")->Value() +
           registry.GetCounter("solve.model_cache.misses")->Value();
  };
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & b; c -> a", &vocabulary);
  const std::vector<Formula> updates = {ParseOrDie("!a | !b", &vocabulary),
                                        ParseOrDie("c | !b", &vocabulary),
                                        ParseOrDie("d & !c", &vocabulary)};
  const Formula query = ParseOrDie("a | c", &vocabulary);
  for (const RevisionStrategy strategy :
       {RevisionStrategy::kExplicit, RevisionStrategy::kDelayed}) {
    for (const ModelBasedOperator* op : AllModelBasedOperators()) {
      const std::string label =
          std::string(op->name()) +
          (strategy == RevisionStrategy::kDelayed ? " delayed" : " explicit");
      KnowledgeBase kb = MakeKb(t, op, strategy, &vocabulary);
      kb.Revise(updates[0]);
      const bool first = kb.Ask(query);  // fills the memo
      const uint64_t before = work();
      kb.Revise(updates[1]);
      const bool second = kb.Ask(query);
      kb.Revise(updates[2]);
      const ModelSet models = kb.Models();
      const bool third = kb.Ask(query);
      const Alphabet alphabet = kb.CurrentAlphabet();
      const bool is_model = kb.IsModel(models[0], alphabet);
      EXPECT_EQ(before, work()) << label;
      // The from-scratch revision by the first n updates.
      const auto reference = [&](size_t n) {
        const std::vector<Formula> prefix(updates.begin(),
                                          updates.begin() + n);
        return IteratedReviseModels(*op, t, prefix,
                                    IteratedAlphabet(t, prefix));
      };
      EXPECT_EQ(first, Entails(CanonicalDnf(reference(1)), query)) << label;
      EXPECT_EQ(second, Entails(CanonicalDnf(reference(2)), query)) << label;
      EXPECT_EQ(models, reference(3)) << label;
      EXPECT_EQ(third, Entails(CanonicalDnf(models), query)) << label;
      EXPECT_TRUE(is_model) << label;
    }
  }
}

TEST(KnowledgeBaseTest, DelayedKbCopiedWithAPendingUpdateCatchesUpAlone) {
  // A delayed copy taken while its memo is one update behind catches up
  // on its own; neither the copy nor the original sees the other's
  // later revisions.
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & b; b -> c", &vocabulary);
  const std::vector<Formula> updates = {ParseOrDie("!a | !c", &vocabulary),
                                        ParseOrDie("!b | d", &vocabulary),
                                        ParseOrDie("a ^ e", &vocabulary),
                                        ParseOrDie("!d & f", &vocabulary)};
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    KnowledgeBase kb = MakeKb(t, op, RevisionStrategy::kDelayed, &vocabulary);
    kb.Revise(updates[0]);
    ASSERT_FALSE(kb.Models().empty()) << op->name();
    kb.Revise(updates[1]);  // pending
    KnowledgeBase copy = kb;
    EXPECT_EQ(copy.Models(),
              IteratedReviseModels(*op, t, {updates[0], updates[1]},
                                   copy.CurrentAlphabet()))
        << op->name();
    copy.Revise(updates[3]);
    kb.Revise(updates[2]);
    EXPECT_EQ(kb.Models(),
              IteratedReviseModels(*op, t, {updates[0], updates[1], updates[2]},
                                   kb.CurrentAlphabet()))
        << op->name();
    EXPECT_EQ(copy.Models(),
              IteratedReviseModels(*op, t, {updates[0], updates[1], updates[3]},
                                   copy.CurrentAlphabet()))
        << op->name();
  }
}

TEST(KnowledgeBaseTest, DelayedKbLoadedFromArtifactRevisesFromItsMemo) {
  // A loaded delayed KB's memo has absorbed every saved update; further
  // revisions, some with letters new to the KB, are folded into it.
  Vocabulary vocabulary;
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    KnowledgeBase kb =
        MakeKb(Theory::ParseOrDie("a & b & c; c -> d", &vocabulary), op,
               RevisionStrategy::kDelayed, &vocabulary);
    // Folding "!a" and "a | !b" in a second time changes the result, so
    // a loaded memo treated as not having absorbed them would show.
    kb.Revise(ParseOrDie("!a", &vocabulary));
    kb.Revise(ParseOrDie("a | !b", &vocabulary));
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("core_delayed_memo_" + std::to_string(::getpid()) + ".rkb"))
            .string();
    ASSERT_TRUE(SaveKnowledgeBaseArtifact(kb, path).ok());
    // Loading into the same vocabulary keeps the model sets comparable.
    StatusOr<KnowledgeBase> loaded =
        LoadKnowledgeBaseArtifact(path, &vocabulary);
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->Models(), kb.Models()) << op->name();
    for (const char* text : {"!c & z", "a | !z", "w -> b"}) {
      loaded->Revise(ParseOrDie(text, &vocabulary));
      EXPECT_EQ(loaded->Models(),
                IteratedReviseModels(*op, loaded->initial(), loaded->updates(),
                                     loaded->CurrentAlphabet()))
          << op->name() << " after " << text;
    }
  }
}

TEST(KnowledgeBaseTest, StoredSizeReflectsStrategy) {
  // On Nebel's explosion family, explicit storage under GFUV blows up
  // while delayed storage stays linear.
  Vocabulary vocabulary;
  Theory t;
  std::vector<Formula> xors;
  for (int i = 0; i < 4; ++i) {
    const Formula x =
        Formula::Variable(vocabulary.InternIndexed("sx", i));
    const Formula y =
        Formula::Variable(vocabulary.InternIndexed("sy", i));
    t.Add(x);
    t.Add(y);
    xors.push_back(Formula::Xor(x, y));
  }
  const Formula p = ConjoinAll(xors);
  KnowledgeBase delayed = MakeKb(t, OperatorById(OperatorId::kGfuv),
                                 RevisionStrategy::kDelayed, &vocabulary);
  KnowledgeBase explicit_kb = MakeKb(t, OperatorById(OperatorId::kGfuv),
                                     RevisionStrategy::kExplicit,
                                     &vocabulary);
  delayed.Revise(p);
  explicit_kb.Revise(p);
  EXPECT_EQ(t.VarOccurrences() + p.VarOccurrences(), delayed.StoredSize());
  // 2^4 worlds of 4+ letters each, plus P.
  EXPECT_GT(explicit_kb.StoredSize(), delayed.StoredSize());
  EXPECT_GE(explicit_kb.StoredSize(), 16u * 4u);
}

TEST(KnowledgeBaseTest, CompactStaysPolynomialWhereExplicitExplodes) {
  // Dalal over a chain of forced contradictions: the explicit canonical
  // DNF can be large; the compact Phi grows linearly per step.
  Vocabulary vocabulary;
  std::vector<Formula> letters;
  for (int i = 0; i < 6; ++i) {
    letters.push_back(
        Formula::Variable(vocabulary.InternIndexed("c", i)));
  }
  const Theory t({ConjoinAll(letters)});
  KnowledgeBase compact = MakeKb(t, OperatorById(OperatorId::kDalal),
                                 RevisionStrategy::kCompact, &vocabulary);
  uint64_t previous = compact.StoredSize();
  uint64_t max_increment = 0;
  for (int step = 0; step < 5; ++step) {
    compact.Revise(Formula::Not(letters[step]));
    const uint64_t size = compact.StoredSize();
    max_increment = std::max(max_increment, size - previous);
    previous = size;
  }
  // Linear growth: bounded per-step increment (generous constant).
  EXPECT_LE(max_increment, 600u);
}

TEST(KnowledgeBaseTest, CompactAskStaysCorrectAcrossAThousandQueries) {
  // Compact Ask runs on one incremental solver per KB state.  1,000
  // distinct queries retire far more encoding than the compact formula's
  // own, so the solver is rebuilt along the way, yet it is reused across
  // many queries between rebuilds; every answer must match a fresh solver.
  Vocabulary vocabulary;
  KnowledgeBase kb = MakeKb(
      Theory::ParseOrDie("q0 & q1 & (q2 | q3); q4 -> q5", &vocabulary),
      OperatorById(OperatorId::kDalal), RevisionStrategy::kCompact,
      &vocabulary);
  kb.Revise(ParseOrDie("!q0 | !q2", &vocabulary));
  kb.Revise(ParseOrDie("!q1 & q4", &vocabulary));
  // Six KB letters and one foreign letter.
  std::vector<Formula> letters;
  for (const char* name : {"q0", "q1", "q2", "q3", "q4", "q5", "outside"}) {
    letters.push_back(Formula::Variable(vocabulary.Intern(name)));
  }
  obs::Counter* rebuilds =
      obs::Registry::Global().GetCounter("solve.entails.rebuilds");
  const uint64_t rebuilds_before = rebuilds->Value();
  int entailed = 0;
  for (int i = 1; i <= 1000; ++i) {
    // The base-3 digits of i pick each letter as absent, positive or
    // negated, so every query is a different clause.
    std::vector<Formula> literals;
    for (int digits = i, j = 0; digits > 0; digits /= 3, ++j) {
      if (digits % 3 == 1) literals.push_back(letters[j]);
      if (digits % 3 == 2) literals.push_back(Formula::Not(letters[j]));
    }
    const Formula query = Formula::Or(literals);
    const bool expected = Entails(kb.folded(), query);
    ASSERT_EQ(kb.Ask(query), expected) << "query " << i;
    entailed += expected ? 1 : 0;
  }
  EXPECT_GT(entailed, 0);
  EXPECT_LT(entailed, 1000);
  const uint64_t rebuilt = rebuilds->Value() - rebuilds_before;
  EXPECT_GE(rebuilt, 1u);
  EXPECT_LT(rebuilt, 100u);
}

TEST(KnowledgeBaseTest, CopiedCompactKbAnswersAfterTheOriginalRevises) {
  // A copy does not share the original's solver: revising the original
  // (which drops and later rebuilds its solver) leaves the copy answering
  // for the state it was copied in.
  Vocabulary vocabulary;
  KnowledgeBase kb =
      MakeKb(Theory::ParseOrDie("a & b; b -> c", &vocabulary),
             OperatorById(OperatorId::kDalal), RevisionStrategy::kCompact,
             &vocabulary);
  kb.Revise(ParseOrDie("!a | !c", &vocabulary));
  const Formula b = ParseOrDie("b", &vocabulary);
  ASSERT_TRUE(kb.Ask(b));  // builds the original's solver
  const KnowledgeBase copy = kb;
  const Formula copied_fold = copy.folded();
  kb.Revise(ParseOrDie("!b", &vocabulary));
  EXPECT_TRUE(copy.Ask(b));
  EXPECT_FALSE(kb.Ask(b));
  for (const char* text : {"b", "!b", "a | c", "c", "a & c", "a | y"}) {
    const Formula query = ParseOrDie(text, &vocabulary);
    EXPECT_EQ(copy.Ask(query), Entails(copied_fold, query)) << text;
    EXPECT_EQ(kb.Ask(query), Entails(kb.folded(), query)) << text;
  }
  EXPECT_TRUE(copy.folded().StructurallyEqual(copied_fold));
}

bool HasCompactForm(const RevisionOperator& op) {
  return op.id() != OperatorId::kGfuv && op.id() != OperatorId::kNebel;
}

TEST(KnowledgeBaseTest, CompactReviseAfterAnUnsatisfiableUpdateFoldsToP) {
  // An unsatisfiable update empties a compact KB; the next, satisfiable P
  // is then the whole KB.  Revise learns that the prior is unsatisfiable
  // without a SAT call on it: from the last update (R3), or from the
  // empty memo Models() left.
  for (const bool with_memo : {false, true}) {
    for (const RevisionOperator* op : AllOperators()) {
      if (!HasCompactForm(*op)) continue;
      Vocabulary vocabulary;
      KnowledgeBase kb =
          MakeKb(Theory::ParseOrDie("a & b; b -> c", &vocabulary), op,
                 RevisionStrategy::kCompact, &vocabulary);
      kb.Revise(ParseOrDie("!a", &vocabulary));
      kb.Revise(ParseOrDie("c & !c", &vocabulary));
      ASSERT_FALSE(IsSatisfiable(kb.folded())) << op->name();
      if (with_memo) {
        ASSERT_TRUE(kb.Models().empty()) << op->name();
      }
      const Formula p = ParseOrDie("a | !c", &vocabulary);
      kb.Revise(p);
      EXPECT_TRUE(AreEquivalent(kb.folded(), p)) << op->name();
      if (op->id() != OperatorId::kWidtio) {
        EXPECT_TRUE(kb.folded().StructurallyEqual(p)) << op->name();
      }
      EXPECT_TRUE(kb.Ask(p)) << op->name();
      EXPECT_FALSE(kb.Ask(ParseOrDie("a", &vocabulary))) << op->name();
    }
  }
}

TEST(KnowledgeBaseTest, CompactChainMatchesTheIteratedHelpers) {
  // Five compact Revise steps, some after a Models() memo and one with an
  // unsatisfiable update, build exactly the formulas of the iterated
  // helpers, whose steps SAT-check every prior themselves.  The two
  // vocabularies intern the same letters in the same order, so the fresh
  // letters the steps mint coincide too.
  const char* const kTheory = "(a | b) & (b -> c) & (!a | !d)";
  const char* const kUpdates[] = {"!b", "a & d", "c & !c", "!a | b", "d"};
  for (const RevisionOperator* op : AllOperators()) {
    if (!HasCompactForm(*op) || op->id() == OperatorId::kWidtio) continue;
    Vocabulary kb_vocabulary;
    Vocabulary helper_vocabulary;
    const Theory t = Theory::ParseOrDie(kTheory, &kb_vocabulary);
    const Theory helper_t = Theory::ParseOrDie(kTheory, &helper_vocabulary);
    std::vector<Formula> updates;
    for (const char* text : kUpdates) {
      updates.push_back(ParseOrDie(text, &kb_vocabulary));
      static_cast<void>(ParseOrDie(text, &helper_vocabulary));
    }
    KnowledgeBase kb =
        MakeKb(t, op, RevisionStrategy::kCompact, &kb_vocabulary);
    for (size_t i = 0; i < updates.size(); ++i) {
      if (i % 2 == 1) static_cast<void>(kb.Models());
      kb.Revise(updates[i]);
    }
    // Every update's letters are T's, so the query alphabet stays put.
    const std::vector<Var> x = IteratedAlphabet(t, updates).vars();
    std::vector<Formula> steps;
    switch (op->id()) {
      case OperatorId::kDalal:
        steps = DalalCompactIterated(helper_t.AsFormula(), updates, x,
                                     &helper_vocabulary);
        break;
      case OperatorId::kWeber:
        steps = WeberCompactIterated(helper_t.AsFormula(), updates, x,
                                     &helper_vocabulary);
        break;
      case OperatorId::kWinslett:
        steps = CompactIterated(&WinslettCompactStep, helper_t.AsFormula(),
                                updates, &helper_vocabulary);
        break;
      case OperatorId::kBorgida:
        steps = CompactIterated(&BorgidaCompactStep, helper_t.AsFormula(),
                                updates, &helper_vocabulary);
        break;
      case OperatorId::kSatoh:
        steps = CompactIterated(&SatohCompactStep, helper_t.AsFormula(),
                                updates, &helper_vocabulary);
        break;
      case OperatorId::kForbus:
        steps = CompactIterated(&ForbusCompactStep, helper_t.AsFormula(),
                                updates, &helper_vocabulary);
        break;
      default:
        FAIL() << op->name();
    }
    ASSERT_EQ(updates.size(), steps.size());
    EXPECT_TRUE(kb.folded().StructurallyEqual(steps.back())) << op->name();
    EXPECT_EQ(kb.StoredSize(), steps.back().VarOccurrences()) << op->name();
    EXPECT_EQ(kb_vocabulary.size(), helper_vocabulary.size()) << op->name();
  }
}

TEST(TheoryIoTest, TextRoundTrip) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie(
      "a & b; a -> (c | !d); x1 ^ y1", &vocabulary);
  const std::string text = TheoryToText(t, vocabulary);
  StatusOr<Theory> parsed = TheoryFromText(text, &vocabulary);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(t.size(), parsed->size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_TRUE(t[i].StructurallyEqual((*parsed)[i]));
  }
}

TEST(TheoryIoTest, CommentsAndBlankLines) {
  Vocabulary vocabulary;
  StatusOr<Theory> parsed = TheoryFromText(
      "# header\n\na & b  # trailing comment\n\n!c\n", &vocabulary);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(2u, parsed->size());
}

TEST(TheoryIoTest, ReportsLineNumbersOnErrors) {
  Vocabulary vocabulary;
  StatusOr<Theory> parsed =
      TheoryFromText("a\nb &\nc", &vocabulary);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(std::string::npos, parsed.status().message().find("line 2"));
}

TEST(TheoryIoTest, FileRoundTrip) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("p -> q; !q", &vocabulary);
  const std::string path = ::testing::TempDir() + "/revise_io_test.thy";
  ASSERT_TRUE(SaveTheoryToFile(t, vocabulary, path).ok());
  StatusOr<Theory> loaded = LoadTheoryFromFile(path, &vocabulary);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(t.size(), loaded->size());
  EXPECT_FALSE(LoadTheoryFromFile("/nonexistent/x.thy", &vocabulary).ok());
}

TEST(TheoryIoTest, SaveReportsFullDiskInsteadOfOk) {
  // Regression: SaveTheoryToFile once checked out.good() *before*
  // flushing, so a failing flush (ENOSPC) still returned Ok and the
  // caller believed its theory was durable.  /dev/full fails every
  // flush, which is exactly the constrained path.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available on this platform";
  }
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("p -> q; !q", &vocabulary);
  const Status status = SaveTheoryToFile(t, vocabulary, "/dev/full");
  ASSERT_FALSE(status.ok()) << "a write to a full disk reported success";
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("short write"), std::string::npos);
}

TEST(TheoryIoTest, FailedSaveKeepsThePreviousFile) {
  // Regression: SaveTheoryToFile once truncated the destination before
  // writing, so a failed save destroyed the previous theory file.  It now
  // writes beside the target and renames over it.
  Vocabulary vocabulary;
  const std::filesystem::path path =
      ::testing::TempDir() + "/revise_io_atomic_" +
      std::to_string(::getpid()) + ".thy";
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::filesystem::remove_all(tmp);
  ASSERT_TRUE(SaveTheoryToFile(Theory::ParseOrDie("p -> q; !q", &vocabulary),
                               vocabulary, path.string())
                  .ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  StatusOr<std::string> before = util::ReadFileText(path.string());
  ASSERT_TRUE(before.ok());

  // A directory where the temporary file goes makes the write fail.
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  const Status failed = SaveTheoryToFile(
      Theory::ParseOrDie("r", &vocabulary), vocabulary, path.string());
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  StatusOr<std::string> after = util::ReadFileText(path.string());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  EXPECT_TRUE(std::filesystem::is_directory(tmp));
  std::filesystem::remove(tmp);
  std::filesystem::remove(path);
}

TEST(AdviceOracleTest, DecidesSampled3SatInstancesCorrectly) {
  Vocabulary vocabulary;
  const AdviceOracle oracle(3, &vocabulary);
  EXPECT_GT(oracle.AdviceSize(), 0u);
  Rng rng(4242);
  for (int trial = 0; trial < 15; ++trial) {
    const auto pi = oracle.tau().RandomInstance(
        1 + rng.Below(oracle.tau().num_clauses()), &rng);
    EXPECT_EQ(IsSatisfiable(oracle.tau().InstanceFormula(pi)),
              oracle.IsSatisfiable(pi))
        << "instance size " << pi.size();
  }
  // The empty instance is satisfiable; the full tau_max is not.
  EXPECT_TRUE(oracle.IsSatisfiable({}));
  std::vector<size_t> all(oracle.tau().num_clauses());
  for (size_t j = 0; j < all.size(); ++j) all[j] = j;
  EXPECT_FALSE(oracle.IsSatisfiable(all));
}

// Repeating the same revision is idempotent for the KM revision
// operators: T * P |= P, so (T * P) & P is consistent and R2 collapses
// the second step.
TEST(IteratedPropertyTest, RepeatedRevisionIsIdempotent) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(vocabulary.InternIndexed("ip", i));
  }
  const Alphabet alphabet(vars);
  Rng rng(31337);
  for (int trial = 0; trial < 10; ++trial) {
    Formula t = RandomFormula(vars, 3, &rng);
    Formula p = RandomFormula(vars, 3, &rng);
    if (!BruteForceSat(t, alphabet) || !BruteForceSat(p, alphabet)) {
      continue;
    }
    for (const OperatorId id :
         {OperatorId::kBorgida, OperatorId::kSatoh, OperatorId::kDalal,
          OperatorId::kWeber, OperatorId::kWinslett, OperatorId::kForbus,
          OperatorId::kWidtio}) {
      const RevisionOperator* op = OperatorById(id);
      const ModelSet once = IteratedReviseModels(*op, Theory({t}), {p},
                                                 alphabet);
      const ModelSet twice = IteratedReviseModels(*op, Theory({t}),
                                                  {p, p}, alphabet);
      EXPECT_EQ(once, twice) << op->name();
    }
  }
}

// Nebel's operator with three priority classes: lower classes only ever
// give way to higher ones.
TEST(NebelPriorityTest, ThreeClassScenario) {
  Vocabulary vocabulary;
  const Formula law = ParseOrDie("!(speeding & legal)", &vocabulary);
  const Formula witness1 = ParseOrDie("speeding", &vocabulary);
  const Formula witness2 = ParseOrDie("legal", &vocabulary);
  const Formula rumor = ParseOrDie("!speeding & !legal", &vocabulary);
  // law > witnesses > rumor; revise with "speeding & legal is impossible
  // but at least one holds".
  const Formula p = ParseOrDie("speeding | legal", &vocabulary);
  const std::vector<Theory> classes = {Theory({law}),
                                       Theory({witness1, witness2}),
                                       Theory({rumor})};
  const auto worlds = PrioritizedMaximalSubsets(classes, p);
  // The law survives in every world; the rumor never does (it conflicts
  // with p given the law... actually with p directly).
  for (const uint64_t mask : worlds) {
    EXPECT_TRUE(mask & 0b0001) << "law dropped in a world";
    EXPECT_FALSE(mask & 0b1000) << "rumor survived";
  }
  // The two witnesses conflict (given the law): each world keeps exactly
  // one of them.
  for (const uint64_t mask : worlds) {
    const int witness_count =
        ((mask >> 1) & 1) + ((mask >> 2) & 1);
    EXPECT_EQ(1, witness_count);
  }
  EXPECT_EQ(2u, worlds.size());
}

}  // namespace
}  // namespace revise
