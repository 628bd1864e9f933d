#include <gtest/gtest.h>

#include <algorithm>

#include "hardness/random_instances.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "model/canonical.h"
#include "model/model_set.h"
#include "obs/metrics.h"
#include "solve/distance.h"
#include "solve/model_cache.h"
#include "solve/sat_context.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceModels;
using ::revise::testing::BruteForceSat;

TEST(ServicesTest, BasicSatisfiability) {
  Vocabulary vocabulary;
  EXPECT_TRUE(IsSatisfiable(ParseOrDie("a & !b", &vocabulary)));
  EXPECT_FALSE(IsSatisfiable(ParseOrDie("a & !a", &vocabulary)));
  EXPECT_TRUE(IsSatisfiable(Formula::True()));
  EXPECT_FALSE(IsSatisfiable(Formula::False()));
}

TEST(ServicesTest, BasicEntailment) {
  Vocabulary vocabulary;
  const Formula a_and_b = ParseOrDie("a & b", &vocabulary);
  const Formula a = ParseOrDie("a", &vocabulary);
  const Formula a_or_b = ParseOrDie("a | b", &vocabulary);
  EXPECT_TRUE(Entails(a_and_b, a));
  EXPECT_TRUE(Entails(a_and_b, a_or_b));
  EXPECT_FALSE(Entails(a_or_b, a));
  EXPECT_TRUE(Entails(Formula::False(), a));
}

TEST(ServicesTest, EntailedByModelsEdgeCases) {
  Vocabulary vocabulary;
  const Formula a = ParseOrDie("a", &vocabulary);
  const Formula z = ParseOrDie("z", &vocabulary);
  const Alphabet alphabet({vocabulary.Find("a")});
  const ModelSet only_a(alphabet, {Interpretation::FromIndex(1, 1)});
  // The empty set entails everything, even false.
  EXPECT_TRUE(EntailedByModels(ModelSet(alphabet, {}), Formula::False()));
  EXPECT_TRUE(EntailedByModels(only_a, a));
  EXPECT_FALSE(EntailedByModels(only_a, Formula::Not(a)));
  EXPECT_TRUE(EntailedByModels(only_a, Formula::True()));
  EXPECT_FALSE(EntailedByModels(only_a, Formula::False()));
  // z lies outside the alphabet, so it is unconstrained.
  EXPECT_FALSE(EntailedByModels(only_a, z));
  EXPECT_TRUE(EntailedByModels(only_a, Formula::Or(z, Formula::Not(z))));
  EXPECT_TRUE(EntailedByModels(only_a, Formula::Or(a, z)));
  EXPECT_FALSE(EntailedByModels(only_a, Formula::And(a, z)));
  // The single model over the empty alphabet: only tautologies follow.
  const ModelSet everything(Alphabet(), {Interpretation(0)});
  EXPECT_FALSE(EntailedByModels(everything, a));
  EXPECT_TRUE(EntailedByModels(everything, Formula::Implies(a, a)));
}

// The canonical DNF written minterm by minterm, with a fresh node for
// every literal occurrence.
Formula MintermByMintermDnf(const ModelSet& set) {
  std::vector<Formula> minterms;
  for (const Interpretation& m : set) {
    std::vector<Formula> literals;
    for (size_t i = 0; i < set.alphabet().size(); ++i) {
      literals.push_back(Formula::Literal(set.alphabet().var(i), m.Get(i)));
    }
    minterms.push_back(ConjoinAll(literals));
  }
  return DisjoinAll(minterms);
}

TEST(ServicesTest, EntailedByModelsMatchesCanonicalDnfEntailment) {
  Vocabulary vocabulary;
  std::vector<Var> inside;
  std::vector<Var> all;
  for (int i = 0; i < 6; ++i) {
    const Var v = vocabulary.InternIndexed("e", i);
    if (i < 4) inside.push_back(v);
    all.push_back(v);
  }
  const Alphabet alphabet(inside);
  Rng rng(4242);
  for (int round = 0; round < 200; ++round) {
    std::vector<Interpretation> models;
    for (uint64_t index = 0; index < 16; ++index) {
      if (rng.Below(3) == 0) {
        models.push_back(Interpretation::FromIndex(4, index));
      }
    }
    const ModelSet set(alphabet, std::move(models));
    // One literal node per letter and sign, |M| * |A| occurrences as
    // written, the same structure as the minterm-by-minterm DNF.
    const Formula dnf = CanonicalDnf(set);
    EXPECT_LE(dnf.DagSize(), set.size() + 2 * alphabet.size() + 1);
    EXPECT_EQ(dnf.VarOccurrences(), set.size() * alphabet.size());
    EXPECT_TRUE(dnf.StructurallyEqual(MintermByMintermDnf(set)));
    // Queries over the alphabet alone and over two letters outside it.
    for (const std::vector<Var>* vars : {&inside, &all}) {
      const Formula query = RandomFormula(*vars, 3, &rng);
      EXPECT_EQ(Entails(dnf, query),
                EntailedByModels(set, query))
          << "round " << round << ": " << ToString(query, vocabulary);
    }
  }
}

// Both sides of the truth-table width: queries over 16 letters take the
// table (outside letters folded out, several of them at word-level
// positions), queries over 17 the assumption-SAT branch; each over the
// alphabet alone and with foreign letters, and on the empty set.
TEST(ServicesTest, EntailedByModelsMatchesDnfEntailmentAtTheTableWidth) {
  Vocabulary vocabulary;
  std::vector<Var> inside;
  std::vector<Var> foreign;
  inside.reserve(17);
  foreign.reserve(6);
  for (int i = 0; i < 17; ++i) {
    inside.push_back(vocabulary.InternIndexed("a", i));
  }
  for (int i = 0; i < 6; ++i) {
    foreign.push_back(vocabulary.InternIndexed("y", i));
  }
  const Alphabet alphabet(inside);
  const Formula a0 = Formula::Variable(inside[0]);
  Rng rng(1617);
  size_t entailed = 0;
  size_t refuted = 0;
  for (int round = 0; round < 24; ++round) {
    // Half the rounds put a0 in every model, so "a0 | ..." is entailed.
    std::vector<Interpretation> rows;
    rows.reserve(40);
    for (int i = 0; i < 40; ++i) {
      Interpretation m = Interpretation::FromIndex(
          alphabet.size(), rng.Below(uint64_t{1} << alphabet.size()));
      if (round % 2 == 0) m.Set(0, true);
      rows.push_back(std::move(m));
    }
    const ModelSet set(alphabet, std::move(rows));
    const Formula dnf = CanonicalDnf(set);
    for (const size_t width : {size_t{16}, size_t{17}}) {
      for (const size_t outside : {size_t{0}, size_t{5}}) {
        std::vector<Var> vars(inside.begin(),
                              inside.begin() + (width - outside));
        vars.insert(vars.end(), foreign.begin(), foreign.begin() + outside);
        // The minterm mentions every letter, so |V(q)| == width.
        std::vector<Formula> minterm;
        minterm.reserve(vars.size());
        for (const Var v : vars) {
          minterm.push_back(Formula::Literal(v, rng.Chance(0.5)));
        }
        const Formula body =
            Formula::Or(RandomFormula(vars, 4, &rng), ConjoinAll(minterm));
        for (const Formula& query : {body, Formula::Or(a0, body)}) {
          ASSERT_EQ(query.Vars().size(), width);
          const bool want = Entails(dnf, query);
          (want ? entailed : refuted) += 1;
          EXPECT_EQ(EntailedByModels(set, query), want)
              << "round " << round << ", |V(q)| = " << width << ", "
              << outside << " foreign: " << ToString(query, vocabulary);
          EXPECT_TRUE(EntailedByModels(ModelSet(alphabet, {}), query));
        }
      }
    }
  }
  EXPECT_GT(entailed, 0u);
  EXPECT_GT(refuted, 0u);
}

TEST(ServicesTest, IntroExampleRevisionConclusion) {
  // Paper Section 1: T = g | b, P = !g; T & P |= !g & b.
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("g | b", &vocabulary);
  const Formula p = ParseOrDie("!g", &vocabulary);
  EXPECT_TRUE(Entails(Formula::And(t, p), ParseOrDie("!g & b", &vocabulary)));
}

TEST(ServicesTest, EquivalenceChecks) {
  Vocabulary vocabulary;
  EXPECT_TRUE(AreEquivalent(ParseOrDie("a -> b", &vocabulary),
                            ParseOrDie("!a | b", &vocabulary)));
  EXPECT_TRUE(AreEquivalent(ParseOrDie("a ^ b", &vocabulary),
                            ParseOrDie("(a | b) & !(a & b)", &vocabulary)));
  EXPECT_FALSE(AreEquivalent(ParseOrDie("a", &vocabulary),
                             ParseOrDie("b", &vocabulary)));
}

class RandomFormulaSolveTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFormulaSolveTest, EnumerationAgreesWithTruthTable) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    vars.push_back(vocabulary.Intern(name));
  }
  const Alphabet alphabet(vars);
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const Formula f = RandomFormula(vars, 5, &rng);
    const ModelSet expected = BruteForceModels(f, alphabet);
    const ModelSet actual = EnumerateModels(f, alphabet);
    ASSERT_EQ(expected, actual) << ToString(f, vocabulary);
    ASSERT_EQ(BruteForceSat(f, alphabet), IsSatisfiable(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFormulaSolveTest,
                         ::testing::Range(100, 108));

TEST(ServicesTest, EnumerationProjectsAuxiliaryVariables) {
  // f = (a | x) & (!x | b): models over {a, b} are the projections.
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("(a | x) & (!x | b)", &vocabulary);
  const Alphabet ab({vocabulary.Find("a"), vocabulary.Find("b")});
  const ModelSet models = EnumerateModels(f, ab);
  // Projections: a=1,b=0 (x=0); a=1,b=1; a=0,b=1 (x=1); not a=0,b=0.
  EXPECT_EQ(3u, models.size());
}

TEST(ServicesTest, EnumerationOverSupersetAlphabet) {
  // Letters not occurring in f take both values.
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a", &vocabulary);
  const Alphabet abc({vocabulary.Find("a"), vocabulary.Intern("b2"),
                      vocabulary.Intern("c2")});
  EXPECT_EQ(4u, EnumerateModels(f, abc).size());
}

TEST(ServicesTest, EnumerationLimit) {
  Vocabulary vocabulary;
  const Formula f = Formula::True();
  const Alphabet abc({vocabulary.Intern("a"), vocabulary.Intern("b"),
                      vocabulary.Intern("c")});
  EXPECT_EQ(3u, EnumerateModels(f, abc, 3).size());
  EXPECT_EQ(8u, EnumerateModels(f, abc).size());
}

// The models of f over `alphabet` by an Evaluate sweep over
// alphabet ∪ V(f), projected onto `alphabet`.
ModelSet SweptModels(const Formula& f, const Alphabet& alphabet) {
  return BruteForceModels(f, Alphabet::Union(alphabet, Alphabet(f.Vars())))
      .ProjectTo(alphabet);
}

uint64_t TabledEnumerations() {
  return obs::Registry::Global()
      .GetCounter("solve.enumerate.tabled")
      ->Value();
}

// EnumerateModels reads a truth table up to 16 letters in alphabet ∪ V(f)
// and runs AllSatModels above; both must agree with an Evaluate sweep,
// whatever the split between alphabet letters (low table bits) and
// projected letters (the bits above them, ORed out).
TEST(ServicesTest, TableAndAllSatEnumerationMatchTheEvaluateSweep) {
  const size_t env_capacity = ModelCache::Global().capacity();
  ModelCache::Global().set_capacity(0);  // every call enumerates
  Vocabulary vocabulary;
  std::vector<Var> a;
  std::vector<Var> y;
  for (int i = 0; i < 12; ++i) {
    a.push_back(vocabulary.InternIndexed("a", i));
    y.push_back(vocabulary.InternIndexed("y", i));
  }
  const struct {
    const char* label;
    size_t inside;  // alphabet letters occurring in f
    size_t absent;  // alphabet letters absent from f
    size_t outside;  // letters of f outside the alphabet
    bool tabled;
    int rounds;  // the sweep over 16 or 17 letters is the slow part
  } cases[] = {
      {"empty alphabet", 0, 0, 5, true, 4},
      {"alphabet letters absent from f", 3, 2, 0, true, 4},
      {"outside letters below bit 6", 3, 0, 2, true, 4},
      {"outside letters across bit 6", 4, 0, 8, true, 4},
      {"outside letters above bit 6", 7, 0, 4, true, 4},
      {"sixteen letters", 10, 0, 6, true, 1},
      {"seventeen letters", 10, 0, 7, false, 1},
  };
  Rng rng(1716);
  for (const auto& c : cases) {
    std::vector<Var> vars(a.begin(), a.begin() + c.inside);
    vars.insert(vars.end(), y.begin(), y.begin() + c.outside);
    std::vector<Var> alphabet_vars(a.begin(), a.begin() + c.inside + c.absent);
    const Alphabet alphabet(alphabet_vars);
    for (int round = 0; round < c.rounds; ++round) {
      // Clause density 1 to 4, and a clause over every letter to put all
      // of them in V(f).
      std::vector<Formula> literals;
      for (const Var v : vars) {
        literals.push_back(Formula::Literal(v, rng.Chance(0.5)));
      }
      const Formula f = Formula::And(
          Random3Cnf(vars, (round + 1) * vars.size(), &rng).AsFormula(),
          Formula::Or(literals));
      ASSERT_EQ(f.Vars().size(), vars.size()) << c.label;
      const ModelSet want = SweptModels(f, alphabet);
      const uint64_t tabled = TabledEnumerations();
      const ModelSet got = EnumerateModels(f, alphabet);
      EXPECT_EQ(TabledEnumerations() - tabled, c.tabled ? 1u : 0u)
          << c.label;
      EXPECT_EQ(got, want) << c.label << ": " << ToString(f, vocabulary);
      EXPECT_EQ(AllSatModels(f, alphabet), want) << c.label;
      // A limit returns that many true models, on the table path the
      // numerically first.
      const size_t limit = 3;
      const ModelSet some = EnumerateModels(f, alphabet, limit);
      ASSERT_EQ(some.size(), std::min(limit, want.size())) << c.label;
      for (size_t i = 0; i < some.size(); ++i) {
        EXPECT_TRUE(want.Contains(some[i])) << c.label;
        if (c.tabled) {
          EXPECT_EQ(some[i], want[i]) << c.label;
        }
      }
      const ModelSet sat_some = AllSatModels(f, alphabet, limit);
      ASSERT_EQ(sat_some.size(), std::min(limit, want.size())) << c.label;
      for (const Interpretation& m : sat_some) {
        EXPECT_TRUE(want.Contains(m)) << c.label;
      }
    }
  }
  // Over the empty alphabet a formula has the one empty model iff it is
  // satisfiable.
  EXPECT_EQ(EnumerateModels(Formula::True(), Alphabet()).size(), 1u);
  EXPECT_TRUE(EnumerateModels(Formula::False(), Alphabet()).empty());
  ModelCache::Global().set_capacity(env_capacity);
}

TEST(ServicesTest, QueryEquivalenceWithAuxiliaryLetters) {
  // T' = (y <-> a) & y is query equivalent to a over {a}.
  Vocabulary vocabulary;
  const Formula t_prime = ParseOrDie("(y <-> a) & y", &vocabulary);
  const Formula t = ParseOrDie("a", &vocabulary);
  const Alphabet a({vocabulary.Find("a")});
  EXPECT_TRUE(QueryEquivalent(t_prime, t, a));
  EXPECT_FALSE(AreEquivalent(t_prime, t));
}

TEST(ServicesTest, RepeatedEnumerationIsCachedAndIdentical) {
  // Force the cache on even under REVISE_MODEL_CACHE=0; restored below.
  const size_t env_capacity = ModelCache::Global().capacity();
  ModelCache::Global().set_capacity(ModelCache::kDefaultCapacity);
  ModelCache::Global().Clear();
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("(p | q) & (q | r) & !(p & r)", &vocabulary);
  const Alphabet alphabet(f.Vars());
  const uint64_t hits_before =
      obs::Registry::Global().GetCounter("solve.model_cache.hits")->Value();
  const ModelSet cold = EnumerateModels(f, alphabet);
  const ModelSet warm = EnumerateModels(f, alphabet);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(BruteForceModels(f, alphabet), warm);
  EXPECT_EQ(
      hits_before + 1,
      obs::Registry::Global().GetCounter("solve.model_cache.hits")->Value());
  ModelCache::Global().Clear();
  ModelCache::Global().set_capacity(env_capacity);
}

TEST(SatContextTest, FramesAreIndependent) {
  Vocabulary vocabulary;
  const Formula a = ParseOrDie("a", &vocabulary);
  SatContext context;
  context.Assert(a, 0);
  context.Assert(Formula::Not(a), 1);
  ASSERT_TRUE(context.Solve());
  EXPECT_TRUE(context.ModelValue(vocabulary.Find("a"), 0));
  EXPECT_FALSE(context.ModelValue(vocabulary.Find("a"), 1));
}

TEST(SatContextTest, EncodeIsMemoized) {
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a & b", &vocabulary);
  SatContext context;
  const sat::Lit l1 = context.Encode(f);
  const sat::Lit l2 = context.Encode(f);
  EXPECT_EQ(l1, l2);
}

TEST(SatContextTest, EncodePublishesPerNodeAuxCounts) {
  // Each connective node adds one definition letter and a fixed clause
  // pattern: And/Or arity + 1 clauses, Implies 3, Iff/Xor 4; letters and
  // negations add none, and a shared node is encoded once.
  Vocabulary vocabulary;
  const Formula a = ParseOrDie("a", &vocabulary);
  const Formula b = ParseOrDie("b", &vocabulary);
  const Formula c = ParseOrDie("c", &vocabulary);
  const Formula d = ParseOrDie("d", &vocabulary);
  const Formula shared = Formula::And(a, b);
  const Formula f = Formula::Or({shared, Formula::Not(Formula::Implies(c, d)),
                                 Formula::Iff(a, c), Formula::Xor(shared, d)});
  ASSERT_EQ(Connective::kOr, f.kind());
  ASSERT_EQ(4u, f.arity());
  obs::Registry& registry = obs::Registry::Global();
  const uint64_t vars_before = registry.GetCounter("encode.aux_vars")->Value();
  const uint64_t clauses_before =
      registry.GetCounter("encode.aux_clauses")->Value();
  SatContext context;
  const sat::Lit lit = context.Encode(f);
  // Or, And, Implies, Iff, Xor.
  EXPECT_EQ(5u, registry.GetCounter("encode.aux_vars")->Value() - vars_before);
  EXPECT_EQ(5u + 3u + 3u + 4u + 4u,
            registry.GetCounter("encode.aux_clauses")->Value() -
                clauses_before);
  // A memoized root adds nothing.
  EXPECT_EQ(lit, context.Encode(f));
  EXPECT_EQ(5u, registry.GetCounter("encode.aux_vars")->Value() - vars_before);
}

TEST(SatContextTest, EncodingsOutliveTheCallersHandle) {
  // The context pins only each Encode root; the nodes below it stay alive
  // through the root.  Fresh formulas built after the caller drops its
  // handle must get encodings of their own, not a stale one found under
  // a reused node address.
  Vocabulary vocabulary;
  const Var a = vocabulary.Intern("a");
  const Var c = vocabulary.Intern("c");
  SatContext context;
  sat::Lit first;
  {
    const Formula f = ParseOrDie("(a & b) | (a & !b)", &vocabulary);
    first = context.Encode(f);
  }
  for (int i = 0; i < 64; ++i) {
    const Formula g = ParseOrDie("(c & d) | (c & !d)", &vocabulary);
    const sat::Lit lit = context.Encode(g);
    // g |= c, and g is satisfiable.
    EXPECT_FALSE(context.Solve({lit, sat::NegLit(context.SatVarOf(c))}));
    EXPECT_TRUE(context.Solve({lit}));
  }
  // The dropped formula's encoding still means a.
  EXPECT_FALSE(context.Solve({first, sat::NegLit(context.SatVarOf(a))}));
  EXPECT_TRUE(context.Solve({first}));
}

// --- distance machinery ---

struct DistanceCase {
  const char* name;
  const char* t;
  const char* p;
  size_t expected;
};

// Names each case in the test listing. Without it gtest prints the raw
// struct bytes, which hold string-literal addresses and so differ from one
// build or run to the next.
void PrintTo(const DistanceCase& c, std::ostream* os) { *os << c.name; }

class MinDistanceTest : public ::testing::TestWithParam<DistanceCase> {};

TEST_P(MinDistanceTest, MatchesHandComputedValue) {
  Vocabulary vocabulary;
  const Formula t = ParseOrDie(GetParam().t, &vocabulary);
  const Formula p = ParseOrDie(GetParam().p, &vocabulary);
  const Alphabet alphabet(UnionOfVars(std::vector<Formula>{t, p}));
  const auto distance = MinHammingDistance(t, p, alphabet);
  ASSERT_TRUE(distance.has_value());
  EXPECT_EQ(GetParam().expected, *distance);
}

INSTANTIATE_TEST_SUITE_P(
    HandCases, MinDistanceTest,
    ::testing::Values(
        DistanceCase{"identical", "a & b", "a & b", 0},
        DistanceCase{"one_flip", "a & b", "!a & b", 1},
        DistanceCase{"three_flips", "a & b & c", "!a & !b & !c", 3},
        // Paper Section 2.2.2 example: k_{T,P} = 1.
        DistanceCase{"paper_section_2_2_2", "a & b & c",
                     "(!a & !b & !d) | (!c & b & (a ^ d))", 1},
        // Section 4 example: T = a&b&c&d&e, P = !a | !b, k = 1.
        DistanceCase{"paper_section_4", "a & b & c & d & e",
                     "!a | !b", 1}));

TEST(MinDistanceTest, UnsatisfiableOperandGivesNullopt) {
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("a & !a", &vocabulary);
  const Formula p = ParseOrDie("b", &vocabulary);
  const Alphabet alphabet(UnionOfVars(std::vector<Formula>{t, p}));
  EXPECT_FALSE(MinHammingDistance(t, p, alphabet).has_value());
  EXPECT_FALSE(MinHammingDistance(p, t, alphabet).has_value());
}

// Brute-force delta(T,P): minimal symmetric differences between models.
std::vector<Interpretation> BruteForceDelta(const Formula& t,
                                            const Formula& p,
                                            const Alphabet& alphabet) {
  const ModelSet mt = BruteForceModels(t, alphabet);
  const ModelSet mp = BruteForceModels(p, alphabet);
  std::vector<Interpretation> diffs;
  for (const Interpretation& m : mt) {
    for (const Interpretation& n : mp) {
      diffs.push_back(m.SymmetricDifference(n));
    }
  }
  return MinimalUnderInclusion(std::move(diffs));
}

class RandomDistanceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDistanceTest, MinimalDiffsMatchBruteForce) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    vars.push_back(vocabulary.Intern(name));
  }
  const Alphabet alphabet(vars);
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const Formula t = RandomFormula(vars, 4, &rng);
    const Formula p = RandomFormula(vars, 4, &rng);
    if (!BruteForceSat(t, alphabet) || !BruteForceSat(p, alphabet)) {
      continue;
    }
    std::vector<Interpretation> expected =
        BruteForceDelta(t, p, alphabet);
    std::vector<Interpretation> actual =
        GlobalMinimalDiffs(t, p, alphabet);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(expected, actual)
        << "T=" << ToString(t, vocabulary) << " P=" << ToString(p, vocabulary);

    // Min distance must equal the smallest minimal-diff cardinality.
    size_t min_card = alphabet.size() + 1;
    for (const Interpretation& d : expected) {
      min_card = std::min(min_card, d.Cardinality());
    }
    const auto distance = MinHammingDistance(t, p, alphabet);
    ASSERT_TRUE(distance.has_value());
    ASSERT_EQ(min_card, *distance);

    // Weber's Omega is the union of the minimal diffs.
    Interpretation omega(alphabet.size());
    for (const Interpretation& d : expected) omega = omega.Union(d);
    ASSERT_EQ(omega, WeberOmega(t, p, alphabet));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDistanceTest,
                         ::testing::Range(200, 206));

TEST(WeberOmegaTest, PaperExampleOmega) {
  // Section 2.2.2: delta(T,P) = {{c},{a,b}}, Omega = {a,b,c}.
  Vocabulary vocabulary;
  const Formula t = ParseOrDie("a & b & c", &vocabulary);
  const Formula p =
      ParseOrDie("(!a & !b & !d) | (!c & b & (a ^ d))", &vocabulary);
  const Alphabet alphabet(UnionOfVars(std::vector<Formula>{t, p}));
  const Interpretation omega = WeberOmega(t, p, alphabet);
  EXPECT_TRUE(omega.Get(*alphabet.IndexOf(vocabulary.Find("a"))));
  EXPECT_TRUE(omega.Get(*alphabet.IndexOf(vocabulary.Find("b"))));
  EXPECT_TRUE(omega.Get(*alphabet.IndexOf(vocabulary.Find("c"))));
  EXPECT_FALSE(omega.Get(*alphabet.IndexOf(vocabulary.Find("d"))));
}

TEST(ModelSetTest, SetAlgebra) {
  const Alphabet alphabet({0, 1});
  const ModelSet a(alphabet, {Interpretation::FromIndex(2, 0),
                              Interpretation::FromIndex(2, 1)});
  const ModelSet b(alphabet, {Interpretation::FromIndex(2, 1),
                              Interpretation::FromIndex(2, 2)});
  EXPECT_EQ(3u, ModelSet::Union(a, b).size());
  EXPECT_EQ(1u, ModelSet::Intersection(a, b).size());
  EXPECT_TRUE(ModelSet::Intersection(a, b).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.Contains(Interpretation::FromIndex(2, 1)));
  EXPECT_FALSE(a.Contains(Interpretation::FromIndex(2, 3)));
}

TEST(ModelSetTest, MincMaxc) {
  // Sets {a}, {a,b}, {c} -> minc {{a},{c}}, maxc {{a,b},{c}}.
  const Interpretation sa = Interpretation::FromIndex(3, 0b001);
  const Interpretation sab = Interpretation::FromIndex(3, 0b011);
  const Interpretation sc = Interpretation::FromIndex(3, 0b100);
  std::vector<Interpretation> family = {sa, sab, sc};
  auto minimal = MinimalUnderInclusion(family);
  auto maximal = MaximalUnderInclusion(family);
  EXPECT_EQ(2u, minimal.size());
  EXPECT_EQ(2u, maximal.size());
  EXPECT_TRUE(std::find(minimal.begin(), minimal.end(), sa) !=
              minimal.end());
  EXPECT_TRUE(std::find(maximal.begin(), maximal.end(), sab) !=
              maximal.end());
}

TEST(ModelSetTest, ProjectionDeduplicates) {
  const Alphabet big({0, 1});
  const Alphabet small({0});
  const ModelSet models(big, {Interpretation::FromIndex(2, 0b00),
                              Interpretation::FromIndex(2, 0b10),
                              Interpretation::FromIndex(2, 0b01)});
  EXPECT_EQ(2u, models.ProjectTo(small).size());
}

TEST(ModelSetTest, CopiesShareRowsAndMovesKeepThem) {
  const Alphabet alphabet({0, 1});
  const ModelSet a(alphabet, {Interpretation::FromIndex(2, 0b11),
                              Interpretation::FromIndex(2, 0b01),
                              Interpretation::FromIndex(2, 0b01)});
  const ModelSet copy = a;
  EXPECT_EQ(&a.models(), &copy.models());
  EXPECT_EQ(a, copy);
  ModelSet source = a;
  const ModelSet moved = std::move(source);
  EXPECT_EQ(a, moved);
  EXPECT_EQ(a, source);  // NOLINT(bugprone-use-after-move): a move copies
  ModelSet assigned;
  EXPECT_TRUE(assigned.empty());
  EXPECT_TRUE(assigned.alphabet().vars().empty());
  assigned = copy;
  EXPECT_EQ(2u, assigned.size());
  EXPECT_EQ(Interpretation::FromIndex(2, 0b01), assigned[0]);
  EXPECT_EQ(ModelSet(), ModelSet());
}

}  // namespace
}  // namespace revise
