#include <gtest/gtest.h>

#include <algorithm>

#include "hardness/random_instances.h"
#include "logic/evaluate.h"
#include "logic/formula.h"
#include "logic/interpretation.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/substitute.h"
#include "logic/theory.h"
#include "logic/transform.h"
#include "logic/vocabulary.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace revise {
namespace {

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary vocabulary;
  const Var a = vocabulary.Intern("a");
  const Var b = vocabulary.Intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, vocabulary.Intern("a"));
  EXPECT_EQ("a", vocabulary.Name(a));
  EXPECT_EQ("b", vocabulary.Name(b));
}

TEST(VocabularyTest, FindMissingReturnsInvalid) {
  Vocabulary vocabulary;
  EXPECT_EQ(kInvalidVar, vocabulary.Find("missing"));
  vocabulary.Intern("present");
  EXPECT_NE(kInvalidVar, vocabulary.Find("present"));
}

TEST(VocabularyTest, FreshNamesAreDistinct) {
  Vocabulary vocabulary;
  const Var w0 = vocabulary.Fresh("w");
  const Var w1 = vocabulary.Fresh("w");
  EXPECT_NE(w0, w1);
  EXPECT_NE(vocabulary.Name(w0), vocabulary.Name(w1));
}

TEST(VocabularyTest, FreshBlockMintsCount) {
  Vocabulary vocabulary;
  const std::vector<Var> block = vocabulary.FreshBlock("y", 5);
  EXPECT_EQ(5u, block.size());
  for (size_t i = 0; i < block.size(); ++i) {
    for (size_t j = i + 1; j < block.size(); ++j) {
      EXPECT_NE(block[i], block[j]);
    }
  }
}

TEST(FormulaTest, ConstantsFold) {
  EXPECT_TRUE(Formula::And(Formula::True(), Formula::True()).IsTrue());
  EXPECT_TRUE(Formula::And(Formula::True(), Formula::False()).IsFalse());
  EXPECT_TRUE(Formula::Or(Formula::False(), Formula::False()).IsFalse());
  EXPECT_TRUE(Formula::Or(Formula::True(), Formula::False()).IsTrue());
  EXPECT_TRUE(Formula::Not(Formula::True()).IsFalse());
  EXPECT_TRUE(Formula::Implies(Formula::False(), Formula::False()).IsTrue());
}

TEST(FormulaTest, DoubleNegationCancels) {
  Vocabulary vocabulary;
  const Formula a = Formula::Variable(vocabulary.Intern("a"));
  EXPECT_TRUE(Formula::Not(Formula::Not(a)).StructurallyEqual(a));
}

TEST(FormulaTest, AndFlattens) {
  Vocabulary vocabulary;
  const Formula a = Formula::Variable(vocabulary.Intern("a"));
  const Formula b = Formula::Variable(vocabulary.Intern("b"));
  const Formula c = Formula::Variable(vocabulary.Intern("c"));
  const Formula nested = Formula::And(Formula::And(a, b), c);
  EXPECT_EQ(Connective::kAnd, nested.kind());
  EXPECT_EQ(3u, nested.arity());
}

TEST(FormulaTest, VarOccurrencesMatchesPaperSizeMeasure) {
  Vocabulary vocabulary;
  // x1 & (x2 | !x3) has 3 occurrences; (a | a) & a has 3.
  const Formula f = ParseOrDie("x1 & (x2 | !x3)", &vocabulary);
  EXPECT_EQ(3u, f.VarOccurrences());
  const Formula g = ParseOrDie("(a | a) & a", &vocabulary);
  EXPECT_EQ(3u, g.VarOccurrences());
}

TEST(FormulaTest, VarsAreSortedAndDistinct) {
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("c & a & b & a", &vocabulary);
  const std::vector<Var> vars = f.Vars();
  EXPECT_EQ(3u, vars.size());
  EXPECT_TRUE(std::is_sorted(vars.begin(), vars.end()));
}

TEST(FormulaTest, DefaultFormulaIsTrue) {
  Formula f;
  EXPECT_TRUE(f.IsTrue());
}

TEST(ParserTest, RejectsBadSyntax) {
  Vocabulary vocabulary;
  EXPECT_FALSE(Parse("a &", &vocabulary).ok());
  EXPECT_FALSE(Parse("(a", &vocabulary).ok());
  EXPECT_FALSE(Parse("a b", &vocabulary).ok());
  EXPECT_FALSE(Parse("", &vocabulary).ok());
  EXPECT_FALSE(Parse("a @ b", &vocabulary).ok());
  EXPECT_FALSE(Parse("a <- b", &vocabulary).ok());
}

TEST(ParserTest, PrecedenceNotBindsTightest) {
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("!a & b", &vocabulary);
  EXPECT_EQ(Connective::kAnd, f.kind());
}

TEST(ParserTest, PrecedenceAndOverOr) {
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a | b & c", &vocabulary);
  EXPECT_EQ(Connective::kOr, f.kind());
}

TEST(ParserTest, ImpliesIsRightAssociative) {
  Vocabulary vocabulary;
  // a -> b -> c  ==  a -> (b -> c).
  const Formula f = ParseOrDie("a -> b -> c", &vocabulary);
  const Formula g = ParseOrDie("a -> (b -> c)", &vocabulary);
  EXPECT_TRUE(f.StructurallyEqual(g));
}

TEST(ParserTest, AcceptsNestingUpToTheDepthLimit) {
  Vocabulary vocabulary;
  const std::string deep = std::string(kMaxParseDepth, '(') + "a" +
                           std::string(kMaxParseDepth, ')');
  const StatusOr<Formula> f = Parse(deep, &vocabulary);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(Connective::kVar, f.value().kind());
}

TEST(ParserTest, RejectsNestingOneBeyondTheDepthLimit) {
  Vocabulary vocabulary;
  const std::string deep = std::string(kMaxParseDepth + 1, '(') + "a" +
                           std::string(kMaxParseDepth + 1, ')');
  const StatusOr<Formula> f = Parse(deep, &vocabulary);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, f.status().code());
}

TEST(ParserTest, DeeplyNestedInputReturnsStatusInsteadOfCrashing) {
  // Regression for the fuzzer's first finding: 100k nested parentheses,
  // negations, or right-recursive implications used to overflow the
  // parser stack.  All three recursion points must hit the guard.
  Vocabulary vocabulary;
  constexpr int kDeep = 100000;
  const std::string parens =
      std::string(kDeep, '(') + "a" + std::string(kDeep, ')');
  EXPECT_EQ(StatusCode::kResourceExhausted,
            Parse(parens, &vocabulary).status().code());
  const std::string nots = std::string(kDeep, '!') + "a";
  EXPECT_EQ(StatusCode::kResourceExhausted,
            Parse(nots, &vocabulary).status().code());
  std::string implies = "a";
  for (int i = 0; i < kDeep; ++i) implies += " -> a";
  EXPECT_EQ(StatusCode::kResourceExhausted,
            Parse(implies, &vocabulary).status().code());
}

TEST(ParserTest, DepthLimitCountsNestingNotLength) {
  // Long but flat input (a & a & ...) must stay accepted: '&' chains
  // iterate, so breadth is unaffected by the depth guard.
  Vocabulary vocabulary;
  std::string flat = "a";
  for (int i = 0; i < 10000; ++i) flat += " & a";
  EXPECT_TRUE(Parse(flat, &vocabulary).ok());
}

TEST(ParserTest, AcceptsTildeForNegation) {
  Vocabulary vocabulary;
  EXPECT_TRUE(ParseOrDie("~a", &vocabulary)
                  .StructurallyEqual(ParseOrDie("!a", &vocabulary)));
}

TEST(PrinterTest, RoundTripPreservesStructureOnRandomFormulas) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (const char* name : {"a", "b", "c", "d"}) {
    vars.push_back(vocabulary.Intern(name));
  }
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Formula f = RandomFormula(vars, 4, &rng);
    const Formula g = ParseOrDie(ToString(f, vocabulary), &vocabulary);
    EXPECT_TRUE(f.StructurallyEqual(g))
        << ToString(f, vocabulary) << " vs " << ToString(g, vocabulary);
  }
}

TEST(EvaluateTest, BasicConnectives) {
  Vocabulary vocabulary;
  const Var a = vocabulary.Intern("a");
  const Var b = vocabulary.Intern("b");
  const Alphabet alphabet({a, b});
  const Formula f = ParseOrDie("a ^ b", &vocabulary);
  for (uint64_t index = 0; index < 4; ++index) {
    const Interpretation m = Interpretation::FromIndex(2, index);
    EXPECT_EQ(m.Get(0) != m.Get(1), Evaluate(f, alphabet, m));
  }
}

TEST(EvaluateTest, VariablesOutsideAlphabetAreFalse) {
  Vocabulary vocabulary;
  const Var a = vocabulary.Intern("a");
  const Var b = vocabulary.Intern("b");
  const Alphabet alphabet({a});
  const Formula f = Formula::Or(Formula::Variable(a), Formula::Variable(b));
  Interpretation m(1);
  EXPECT_FALSE(Evaluate(f, alphabet, m));
  m.Set(0, true);
  EXPECT_TRUE(Evaluate(f, alphabet, m));
}

// A random formula DAG over `letters` and `outside` (a letter missing from
// the table's list): every connective, both constants, and subformulas
// drawn from a shared pool, so nodes have several parents.
Formula RandomDag(const std::vector<Var>& letters, Var outside, int steps,
                  Rng* rng) {
  std::vector<Formula> pool = {Formula::True(), Formula::False(),
                               Formula::Variable(outside)};
  for (const Var v : letters) {
    pool.push_back(Formula::Literal(v, rng->Chance(0.5)));
  }
  const auto pick = [&] { return pool[rng->Below(pool.size())]; };
  for (int step = 0; step < steps; ++step) {
    const Formula a = pick();
    const Formula b = pick();
    switch (rng->Below(6)) {
      case 0:
        pool.push_back(Formula::Not(a));
        break;
      case 1:
        pool.push_back(Formula::And({a, b, pick()}));
        break;
      case 2:
        pool.push_back(Formula::Or(a, b));
        break;
      case 3:
        pool.push_back(Formula::Implies(a, b));
        break;
      case 4:
        pool.push_back(Formula::Iff(a, b));
        break;
      default:
        pool.push_back(Formula::Xor(a, b));
        break;
    }
  }
  const size_t n = pool.size();
  return Formula::Xor(Formula::Or(pool[n - 1], pool[n - 2]),
                      Formula::Implies(pool[n - 3], pool[n - 4]));
}

// Checks TruthTable(f, letters) bit by bit against Evaluate.
void ExpectTableMatchesEvaluate(const Formula& f,
                                const std::vector<Var>& letters) {
  const size_t k = letters.size();
  const std::vector<uint64_t> table = TruthTable(f, letters);
  ASSERT_EQ(table.size(), k <= 6 ? 1u : size_t{1} << (k - 6));
  if (k < 6) {
    EXPECT_EQ(table[0] >> (size_t{1} << k), 0u) << "bits above 2^k";
  }
  const Alphabet alphabet(letters);  // sorted: positions differ from j
  std::vector<size_t> position(k);
  for (size_t j = 0; j < k; ++j) position[j] = *alphabet.IndexOf(letters[j]);
  for (uint64_t t = 0; t < (uint64_t{1} << k); ++t) {
    Interpretation m(k);
    for (size_t j = 0; j < k; ++j) m.Set(position[j], (t >> j) & 1);
    ASSERT_EQ(TruthTableBit(table, t), Evaluate(f, alphabet, m))
        << "assignment " << t << " of " << k << " letters";
  }
}

TEST(TruthTableTest, MatchesEvaluateOnEveryAssignment) {
  for (const size_t k : {0, 1, 6, 7, 10, 16}) {
    Vocabulary vocabulary;
    const Var outside = vocabulary.Intern("z");
    std::vector<Var> letters;
    letters.reserve(k);
    for (size_t j = 0; j < k; ++j) {
      letters.push_back(vocabulary.InternIndexed("x", j));
    }
    // List order is not alphabet order.
    std::reverse(letters.begin(), letters.end());
    Rng rng(9000 + k);
    const int formulas = k == 16 ? 2 : 12;
    for (int i = 0; i < formulas; ++i) {
      const Formula f =
          RandomDag(letters, outside, static_cast<int>(2 * k) + 12, &rng);
      ExpectTableMatchesEvaluate(f, letters);
    }
    ExpectTableMatchesEvaluate(Formula::True(), letters);
    ExpectTableMatchesEvaluate(Formula::False(), letters);
    ExpectTableMatchesEvaluate(Formula::Variable(outside), letters);
    if (k == 16) {
      // Enough nodes that the 16-letter node tables are swept in blocks.
      const Formula large = RandomDag(letters, outside, 400, &rng);
      ASSERT_GT(large.DagSize(), 64u);
      ExpectTableMatchesEvaluate(large, letters);
    }
  }
}

TEST(SubstituteTest, SimultaneousSwap) {
  Vocabulary vocabulary;
  const Var x = vocabulary.Intern("x");
  const Var y = vocabulary.Intern("y");
  // Swapping x and y in (x & !y) must give (y & !x), not (y & !y).
  const Formula f = ParseOrDie("x & !y", &vocabulary);
  std::unordered_map<Var, Formula> map;
  map.emplace(x, Formula::Variable(y));
  map.emplace(y, Formula::Variable(x));
  const Formula g = Substitute(f, map);
  EXPECT_TRUE(g.StructurallyEqual(ParseOrDie("y & !x", &vocabulary)));
}

TEST(SubstituteTest, PaperExample) {
  // Q = x1 & (x2 | !x3), Q[{x1,x3}/{y1,!y3}] = y1 & (x2 | !!y3).
  Vocabulary vocabulary;
  const Formula q = ParseOrDie("x1 & (x2 | !x3)", &vocabulary);
  std::unordered_map<Var, Formula> map;
  map.emplace(vocabulary.Intern("x1"),
              Formula::Variable(vocabulary.Intern("y1")));
  map.emplace(vocabulary.Intern("x3"),
              Formula::Not(Formula::Variable(vocabulary.Intern("y3"))));
  const Formula result = Substitute(q, map);
  // Our factories cancel the double negation: y1 & (x2 | y3).
  EXPECT_TRUE(result.StructurallyEqual(ParseOrDie("y1 & (x2 | y3)",
                                                  &vocabulary)));
}

TEST(SubstituteTest, FlipVarsMatchesProposition42) {
  // Proposition 4.2: M |= F iff (M delta H) |= F[H/!H].
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (const char* name : {"p", "q", "r"}) {
    vars.push_back(vocabulary.Intern(name));
  }
  const Alphabet alphabet(vars);
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    const Formula f = RandomFormula(vars, 3, &rng);
    const uint64_t h_mask = rng.Below(8);
    std::vector<Var> h;
    for (size_t i = 0; i < 3; ++i) {
      if ((h_mask >> i) & 1) h.push_back(vars[i]);
    }
    const Formula flipped = FlipVars(f, h);
    const Interpretation h_set = Interpretation::FromIndex(3, h_mask);
    for (uint64_t index = 0; index < 8; ++index) {
      const Interpretation m = Interpretation::FromIndex(3, index);
      const Interpretation m_delta_h = m.SymmetricDifference(h_set);
      EXPECT_EQ(Evaluate(f, alphabet, m),
                Evaluate(flipped, alphabet, m_delta_h));
    }
  }
}

TEST(TransformTest, NnfPreservesSemantics) {
  Vocabulary vocabulary;
  std::vector<Var> vars;
  for (const char* name : {"a", "b", "c", "d"}) {
    vars.push_back(vocabulary.Intern(name));
  }
  const Alphabet alphabet(vars);
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const Formula f = RandomFormula(vars, 4, &rng);
    const Formula nnf = ToNnf(f);
    for (uint64_t index = 0; index < 16; ++index) {
      const Interpretation m = Interpretation::FromIndex(4, index);
      ASSERT_EQ(Evaluate(f, alphabet, m), Evaluate(nnf, alphabet, m));
    }
  }
}

TEST(TransformTest, NnfHasOnlyLiteralsAndAndOr) {
  Vocabulary vocabulary;
  std::vector<Var> vars = {vocabulary.Intern("a"), vocabulary.Intern("b")};
  Rng rng(5);
  std::function<void(const Formula&)> check = [&](const Formula& f) {
    switch (f.kind()) {
      case Connective::kConst:
      case Connective::kVar:
        return;
      case Connective::kNot:
        EXPECT_EQ(Connective::kVar, f.child(0).kind());
        return;
      case Connective::kAnd:
      case Connective::kOr:
        for (size_t i = 0; i < f.arity(); ++i) check(f.child(i));
        return;
      default:
        FAIL() << "unexpected connective in NNF";
    }
  };
  for (int trial = 0; trial < 50; ++trial) {
    check(ToNnf(RandomFormula(vars, 4, &rng)));
  }
}

TEST(TransformTest, EliminateDerivedPreservesSemantics) {
  Vocabulary vocabulary;
  std::vector<Var> vars = {vocabulary.Intern("a"), vocabulary.Intern("b"),
                           vocabulary.Intern("c")};
  const Alphabet alphabet(vars);
  Rng rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    const Formula f = RandomFormula(vars, 4, &rng);
    const Formula g = EliminateDerivedConnectives(f);
    for (uint64_t index = 0; index < 8; ++index) {
      const Interpretation m = Interpretation::FromIndex(3, index);
      ASSERT_EQ(Evaluate(f, alphabet, m), Evaluate(g, alphabet, m));
    }
  }
}

TEST(TransformTest, RestrictFixesVariable) {
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a & (b | c)", &vocabulary);
  const Formula g = Restrict(f, vocabulary.Find("a"), true);
  EXPECT_TRUE(g.StructurallyEqual(ParseOrDie("b | c", &vocabulary)));
  const Formula h = Restrict(f, vocabulary.Find("a"), false);
  EXPECT_TRUE(h.IsFalse());
}

TEST(InterpretationTest, SymmetricDifferenceAndDistance) {
  Interpretation a = Interpretation::FromIndex(5, 0b10110);
  Interpretation b = Interpretation::FromIndex(5, 0b01100);
  const Interpretation d = a.SymmetricDifference(b);
  EXPECT_EQ(0b11010u, d.ToIndex());
  EXPECT_EQ(3u, a.HammingDistance(b));
  EXPECT_EQ(3u, d.Cardinality());
}

TEST(InterpretationTest, SubsetChecks) {
  const Interpretation small = Interpretation::FromIndex(4, 0b0010);
  const Interpretation big = Interpretation::FromIndex(4, 0b1010);
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_TRUE(small.IsProperSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(big.IsSubsetOf(big));
  EXPECT_FALSE(big.IsProperSubsetOf(big));
}

TEST(InterpretationTest, SetAlgebra) {
  const Interpretation a = Interpretation::FromIndex(4, 0b1100);
  const Interpretation b = Interpretation::FromIndex(4, 0b1010);
  EXPECT_EQ(0b1110u, a.Union(b).ToIndex());
  EXPECT_EQ(0b1000u, a.Intersection(b).ToIndex());
  EXPECT_EQ(0b0100u, a.Minus(b).ToIndex());
}

TEST(InterpretationTest, WideInterpretations) {
  // Exercise the multi-word path (> 64 letters).
  Interpretation a(130);
  Interpretation b(130);
  a.Set(0, true);
  a.Set(70, true);
  a.Set(129, true);
  b.Set(70, true);
  EXPECT_EQ(3u, a.Cardinality());
  EXPECT_EQ(2u, a.HammingDistance(b));
  EXPECT_TRUE(b.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
}

TEST(InterpretationTest, ToStringNamesTrueLetters) {
  Vocabulary vocabulary;
  const Var a = vocabulary.Intern("a");
  const Var b = vocabulary.Intern("b");
  const Alphabet alphabet({a, b});
  Interpretation m(2);
  m.Set(1, true);
  EXPECT_EQ("{b}", m.ToString(alphabet, vocabulary));
}

TEST(AlphabetTest, SortsAndDeduplicates) {
  const Alphabet alphabet({5, 3, 5, 1});
  EXPECT_EQ(3u, alphabet.size());
  EXPECT_EQ(1u, alphabet.var(0));
  EXPECT_EQ(3u, alphabet.var(1));
  EXPECT_EQ(5u, alphabet.var(2));
  EXPECT_EQ(1u, *alphabet.IndexOf(3));
  EXPECT_FALSE(alphabet.IndexOf(2).has_value());
}

TEST(AlphabetTest, Union) {
  const Alphabet a({1, 3});
  const Alphabet b({2, 3});
  const Alphabet u = Alphabet::Union(a, b);
  EXPECT_EQ(3u, u.size());
}

TEST(ReinterpretTest, ProjectsAndExtends) {
  const Alphabet from({1, 2, 3});
  const Alphabet to({2, 3, 4});
  Interpretation m(3);
  m.Set(0, true);  // var 1
  m.Set(1, true);  // var 2
  const Interpretation r = Reinterpret(m, from, to);
  EXPECT_TRUE(r.Get(0));   // var 2 kept
  EXPECT_FALSE(r.Get(1));  // var 3 was false
  EXPECT_FALSE(r.Get(2));  // var 4 defaults to false
}

TEST(TheoryTest, ParseSemicolonSeparated) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a; b; a -> b;", &vocabulary);
  EXPECT_EQ(3u, t.size());
  EXPECT_EQ(2u, t.Vars().size());
}

TEST(TheoryTest, SubsetByMask) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a; b; c", &vocabulary);
  const Theory sub = t.Subset(0b101);
  EXPECT_EQ(2u, sub.size());
  EXPECT_TRUE(sub[0].StructurallyEqual(t[0]));
  EXPECT_TRUE(sub[1].StructurallyEqual(t[2]));
}

TEST(TheoryTest, AsFormulaOfEmptyTheoryIsTrue) {
  Theory t;
  EXPECT_TRUE(t.AsFormula().IsTrue());
}

TEST(TheoryTest, VarOccurrencesSumsElements) {
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & b; c | a", &vocabulary);
  EXPECT_EQ(4u, t.VarOccurrences());
}

}  // namespace
}  // namespace revise
