#include "fuzz/scenario.h"

#include <string>
#include <vector>

#include "hardness/random_instances.h"
#include "logic/printer.h"
#include "util/random.h"

namespace revise::fuzz {

namespace {

// A random literal over `vars`.
Formula RandomLiteral(const std::vector<Var>& vars, Rng* rng) {
  const Var v = vars[rng->Below(vars.size())];
  return Formula::Literal(v, rng->Chance(0.5));
}

// A conjunction of 1..max random literals (a partial assignment).
Formula RandomCube(const std::vector<Var>& vars, int max, Rng* rng) {
  std::vector<Formula> literals;
  const int count = static_cast<int>(rng->Range(1, max));
  literals.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) literals.push_back(RandomLiteral(vars, rng));
  return ConjoinAll(literals);
}

// A Horn clause: (a1 & ... & ak) -> h with k in [0, 2] and h a positive
// atom or false (a goal clause).
Formula RandomHornClause(const std::vector<Var>& vars, Rng* rng) {
  std::vector<Formula> body;
  const int k = static_cast<int>(rng->Range(0, 2));
  for (int i = 0; i < k; ++i) {
    body.push_back(Formula::Variable(vars[rng->Below(vars.size())]));
  }
  const Formula head = rng->Chance(0.85)
                           ? Formula::Variable(vars[rng->Below(vars.size())])
                           : Formula::False();
  if (body.empty()) return head;
  return Formula::Implies(ConjoinAll(body), head);
}

// A chain of depth unary/binary connectives: the nesting stress shape.
Formula DeepChain(const std::vector<Var>& vars, int depth, Rng* rng) {
  Formula f = RandomLiteral(vars, rng);
  for (int i = 0; i < depth; ++i) {
    switch (rng->Below(5)) {
      case 0:
        f = Formula::Not(f);
        break;
      case 1:
        f = Formula::Implies(RandomLiteral(vars, rng), f);
        break;
      case 2:
        f = Formula::Implies(f, RandomLiteral(vars, rng));
        break;
      case 3:
        f = Formula::Iff(f, RandomLiteral(vars, rng));
        break;
      default:
        f = Formula::Xor(RandomLiteral(vars, rng), f);
        break;
    }
  }
  return f;
}

std::vector<Var> MakeVars(Vocabulary* vocabulary, int count) {
  std::vector<Var> vars;
  vars.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    vars.push_back(vocabulary->InternIndexed("v", i));
  }
  return vars;
}

}  // namespace

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kGeneral:
      return "general";
    case Shape::kHorn:
      return "horn";
    case Shape::kNearUnsat:
      return "near-unsat";
    case Shape::kDeepNesting:
      return "deep-nesting";
    case Shape::kDegenerate:
      return "degenerate";
    case Shape::kBoundedP:
      return "bounded-p";
  }
  return "unknown";
}

uint64_t Scenario::TotalTreeSize() const {
  uint64_t total = p.TreeSize() + q.TreeSize();
  for (const Formula& f : t) total += f.TreeSize();
  return total;
}

std::string Scenario::ToString() const {
  std::string out = "shape: ";
  out += ShapeName(shape);
  out += "\nseed: " + std::to_string(seed);
  out += "\ntheory:";
  for (const Formula& f : t) {
    out += "\n  " + revise::ToString(f, *vocabulary);
  }
  out += "\np: " + revise::ToString(p, *vocabulary);
  out += "\nq: " + revise::ToString(q, *vocabulary);
  return out;
}

Scenario GenerateScenario(uint64_t seed, const GeneratorOptions& options) {
  Rng rng(seed);
  Scenario s;
  s.vocabulary = std::make_shared<Vocabulary>();
  s.seed = seed;

  // Weighted shape draw: the general shape dominates, the stress shapes
  // share the rest.
  switch (rng.Below(8)) {
    case 0:
    case 1:
    case 2:
      s.shape = Shape::kGeneral;
      break;
    case 3:
      s.shape = Shape::kHorn;
      break;
    case 4:
      s.shape = Shape::kNearUnsat;
      break;
    case 5:
      s.shape = Shape::kDeepNesting;
      break;
    case 6:
      s.shape = Shape::kDegenerate;
      break;
    default:
      s.shape = Shape::kBoundedP;
      break;
  }

  Vocabulary* vocabulary = s.vocabulary.get();
  switch (s.shape) {
    case Shape::kGeneral: {
      const int n = static_cast<int>(rng.Range(2, options.max_vars));
      const std::vector<Var> vars = MakeVars(vocabulary, n);
      const int elements =
          static_cast<int>(rng.Range(1, options.max_theory_elements));
      for (int i = 0; i < elements; ++i) {
        s.t.Add(RandomFormula(vars, options.max_depth, &rng));
      }
      s.p = RandomFormula(vars, options.max_depth, &rng);
      s.q = RandomFormula(vars, 2, &rng);
      break;
    }
    case Shape::kHorn: {
      const int n = static_cast<int>(rng.Range(2, options.max_vars));
      const std::vector<Var> vars = MakeVars(vocabulary, n);
      const int elements =
          static_cast<int>(rng.Range(1, options.max_theory_elements));
      for (int i = 0; i < elements; ++i) {
        s.t.Add(RandomHornClause(vars, &rng));
      }
      s.p = rng.Chance(0.5) ? RandomHornClause(vars, &rng)
                            : RandomCube(vars, 2, &rng);
      s.q = RandomFormula(vars, 2, &rng);
      break;
    }
    case Shape::kNearUnsat: {
      // Clause/variable ratio near the 3-SAT phase transition (~4.27), so
      // T is frequently unsatisfiable and P often conflicts with it —
      // exactly where the degenerate-case conventions matter.
      const int n = static_cast<int>(rng.Range(3, options.max_vars));
      const std::vector<Var> vars = MakeVars(vocabulary, n);
      const size_t clauses = static_cast<size_t>(n * 4 + 1);
      const Theory cnf = Random3Cnf(vars, clauses, &rng);
      // Group the clauses into a few theory elements.
      const int elements =
          static_cast<int>(rng.Range(1, options.max_theory_elements));
      std::vector<std::vector<Formula>> groups(
          static_cast<size_t>(elements));
      for (size_t i = 0; i < cnf.size(); ++i) {
        groups[i % groups.size()].push_back(cnf[i]);
      }
      for (const auto& group : groups) s.t.Add(ConjoinAll(group));
      s.p = rng.Chance(0.3) ? Formula::Not(s.t.AsFormula())
                            : RandomCube(vars, 3, &rng);
      s.q = RandomLiteral(vars, &rng);
      break;
    }
    case Shape::kDeepNesting: {
      const int n = static_cast<int>(rng.Range(1, 3));
      const std::vector<Var> vars = MakeVars(vocabulary, n);
      const int depth = static_cast<int>(rng.Range(16, 48));
      s.t.Add(DeepChain(vars, depth, &rng));
      s.p = DeepChain(vars, depth / 2, &rng);
      s.q = RandomLiteral(vars, &rng);
      break;
    }
    case Shape::kDegenerate: {
      const int n = static_cast<int>(rng.Range(1, 2));
      const std::vector<Var> vars = MakeVars(vocabulary, n);
      if (rng.Chance(0.6)) s.t.Add(RandomLiteral(vars, &rng));
      if (rng.Chance(0.3)) s.t.Add(Formula::Constant(rng.Chance(0.5)));
      switch (rng.Below(4)) {
        case 0:
          s.p = Formula::True();
          break;
        case 1:
          s.p = Formula::False();
          break;
        case 2:
          // P over a letter T never mentions.
          s.p = Formula::Literal(vocabulary->Intern("w0"), rng.Chance(0.5));
          break;
        default:
          s.p = RandomLiteral(vars, &rng);
          break;
      }
      // Q may mention a letter outside V(T) and V(P).
      s.q = rng.Chance(0.5)
                ? Formula::Variable(vocabulary->Intern("z0"))
                : RandomFormula(vars, 2, &rng);
      break;
    }
    case Shape::kBoundedP: {
      const int n = static_cast<int>(rng.Range(3, options.max_vars));
      const std::vector<Var> vars = MakeVars(vocabulary, n);
      const int elements =
          static_cast<int>(rng.Range(1, options.max_theory_elements));
      for (int i = 0; i < elements; ++i) {
        s.t.Add(RandomFormula(vars, options.max_depth, &rng));
      }
      // P touches at most two letters (the paper's bounded-|P| regime).
      const std::vector<Var> p_vars(vars.begin(),
                                    vars.begin() + rng.Range(1, 2));
      s.p = RandomFormula(p_vars, 2, &rng);
      s.q = RandomFormula(vars, 2, &rng);
      break;
    }
  }
  return s;
}

}  // namespace revise::fuzz
