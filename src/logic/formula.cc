#include "logic/formula.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/check.h"

namespace revise {

struct Formula::Node {
  Connective kind;
  bool value = false;       // kConst only
  Var var = kInvalidVar;    // kVar only
  std::vector<Formula> children;
  uint64_t var_occurrences = 0;
  uint64_t tree_size = 1;
};

namespace {

std::shared_ptr<const Formula::Node> MakeLeafConst(bool value);

}  // namespace

Formula::Formula(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

namespace {

using NodePtr = std::shared_ptr<const Formula::Node>;

NodePtr MakeNode(Connective kind, std::vector<Formula> children) {
  auto node = std::make_shared<Formula::Node>();
  node->kind = kind;
  uint64_t occurrences = 0;
  uint64_t tree = 1;
  for (const Formula& child : children) {
    occurrences += child.VarOccurrences();
    tree += child.TreeSize();
  }
  node->var_occurrences = occurrences;
  node->tree_size = tree;
  node->children = std::move(children);
  return node;
}

NodePtr MakeLeafConst(bool value) {
  auto node = std::make_shared<Formula::Node>();
  node->kind = Connective::kConst;
  node->value = value;
  node->var_occurrences = 0;
  node->tree_size = 1;
  return node;
}

// Shared singletons for the two constants.  Plain pointers that are never
// deleted, per the style guide's rule on static storage duration objects.
const NodePtr& TrueNode() {
  static const NodePtr& node = *new NodePtr(MakeLeafConst(true));
  return node;
}

const NodePtr& FalseNode() {
  static const NodePtr& node = *new NodePtr(MakeLeafConst(false));
  return node;
}

}  // namespace

Formula::Formula() : node_(TrueNode()) {}

Formula Formula::True() { return Formula(TrueNode()); }

Formula Formula::False() { return Formula(FalseNode()); }

Formula Formula::Constant(bool value) { return value ? True() : False(); }

Formula Formula::Variable(Var var) {
  REVISE_CHECK_NE(var, kInvalidVar);
  auto node = std::make_shared<Node>();
  node->kind = Connective::kVar;
  node->var = var;
  node->var_occurrences = 1;
  node->tree_size = 1;
  return Formula(std::move(node));
}

Formula Formula::Literal(Var var, bool positive) {
  Formula v = Variable(var);
  return positive ? v : Not(v);
}

Formula Formula::Not(const Formula& f) {
  if (f.IsTrue()) return False();
  if (f.IsFalse()) return True();
  if (f.kind() == Connective::kNot) return f.child(0);
  return Formula(MakeNode(Connective::kNot, {f}));
}

Formula Formula::And(const Formula& a, const Formula& b) {
  const Formula fs[] = {a, b};
  return And(std::span<const Formula>(fs));
}

Formula Formula::And(std::initializer_list<Formula> fs) {
  return And(std::span<const Formula>(fs.begin(), fs.size()));
}

Formula Formula::And(std::span<const Formula> fs) {
  std::vector<Formula> children;
  children.reserve(fs.size());
  for (const Formula& f : fs) {
    if (f.IsTrue()) continue;
    if (f.IsFalse()) return False();
    if (f.kind() == Connective::kAnd) {
      for (size_t i = 0; i < f.arity(); ++i) children.push_back(f.child(i));
    } else {
      children.push_back(f);
    }
  }
  if (children.empty()) return True();
  if (children.size() == 1) return children[0];
  return Formula(MakeNode(Connective::kAnd, std::move(children)));
}

Formula Formula::Or(const Formula& a, const Formula& b) {
  const Formula fs[] = {a, b};
  return Or(std::span<const Formula>(fs));
}

Formula Formula::Or(std::initializer_list<Formula> fs) {
  return Or(std::span<const Formula>(fs.begin(), fs.size()));
}

Formula Formula::Or(std::span<const Formula> fs) {
  std::vector<Formula> children;
  children.reserve(fs.size());
  for (const Formula& f : fs) {
    if (f.IsFalse()) continue;
    if (f.IsTrue()) return True();
    if (f.kind() == Connective::kOr) {
      for (size_t i = 0; i < f.arity(); ++i) children.push_back(f.child(i));
    } else {
      children.push_back(f);
    }
  }
  if (children.empty()) return False();
  if (children.size() == 1) return children[0];
  return Formula(MakeNode(Connective::kOr, std::move(children)));
}

Formula Formula::Implies(const Formula& a, const Formula& b) {
  if (a.IsTrue()) return b;
  if (a.IsFalse()) return True();
  if (b.IsTrue()) return True();
  if (b.IsFalse()) return Not(a);
  return Formula(MakeNode(Connective::kImplies, {a, b}));
}

Formula Formula::Iff(const Formula& a, const Formula& b) {
  if (a.IsTrue()) return b;
  if (b.IsTrue()) return a;
  if (a.IsFalse()) return Not(b);
  if (b.IsFalse()) return Not(a);
  return Formula(MakeNode(Connective::kIff, {a, b}));
}

Formula Formula::Xor(const Formula& a, const Formula& b) {
  if (a.IsFalse()) return b;
  if (b.IsFalse()) return a;
  if (a.IsTrue()) return Not(b);
  if (b.IsTrue()) return Not(a);
  return Formula(MakeNode(Connective::kXor, {a, b}));
}

Connective Formula::kind() const { return node().kind; }

bool Formula::IsTrue() const { return IsConst() && node().value; }

bool Formula::IsFalse() const { return IsConst() && !node().value; }

bool Formula::const_value() const {
  REVISE_CHECK(IsConst());
  return node().value;
}

Var Formula::var() const {
  REVISE_CHECK(kind() == Connective::kVar);
  return node().var;
}

size_t Formula::arity() const { return node().children.size(); }

const Formula& Formula::child(size_t i) const {
  REVISE_CHECK_LT(i, node().children.size());
  return node().children[i];
}

std::span<const Formula> Formula::children() const {
  return node().children;
}

uint64_t Formula::VarOccurrences() const { return node().var_occurrences; }

uint64_t Formula::TreeSize() const { return node().tree_size; }

size_t Formula::DagSize() const {
  std::unordered_set<const void*> seen;
  std::vector<const Formula*> stack = {this};
  size_t count = 0;
  while (!stack.empty()) {
    const Formula* f = stack.back();
    stack.pop_back();
    if (!seen.insert(f->id()).second) continue;
    ++count;
    for (size_t i = 0; i < f->arity(); ++i) stack.push_back(&f->child(i));
  }
  return count;
}

std::vector<Var> Formula::Vars() const {
  return UnionOfVars(std::span<const Formula>(this, 1));
}

bool Formula::StructurallyEqual(const Formula& other) const {
  if (node_.get() == other.node_.get()) return true;
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case Connective::kConst:
      return const_value() == other.const_value();
    case Connective::kVar:
      return var() == other.var();
    default:
      break;
  }
  if (arity() != other.arity()) return false;
  for (size_t i = 0; i < arity(); ++i) {
    if (!child(i).StructurallyEqual(other.child(i))) return false;
  }
  return true;
}

namespace {

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t StructuralHashRec(
    const Formula& f, std::unordered_map<const void*, uint64_t>* memo) {
  const auto it = memo->find(f.id());
  if (it != memo->end()) return it->second;
  uint64_t h = MixHash(0x243f6a8885a308d3ULL,
                       static_cast<uint64_t>(f.kind()));
  switch (f.kind()) {
    case Connective::kConst:
      h = MixHash(h, f.const_value() ? 1 : 0);
      break;
    case Connective::kVar:
      h = MixHash(h, static_cast<uint64_t>(f.var()));
      break;
    default:
      h = MixHash(h, f.arity());
      for (size_t i = 0; i < f.arity(); ++i) {
        h = MixHash(h, StructuralHashRec(f.child(i), memo));
      }
      break;
  }
  memo->emplace(f.id(), h);
  return h;
}

}  // namespace

uint64_t Formula::StructuralHash() const {
  std::unordered_map<const void*, uint64_t> memo;
  return StructuralHashRec(*this, &memo);
}

Formula ConjoinAll(const std::vector<Formula>& fs) {
  return Formula::And(std::span<const Formula>(fs));
}

Formula DisjoinAll(const std::vector<Formula>& fs) {
  return Formula::Or(std::span<const Formula>(fs));
}

std::vector<Var> UnionOfVars(std::span<const Formula> fs) {
  // One walk over the shared DAG of all roots.  A node whose written-out
  // tree is large is expanded once however many roots or parents reach
  // it, since sharing can make the tree exponentially larger than the
  // DAG.  Smaller subtrees are walked as trees each time they are reached
  // (at most kSmallTree steps per parent edge), which skips a hash insert
  // per node.
  constexpr uint64_t kSmallTree = 64;
  std::unordered_set<const void*> expanded;
  std::unordered_set<Var> vars;
  std::vector<const Formula*> stack;
  for (const Formula& f : fs) stack.push_back(&f);
  while (!stack.empty()) {
    const Formula* f = stack.back();
    stack.pop_back();
    if (f->kind() == Connective::kVar) vars.insert(f->var());
    if (f->TreeSize() > kSmallTree && !expanded.insert(f->id()).second) {
      continue;
    }
    for (size_t i = 0; i < f->arity(); ++i) stack.push_back(&f->child(i));
  }
  std::vector<Var> result(vars.begin(), vars.end());
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace revise
