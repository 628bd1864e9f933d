#include "solve/services.h"

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "logic/evaluate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/profile.h"
#include "solve/model_cache.h"
#include "solve/sat_context.h"
#include "util/check.h"
#include "util/status.h"

namespace revise {

namespace {

// The projected enumeration behind AllSatModels, EntailmentSolver::Models
// and QueryEquivalent: invokes visit(m) once per distinct projection m
// onto `alphabet` of a model of the clauses in `context`, in the order
// one CDCL search (sat::Solver::EnumerateProjections) finds them, until
// visit returns false or the projections are exhausted.  The blocking
// clauses stay in `context`.  A soft deadline that stops the search
// before either is a kDeadlineExceeded error: the models visited so far
// are not all of them.
template <typename Visit>
Status ForEachProjectedModel(SatContext& context, const Alphabet& alphabet,
                             Visit&& visit) {
  // Mapping every alphabet letter, even one the clauses do not mention,
  // lets the blocking clauses range over all of them.
  std::vector<int> vars(alphabet.size());
  for (size_t i = 0; i < alphabet.size(); ++i) {
    vars[i] = context.SatVarOf(alphabet.var(i));
  }
  Interpretation m(alphabet.size());
  const sat::Solver::Result result = context.EnumerateProjections(
      vars, [&](std::span<const sat::Lit> projection) {
        for (size_t i = 0; i < projection.size(); ++i) {
          m.Set(i, !sat::LitSign(projection[i]));
        }
        return visit(m);
      });
  if (result == sat::Solver::Result::kUnknown) {
    return DeadlineExceededError("model enumeration exceeded soft deadline");
  }
  return Status::Ok();
}

// An enumeration's result as a set, counted.
ModelSet EnumeratedSet(const Alphabet& alphabet,
                       std::vector<Interpretation> models) {
  REVISE_OBS_COUNTER("solve.models_enumerated").Increment(models.size());
  obs::NoteModelSetCardinality(models.size());
  return ModelSet(alphabet, std::move(models));
}

// The first `limit` (0 = all) projections onto `alphabet`, as a set.
StatusOr<ModelSet> CollectProjectedModels(SatContext& context,
                                          const Alphabet& alphabet,
                                          size_t limit) {
  std::vector<Interpretation> models;
  Status status =
      ForEachProjectedModel(context, alphabet, [&](const Interpretation& m) {
        models.push_back(m);
        return limit == 0 || models.size() < limit;
      });
  if (!status.ok()) return status;
  return EnumeratedSet(alphabet, std::move(models));
}

// Quantifies letter j out of a TruthTable: afterwards bit t, for every t
// with bit j clear, is combine(old bit t, old bit t | 2^j).  Bits with
// bit j set are left meaningless; no later read looks at them, and a
// later fold of another letter reads only indices with bit j clear.
template <typename Combine>
void FoldLetter(size_t j, Combine combine, std::vector<uint64_t>* table) {
  std::vector<uint64_t>& words = *table;
  if (j < 6) {
    const unsigned shift = 1u << j;
    for (uint64_t& word : words) word = combine(word, word >> shift);
    return;
  }
  const size_t stride = size_t{1} << (j - 6);
  for (size_t w = 0; w < words.size(); ++w) {
    if ((w & stride) == 0) words[w] = combine(words[w], words[w | stride]);
  }
}

// EnumerateModels off one truth table, or nullopt when |alphabet ∪ V(f)|
// exceeds kMaxTruthTableLetters.  The alphabet's letters take the low
// bits of the index and f's other letters the bits above them, which are
// ORed out; bit t below 2^|alphabet| is then whether the projection with
// index t extends to a model of f.  Set bits are read in increasing t,
// i.e. in ModelSet's order, so `limit` keeps the numerically first.
std::optional<ModelSet> TabledModels(const Formula& f,
                                     const Alphabet& alphabet, size_t limit) {
  if (alphabet.size() > kMaxTruthTableLetters) return std::nullopt;
  std::vector<Var> letters = alphabet.vars();
  for (const Var v : f.Vars()) {
    if (!alphabet.Contains(v)) letters.push_back(v);
  }
  if (letters.size() > kMaxTruthTableLetters) return std::nullopt;
  REVISE_OBS_COUNTER("solve.enumerate.tabled").Increment();
  std::vector<uint64_t> table = TruthTable(f, letters);
  const size_t n = alphabet.size();
  for (size_t j = n; j < letters.size(); ++j) {
    FoldLetter(j, std::bit_or<uint64_t>(), &table);
  }
  if (n < 6) table[0] &= (uint64_t{1} << (size_t{1} << n)) - 1;
  const size_t words = n < 6 ? 1 : size_t{1} << (n - 6);
  const size_t cap = limit == 0 ? SIZE_MAX : limit;
  std::vector<Interpretation> models;
  for (size_t w = 0; w < words && models.size() < cap; ++w) {
    for (uint64_t bits = table[w]; bits != 0 && models.size() < cap;
         bits &= bits - 1) {
      models.push_back(Interpretation::FromIndex(
          n, w * 64 + static_cast<size_t>(std::countr_zero(bits))));
    }
  }
  return EnumeratedSet(alphabet, std::move(models));
}

// True iff every variable of f lies inside `alphabet`, i.e. enumerating f
// over `alphabet` involves no projection.
bool ProjectionFree(const Formula& f, const Alphabet& alphabet) {
  for (const Var v : f.Vars()) {
    if (!alphabet.Contains(v)) return false;
  }
  return true;
}

}  // namespace

bool IsSatisfiable(const Formula& f) {
  obs::ProfileScope profile("solve.sat");
  SatContext context;
  context.Assert(f);
  return context.Solve();
}

EntailmentSolver::EntailmentSolver(Formula base) : base_(std::move(base)) {}

EntailmentSolver::EntailmentSolver(const EntailmentSolver& other)
    : base_(other.base_) {}

EntailmentSolver& EntailmentSolver::operator=(const EntailmentSolver& other) {
  base_ = other.base_;
  context_.reset();
  return *this;
}

EntailmentSolver::EntailmentSolver(EntailmentSolver&&) noexcept = default;
EntailmentSolver& EntailmentSolver::operator=(EntailmentSolver&&) noexcept =
    default;
EntailmentSolver::~EntailmentSolver() = default;

SatContext& EntailmentSolver::Context() {
  if (context_ != nullptr &&
      context_->solver().NumVars() - base_vars_ > base_vars_) {
    context_.reset();
    REVISE_OBS_COUNTER("solve.entails.rebuilds").Increment();
  }
  if (context_ == nullptr) {
    context_ = std::make_unique<SatContext>();
    context_->Assert(base_);
    base_vars_ = context_->solver().NumVars();
  }
  return *context_;
}

bool EntailmentSolver::Entails(const Formula& q) {
  // base |= q iff base & !q is unsatisfiable.
  obs::ProfileScope profile("solve.entails");
  SatContext& context = Context();
  const sat::Lit active = context.FreshLit();
  const sat::Lit negated = context.Encode(Formula::Not(q));
  sat::Solver::LatchConflict(
      context.solver().AddBinary(sat::Negate(active), negated));
  const bool entailed = !context.Solve({active});
  // Retire the query: its clause is satisfied from here on.
  sat::Solver::LatchConflict(context.solver().AddUnit(sat::Negate(active)));
  return entailed;
}

ModelSet EntailmentSolver::Models(const Alphabet& alphabet) {
  obs::ProfileScope profile("solve.enumerate");
  if (std::optional<ModelSet> tabled = TabledModels(base_, alphabet, 0)) {
    return *std::move(tabled);
  }
  // No deadline is set on this context, so an interrupted enumeration is
  // a broken invariant, never a truncated set.
  StatusOr<ModelSet> models = CollectProjectedModels(Context(), alphabet, 0);
  REVISE_CHECK_OK(models);
  context_.reset();
  return std::move(models).value();
}

bool Entails(const Formula& a, const Formula& b) {
  return EntailmentSolver(a).Entails(b);
}

bool EntailedByModels(const ModelSet& models, const Formula& q) {
  obs::ProfileScope profile("solve.entailed_by_models");
  if (models.empty()) return true;
  // S = V(q) ∩ A(M) is all q can see of a model; Y = V(q) \ A(M) ranges
  // freely.
  const std::vector<Var> vars = q.Vars();
  const Alphabet& alphabet = models.alphabet();
  if (vars.size() <= kMaxTruthTableLetters) {
    // Tabulate q over V(q), fold each Y-letter out by AND (q must hold
    // under both of its values), then read every model's S-projection.
    std::vector<uint64_t> table = TruthTable(q, vars);
    // Each S-letter's position in the alphabet and its bit in the index.
    std::vector<size_t> positions;
    std::vector<uint64_t> bits;
    for (size_t j = 0; j < vars.size(); ++j) {
      if (const auto index = alphabet.IndexOf(vars[j])) {
        positions.push_back(*index);
        bits.push_back(uint64_t{1} << j);
      } else {
        FoldLetter(j, std::bit_and<uint64_t>(), &table);
      }
    }
    for (const Interpretation& m : models) {
      uint64_t t = 0;
      for (size_t j = 0; j < positions.size(); ++j) {
        if (m.Get(positions[j])) t |= bits[j];
      }
      if (!TruthTableBit(table, t)) return false;
    }
    return true;
  }
  // A wide q: a projection is a countermodel iff it extends to a model of
  // !q, decided per distinct projection by one assumption-based SAT call.
  std::vector<Var> shared_vars;
  for (const Var v : vars) {
    if (alphabet.Contains(v)) shared_vars.push_back(v);
  }
  const ModelSet projections =
      models.ProjectTo(Alphabet(std::move(shared_vars)));
  const Alphabet& shared = projections.alphabet();
  SatContext context;
  context.Assert(Formula::Not(q));
  std::vector<sat::Lit> shared_lits(shared.size());
  for (size_t i = 0; i < shared.size(); ++i) {
    shared_lits[i] = sat::PosLit(context.SatVarOf(shared.var(i)));
  }
  std::vector<sat::Lit> assumptions(shared.size());
  for (const Interpretation& m : projections) {
    for (size_t i = 0; i < shared.size(); ++i) {
      assumptions[i] = m.Get(i) ? shared_lits[i] : sat::Negate(shared_lits[i]);
    }
    if (context.Solve(assumptions)) return false;
  }
  return true;
}

bool AreEquivalent(const Formula& a, const Formula& b) {
  SatContext context;
  context.Assert(Formula::Xor(a, b));
  return !context.Solve();
}

ModelSet EnumerateModels(const Formula& f, const Alphabet& alphabet,
                         size_t limit) {
  obs::ProfileScope profile("solve.enumerate");
  // Only unlimited enumerations are memoized: a truncated set is not a
  // property of (f, alphabet) alone.
  const bool cacheable = limit == 0;
  if (cacheable) {
    if (std::optional<ModelSet> cached =
            ModelCache::Global().Lookup(f, alphabet)) {
      obs::NoteModelSetCardinality(cached->size());
      return *std::move(cached);
    }
  }
  std::optional<ModelSet> tabled = TabledModels(f, alphabet, limit);
  ModelSet result =
      tabled ? *std::move(tabled) : AllSatModels(f, alphabet, limit);
  if (cacheable) ModelCache::Global().Insert(f, alphabet, result);
  return result;
}

ModelSet AllSatModels(const Formula& f, const Alphabet& alphabet,
                      size_t limit) {
  SatContext context;
  context.Assert(f);
  StatusOr<ModelSet> models = CollectProjectedModels(context, alphabet, limit);
  REVISE_CHECK_OK(models);  // no deadline is set on `context`
  return std::move(models).value();
}

bool QueryEquivalent(const Formula& a, const Formula& b,
                     const Alphabet& alphabet) {
  obs::ProfileScope profile("solve.query_equivalent");
  if (ProjectionFree(a, alphabet) && ProjectionFree(b, alphabet)) {
    // Projection onto `alphabet` is the identity for both sides, so query
    // equivalence coincides with logical equivalence: one SAT call on
    // Xor(a, b) replaces two full model enumerations.
    REVISE_OBS_COUNTER("solve.query_equiv.sat_shortcut").Increment();
    return !IsSatisfiable(Formula::Xor(a, b));
  }
  // General case: enumerate one side in full (through the model cache) and
  // stream the other side model-by-model, stopping at the first projected
  // model the sides do not share instead of always materializing both.
  const ModelSet ma = EnumerateModels(a, alphabet);
  size_t shared = 0;
  bool contained = true;
  SatContext context;
  context.Assert(b);
  const Status status =
      ForEachProjectedModel(context, alphabet, [&](const Interpretation& m) {
        if (!ma.Contains(m)) {
          contained = false;
          return false;
        }
        ++shared;
        return true;
      });
  REVISE_CHECK_OK(status);  // no deadline is set on `context`
  if (!contained) {
    REVISE_OBS_COUNTER("solve.query_equiv.early_exit").Increment();
    return false;
  }
  // Every projected model of b lies in M(a), each counted once (blocking
  // clauses make the stream duplicate-free): equal iff the counts match.
  return shared == ma.size();
}

}  // namespace revise
