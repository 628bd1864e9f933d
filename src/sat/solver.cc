#include "sat/solver.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <type_traits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace revise::sat {

// A clause and its literals in one allocation, MiniSat-style: `size`
// literals follow the header directly, so propagation reaches them
// without a second indirection.  Problem and learnt clauses share the
// layout; only learnts_ lists the learnt ones.
struct Solver::Clause {
  double activity = 0.0;
  uint32_t size = 0;

  Lit* lits() { return reinterpret_cast<Lit*>(this + 1); }
  Lit& operator[](size_t i) { return lits()[i]; }
};

namespace {
constexpr double kVarDecay = 0.95;
constexpr double kClauseActivityBump = 1.0;
constexpr int64_t kRestartBase = 100;
// The arena's first chunk and the size its doubling stops at: small
// solvers (one entailment check) take one small block, and no chunk is
// large enough to be mapped and unmapped page by page.
constexpr size_t kFirstChunkBytes = size_t{1} << 10;
constexpr size_t kMaxChunkBytes = size_t{1} << 16;
}  // namespace

Solver::Solver() = default;

Solver::~Solver() {
  // Problem clauses go with arena_chunks_.
  for (Clause* c : learnts_) FreeClause(c);
}

int Solver::NewVar() {
  const int var = NumVars();
  assigns_.push_back(LBool::kUndef);
  polarity_.push_back(false);
  level_.push_back(0);
  reason_.push_back(nullptr);
  activity_.push_back(0.0);
  seen_.push_back(0);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  HeapInsert(var);
  return var;
}

void Solver::EnsureVarCount(int n) {
  while (NumVars() < n) NewVar();
}

LBool Solver::ValueOfLit(Lit lit) const {
  REVISE_DCHECK_GE(lit, 0);
  REVISE_DCHECK_LT(LitVar(lit), NumVars());
  LBool v = assigns_[LitVar(lit)];
  if (v == LBool::kUndef) return LBool::kUndef;
  return LitSign(lit) ? NegateLBool(v) : v;
}

bool Solver::AddClause(std::span<const Lit> lits) {
  if (!ok_) return false;
  CancelUntil(0);
  // Normalize: sort, remove duplicates, detect tautologies, drop literals
  // already false at level 0, succeed trivially if already satisfied.
  // Compacts add_scratch_ in place: `kept` never overtakes the read.
  std::vector<Lit>& cleaned = add_scratch_;
  cleaned.assign(lits.begin(), lits.end());
  std::sort(cleaned.begin(), cleaned.end());
  size_t kept = 0;
  Lit prev = kUndefLit;
  for (const Lit lit : cleaned) {
    REVISE_CHECK_GE(lit, 0);
    REVISE_CHECK_LT(LitVar(lit), NumVars());
    if (lit == prev) continue;
    if (prev != kUndefLit && lit == Negate(prev) &&
        LitVar(lit) == LitVar(prev)) {
      return true;  // tautology
    }
    LBool value = ValueOfLit(lit);
    if (value == LBool::kTrue) return true;  // satisfied at level 0
    if (value == LBool::kFalse) {
      prev = lit;
      continue;  // falsified at level 0: drop
    }
    cleaned[kept++] = lit;
    prev = lit;
  }
  cleaned.resize(kept);
  if (cleaned.empty()) {
    ok_ = false;
    return false;
  }
  if (cleaned.size() == 1) {
    UncheckedEnqueue(cleaned[0], nullptr);
    if (Propagate() != nullptr) {
      ok_ = false;
      return false;
    }
    return true;
  }
  Clause* clause = AllocProblemClause(cleaned);
  AttachClause(clause);
  return true;
}

Solver::Clause* Solver::InitClause(void* memory, std::span<const Lit> lits) {
  static_assert(alignof(Clause) >= alignof(Lit));
  Clause* clause = new (memory) Clause;
  clause->size = static_cast<uint32_t>(lits.size());
  std::copy(lits.begin(), lits.end(), clause->lits());
  return clause;
}

Solver::Clause* Solver::AllocClause(std::span<const Lit> lits) {
  return InitClause(
      ::operator new(sizeof(Clause) + lits.size() * sizeof(Lit)), lits);
}

Solver::Clause* Solver::AllocProblemClause(std::span<const Lit> lits) {
  static_assert(std::is_trivially_destructible_v<Clause>);
  // Rounded up so the next clause's header stays aligned.
  const size_t bytes = (sizeof(Clause) + lits.size() * sizeof(Lit) +
                        alignof(Clause) - 1) &
                       ~(alignof(Clause) - 1);
  if (bytes > arena_left_) {
    arena_chunk_bytes_ = std::clamp(2 * arena_chunk_bytes_, kFirstChunkBytes,
                                    kMaxChunkBytes);
    const size_t chunk = std::max(bytes, arena_chunk_bytes_);
    // new[] aligns to __STDCPP_DEFAULT_NEW_ALIGNMENT__, enough for Clause.
    arena_chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(chunk));
    arena_next_ = arena_chunks_.back().get();
    arena_left_ = chunk;
  }
  void* memory = arena_next_;
  arena_next_ += bytes;
  arena_left_ -= bytes;
  ++num_problem_clauses_;
  return InitClause(memory, lits);
}

void Solver::FreeClause(Clause* clause) {
  clause->~Clause();
  ::operator delete(clause);
}

void Solver::AttachClause(Clause* clause) {
  REVISE_CHECK_GE(clause->size, 2u);
  Clause& c = *clause;
  watches_[Negate(c[0])].push_back({clause, c[1]});
  watches_[Negate(c[1])].push_back({clause, c[0]});
}

void Solver::DetachClause(Clause* clause) {
  for (int i = 0; i < 2; ++i) {
    std::vector<Watcher>& ws = watches_[Negate((*clause)[i])];
    for (size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].clause == clause) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::UncheckedEnqueue(Lit lit, Clause* reason) {
  const int var = LitVar(lit);
  REVISE_DCHECK(assigns_[var] == LBool::kUndef);
  assigns_[var] = BoolToLBool(!LitSign(lit));
  level_[var] = DecisionLevel();
  reason_[var] = reason;
  trail_.push_back(lit);
}

void Solver::CancelUntil(int target_level) {
  if (DecisionLevel() <= target_level) return;
  const size_t keep = trail_lim_[target_level];
  for (size_t i = trail_.size(); i-- > keep;) {
    const int var = LitVar(trail_[i]);
    polarity_[var] = assigns_[var] == LBool::kTrue;
    assigns_[var] = LBool::kUndef;
    reason_[var] = nullptr;
    if (heap_pos_[var] < 0) HeapInsert(var);
  }
  trail_.resize(keep);
  trail_lim_.resize(target_level);
  qhead_ = trail_.size();
}

Solver::Clause* Solver::Propagate() {
  Clause* conflict = nullptr;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    std::vector<Watcher>& ws = watches_[p];
    size_t i = 0;
    size_t j = 0;
    while (i < ws.size()) {
      // Fast path: blocker already satisfied.
      const Lit blocker = ws[i].blocker;
      if (ValueOfLit(blocker) == LBool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause* clause = ws[i].clause;
      Lit* const lits = clause->lits();
      // Normalize so the false watched literal is lits[1].
      const Lit false_lit = Negate(p);
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      // lits[0] may satisfy the clause.
      const Lit first = lits[0];
      if (first != blocker && ValueOfLit(first) == LBool::kTrue) {
        ws[i].blocker = first;
        ws[j++] = ws[i++];
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (size_t k = 2; k < clause->size; ++k) {
        if (ValueOfLit(lits[k]) != LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[Negate(lits[1])].push_back({clause, first});
          moved = true;
          break;
        }
      }
      if (moved) {
        ++i;  // watcher moved to another list; drop from this one
        continue;
      }
      // Clause is unit or conflicting.
      ws[i].blocker = first;
      if (ValueOfLit(first) == LBool::kFalse) {
        conflict = clause;
        qhead_ = trail_.size();
        // Copy the remaining watchers and stop.
        while (i < ws.size()) ws[j++] = ws[i++];
        break;
      }
      UncheckedEnqueue(first, clause);
      ws[j++] = ws[i++];
    }
    ws.resize(j);
    if (conflict != nullptr) break;
  }
  return conflict;
}

void Solver::Analyze(Clause* conflict, std::vector<Lit>* learnt,
                     int* backtrack_level) {
  learnt->clear();
  learnt->push_back(kUndefLit);  // placeholder for the asserting literal
  int path_count = 0;
  Lit p = kUndefLit;
  size_t index = trail_.size();

  Clause* reason = conflict;
  do {
    REVISE_CHECK(reason != nullptr);
    reason->activity += kClauseActivityBump;
    // Skip lits[0] when it is the literal we are resolving on.
    for (size_t k = (p == kUndefLit ? 0 : 1); k < reason->size; ++k) {
      const Lit q = (*reason)[k];
      const int var = LitVar(q);
      if (seen_[var] || level_[var] == 0) continue;
      seen_[var] = 1;
      VarBumpActivity(var);
      if (level_[var] >= DecisionLevel()) {
        ++path_count;
      } else {
        learnt->push_back(q);
      }
    }
    // Find the next literal on the trail to resolve.
    while (!seen_[LitVar(trail_[index - 1])]) --index;
    --index;
    p = trail_[index];
    reason = reason_[LitVar(p)];
    seen_[LitVar(p)] = 0;
    --path_count;
  } while (path_count > 0);
  (*learnt)[0] = Negate(p);

  // Conflict clause minimization: drop literals implied by the rest.
  analyze_to_clear_ = *learnt;
  for (const Lit lit : *learnt) seen_[LitVar(lit)] = 1;
  uint32_t abstract_levels = 0;
  for (size_t i = 1; i < learnt->size(); ++i) {
    abstract_levels |= 1u << (level_[LitVar((*learnt)[i])] & 31);
  }
  size_t keep = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    const Lit lit = (*learnt)[i];
    if (reason_[LitVar(lit)] == nullptr ||
        !LitRedundant(lit, abstract_levels)) {
      (*learnt)[keep++] = lit;
    }
  }
  learnt->resize(keep);

  // Compute the backtrack level and move the second-highest-level literal
  // into position 1 so it gets watched.
  if (learnt->size() == 1) {
    *backtrack_level = 0;
  } else {
    size_t max_index = 1;
    for (size_t i = 2; i < learnt->size(); ++i) {
      if (level_[LitVar((*learnt)[i])] >
          level_[LitVar((*learnt)[max_index])]) {
        max_index = i;
      }
    }
    std::swap((*learnt)[1], (*learnt)[max_index]);
    *backtrack_level = level_[LitVar((*learnt)[1])];
  }

  for (const Lit lit : analyze_to_clear_) seen_[LitVar(lit)] = 0;
  analyze_to_clear_.clear();
}

bool Solver::LitRedundant(Lit lit, uint32_t abstract_levels) {
  // Depth-first check that every path from `lit`'s reason terminates in
  // literals already present in the learnt clause (marked in seen_).
  analyze_stack_.clear();
  analyze_stack_.push_back(lit);
  std::vector<Lit>& marked = redundant_marked_;  // marks added by this check
  marked.clear();
  while (!analyze_stack_.empty()) {
    const Lit current = analyze_stack_.back();
    analyze_stack_.pop_back();
    Clause* reason = reason_[LitVar(current)];
    REVISE_CHECK(reason != nullptr);
    for (size_t k = 1; k < reason->size; ++k) {
      const Lit q = (*reason)[k];
      const int var = LitVar(q);
      if (seen_[var] || level_[var] == 0) continue;
      if (reason_[var] == nullptr ||
          ((1u << (level_[var] & 31)) & abstract_levels) == 0) {
        // Cannot be resolved away: undo marks and fail.
        for (const Lit m : marked) seen_[LitVar(m)] = 0;
        return false;
      }
      seen_[var] = 1;
      marked.push_back(q);
      analyze_stack_.push_back(q);
    }
  }
  // Keep the marks (they witness redundancy for later literals in this
  // Analyze call); they are cleared with analyze_to_clear_ at the end.
  analyze_to_clear_.insert(analyze_to_clear_.end(), marked.begin(),
                           marked.end());
  return true;
}

void Solver::VarBumpActivity(int var) {
  activity_[var] += var_inc_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[var] >= 0) HeapUpdate(var);
}

void Solver::VarDecayActivity() { var_inc_ /= kVarDecay; }

void Solver::HeapInsert(int var) {
  heap_pos_[var] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  HeapPercolateUp(heap_pos_[var]);
}

void Solver::HeapUpdate(int var) { HeapPercolateUp(heap_pos_[var]); }

int Solver::HeapPop() {
  const int top = heap_[0];
  heap_pos_[top] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[heap_[0]] = 0;
    heap_.pop_back();
    HeapPercolateDown(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void Solver::HeapPercolateUp(int pos) {
  const int var = heap_[pos];
  while (pos > 0) {
    const int parent = (pos - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[var]) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = var;
  heap_pos_[var] = pos;
}

void Solver::HeapPercolateDown(int pos) {
  const int var = heap_[pos];
  const int size = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[var]) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = pos;
    pos = child;
  }
  heap_[pos] = var;
  heap_pos_[var] = pos;
}

Lit Solver::PickBranchLit() {
  while (!HeapEmpty()) {
    const int var = heap_[0];
    if (assigns_[var] == LBool::kUndef) {
      HeapPop();
      return MakeLit(var, !polarity_[var]);
    }
    HeapPop();
  }
  return kUndefLit;
}

void Solver::ReduceDb() {
  std::sort(learnts_.begin(), learnts_.end(),
            [](const Clause* a, const Clause* b) {
              return a->activity < b->activity;
            });
  const size_t target = learnts_.size() / 2;
  size_t kept = 0;
  for (size_t i = 0; i < learnts_.size(); ++i) {
    Clause* clause = learnts_[i];
    const Lit first = (*clause)[0];
    const bool locked = reason_[LitVar(first)] == clause &&
                        ValueOfLit(first) == LBool::kTrue;
    if (i < target && clause->size > 2 && !locked) {
      DetachClause(clause);
      FreeClause(clause);
      ++stats_.deleted_clauses;
    } else {
      learnts_[kept++] = clause;
    }
  }
  learnts_.resize(kept);
}

int64_t Solver::Luby(int64_t x) {
  // Finds the subsequence value of the Luby sequence at index x (1-based).
  int64_t size = 1;
  int64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) / 2;
    --seq;
    x = x % size;
  }
  return int64_t{1} << seq;
}

Solver::Outcome Solver::Search(int64_t conflict_budget,
                               std::span<const Lit> assumptions,
                               Enumeration* enumeration) {
  int64_t conflicts_left = conflict_budget;
  for (;;) {
    Clause* conflict = Propagate();
    if (conflict != nullptr) {
      ++stats_.conflicts;
      --conflicts_left;
      if (interrupt_ && stats_.conflicts % 64 == 0 && interrupt_()) {
        return Outcome::kInterrupted;
      }
      if (DecisionLevel() == 0) return Outcome::kRefuted;
      int backtrack_level = 0;
      Analyze(conflict, &learnt_, &backtrack_level);
      CancelUntil(backtrack_level);
      if (learnt_.size() == 1) {
        UncheckedEnqueue(learnt_[0], nullptr);
      } else {
        Clause* clause = AllocClause(learnt_);
        learnts_.push_back(clause);
        ++stats_.learned_clauses;
        AttachClause(clause);
        UncheckedEnqueue(learnt_[0], clause);
      }
      VarDecayActivity();
      if (conflicts_left <= 0) return Outcome::kRestart;
      continue;
    }
    if (static_cast<double>(learnts_.size()) >
        max_learnts_ + trail_.size()) {
      ReduceDb();
    }
    // Establish assumptions, one decision level each.
    Lit next = kUndefLit;
    while (DecisionLevel() < static_cast<int>(assumptions.size())) {
      const Lit assumption = assumptions[DecisionLevel()];
      const LBool value = ValueOfLit(assumption);
      if (value == LBool::kTrue) {
        NewDecisionLevel();  // dummy level keeps indices aligned
      } else if (value == LBool::kFalse) {
        return Outcome::kFailedAssumptions;
      } else {
        next = assumption;
        break;
      }
    }
    if (next == kUndefLit) {
      next = PickBranchLit();
      if (next == kUndefLit) {  // all variables assigned
        if (enumeration == nullptr) return Outcome::kModel;
        const Outcome outcome = VisitAndBlock(*enumeration);
        if (outcome != Outcome::kModel) return outcome;
        continue;  // propagate the blocking clause's unit literal
      }
      ++stats_.decisions;
    }
    NewDecisionLevel();
    UncheckedEnqueue(next, nullptr);
  }
}

Solver::Outcome Solver::VisitAndBlock(Enumeration& enumeration) {
  projection_.clear();
  for (const int var : enumeration.vars) {
    projection_.push_back(MakeLit(var, assigns_[var] == LBool::kFalse));
  }
  if (!(*enumeration.visit)(projection_)) return Outcome::kVisitorStopped;
  ++enumeration.models;
  // The blocking clause: the projection's literals negated, less those
  // fixed at level 0, which are false for good.
  blocking_.clear();
  for (const Lit lit : projection_) {
    if (level_[LitVar(lit)] > 0) blocking_.push_back(Negate(lit));
  }
  if (blocking_.empty()) return Outcome::kRefuted;  // no projection left
  // Watch a deepest literal and the deepest of the rest.
  for (size_t w = 0; w < 2 && w < blocking_.size(); ++w) {
    size_t deepest = w;
    for (size_t i = w + 1; i < blocking_.size(); ++i) {
      if (level_[LitVar(blocking_[i])] > level_[LitVar(blocking_[deepest])]) {
        deepest = i;
      }
    }
    std::swap(blocking_[w], blocking_[deepest]);
  }
  if (blocking_.size() == 1) {
    CancelUntil(0);
    UncheckedEnqueue(blocking_[0], nullptr);
  } else {
    const int top = level_[LitVar(blocking_[0])];
    // Below `top`, blocking_[0] is unit unless blocking_[1] shares its
    // level; then both watches are open and the search decides again.
    const bool unit = level_[LitVar(blocking_[1])] < top;
    Clause* clause = AllocProblemClause(blocking_);
    CancelUntil(top - 1);
    AttachClause(clause);
    if (unit) UncheckedEnqueue(blocking_[0], clause);
  }
  if (interrupt_ && enumeration.models % 64 == 0 && interrupt_()) {
    return Outcome::kInterrupted;
  }
  return Outcome::kModel;
}

Solver::Outcome Solver::Run(std::span<const Lit> assumptions,
                            Enumeration* enumeration) {
  CancelUntil(0);
  max_learnts_ = std::max<double>(
      static_cast<double>(num_problem_clauses_) * max_learnts_factor_,
      2000.0);
  for (int64_t restarts = 0;; ++restarts) {
    const Outcome outcome = Search(kRestartBase * Luby(restarts + 1),
                                   assumptions, enumeration);
    if (outcome == Outcome::kRestart) {
      ++stats_.restarts;
      max_learnts_ *= learnt_growth_;
      CancelUntil(0);
      continue;
    }
    if (outcome == Outcome::kModel) {
      model_.assign(NumVars(), false);
      for (int v = 0; v < NumVars(); ++v) {
        model_[v] = assigns_[v] == LBool::kTrue;
      }
    }
    // A refutation at level 0 holds regardless of assumptions: the trail
    // now contains a falsified clause that propagation has already
    // passed, so the solver must never search again.
    if (outcome == Outcome::kRefuted) ok_ = false;
    if (outcome == Outcome::kInterrupted) {
      REVISE_OBS_COUNTER("sat.interrupts").Increment();
    }
    CancelUntil(0);
    return outcome;
  }
}

Solver::Result Solver::ResultOf(Outcome outcome) {
  switch (outcome) {
    case Outcome::kModel:
    case Outcome::kVisitorStopped:
      return Result::kSat;
    case Outcome::kInterrupted:
      return Result::kUnknown;
    case Outcome::kRefuted:
    case Outcome::kFailedAssumptions:
    case Outcome::kRestart:  // Run never returns it
      break;
  }
  return Result::kUnsat;
}

void Solver::PublishStats(const SolverStats& before) const {
  REVISE_OBS_COUNTER("sat.conflicts")
      .Increment(stats_.conflicts - before.conflicts);
  REVISE_OBS_COUNTER("sat.decisions")
      .Increment(stats_.decisions - before.decisions);
  REVISE_OBS_COUNTER("sat.propagations")
      .Increment(stats_.propagations - before.propagations);
  REVISE_OBS_COUNTER("sat.restarts").Increment(stats_.restarts - before.restarts);
  REVISE_OBS_COUNTER("sat.learned_clauses")
      .Increment(stats_.learned_clauses - before.learned_clauses);
  REVISE_OBS_COUNTER("sat.deleted_clauses")
      .Increment(stats_.deleted_clauses - before.deleted_clauses);
}

Solver::Result Solver::Solve() { return SolveAssuming({}); }

Solver::Result Solver::SolveAssuming(const std::vector<Lit>& assumptions) {
  if (!ok_) return Result::kUnsat;
  obs::Span span("sat.solve");
  const SolverStats before = stats_;
  const Outcome outcome = Run(assumptions, nullptr);
  REVISE_OBS_COUNTER("sat.solves").Increment();
  REVISE_OBS_HISTOGRAM("sat.decisions_per_solve")
      .Record(stats_.decisions - before.decisions);
  PublishStats(before);
  return ResultOf(outcome);
}

Solver::Result Solver::EnumerateProjections(std::span<const int> vars,
                                            const ProjectionVisitor& visit) {
  if (!ok_) return Result::kUnsat;
  obs::Span span("sat.enumerate");
  const SolverStats before = stats_;
  // A repeated variable would repeat a literal in the blocking clauses.
  for (const int var : vars) {
    REVISE_CHECK_GE(var, 0);
    REVISE_CHECK_LT(var, NumVars());
    REVISE_CHECK(!seen_[var]);
    seen_[var] = 1;
  }
  for (const int var : vars) seen_[var] = 0;
  Enumeration enumeration{vars, &visit};
  const Outcome outcome = Run({}, &enumeration);
  REVISE_OBS_COUNTER("sat.enumerations").Increment();
  PublishStats(before);
  return ResultOf(outcome);
}

bool Solver::ModelValue(int var) const {
  if (var < 0 || static_cast<size_t>(var) >= model_.size()) return false;
  return model_[var];
}

}  // namespace revise::sat
