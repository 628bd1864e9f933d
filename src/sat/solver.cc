#include "sat/solver.h"

#include <algorithm>
#include <cmath>
#include <new>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace revise::sat {

// A clause and its literals in one allocation, MiniSat-style: `size`
// literals follow the header directly, so propagation reaches them
// without a second indirection.  Problem and learnt clauses share the
// layout; clauses_ and learnts_ tell them apart.
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
}  // namespace

Solver::Solver() = default;

Solver::~Solver() {
  for (Clause* c : clauses_) FreeClause(c);
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
  Clause* clause = AllocClause(cleaned);
  clauses_.push_back(clause);
  AttachClause(clause);
  return true;
}

Solver::Clause* Solver::AllocClause(std::span<const Lit> lits) {
  static_assert(alignof(Clause) >= alignof(Lit));
  void* memory = ::operator new(sizeof(Clause) + lits.size() * sizeof(Lit));
  Clause* clause = new (memory) Clause;
  clause->size = static_cast<uint32_t>(lits.size());
  std::copy(lits.begin(), lits.end(), clause->lits());
  return clause;
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

Solver::Result Solver::Solve() { return SolveAssuming({}); }

Solver::Result Solver::SolveAssuming(const std::vector<Lit>& assumptions) {
  if (!ok_) return Result::kUnsat;
  obs::Span span("sat.solve");
  const SolverStats before = stats_;
  CancelUntil(0);
  max_learnts_ = std::max<double>(
      static_cast<double>(clauses_.size()) * max_learnts_factor_, 2000.0);
  int64_t restart_count = 0;
  Result result = Result::kUnknown;
  for (;;) {
    const int64_t budget = kRestartBase * Luby(restart_count + 1);
    const int outcome = [&] {
      // Search returns +1 SAT, 0 UNSAT (refutation at level 0), -1
      // restart, -2 interrupted, -3 UNSAT under the assumptions only.
      int64_t conflicts_left = budget;
      for (;;) {
        Clause* conflict = Propagate();
        if (conflict != nullptr) {
          ++stats_.conflicts;
          --conflicts_left;
          if (interrupt_ && stats_.conflicts % 64 == 0 && interrupt_()) {
            return -2;
          }
          if (DecisionLevel() == 0) return 0;
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
          if (conflicts_left <= 0) return -1;
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
            return -3;  // assumptions conflict with the formula
          } else {
            next = assumption;
            break;
          }
        }
        if (next == kUndefLit) {
          next = PickBranchLit();
          if (next == kUndefLit) return 1;  // all variables assigned
          ++stats_.decisions;
        }
        NewDecisionLevel();
        UncheckedEnqueue(next, nullptr);
      }
    }();
    if (outcome == 1) {
      model_.assign(NumVars(), false);
      for (int v = 0; v < NumVars(); ++v) {
        model_[v] = assigns_[v] == LBool::kTrue;
      }
      CancelUntil(0);
      result = Result::kSat;
      break;
    }
    if (outcome == 0 || outcome == -3) {
      CancelUntil(0);
      // A refutation at level 0 holds regardless of assumptions: the
      // trail now contains a falsified clause that propagation has
      // already passed, so the solver must never search again.
      if (outcome == 0) ok_ = false;
      result = Result::kUnsat;
      break;
    }
    if (outcome == -2) {
      CancelUntil(0);
      REVISE_OBS_COUNTER("sat.interrupts").Increment();
      result = Result::kUnknown;
      break;
    }
    ++restart_count;
    ++stats_.restarts;
    max_learnts_ *= learnt_growth_;
    CancelUntil(0);
  }
  // Publish this call's deltas to the global registry in one batch so the
  // search loop itself never touches atomics.
  REVISE_OBS_COUNTER("sat.solves").Increment();
  REVISE_OBS_COUNTER("sat.conflicts")
      .Increment(stats_.conflicts - before.conflicts);
  REVISE_OBS_COUNTER("sat.decisions")
      .Increment(stats_.decisions - before.decisions);
  REVISE_OBS_HISTOGRAM("sat.decisions_per_solve")
      .Record(stats_.decisions - before.decisions);
  REVISE_OBS_COUNTER("sat.propagations")
      .Increment(stats_.propagations - before.propagations);
  REVISE_OBS_COUNTER("sat.restarts").Increment(stats_.restarts - before.restarts);
  REVISE_OBS_COUNTER("sat.learned_clauses")
      .Increment(stats_.learned_clauses - before.learned_clauses);
  REVISE_OBS_COUNTER("sat.deleted_clauses")
      .Increment(stats_.deleted_clauses - before.deleted_clauses);
  return result;
}

bool Solver::ModelValue(int var) const {
  if (var < 0 || static_cast<size_t>(var) >= model_.size()) return false;
  return model_[var];
}

}  // namespace revise::sat
