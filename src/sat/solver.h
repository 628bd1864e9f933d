// A CDCL SAT solver built from scratch.
//
// Features: two-watched-literal propagation, first-UIP conflict analysis
// with recursive clause minimization, EVSIDS branching with phase saving,
// Luby restarts, learned-clause database reduction, incremental solving
// under assumptions (clauses may be added between Solve() calls),
// projected model enumeration inside one search (each model blocked by a
// clause over the projection, then the search backtracks and goes on),
// and problem clauses bump-allocated from a per-solver arena.
//
// This is the workhorse behind every semantic operation in librevise:
// satisfiability, entailment, model enumeration, minimal-distance
// computation, and the reference semantics of every revision operator.

#ifndef REVISE_SAT_SOLVER_H_
#define REVISE_SAT_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "sat/literal.h"

namespace revise::sat {

struct SolverStats {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;
  uint64_t learned_clauses = 0;
  uint64_t deleted_clauses = 0;
};

class Solver {
 public:
  // kUnknown is only returned when an interrupt callback (SetInterrupt)
  // asked the search to stop — e.g. a soft deadline expired.
  enum class Result { kSat, kUnsat, kUnknown };

  // Receives one model's projection: element i is vars[i] with the sign
  // it takes in the model.  Returns false to stop the enumeration.
  using ProjectionVisitor = std::function<bool(std::span<const Lit>)>;

  Solver();
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // Creates a new variable and returns its index.
  int NewVar();
  // Ensures variables 0..n-1 exist.
  void EnsureVarCount(int n);
  int NumVars() const { return static_cast<int>(assigns_.size()); }

  // Adds a clause.  Returns false if the solver becomes trivially
  // unsatisfiable (empty clause at level 0).  May be called between
  // Solve() invocations.  Ignoring the result loses the only cheap signal
  // of top-level UNSAT, so it is [[nodiscard]]; callers that genuinely do
  // not care re-check Okay() instead.  The literals are copied and
  // normalised (sorted, duplicates and literals false at level 0 dropped,
  // tautologies and clauses true at level 0 skipped) in member scratch,
  // so no call allocates once the scratch has grown to the widest clause.
  [[nodiscard]] bool AddClause(std::span<const Lit> lits);
  [[nodiscard]] bool AddClause(std::initializer_list<Lit> lits) {
    return AddClause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  [[nodiscard]] bool AddUnit(Lit lit) { return AddClause({lit}); }
  [[nodiscard]] bool AddBinary(Lit a, Lit b) { return AddClause({a, b}); }

  // False once the clause set has been proven unsatisfiable outright.
  [[nodiscard]] bool Okay() const { return ok_; }

  // Consumes an Add{Clause,Unit,Binary} result at call sites where a
  // top-level conflict needs no special handling: the solver latches
  // !Okay() and the next Solve() reports UNSAT.  Using this helper (rather
  // than a bare void cast) marks the discard as a reviewed decision.
  static void LatchConflict(bool added) { static_cast<void>(added); }

  [[nodiscard]] Result Solve();
  // Solves under the given assumptions; the assumptions are not added as
  // clauses and do not persist.
  [[nodiscard]] Result SolveAssuming(const std::vector<Lit>& assumptions);

  // Calls visit once per distinct projection onto `vars` (distinct
  // variables) of a model of the clause set, in one CDCL search: on each
  // total assignment the projection goes to the visitor, the clause
  // blocking it is added as a problem clause, and the search backtracks
  // to one level below the deepest blocking literal, where that literal
  // is unit.  Learning, restarts, ReduceDb and interrupt polling work as
  // in SolveAssuming; the interrupt is also polled every 64 models, so a
  // conflict-free enumeration stops too.  Returns kUnsat once every
  // projection has been visited (the blocking clauses leave the clause
  // set unsatisfiable, so Okay() turns false), kSat when the visitor
  // returned false, and kUnknown when interrupted.  Blocking clauses of
  // visited projections stay, so a later call resumes where this one
  // stopped.  With `vars` empty, visit runs once iff the clauses are
  // satisfiable.  Does not set ModelValue.  The visitor runs inside the
  // search and must not call back into the solver.
  [[nodiscard]] Result EnumerateProjections(std::span<const int> vars,
                                            const ProjectionVisitor& visit);

  // Value of a variable in the model found by the last kSat Solve.
  // Unassigned variables (eliminated by simplification) read as false.
  [[nodiscard]] bool ModelValue(int var) const;

  const SolverStats& stats() const { return stats_; }

  // Installs a callback polled roughly every 64 conflicts during search
  // (and every 64 models during EnumerateProjections).  When it returns
  // true the current call stops and returns kUnknown.  Pass nullptr to
  // clear.
  void SetInterrupt(std::function<bool()> should_stop) {
    interrupt_ = std::move(should_stop);
  }

 private:
  struct Clause;

  struct Watcher {
    Clause* clause;
    Lit blocker;
  };

  // Search's outcomes.
  enum class Outcome {
    kModel,        // every variable assigned
    kRefuted,      // conflict at level 0, or enumeration exhausted
    kRestart,      // conflict budget spent
    kInterrupted,  // the interrupt callback asked to stop
    kFailedAssumptions,
    kVisitorStopped,
  };

  // An EnumerateProjections call's state, read by Search.
  struct Enumeration {
    std::span<const int> vars;
    const ProjectionVisitor* visit;
    uint64_t models = 0;
  };

  // --- clause management ---
  // Learnt clauses are heap blocks that ReduceDb frees one by one.
  Clause* AllocClause(std::span<const Lit> lits);
  static void FreeClause(Clause* clause);
  // Problem clauses (AddClause and blocking clauses) are never freed
  // before the solver, so they come from arena_chunks_.
  Clause* AllocProblemClause(std::span<const Lit> lits);
  static Clause* InitClause(void* memory, std::span<const Lit> lits);
  void AttachClause(Clause* clause);
  void DetachClause(Clause* clause);
  void ReduceDb();

  // --- assignment / trail ---
  LBool ValueOfLit(Lit lit) const;
  LBool ValueOfVar(int var) const { return assigns_[var]; }
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  void NewDecisionLevel() { trail_lim_.push_back(trail_.size()); }
  void UncheckedEnqueue(Lit lit, Clause* reason);
  void CancelUntil(int level);

  // --- search ---
  // Runs CDCL until a model (or, when enumerating, until the projections
  // are exhausted), a refutation, a failed assumption, an interrupt, or
  // `conflict_budget` conflicts.
  Outcome Search(int64_t conflict_budget, std::span<const Lit> assumptions,
                 Enumeration* enumeration);
  // Hands the current total assignment's projection to the visitor and
  // blocks it (see EnumerateProjections).  Returns kModel to go on
  // searching, kRefuted when no projection is left, kVisitorStopped or
  // kInterrupted.
  Outcome VisitAndBlock(Enumeration& enumeration);
  // Cancels to level 0 and runs Search under Luby restarts until it ends
  // in anything but a restart; copies the model on kModel and latches
  // !ok_ on kRefuted.
  Outcome Run(std::span<const Lit> assumptions, Enumeration* enumeration);
  static Result ResultOf(Outcome outcome);
  // Publishes the stats' growth since `before` to the global registry in
  // one batch, so the search loop itself never touches atomics.
  void PublishStats(const SolverStats& before) const;
  Clause* Propagate();
  void Analyze(Clause* conflict, std::vector<Lit>* learnt,
               int* backtrack_level);
  bool LitRedundant(Lit lit, uint32_t abstract_levels);
  Lit PickBranchLit();

  // --- VSIDS heap ---
  void VarBumpActivity(int var);
  void VarDecayActivity();
  void HeapInsert(int var);
  void HeapUpdate(int var);
  int HeapPop();
  bool HeapEmpty() const { return heap_.empty(); }
  void HeapPercolateUp(int pos);
  void HeapPercolateDown(int pos);

  static int64_t Luby(int64_t x);

  bool ok_ = true;
  std::vector<LBool> assigns_;
  std::vector<bool> polarity_;  // saved phases (true = last value was true)
  std::vector<int> level_;
  std::vector<Clause*> reason_;
  std::vector<Lit> trail_;
  std::vector<size_t> trail_lim_;
  size_t qhead_ = 0;

  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  size_t num_problem_clauses_ = 0;             // with two or more literals
  std::vector<Clause*> learnts_;

  // The problem clauses' storage: chunks growing geometrically up to a
  // cap, bumped through from arena_next_; a clause wider than the next
  // chunk gets a chunk of its own.
  std::vector<std::unique_ptr<std::byte[]>> arena_chunks_;
  std::byte* arena_next_ = nullptr;
  size_t arena_left_ = 0;
  size_t arena_chunk_bytes_ = 0;

  // VSIDS.
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<int> heap_;      // binary max-heap of variables
  std::vector<int> heap_pos_;  // var -> heap index, -1 if absent

  // Analyze scratch space.
  std::vector<uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_to_clear_;
  std::vector<Lit> redundant_marked_;  // LitRedundant's marks
  std::vector<Lit> learnt_;            // the clause Analyze derives

  // AddClause's normalisation buffer.
  std::vector<Lit> add_scratch_;
  // EnumerateProjections' buffers: the projection as literals, and the
  // blocking clause.
  std::vector<Lit> projection_;
  std::vector<Lit> blocking_;

  std::vector<bool> model_;

  double max_learnts_factor_ = 1.0 / 3.0;
  double learnt_growth_ = 1.1;
  double max_learnts_ = 0;

  SolverStats stats_;
  std::function<bool()> interrupt_;
};

}  // namespace revise::sat

#endif  // REVISE_SAT_SOLVER_H_
