// A CDCL SAT solver built from scratch.
//
// Features: two-watched-literal propagation, first-UIP conflict analysis
// with recursive clause minimization, EVSIDS branching with phase saving,
// Luby restarts, learned-clause database reduction, incremental solving
// under assumptions (clauses may be added between Solve() calls).
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

  // Value of a variable in the model found by the last kSat Solve.
  // Unassigned variables (eliminated by simplification) read as false.
  [[nodiscard]] bool ModelValue(int var) const;

  const SolverStats& stats() const { return stats_; }

  // Installs a callback polled roughly every 64 conflicts during search.
  // When it returns true the current Solve call stops and returns
  // kUnknown.  Pass nullptr to clear.
  void SetInterrupt(std::function<bool()> should_stop) {
    interrupt_ = std::move(should_stop);
  }

 private:
  struct Clause;

  struct Watcher {
    Clause* clause;
    Lit blocker;
  };

  // --- clause management ---
  Clause* AllocClause(std::span<const Lit> lits);
  static void FreeClause(Clause* clause);
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
  std::vector<Clause*> clauses_;               // problem clauses
  std::vector<Clause*> learnts_;

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

  std::vector<bool> model_;

  double max_learnts_factor_ = 1.0 / 3.0;
  double learnt_growth_ = 1.1;
  double max_learnts_ = 0;

  SolverStats stats_;
  std::function<bool()> interrupt_;
};

}  // namespace revise::sat

#endif  // REVISE_SAT_SOLVER_H_
