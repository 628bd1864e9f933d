// Bridge between the logic layer (formulas over a Vocabulary) and the SAT
// solver: Tseitin encoding, multi-frame variable mapping, model extraction.
//
// A "frame" is an independent copy of the logic-variable space inside the
// solver.  Encoding T in frame 0 and P in frame 1 lets us reason about a
// model of T and a model of P simultaneously (the paper's pairs (M, N) with
// their symmetric difference) without inventing renamed logic variables.

#ifndef REVISE_SOLVE_SAT_CONTEXT_H_
#define REVISE_SOLVE_SAT_CONTEXT_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "logic/formula.h"
#include "logic/interpretation.h"
#include "sat/literal.h"
#include "sat/solver.h"
#include "util/status.h"

namespace revise {

class SatContext {
 public:
  SatContext() = default;

  SatContext(const SatContext&) = delete;
  SatContext& operator=(const SatContext&) = delete;

  sat::Solver& solver() { return solver_; }

  // Solver variable representing logic variable `var` in `frame`.
  int SatVarOf(Var var, int frame = 0);

  // Tseitin-encodes `f` (interpreting its variables in `frame`) and
  // returns a literal equivalent to f.  Clauses defining the encoding are
  // added to the solver; the formula itself is not asserted.
  [[nodiscard]] sat::Lit Encode(const Formula& f, int frame = 0);

  // Asserts f (unit clause on its encoding literal).
  void Assert(const Formula& f, int frame = 0);

  // Fresh solver literal (positive polarity).
  sat::Lit FreshLit();

  // Solves under assumptions; returns true iff satisfiable.  When a soft
  // deadline is set and expires mid-search, returns false and timed_out()
  // reports true until the next Solve call.
  [[nodiscard]] bool Solve(const std::vector<sat::Lit>& assumptions = {});

  // sat::Solver::EnumerateProjections under the soft deadline: kUnknown
  // (with timed_out() true) means the deadline cut the enumeration short.
  [[nodiscard]] sat::Solver::Result EnumerateProjections(
      std::span<const int> vars, const sat::Solver::ProjectionVisitor& visit);

  // Like Solve, but a deadline expiry is reported as an explicit
  // kDeadlineExceeded status instead of being folded into `false`.
  StatusOr<bool> SolveOrDeadline(const std::vector<sat::Lit>& assumptions = {});

  // Bounds each subsequent Solve / EnumerateProjections call to roughly
  // `seconds` of wall time (polled every ~64 conflicts or models, so very
  // easy instances never pay for a clock read).  Values <= 0 clear the
  // deadline.
  void set_soft_deadline_seconds(double seconds) {
    soft_deadline_seconds_ = seconds;
  }
  double soft_deadline_seconds() const { return soft_deadline_seconds_; }
  // True iff the most recent Solve / EnumerateProjections call hit the
  // soft deadline.
  bool timed_out() const { return timed_out_; }

  // Value of logic variable `var` in `frame` in the last model.
  [[nodiscard]] bool ModelValue(Var var, int frame = 0) const;
  [[nodiscard]] bool ModelValueOfLit(sat::Lit lit) const;

  // Extracts the last model restricted to `alphabet` in `frame`.
  [[nodiscard]] Interpretation ExtractModel(const Alphabet& alphabet,
                                            int frame = 0) const;

 private:
  struct FrameKey {
    Var var;
    int frame;
    bool operator==(const FrameKey& other) const {
      return var == other.var && frame == other.frame;
    }
  };
  struct FrameKeyHash {
    size_t operator()(const FrameKey& key) const {
      return std::hash<uint64_t>()(
          (static_cast<uint64_t>(key.frame) << 32) | key.var);
    }
  };
  struct NodeKey {
    const void* node;
    int frame;
    bool operator==(const NodeKey& other) const {
      return node == other.node && frame == other.frame;
    }
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey& key) const {
      return std::hash<const void*>()(key.node) * 31 +
             static_cast<size_t>(key.frame);
    }
  };

  // The encode.aux_* counts of one Encode call, published at its end.
  struct EncodeTally {
    uint64_t aux_vars = 0;
    uint64_t aux_clauses = 0;
  };
  sat::Lit EncodeRec(const Formula& f, int frame, EncodeTally* tally);
  // Runs call() (a solver call returning a Result) with the soft
  // deadline installed as the solver's interrupt, and sets timed_out_.
  template <typename Call>
  sat::Solver::Result RunUnderDeadline(Call call);

  sat::Solver solver_;
  double soft_deadline_seconds_ = 0.0;
  bool timed_out_ = false;
  std::unordered_map<FrameKey, int, FrameKeyHash> var_map_;
  std::unordered_map<NodeKey, sat::Lit, NodeKeyHash> node_map_;
  // The roots of the Encode calls: each keeps the nodes below it, which
  // node_map_ references by address, alive so ids stay unique.
  std::vector<Formula> pinned_;
  // EncodeRec's gate literals, one slice per connective being encoded.
  std::vector<sat::Lit> lit_stack_;
};

}  // namespace revise

#endif  // REVISE_SOLVE_SAT_CONTEXT_H_
