#include "solve/sat_context.h"

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace revise {

using sat::Lit;
using sat::MakeLit;
using sat::Negate;
using sat::PosLit;

namespace {
// Tseitin encoding never reacts to a top-level conflict mid-recursion;
// the solver latches UNSAT and the next Solve() reports it.
constexpr auto LatchConflict = sat::Solver::LatchConflict;
}  // namespace

int SatContext::SatVarOf(Var var, int frame) {
  const FrameKey key{var, frame};
  auto it = var_map_.find(key);
  if (it != var_map_.end()) return it->second;
  const int sat_var = solver_.NewVar();
  var_map_.emplace(key, sat_var);
  REVISE_OBS_COUNTER("encode.frame_vars").Increment();
  REVISE_OBS_GAUGE("encode.max_frame").UpdateMax(frame);
  return sat_var;
}

Lit SatContext::FreshLit() { return PosLit(solver_.NewVar()); }

Lit SatContext::Encode(const Formula& f, int frame) {
  auto it = node_map_.find(NodeKey{f.id(), frame});
  if (it != node_map_.end()) return it->second;
  EncodeTally tally;
  const Lit result = EncodeRec(f, frame, &tally);
  // node_map_ is keyed by node address: pinning the root keeps every
  // node it just encoded alive, so no address is reused while its entry
  // stands.
  pinned_.push_back(f);
  REVISE_OBS_COUNTER("encode.aux_vars").Increment(tally.aux_vars);
  REVISE_OBS_COUNTER("encode.aux_clauses").Increment(tally.aux_clauses);
  return result;
}

Lit SatContext::EncodeRec(const Formula& f, int frame, EncodeTally* tally) {
  const NodeKey key{f.id(), frame};
  auto it = node_map_.find(key);
  if (it != node_map_.end()) return it->second;

  // Every connective but a letter or a negation introduces one fresh
  // definition literal plus a fixed clause pattern.
  Lit result = sat::kUndefLit;
  switch (f.kind()) {
    case Connective::kConst: {
      // A dedicated always-true/false variable per constant value.
      const Lit lit = FreshLit();
      LatchConflict(solver_.AddUnit(f.const_value() ? lit : Negate(lit)));
      tally->aux_clauses += 1;
      result = lit;
      break;
    }
    case Connective::kVar:
      result = PosLit(SatVarOf(f.var(), frame));
      break;
    case Connective::kNot:
      result = Negate(EncodeRec(f.child(0), frame, tally));
      break;
    case Connective::kAnd:
    case Connective::kOr: {
      // The children's literals go on lit_stack_ above `base`; deeper
      // calls push and pop above that, so the slice survives them.
      const size_t base = lit_stack_.size();
      for (size_t i = 0; i < f.arity(); ++i) {
        const Lit child = EncodeRec(f.child(i), frame, tally);
        lit_stack_.push_back(child);
      }
      const Lit g = FreshLit();
      const bool is_and = f.kind() == Connective::kAnd;
      // Binary clauses g -> c (And) or c -> g (Or); the slice turns into
      // the long clause (!c_1 | ... | g) or (c_1 | ... | !g).
      for (size_t i = base; i < lit_stack_.size(); ++i) {
        const Lit c = lit_stack_[i];
        if (is_and) {
          LatchConflict(solver_.AddBinary(Negate(g), c));
          lit_stack_[i] = Negate(c);
        } else {
          LatchConflict(solver_.AddBinary(g, Negate(c)));
        }
      }
      lit_stack_.push_back(is_and ? g : Negate(g));
      LatchConflict(solver_.AddClause(std::span<const Lit>(
          lit_stack_.data() + base, lit_stack_.size() - base)));
      lit_stack_.resize(base);
      tally->aux_clauses += f.arity() + 1;
      result = g;
      break;
    }
    case Connective::kImplies: {
      const Lit a = EncodeRec(f.child(0), frame, tally);
      const Lit b = EncodeRec(f.child(1), frame, tally);
      const Lit g = FreshLit();
      LatchConflict(solver_.AddClause({Negate(g), Negate(a), b}));
      LatchConflict(solver_.AddBinary(g, a));         // !a -> g
      LatchConflict(solver_.AddBinary(g, Negate(b)));  // b -> g
      tally->aux_clauses += 3;
      result = g;
      break;
    }
    case Connective::kIff:
    case Connective::kXor: {
      const Lit a = EncodeRec(f.child(0), frame, tally);
      Lit b = EncodeRec(f.child(1), frame, tally);
      if (f.kind() == Connective::kXor) b = Negate(b);
      const Lit g = FreshLit();  // g <-> (a <-> b)
      LatchConflict(solver_.AddClause({Negate(g), Negate(a), b}));
      LatchConflict(solver_.AddClause({Negate(g), a, Negate(b)}));
      LatchConflict(solver_.AddClause({g, a, b}));
      LatchConflict(solver_.AddClause({g, Negate(a), Negate(b)}));
      tally->aux_clauses += 4;
      result = g;
      break;
    }
  }
  if (f.kind() != Connective::kVar && f.kind() != Connective::kNot) {
    tally->aux_vars += 1;
  }
  node_map_.emplace(key, result);
  return result;
}

void SatContext::Assert(const Formula& f, int frame) {
  LatchConflict(solver_.AddUnit(Encode(f, frame)));
}

template <typename Call>
sat::Solver::Result SatContext::RunUnderDeadline(Call call) {
  timed_out_ = false;
  if (soft_deadline_seconds_ <= 0.0) return call();
  obs::Stopwatch stopwatch;
  const double deadline = soft_deadline_seconds_;
  solver_.SetInterrupt(
      [&stopwatch, deadline] { return stopwatch.ElapsedSeconds() >= deadline; });
  const sat::Solver::Result result = call();
  solver_.SetInterrupt(nullptr);
  if (result == sat::Solver::Result::kUnknown) {
    timed_out_ = true;
    REVISE_OBS_COUNTER("solve.timed_out").Increment();
    REVISE_FLIGHT_EVENT("solve.deadline_hit", "soft SAT deadline exceeded");
  }
  return result;
}

bool SatContext::Solve(const std::vector<Lit>& assumptions) {
  return RunUnderDeadline([&] { return solver_.SolveAssuming(assumptions); }) ==
         sat::Solver::Result::kSat;
}

sat::Solver::Result SatContext::EnumerateProjections(
    std::span<const int> vars, const sat::Solver::ProjectionVisitor& visit) {
  return RunUnderDeadline(
      [&] { return solver_.EnumerateProjections(vars, visit); });
}

StatusOr<bool> SatContext::SolveOrDeadline(
    const std::vector<Lit>& assumptions) {
  const bool satisfiable = Solve(assumptions);
  if (timed_out_) {
    return DeadlineExceededError("SAT search exceeded soft deadline");
  }
  return satisfiable;
}

bool SatContext::ModelValue(Var var, int frame) const {
  const FrameKey key{var, frame};
  auto it = var_map_.find(key);
  // Variables never mentioned are unconstrained; read them as false,
  // matching the "interpretation = set of true letters" convention.
  if (it == var_map_.end()) return false;
  return solver_.ModelValue(it->second);
}

bool SatContext::ModelValueOfLit(Lit lit) const {
  const bool v = solver_.ModelValue(sat::LitVar(lit));
  return sat::LitSign(lit) ? !v : v;
}

Interpretation SatContext::ExtractModel(const Alphabet& alphabet,
                                        int frame) const {
  Interpretation m(alphabet.size());
  for (size_t i = 0; i < alphabet.size(); ++i) {
    if (ModelValue(alphabet.var(i), frame)) m.Set(i, true);
  }
  return m;
}

}  // namespace revise
