#include "compact/bounded_revision.h"

#include <bit>

#include "compact/degenerate.h"
#include "logic/substitute.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/profile.h"
#include "solve/distance.h"
#include "solve/services.h"
#include "util/check.h"

namespace revise {

namespace {

// The subset of `vars` selected by `mask`.
std::vector<Var> SubsetByMask(const std::vector<Var>& vars, uint64_t mask) {
  std::vector<Var> subset;
  for (size_t i = 0; i < vars.size(); ++i) {
    if ((mask >> i) & 1) subset.push_back(vars[i]);
  }
  return subset;
}

// The degenerate-case conventions, checking both operands.
std::optional<Formula> Degenerate(const Formula& t, const Formula& p) {
  return DegenerateResult(t, p, std::nullopt, PriorCheck::kSolve);
}

// Builds P ∧ ∨_S (T[S/¬S] ∧ ¬ ∨_{C in guard(S)} P[C/¬C]) where guard(S)
// enumerates the masks C for which a strictly preferred difference exists.
template <typename GuardPredicate>
Formula PointwiseBounded(const Formula& t, const Formula& p,
                         GuardPredicate&& strictly_better) {
  if (auto degenerate = Degenerate(t, p)) return *degenerate;
  const std::vector<Var> vp = p.Vars();
  REVISE_CHECK_LE(vp.size(), 16u);
  const uint64_t subsets = uint64_t{1} << vp.size();
  std::vector<Formula> disjuncts;
  for (uint64_t s = 0; s < subsets; ++s) {
    const Formula t_flipped = FlipVars(t, SubsetByMask(vp, s));
    std::vector<Formula> guards;
    for (uint64_t c = 0; c < subsets; ++c) {
      if (!strictly_better(c, s)) continue;
      guards.push_back(FlipVars(p, SubsetByMask(vp, c)));
    }
    disjuncts.push_back(
        Formula::And(t_flipped, Formula::Not(DisjoinAll(guards))));
  }
  return Formula::And(p, DisjoinAll(disjuncts));
}

// Feeds the construction's output size (the paper's |W| measure) into
// the shared compact-size distribution; degenerate early-outs skip it.
Formula RecordCompactSize(Formula f) {
  REVISE_OBS_HISTOGRAM("compact.formula_size").Record(f.VarOccurrences());
  return f;
}

}  // namespace

Formula WinslettBounded(const Formula& t, const Formula& p) {
  obs::ProfileScope profile("compact.WinslettBounded");
  // C delta S ⊊ S  <=>  C != 0 and C ⊆ S.
  return RecordCompactSize(
      PointwiseBounded(t, p, [](uint64_t c, uint64_t s) {
        return c != 0 && (c & ~s) == 0;
      }));
}

Formula ForbusBounded(const Formula& t, const Formula& p) {
  obs::ProfileScope profile("compact.ForbusBounded");
  // |C delta S| < |S|.
  return RecordCompactSize(
      PointwiseBounded(t, p, [](uint64_t c, uint64_t s) {
        return std::popcount(c ^ s) < std::popcount(s);
      }));
}

Formula SatohBounded(const Formula& t, const Formula& p) {
  obs::ProfileScope profile("compact.SatohBounded");
  if (auto degenerate = Degenerate(t, p)) return *degenerate;
  const Alphabet alphabet(UnionOfVars(std::vector<Formula>{t, p}));
  std::vector<Formula> disjuncts;
  for (const Interpretation& diff : GlobalMinimalDiffs(t, p, alphabet)) {
    std::vector<Var> s;
    for (size_t i = 0; i < alphabet.size(); ++i) {
      if (diff.Get(i)) s.push_back(alphabet.var(i));
    }
    disjuncts.push_back(FlipVars(t, s));
  }
  return RecordCompactSize(Formula::And(p, DisjoinAll(disjuncts)));
}

Formula DalalBounded(const Formula& t, const Formula& p) {
  obs::ProfileScope profile("compact.DalalBounded");
  if (auto degenerate = Degenerate(t, p)) return *degenerate;
  const Alphabet alphabet(UnionOfVars(std::vector<Formula>{t, p}));
  const size_t k = *MinHammingDistance(t, p, alphabet);
  const std::vector<Var> vp = p.Vars();
  REVISE_CHECK_LE(vp.size(), 16u);
  std::vector<Formula> disjuncts;
  for (uint64_t s = 0; s < (uint64_t{1} << vp.size()); ++s) {
    if (static_cast<size_t>(std::popcount(s)) != k) continue;
    disjuncts.push_back(FlipVars(t, SubsetByMask(vp, s)));
  }
  return RecordCompactSize(Formula::And(p, DisjoinAll(disjuncts)));
}

Formula WeberBounded(const Formula& t, const Formula& p) {
  obs::ProfileScope profile("compact.WeberBounded");
  if (auto degenerate = Degenerate(t, p)) return *degenerate;
  const Alphabet alphabet(UnionOfVars(std::vector<Formula>{t, p}));
  const Interpretation omega = WeberOmega(t, p, alphabet);
  std::vector<Var> omega_vars;
  for (size_t i = 0; i < alphabet.size(); ++i) {
    if (omega.Get(i)) omega_vars.push_back(alphabet.var(i));
  }
  REVISE_CHECK_LE(omega_vars.size(), 16u);
  std::vector<Formula> disjuncts;
  for (uint64_t s = 0; s < (uint64_t{1} << omega_vars.size()); ++s) {
    disjuncts.push_back(FlipVars(t, SubsetByMask(omega_vars, s)));
  }
  return RecordCompactSize(Formula::And(p, DisjoinAll(disjuncts)));
}

Formula BorgidaBounded(const Formula& t, const Formula& p) {
  obs::ProfileScope profile("compact.BorgidaBounded");
  if (auto degenerate = Degenerate(t, p)) return *degenerate;
  const Formula both = Formula::And(t, p);
  if (IsSatisfiable(both)) return RecordCompactSize(both);
  // Fallback delegates to WinslettBounded, which records its own size.
  return WinslettBounded(t, p);
}

}  // namespace revise
