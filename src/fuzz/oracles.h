// Differential and property oracles over revision scenarios.
//
// Each oracle checks one scenario against an independent source of truth
// and returns a failure description when the two disagree:
//
//   brute-force-models    EnumerateModels (a truth table up to 16
//                         letters, else AllSAT; model cache) and
//                         AllSatModels (the CDCL blocking-clause path) vs
//                         a sweep of Evaluate, over the full alphabet and
//                         projected onto alphabets that omit letters of
//                         the formula, some at table bit 6 or above.
//   operator-reference    each of the six model-based operators vs a
//                         deliberately naive O(|M(T)| * |M(P)|) re-
//                         implementation of the Section 2.2.2 definitions
//                         (no parallelism, no shared set primitives).
//   thread-count          ReviseModelSets at 1 thread vs several; the
//                         deterministic-merge contract says results are
//                         bit-identical.
//   model-cache           enumeration with the global cache cold, warm and
//                         disabled; results must be identical and the
//                         hit/miss counters must move per the
//                         disable-vs-evict contract (solve/model_cache.h).
//   bdd-vs-enumeration    model count via hash-consed ROBDD vs
//                         EnumerateModels, and
//                         the canonicity check: compiling the canonical
//                         DNF of the enumerated models must reproduce the
//                         identical BDD node.
//   compact-vs-direct     the Theorem 3.4/3.5 compact constructions vs
//                         direct revision, under query equivalence over
//                         X = V(T) ∪ V(P), plus *EntailsCompact vs the
//                         operator's Entails.
//   entailment            EntailedByModels vs Entails on the canonical
//                         DNF, for the empty set and each model-based
//                         operator's revision, on Q, Q | y, Q & y and
//                         Q <-> y with y a fresh letter and on
//                         Q <-> y1 & ... & y6 (truth-table path), and on
//                         Q | y1 & ... & y17 (assumption-SAT path), the
//                         yi fresh letters.
//   explicit-fold         an explicit and a delayed KnowledgeBase revised
//                         by P then Q under each of the nine operators.
//                         Explicit: Models() vs a truth table of
//                         folded(), Ask vs SAT entailment on folded() (Q,
//                         !Q, P, Q | y with y fresh), and for the
//                         model-based operators folded() vs the
//                         operator's ReviseFormula chain.  Delayed, with
//                         Ask between P and Q: Ask and Models() vs the
//                         from-scratch IteratedReviseModels, and Models()
//                         of a copy first queried after Q.
//   compact-ask           a compact KnowledgeBase revised by P then Q
//                         under each of the seven compact operators: Ask
//                         (Q, !Q, Q, P, Q | y) on the KB's incremental
//                         solver, on the memo after Models() and after a
//                         .rkb round trip vs fresh-solver entailment on
//                         folded(), and Models() on the used solver vs a
//                         fresh enumeration.
//   postulates            the KM laws every one of the six operators must
//                         satisfy (success, consistency, update vacuity,
//                         idempotence) and revision vacuity for the four
//                         revision operators.
//   figure1-containment   the paper's Figure 1 edges, e.g. Dalal ⊆ Satoh
//                         ⊆ Winslett, as model-set inclusions.
//   parser-roundtrip      print → parse → structural equality.
//   artifact-roundtrip    compile → save → load → query vs direct under
//                         Dalal/delayed, Winslett/explicit and
//                         Dalal/compact, plus rejection of corrupted bytes.
//
// Oracles with exponential references skip scenarios whose revision
// alphabet exceeds kMaxOracleAlphabet instead of failing.

#ifndef REVISE_FUZZ_ORACLES_H_
#define REVISE_FUZZ_ORACLES_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/scenario.h"

namespace revise::fuzz {

// Exponential reference oracles skip scenarios with more letters.
inline constexpr size_t kMaxOracleAlphabet = 12;

struct Oracle {
  const char* name;         // stable kebab-case id, keys corpus entries
  const char* description;  // one line, for --list and diagnostics
  std::optional<std::string> (*run)(const Scenario& scenario);
};

// All oracles in a stable order.
const std::vector<Oracle>& AllOracles();

// Lookup by name; nullptr when unknown.
const Oracle* FindOracle(std::string_view name);

// One oracle's verdict on one scenario (nullopt = agreement).
std::optional<std::string> RunOracle(const Oracle& oracle,
                                     const Scenario& scenario);

struct OracleFailure {
  std::string oracle;
  std::string detail;
};

// Runs `only_oracle` (or, when empty, every oracle in order) against the
// scenario and reports the first disagreement.
std::optional<OracleFailure> CheckScenario(const Scenario& scenario,
                                           std::string_view only_oracle = {});

}  // namespace revise::fuzz

#endif  // REVISE_FUZZ_ORACLES_H_
