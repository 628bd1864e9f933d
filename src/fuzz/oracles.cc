#include "fuzz/oracles.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "artifact/artifact.h"
#include "bdd/bdd.h"
#include "compact/query.h"
#include "compact/single_revision.h"
#include "core/kb_artifact.h"
#include "core/knowledge_base.h"
#include "logic/evaluate.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "model/canonical.h"
#include "model/model_set.h"
#include "obs/metrics.h"
#include "revision/iterated.h"
#include "revision/model_based.h"
#include "revision/operator.h"
#include "solve/model_cache.h"
#include "solve/services.h"
#include "util/file.h"
#include "util/parallel.h"

namespace revise::fuzz {

namespace {

// ---- shared scaffolding --------------------------------------------------

// Distinguishes temp files of concurrently fuzzing processes.
uint64_t ProcessTag() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<uint64_t>(::getpid());
#else
  return 0;
#endif
}

// A temp path for an .rkb file, unique across processes and calls.
std::string TempArtifactPath(const Scenario& s) {
  static std::atomic<uint64_t> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("revise_fuzz_" + std::to_string(ProcessTag()) + "_" +
           std::to_string(s.seed) + "_" +
           std::to_string(counter.fetch_add(1)) + ".rkb"))
      .string();
}

// The models of f over `alphabet` (⊇ V(f)) by a truth-table sweep of
// Evaluate: no SAT solver and no model cache.
ModelSet TruthTableModels(const Formula& f, const Alphabet& alphabet) {
  const size_t n = alphabet.size();
  std::vector<Interpretation> models;
  for (uint64_t index = 0; index < (uint64_t{1} << n); ++index) {
    Interpretation m = Interpretation::FromIndex(n, index);
    if (Evaluate(f, alphabet, m)) models.push_back(std::move(m));
  }
  return ModelSet(alphabet, std::move(models));
}

std::string SetSizes(const ModelSet& got, const ModelSet& want) {
  return "got " + std::to_string(got.size()) + " models, expected " +
         std::to_string(want.size());
}

// The degenerate-case conventions shared by all six operators
// (model_based.h): P unsatisfiable -> empty; T unsatisfiable -> M(P).
// Returns true when a convention applied and *out is final.
bool RefDegenerate(const ModelSet& mt, const ModelSet& mp, ModelSet* out) {
  if (mp.empty()) {
    *out = ModelSet(mp.alphabet(), {});
    return true;
  }
  if (mt.empty()) {
    *out = mp;
    return true;
  }
  return false;
}

// Quadratic inclusion-minimal filter — deliberately independent of
// MinimalUnderInclusion's bucketed sweep.
std::vector<Interpretation> NaiveMinimal(
    const std::vector<Interpretation>& sets) {
  std::vector<Interpretation> out;
  for (const Interpretation& candidate : sets) {
    bool dominated = false;
    for (const Interpretation& other : sets) {
      if (other.IsProperSubsetOf(candidate)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(candidate);
    }
  }
  return out;
}

bool ContainsSet(const std::vector<Interpretation>& sets,
                 const Interpretation& m) {
  return std::find(sets.begin(), sets.end(), m) != sets.end();
}

ModelSet RefWinslett(const ModelSet& mt, const ModelSet& mp) {
  ModelSet out;
  if (RefDegenerate(mt, mp, &out)) return out;
  std::vector<Interpretation> selected;
  for (const Interpretation& m : mt) {
    std::vector<Interpretation> diffs;
    diffs.reserve(mp.size());
    for (const Interpretation& n : mp) {
      diffs.push_back(m.SymmetricDifference(n));
    }
    const std::vector<Interpretation> minimal = NaiveMinimal(diffs);
    for (const Interpretation& n : mp) {
      if (ContainsSet(minimal, m.SymmetricDifference(n))) {
        selected.push_back(n);
      }
    }
  }
  return ModelSet(mp.alphabet(), std::move(selected));
}

ModelSet RefForbus(const ModelSet& mt, const ModelSet& mp) {
  ModelSet out;
  if (RefDegenerate(mt, mp, &out)) return out;
  std::vector<Interpretation> selected;
  for (const Interpretation& m : mt) {
    size_t best = static_cast<size_t>(-1);
    for (const Interpretation& n : mp) {
      best = std::min(best, m.HammingDistance(n));
    }
    for (const Interpretation& n : mp) {
      if (m.HammingDistance(n) == best) selected.push_back(n);
    }
  }
  return ModelSet(mp.alphabet(), std::move(selected));
}

ModelSet RefBorgida(const ModelSet& mt, const ModelSet& mp) {
  ModelSet out;
  if (RefDegenerate(mt, mp, &out)) return out;
  const ModelSet both = ModelSet::Intersection(mt, mp);
  if (!both.empty()) return both;
  return RefWinslett(mt, mp);
}

// delta(T, P): the globally inclusion-minimal pairwise differences.
std::vector<Interpretation> RefGlobalDiffs(const ModelSet& mt,
                                           const ModelSet& mp) {
  std::vector<Interpretation> diffs;
  for (const Interpretation& m : mt) {
    for (const Interpretation& n : mp) {
      diffs.push_back(m.SymmetricDifference(n));
    }
  }
  return NaiveMinimal(diffs);
}

ModelSet RefSatoh(const ModelSet& mt, const ModelSet& mp) {
  ModelSet out;
  if (RefDegenerate(mt, mp, &out)) return out;
  const std::vector<Interpretation> delta = RefGlobalDiffs(mt, mp);
  std::vector<Interpretation> selected;
  for (const Interpretation& n : mp) {
    for (const Interpretation& m : mt) {
      if (ContainsSet(delta, m.SymmetricDifference(n))) {
        selected.push_back(n);
        break;
      }
    }
  }
  return ModelSet(mp.alphabet(), std::move(selected));
}

ModelSet RefDalal(const ModelSet& mt, const ModelSet& mp) {
  ModelSet out;
  if (RefDegenerate(mt, mp, &out)) return out;
  size_t k = static_cast<size_t>(-1);
  for (const Interpretation& m : mt) {
    for (const Interpretation& n : mp) {
      k = std::min(k, m.HammingDistance(n));
    }
  }
  std::vector<Interpretation> selected;
  for (const Interpretation& n : mp) {
    for (const Interpretation& m : mt) {
      if (m.HammingDistance(n) == k) {
        selected.push_back(n);
        break;
      }
    }
  }
  return ModelSet(mp.alphabet(), std::move(selected));
}

ModelSet RefWeber(const ModelSet& mt, const ModelSet& mp) {
  ModelSet out;
  if (RefDegenerate(mt, mp, &out)) return out;
  Interpretation omega(mp.alphabet().size());
  for (const Interpretation& d : RefGlobalDiffs(mt, mp)) {
    omega = omega.Union(d);
  }
  std::vector<Interpretation> selected;
  for (const Interpretation& n : mp) {
    for (const Interpretation& m : mt) {
      if (m.SymmetricDifference(n).IsSubsetOf(omega)) {
        selected.push_back(n);
        break;
      }
    }
  }
  return ModelSet(mp.alphabet(), std::move(selected));
}

ModelSet RefModels(OperatorId id, const ModelSet& mt, const ModelSet& mp) {
  switch (id) {
    case OperatorId::kWinslett:
      return RefWinslett(mt, mp);
    case OperatorId::kBorgida:
      return RefBorgida(mt, mp);
    case OperatorId::kForbus:
      return RefForbus(mt, mp);
    case OperatorId::kSatoh:
      return RefSatoh(mt, mp);
    case OperatorId::kDalal:
      return RefDalal(mt, mp);
    case OperatorId::kWeber:
      return RefWeber(mt, mp);
    default:
      return ModelSet(mp.alphabet(), {});
  }
}

// ---- oracles -------------------------------------------------------------

// EnumerateModels (a truth table at oracle sizes) and AllSatModels (the
// blocking-clause path EnumerateModels takes above kMaxTruthTableLetters)
// vs an Evaluate sweep.  Besides T and P over X, the projected sides
// enumerate over an alphabet that omits letters of the formula: T over X
// without its odd-position letters, and T & (x <-> y1 & ... & y6), with x
// the first letter of X and y1..y6 fresh, over X, whose fresh letters sit
// at table bit 6 or above.  The reference then sweeps every letter and
// projects.
std::optional<std::string> BruteForceModelsOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet) return std::nullopt;
  std::vector<Var> even;
  for (size_t i = 0; i < x.size(); i += 2) even.push_back(x.var(i));
  struct Side {
    const char* label;
    Formula formula;
    Alphabet alphabet;
  };
  std::vector<Side> sides = {
      {"theory", s.t.AsFormula(), x},
      {"p", s.p, x},
      {"theory over X's even positions", s.t.AsFormula(),
       Alphabet(std::move(even))}};
  if (x.size() > 0 && x.size() + 6 <= kMaxOracleAlphabet) {
    std::vector<Formula> ys;
    for (const Var v : s.vocabulary->FreshBlock("y", 6)) {
      ys.push_back(Formula::Variable(v));
    }
    sides.push_back(
        {"theory & (x <-> y1 & ... & y6)",
         Formula::And(s.t.AsFormula(),
                      Formula::Iff(Formula::Variable(x.var(0)),
                                   ConjoinAll(ys))),
         x});
  }
  for (const Side& side : sides) {
    const Alphabet all =
        Alphabet::Union(side.alphabet, Alphabet(side.formula.Vars()));
    const ModelSet want =
        TruthTableModels(side.formula, all).ProjectTo(side.alphabet);
    const struct {
      const char* name;
      ModelSet got;
    } paths[] = {{"EnumerateModels", EnumerateModels(side.formula,
                                                     side.alphabet, 0)},
                 {"AllSatModels",
                  AllSatModels(side.formula, side.alphabet, 0)}};
    for (const auto& path : paths) {
      if (!(path.got == want)) {
        return std::string(side.label) + ": " + path.name +
               " disagrees with the Evaluate sweep (" +
               SetSizes(path.got, want) + ")";
      }
    }
  }
  return std::nullopt;
}

// Pins the library's thread count for a scope, restoring the caller's
// count on exit.
class ScopedThreadOverride {
 public:
  explicit ScopedThreadOverride(size_t threads) : saved_(ParallelThreads()) {
    SetParallelThreadsOverride(threads);
  }
  ~ScopedThreadOverride() { SetParallelThreadsOverride(saved_); }
  ScopedThreadOverride(const ScopedThreadOverride&) = delete;
  ScopedThreadOverride& operator=(const ScopedThreadOverride&) = delete;

 private:
  const size_t saved_;
};

std::optional<std::string> OperatorReferenceOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet) return std::nullopt;
  const ModelSet mt = EnumerateModels(s.t.AsFormula(), x, 0);
  const ModelSet mp = EnumerateModels(s.p, x, 0);
  // At a parallel thread count, so the kernels' tile sharding and merges
  // are checked against the reference too.
  ScopedThreadOverride three(3);
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    const ModelSet got = op->ReviseModelSets(mt, mp);
    const ModelSet want = RefModels(op->id(), mt, mp);
    if (!(got == want)) {
      return std::string(op->name()) +
             ": kernel disagrees with the naive reference (" +
             SetSizes(got, want) + ")";
    }
    const ModelSet via_formulas = op->ReviseModels(s.t, s.p, x);
    if (!(via_formulas == want)) {
      return std::string(op->name()) +
             ": ReviseModels(T, P) disagrees with ReviseModelSets on the "
             "enumerated sets";
    }
  }
  return std::nullopt;
}

std::optional<std::string> ThreadCountOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet) return std::nullopt;
  const ModelSet mt = EnumerateModels(s.t.AsFormula(), x, 0);
  const ModelSet mp = EnumerateModels(s.p, x, 0);
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    ModelSet sequential;
    ModelSet parallel;
    {
      ScopedThreadOverride one(1);
      sequential = op->ReviseModelSets(mt, mp);
    }
    {
      ScopedThreadOverride three(3);
      parallel = op->ReviseModelSets(mt, mp);
    }
    if (!(sequential == parallel)) {
      return std::string(op->name()) +
             ": 1-thread and 3-thread results differ (" +
             SetSizes(parallel, sequential) +
             "); a merge is not canonicalizing";
    }
  }
  return std::nullopt;
}

std::optional<std::string> ModelCacheOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet) return std::nullopt;
  const Formula ft = s.t.AsFormula();
  obs::Registry& registry = obs::Registry::Global();
  ModelCache& cache = ModelCache::Global();
  const size_t saved_capacity = cache.capacity();

  cache.set_capacity(64);
  cache.Clear();
  const ModelSet cold = EnumerateModels(ft, x, 0);
  const uint64_t hits_before =
      registry.GetCounter("solve.model_cache.hits")->Value();
  const ModelSet warm = EnumerateModels(ft, x, 0);
  const uint64_t hits_after =
      registry.GetCounter("solve.model_cache.hits")->Value();

  cache.set_capacity(0);
  const uint64_t misses_before =
      registry.GetCounter("solve.model_cache.misses")->Value();
  const ModelSet disabled = EnumerateModels(ft, x, 0);
  const uint64_t misses_after =
      registry.GetCounter("solve.model_cache.misses")->Value();
  const size_t disabled_size = cache.size();

  cache.set_capacity(saved_capacity);
  cache.Clear();

  if (!(cold == warm)) {
    return "warm cache result differs from the cold enumeration (" +
           SetSizes(warm, cold) + ")";
  }
  if (!(cold == disabled)) {
    return "disabled-cache result differs from the cached enumeration (" +
           SetSizes(disabled, cold) + ")";
  }
  if (hits_after <= hits_before) {
    return "re-enumerating a cached formula did not count a cache hit";
  }
  if (misses_after <= misses_before) {
    return "a disabled cache must still count lookups as misses "
           "(hits + misses == unlimited enumerations)";
  }
  if (disabled_size != 0) {
    return "a disabled cache reported " + std::to_string(disabled_size) +
           " resident entries";
  }
  return std::nullopt;
}

std::optional<std::string> BddVsEnumerationOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet || x.size() == 0) return std::nullopt;
  const Formula f = Formula::And(s.t.AsFormula(), s.p);
  BddManager bdd(x.vars());
  const BddManager::NodeRef root = bdd.FromFormula(f);
  const ModelSet models = EnumerateModels(f, x, 0);
  const uint64_t bdd_count = bdd.CountModels(root);
  if (bdd_count != models.size()) {
    return "BDD counts " + std::to_string(bdd_count) +
           " models, AllSAT enumerates " + std::to_string(models.size());
  }
  // Canonicity: the canonical DNF of the enumerated models is equivalent
  // to f, so a hash-consed manager must rebuild the identical node.
  const BddManager::NodeRef rebuilt = bdd.FromFormula(CanonicalDnf(models));
  if (rebuilt != root) {
    return "canonical DNF of the enumerated models compiled to a "
           "different BDD node than the formula itself";
  }
  return std::nullopt;
}

std::optional<std::string> CompactVsDirectOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet) return std::nullopt;
  Vocabulary* vocabulary = s.vocabulary.get();
  const Formula ft = s.t.AsFormula();
  const ModelSet mt = EnumerateModels(ft, x, 0);
  const ModelSet mp = EnumerateModels(s.p, x, 0);

  const Formula dalal_compact = DalalCompact(ft, s.p, vocabulary);
  if (!QueryEquivalent(dalal_compact, CanonicalDnf(DalalModels(mt, mp)),
                       x)) {
    return "DalalCompact (Thm 3.4) is not query-equivalent to the direct "
           "Dalal revision over X";
  }
  const Formula weber_compact = WeberCompact(ft, s.p, vocabulary);
  if (!QueryEquivalent(weber_compact, CanonicalDnf(WeberModels(mt, mp)),
                       x)) {
    return "WeberCompact (Thm 3.5) is not query-equivalent to the direct "
           "Weber revision over X";
  }
  const Formula widtio_compact = WidtioCompact(s.t, s.p);
  const ModelSet widtio =
      OperatorById(OperatorId::kWidtio)->ReviseModels(s.t, s.p, x);
  if (!QueryEquivalent(widtio_compact, CanonicalDnf(widtio), x)) {
    return "WidtioCompact is not query-equivalent to the direct WIDTIO "
           "revision over X";
  }

  const bool dalal_compact_entails =
      DalalEntailsCompact(ft, s.p, s.q, vocabulary);
  if (dalal_compact_entails !=
      OperatorById(OperatorId::kDalal)->Entails(s.t, s.p, s.q)) {
    return "DalalEntailsCompact and the direct Dalal entailment disagree "
           "on Q";
  }
  const bool weber_compact_entails =
      WeberEntailsCompact(ft, s.p, s.q, vocabulary);
  if (weber_compact_entails !=
      OperatorById(OperatorId::kWeber)->Entails(s.t, s.p, s.q)) {
    return "WeberEntailsCompact and the direct Weber entailment disagree "
           "on Q";
  }
  return std::nullopt;
}

// EntailedByModels vs SAT entailment on the canonical DNF of the same
// model set.  y is a fresh letter outside every model set's alphabet, so
// the queries that mention it fold an outside letter out of the truth
// table; in "Q <-> y1 & ... & y6" the last fresh letters sit at table
// bit 6 or above, where the fold works on whole words.  "Q | y1 & ... & y17"
// has more than kMaxTruthTableLetters letters, so it takes the
// assumption-SAT path on every scenario.
std::optional<std::string> EntailmentOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet) return std::nullopt;
  const Formula y = Formula::Variable(s.vocabulary->Fresh("y"));
  const std::vector<Var> fresh =
      s.vocabulary->FreshBlock("y", kMaxTruthTableLetters + 1);
  std::vector<Formula> ys;
  ys.reserve(fresh.size());
  for (const Var v : fresh) ys.push_back(Formula::Variable(v));
  const Formula y1_to_y6 =
      ConjoinAll(std::vector<Formula>(ys.begin(), ys.begin() + 6));
  const Formula y1_to_y17 = ConjoinAll(ys);
  const struct {
    const char* name;
    Formula query;
  } queries[] = {{"Q", s.q},
                 {"Q | y", Formula::Or(s.q, y)},
                 {"Q & y", Formula::And(s.q, y)},
                 {"Q <-> y", Formula::Iff(s.q, y)},
                 {"Q <-> y1 & ... & y6", Formula::Iff(s.q, y1_to_y6)},
                 {"Q | y1 & ... & y17", Formula::Or(s.q, y1_to_y17)}};
  std::vector<std::pair<std::string, ModelSet>> sets;
  sets.emplace_back("the empty model set", ModelSet(x, {}));
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    sets.emplace_back(op->name(), op->ReviseModels(s.t, s.p, x));
  }
  for (const auto& [name, models] : sets) {
    const Formula dnf = CanonicalDnf(models);
    for (const auto& [query_name, query] : queries) {
      const bool got = EntailedByModels(models, query);
      if (got != Entails(dnf, query)) {
        return name + ": EntailedByModels says " +
               (got ? "entailed" : "not entailed") + " for " + query_name +
               ", SAT entailment on the canonical DNF disagrees";
      }
    }
  }
  return std::nullopt;
}

// An explicit and a delayed KnowledgeBase revised by P and then by Q,
// under each of the nine operators.  Explicit: the model-set memo and Ask
// must match the folded formula they stand for, and under a model-based
// operator the fold must be the operator's own ReviseFormula chain; the
// reference models come from a truth table, independent of the AllSAT
// loop and the model cache behind the set under test.  Delayed: Ask
// between P and Q leaves the memo one update behind, and after Q both Ask
// and Models() must match the from-scratch IteratedReviseModels, as must
// Models() of a copy first queried with both updates pending.  y is a
// fresh letter, so "Q | y" is a query beyond the KB's letters.
std::optional<std::string> ExplicitFoldOracle(const Scenario& s) {
  if (IteratedAlphabet(s.t, {s.p, s.q}).size() > kMaxOracleAlphabet) {
    return std::nullopt;
  }
  const Formula y = Formula::Variable(s.vocabulary->Fresh("y"));
  const struct {
    const char* name;
    Formula query;
  } queries[] = {{"Q", s.q},
                 {"!Q", Formula::Not(s.q)},
                 {"P", s.p},
                 {"Q | y", Formula::Or(s.q, y)}};
  for (const RevisionOperator* op : AllOperators()) {
    StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
        s.t, op, RevisionStrategy::kExplicit, s.vocabulary.get());
    if (!kb.ok()) {
      return std::string(op->name()) +
             ": Create failed: " + kb.status().ToString();
    }
    const bool model_based = !op->is_formula_based();
    Theory previous = s.t;
    const std::pair<const char*, Formula> steps[] = {{"P", s.p},
                                                     {"Q", s.q}};
    for (const auto& [step, update] : steps) {
      const std::string name = std::string(op->name()) + " after " + step;
      const Formula expected =
          model_based ? op->ReviseFormula(previous, update) : Formula();
      kb->Revise(update);
      if (model_based) {
        if (!kb->folded().StructurallyEqual(expected)) {
          return name + ": folded() differs from ReviseFormula";
        }
        previous = Theory({expected});
      }
      // Ask first on whatever memo Revise left, then after Models().
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& [query_name, query] : queries) {
          if (kb->Ask(query) != Entails(kb->folded(), query)) {
            return name + ": Ask(" + query_name +
                   ") differs from SAT entailment on folded()" +
                   (pass == 0 ? "" : " after Models()");
          }
        }
        if (pass == 0) {
          const ModelSet got = kb->Models();
          const ModelSet want =
              TruthTableModels(kb->folded(), kb->CurrentAlphabet());
          if (!(got == want)) {
            return name + ": Models() differs from the models of folded() (" +
                   SetSizes(got, want) + ")";
          }
        }
      }
    }

    StatusOr<KnowledgeBase> delayed = KnowledgeBase::Create(
        s.t, op, RevisionStrategy::kDelayed, s.vocabulary.get());
    if (!delayed.ok()) {
      return std::string(op->name()) +
             ": Create failed: " + delayed.status().ToString();
    }
    // A copy that is not queried until both updates are pending.
    KnowledgeBase unasked = *delayed;
    std::vector<Formula> updates;
    ModelSet want;
    for (const auto& [step, update] : steps) {
      const std::string name =
          std::string(op->name()) + " delayed after " + step;
      delayed->Revise(update);
      unasked.Revise(update);
      updates.push_back(update);
      want = IteratedReviseModels(*op, s.t, updates,
                                  delayed->CurrentAlphabet());
      const Formula dnf = CanonicalDnf(want);
      for (const auto& [query_name, query] : queries) {
        if (delayed->Ask(query) != Entails(dnf, query)) {
          return name + ": Ask(" + query_name +
                 ") differs from SAT entailment on IteratedReviseModels";
        }
      }
      const ModelSet got = delayed->Models();
      if (!(got == want)) {
        return name + ": Models() differs from IteratedReviseModels (" +
               SetSizes(got, want) + ")";
      }
    }
    const ModelSet got = unasked.Models();
    if (!(got == want)) {
      return std::string(op->name()) +
             " delayed, first queried after Q: Models() differs from "
             "IteratedReviseModels (" +
             SetSizes(got, want) + ")";
    }
  }
  return std::nullopt;
}

// A compact KnowledgeBase revised by P and then by Q, under each of the
// seven operators with a compact construction.  Ask must agree with a
// fresh-solver Entails on folded() at three points: on the KB's
// incremental solver, on the memo Models() fills (whose enumeration on
// that solver must match a fresh one), and on the KB reloaded from .rkb.
// The sequence asks Q around !Q, so a retired query that leaked into the
// next would show, then P and Q | y with y a letter foreign to the KB.
std::optional<std::string> CompactAskOracle(const Scenario& s) {
  if (IteratedAlphabet(s.t, {s.p, s.q}).size() > kMaxOracleAlphabet) {
    return std::nullopt;
  }
  const Formula y = Formula::Variable(s.vocabulary->Fresh("y"));
  const struct {
    const char* name;
    Formula query;
  } queries[] = {{"Q", s.q},
                 {"!Q", Formula::Not(s.q)},
                 {"Q again", s.q},
                 {"P", s.p},
                 {"Q | y", Formula::Or(s.q, y)}};
  for (const RevisionOperator* op : AllOperators()) {
    if (op->id() == OperatorId::kGfuv || op->id() == OperatorId::kNebel) {
      continue;  // no compact representation (Theorems 3.1 / 4.1)
    }
    StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
        s.t, op, RevisionStrategy::kCompact, s.vocabulary.get());
    if (!kb.ok()) {
      return std::string(op->name()) +
             ": Create failed: " + kb.status().ToString();
    }
    const std::pair<const char*, Formula> steps[] = {{"P", s.p},
                                                     {"Q", s.q}};
    for (const auto& [step, update] : steps) {
      kb->Revise(update);
      const std::string name = std::string(op->name()) + " after " + step;
      const auto disagreement =
          [&](const KnowledgeBase& asked,
              const char* where) -> std::optional<std::string> {
        for (const auto& [query_name, query] : queries) {
          if (asked.Ask(query) != Entails(kb->folded(), query)) {
            return name + ": Ask(" + query_name + ") " + where +
                   " differs from fresh-solver entailment on folded()";
          }
        }
        return std::nullopt;
      };
      if (auto failure = disagreement(*kb, "on the solver")) return failure;
      const ModelSet got = kb->Models();
      const ModelSet want =
          EnumerateModels(kb->folded(), kb->CurrentAlphabet(), 0);
      if (!(got == want)) {
        return name + ": Models() on the Ask solver differs from a fresh "
                      "enumeration of folded() (" +
               SetSizes(got, want) + ")";
      }
      if (auto failure = disagreement(*kb, "on the memo")) return failure;

      const std::string path = TempArtifactPath(s);
      if (const Status saved = SaveKnowledgeBaseArtifact(*kb, path);
          !saved.ok()) {
        return name + ": save failed: " + saved.ToString();
      }
      StatusOr<KnowledgeBase> loaded =
          LoadKnowledgeBaseArtifact(path, s.vocabulary.get());
      std::filesystem::remove(path);
      if (!loaded.ok()) {
        return name + ": load failed: " + loaded.status().ToString();
      }
      if (auto failure = disagreement(*loaded, "after a .rkb round trip")) {
        return failure;
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> PostulatesOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet) return std::nullopt;
  const ModelSet mt = EnumerateModels(s.t.AsFormula(), x, 0);
  const ModelSet mp = EnumerateModels(s.p, x, 0);
  const ModelSet both = ModelSet::Intersection(mt, mp);
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    const std::string name(op->name());
    const ModelSet r = op->ReviseModelSets(mt, mp);
    if (!r.IsSubsetOf(mp)) {
      return name + ": success (R1) violated — a selected model does not "
                    "satisfy P";
    }
    if (!mp.empty() && r.empty()) {
      return name + ": consistency (R3) violated — P is satisfiable but "
                    "T * P is not";
    }
    // Revision vacuity (R2) holds for the four revision operators;
    // Winslett and Forbus are update operators and legitimately break it.
    const bool is_update = op->id() == OperatorId::kWinslett ||
                           op->id() == OperatorId::kForbus;
    if (!is_update && !mt.empty() && !both.empty() && !(r == both)) {
      return name + ": vacuity (R2) violated — T & P is consistent but "
                    "T * P != T & P";
    }
    // Update vacuity (U2): T |= P leaves T untouched; holds for all six.
    if (!mt.empty() && mt.IsSubsetOf(mp) && !(r == mt)) {
      return name + ": update vacuity (U2) violated — T |= P but "
                    "T * P != T";
    }
    // Idempotence: revising the result by the same P is a fixpoint.
    const ModelSet again = op->ReviseModelSets(r, mp);
    if (!(again == r)) {
      return name + ": idempotence violated — (T * P) * P != T * P";
    }
  }
  return std::nullopt;
}

std::optional<std::string> Figure1ContainmentOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet) return std::nullopt;
  const ModelSet mt = EnumerateModels(s.t.AsFormula(), x, 0);
  const ModelSet mp = EnumerateModels(s.p, x, 0);
  const ModelSet winslett = WinslettModels(mt, mp);
  const ModelSet borgida = BorgidaModels(mt, mp);
  const ModelSet forbus = ForbusModels(mt, mp);
  const ModelSet satoh = SatohModels(mt, mp);
  const ModelSet dalal = DalalModels(mt, mp);
  const ModelSet weber = WeberModels(mt, mp);
  const struct {
    const char* from;
    const char* to;
    const ModelSet& small;
    const ModelSet& big;
  } edges[] = {
      {"Dalal", "Forbus", dalal, forbus},
      {"Dalal", "Satoh", dalal, satoh},
      {"Dalal", "Borgida", dalal, borgida},
      {"Forbus", "Winslett", forbus, winslett},
      {"Satoh", "Winslett", satoh, winslett},
      {"Satoh", "Weber", satoh, weber},
      {"Borgida", "Winslett", borgida, winslett},
  };
  for (const auto& edge : edges) {
    if (!edge.small.IsSubsetOf(edge.big)) {
      return std::string("Figure 1 arrow broken: ") + edge.from +
             " is not contained in " + edge.to;
    }
  }
  return std::nullopt;
}

std::optional<std::string> ParserRoundtripOracle(const Scenario& s) {
  Vocabulary* vocabulary = s.vocabulary.get();
  std::vector<Formula> formulas(s.t.begin(), s.t.end());
  formulas.push_back(s.p);
  formulas.push_back(s.q);
  for (const Formula& f : formulas) {
    const std::string text = revise::ToString(f, *vocabulary);
    StatusOr<Formula> parsed = Parse(text, vocabulary);
    if (!parsed.ok()) {
      return "printed formula no longer parses: " +
             parsed.status().ToString() + " in \"" + text + "\"";
    }
    if (!parsed.value().StructurallyEqual(f)) {
      return "print -> parse changed the formula's structure: \"" + text +
             "\"";
    }
  }
  return std::nullopt;
}

// compile -> save -> load -> query must be indistinguishable from direct
// evaluation, and any single corrupted byte must be a load error, never a
// silently different knowledge base (src/artifact/).
std::optional<std::string> ArtifactRoundtripOracle(const Scenario& s) {
  const Alphabet x = RevisionAlphabet(s.t, s.p);
  if (x.size() > kMaxOracleAlphabet) return std::nullopt;
  const struct {
    OperatorId op;
    RevisionStrategy strategy;
    const char* label;
  } configs[] = {
      {OperatorId::kDalal, RevisionStrategy::kDelayed, "Dalal/delayed"},
      {OperatorId::kWinslett, RevisionStrategy::kExplicit,
       "Winslett/explicit"},
      // A compact fold carries fresh letters, stored by name and
      // re-interned on load.
      {OperatorId::kDalal, RevisionStrategy::kCompact, "Dalal/compact"},
  };
  for (const auto& config : configs) {
    const std::string name = std::string("artifact ") + config.label;
    StatusOr<KnowledgeBase> kb =
        KnowledgeBase::Create(s.t, OperatorById(config.op), config.strategy,
                              s.vocabulary.get());
    if (!kb.ok()) {
      return name + ": Create failed: " + kb.status().ToString();
    }
    kb->Revise(s.p);
    const ModelSet direct = kb->Models();
    const bool direct_ask = kb->Ask(s.q);

    const std::string path = TempArtifactPath(s);
    if (const Status saved = SaveKnowledgeBaseArtifact(*kb, path);
        !saved.ok()) {
      return name + ": save failed: " + saved.ToString();
    }
    StatusOr<std::vector<uint8_t>> read = util::ReadFileBytes(path);
    std::filesystem::remove(path);
    if (!read.ok()) {
      return name + ": saved artifact unreadable: " + read.status().ToString();
    }
    const std::vector<uint8_t> bytes = std::move(read).value();

    // Round trip: the loaded knowledge base answers exactly like the one
    // that was saved.  Loading into the shared vocabulary keeps s.q's
    // letters meaningful on the loaded side.
    {
      const std::string reload = path + ".copy";
      if (const Status copied = util::WriteFileAtomically(
              reload, std::string_view(
                          reinterpret_cast<const char*>(bytes.data()),
                          bytes.size()));
          !copied.ok()) {
        return name + ": copy failed: " + copied.ToString();
      }
      StatusOr<KnowledgeBase> loaded =
          LoadKnowledgeBaseArtifact(reload, s.vocabulary.get());
      std::filesystem::remove(reload);
      if (!loaded.ok()) {
        return name + ": load failed: " + loaded.status().ToString();
      }
      if (!(loaded->Models() == direct)) {
        return name + ": loaded models differ from direct evaluation (" +
               SetSizes(loaded->Models(), direct) + ")";
      }
      if (loaded->Ask(s.q) != direct_ask) {
        return name + ": loaded Ask(Q) differs from direct evaluation";
      }
      if (!loaded->folded().StructurallyEqual(kb->folded())) {
        return name + ": loaded folded formula differs from the saved one";
      }
    }

    // A corrupted byte (position and flipped bit both scenario-derived)
    // must be rejected by the checksum layer.
    {
      std::vector<uint8_t> corrupt = bytes;
      const size_t position = s.seed % corrupt.size();
      corrupt[position] ^= static_cast<uint8_t>(1u << (s.seed / 7 % 8));
      StatusOr<artifact::ArtifactFile> opened =
          artifact::ArtifactFile::FromBytes(std::move(corrupt));
      if (opened.ok()) {
        return name + ": a flipped bit at offset " +
               std::to_string(position) + " loaded without error";
      }
    }

    // Truncation (text-mode transports, partial writes) must be rejected.
    {
      std::vector<uint8_t> truncated(bytes.begin(),
                                     bytes.end() - 1);
      StatusOr<artifact::ArtifactFile> opened =
          artifact::ArtifactFile::FromBytes(std::move(truncated));
      if (opened.ok()) {
        return name + ": a truncated artifact loaded without error";
      }
    }
  }
  return std::nullopt;
}

const std::vector<Oracle> kOracles = {
    {"brute-force-models",
     "AllSAT enumeration vs a truth-table sweep of Evaluate",
     BruteForceModelsOracle},
    {"operator-reference",
     "the six operator kernels at 3 threads vs naive reference semantics",
     OperatorReferenceOracle},
    {"thread-count", "ReviseModelSets at 1 thread vs 3 threads",
     ThreadCountOracle},
    {"model-cache", "enumeration with the global cache cold/warm/disabled",
     ModelCacheOracle},
    {"bdd-vs-enumeration", "ROBDD model count and canonicity vs AllSAT",
     BddVsEnumerationOracle},
    {"compact-vs-direct",
     "Theorem 3.4/3.5 compact constructions vs direct revision",
     CompactVsDirectOracle},
    {"entailment",
     "EntailedByModels vs SAT entailment on the canonical DNF",
     EntailmentOracle},
    {"explicit-fold",
     "explicit and delayed KB revised by P then Q: memo and Ask vs the "
     "folded formula and the from-scratch iterated revision",
     ExplicitFoldOracle},
    {"compact-ask",
     "compact KB revised by P then Q: Ask on the solver, the memo and a "
     ".rkb reload vs fresh-solver entailment",
     CompactAskOracle},
    {"postulates",
     "KM laws: success, consistency, vacuity, U2, idempotence",
     PostulatesOracle},
    {"figure1-containment", "the containment arrows of Figure 1",
     Figure1ContainmentOracle},
    {"parser-roundtrip", "print -> parse structural round-trip",
     ParserRoundtripOracle},
    {"artifact-roundtrip",
     "compile -> save -> load -> query vs direct, plus corrupted-byte "
     "rejection",
     ArtifactRoundtripOracle},
};

}  // namespace

const std::vector<Oracle>& AllOracles() { return kOracles; }

const Oracle* FindOracle(std::string_view name) {
  for (const Oracle& oracle : kOracles) {
    if (name == oracle.name) return &oracle;
  }
  return nullptr;
}

std::optional<std::string> RunOracle(const Oracle& oracle,
                                     const Scenario& scenario) {
  return oracle.run(scenario);
}

std::optional<OracleFailure> CheckScenario(const Scenario& scenario,
                                           std::string_view only_oracle) {
  for (const Oracle& oracle : kOracles) {
    if (!only_oracle.empty() && only_oracle != oracle.name) continue;
    if (std::optional<std::string> detail = oracle.run(scenario)) {
      return OracleFailure{oracle.name, *std::move(detail)};
    }
  }
  return std::nullopt;
}

}  // namespace revise::fuzz
