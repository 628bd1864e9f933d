#include "workloads.h"

#include <algorithm>
#include <utility>

#include "core/io.h"
#include "core/kb_artifact.h"
#include "hardness/families.h"
#include "hardness/random_instances.h"
#include "logic/theory.h"
#include "revision/candidates.h"
#include "revision/iterated.h"
#include "solve/services.h"
#include "util/random.h"

namespace perfbench {
namespace {

using revise::Alphabet;
using revise::Formula;
using revise::Interpretation;
using revise::OperatorId;
using revise::RevisionStrategy;
using revise::Rng;
using revise::Status;
using revise::StatusOr;
using revise::Theory;
using revise::Var;
using revise::Vocabulary;

constexpr OperatorId kAllOperators[] = {
    OperatorId::kGfuv,     OperatorId::kNebel,   OperatorId::kWidtio,
    OperatorId::kWinslett, OperatorId::kBorgida, OperatorId::kForbus,
    OperatorId::kSatoh,    OperatorId::kDalal,   OperatorId::kWeber};
constexpr OperatorId kModelBased[] = {
    OperatorId::kWinslett, OperatorId::kBorgida, OperatorId::kForbus,
    OperatorId::kSatoh,    OperatorId::kDalal,   OperatorId::kWeber};
// Every operator Create accepts under kCompact.
constexpr OperatorId kCompactOperators[] = {
    OperatorId::kDalal,   OperatorId::kWeber, OperatorId::kWinslett,
    OperatorId::kBorgida, OperatorId::kSatoh, OperatorId::kForbus,
    OperatorId::kWidtio};

bool IsModelBased(OperatorId op) {
  return std::find(std::begin(kModelBased), std::end(kModelBased), op) !=
         std::end(kModelBased);
}

// One session's formulas before they are written out.
struct Draft {
  Vocabulary vocabulary;
  Theory theory;
  std::vector<Formula> updates;
  std::vector<Formula> asks;
  std::vector<Formula> minterms;  // IsModel inputs, one full minterm each
};

std::vector<Var> Letters(const std::string& prefix, int n,
                         Vocabulary* vocabulary) {
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(vocabulary->Intern(prefix + std::to_string(i)));
  }
  return vars;
}

std::vector<Var> Sample(const std::vector<Var>& vars, size_t k, Rng* rng) {
  std::vector<Var> pool = vars;
  k = std::min(k, pool.size());
  for (size_t i = 0; i < k; ++i) {
    std::swap(pool[i], pool[i + rng->Below(pool.size() - i)]);
  }
  pool.resize(k);
  return pool;
}

// A random 3-CNF theory over `vars` whose model count over `vars` lies
// in [min_models, max_models], starting at clause density `ratio` and
// nudging it after each miss.
Theory BandedTheory(const std::vector<Var>& vars, double ratio,
                    size_t min_models, size_t max_models, Rng* rng,
                    revise::ModelSet* models) {
  const Alphabet alphabet(vars);
  for (;;) {
    Theory t = revise::Random3Cnf(
        vars, static_cast<size_t>(ratio * static_cast<double>(vars.size())),
        rng);
    revise::ModelSet m =
        revise::EnumerateModels(t.AsFormula(), alphabet, max_models + 1);
    if (m.size() < min_models) {
      ratio = std::max(1.0, ratio - 0.02);
    } else if (m.size() > max_models) {
      ratio += 0.02;
    } else {
      if (models != nullptr) *models = std::move(m);
      return t;
    }
  }
}

// Appends `steps` updates drawn by `draw`, redrawing each one until the
// revised KB T * P^1 * ... * P^i under the model-based operator `op` has
// between `min_models` and `max_models` models: the chain's cost then
// depends on the operator, not on the luck of the draw.  After
// kBandAttempts misses the lower end relaxes to one model.
constexpr int kBandAttempts = 64;

template <typename Draw>
void AddBandedUpdates(OperatorId op, int steps, size_t min_models,
                      size_t max_models, Draw draw, Draft* draft) {
  for (int i = 0; i < steps; ++i) {
    for (int attempt = 0;; ++attempt) {
      Formula p = draw();
      std::vector<Formula> updates = draft->updates;
      updates.push_back(p);
      const Alphabet alphabet =
          revise::IteratedAlphabet(draft->theory, updates);
      revise::ModelSet m =
          revise::EnumerateModels(draft->theory.AsFormula(), alphabet);
      for (const Formula& u : updates) {
        m = revise::ReviseModelsAuto(op, m, u, alphabet);
      }
      const size_t lo = attempt < kBandAttempts ? min_models : 1;
      if (m.size() >= lo && m.size() <= max_models) {
        draft->updates.push_back(std::move(p));
        break;
      }
    }
  }
}

// The theory whose elements are the conjunctions of `k` consecutive
// elements of `t`.
Theory Chunked(const Theory& t, size_t k) {
  Theory out;
  for (size_t i = 0; i < t.size(); i += k) {
    std::vector<Formula> chunk(
        t.formulas().begin() + i,
        t.formulas().begin() + std::min(t.size(), i + k));
    out.Add(revise::ConjoinAll(chunk));
  }
  return out;
}

// A satisfiable random 3-CNF over `vars` (|vars| >= 3).
Formula SatisfiableCnf(const std::vector<Var>& vars, size_t clauses,
                       Rng* rng) {
  for (;;) {
    Formula p = revise::Random3Cnf(vars, clauses, rng).AsFormula();
    if (revise::IsSatisfiable(p)) return p;
  }
}

Formula RandomClause(const std::vector<Var>& vars, size_t width, Rng* rng) {
  std::vector<Formula> literals;
  for (const Var v : Sample(vars, width, rng)) {
    literals.push_back(Formula::Literal(v, rng->Chance(0.5)));
  }
  return revise::DisjoinAll(literals);
}

// A satisfiable update over at most two letters (the bounded case of
// Section 6): a literal, a clause, a cube or an exclusive or.  With a
// `witness` model (over `alphabet`) the update is one it satisfies.
Formula BoundedUpdate(const std::vector<Var>& vars, Rng* rng,
                      const Interpretation* witness = nullptr,
                      const Alphabet* alphabet = nullptr) {
  const std::vector<Var> pair = Sample(vars, 2, rng);
  const auto literal = [&](Var v) {
    if (witness == nullptr) return Formula::Literal(v, rng->Chance(0.5));
    return Formula::Literal(v, witness->Get(*alphabet->IndexOf(v)));
  };
  const Formula a = literal(pair[0]);
  const Formula b = literal(pair[1]);
  if (witness != nullptr) {
    // Literals true in the witness: every shape but the xor holds.
    return rng->Chance(0.5) ? a : Formula::And(a, b);
  }
  switch (rng->Below(4)) {
    case 0:
      return a;
    case 1:
      return Formula::Or(a, b);
    case 2:
      return Formula::And(a, b);
    default:
      return Formula::Xor(a, b);
  }
}

Formula Minterm(const std::vector<Var>& vars, const Interpretation& m,
                const Alphabet& alphabet) {
  std::vector<Formula> literals;
  for (const Var v : vars) {
    const auto index = alphabet.IndexOf(v);
    literals.push_back(
        Formula::Literal(v, index.has_value() && m.Get(*index)));
  }
  return revise::ConjoinAll(literals);
}

Formula RandomMinterm(const std::vector<Var>& vars, Rng* rng) {
  std::vector<Formula> literals;
  for (const Var v : vars) {
    literals.push_back(Formula::Literal(v, rng->Chance(0.5)));
  }
  return revise::ConjoinAll(literals);
}

// IsModel inputs for a KB over `vars`: models of T (answers vary with
// the revisions) alternating with uniform assignments.
void AddMinterms(const std::vector<Var>& vars, const revise::ModelSet& mt,
                 size_t count, Rng* rng, Draft* draft) {
  for (size_t i = 0; i < count; ++i) {
    if (i % 2 == 0 && !mt.empty()) {
      draft->minterms.push_back(
          Minterm(vars, mt[rng->Below(mt.size())], mt.alphabet()));
    } else {
      draft->minterms.push_back(RandomMinterm(vars, rng));
    }
  }
}

void AddClauseQueries(const std::vector<Var>& vars, size_t count,
                      Rng* rng, Draft* draft) {
  for (size_t i = 0; i < count; ++i) {
    draft->asks.push_back(RandomClause(vars, 2 + rng->Below(2), rng));
  }
}

// Writes the draft's sources, and the initial artifact when the session
// starts from one.
Status WriteSession(const Draft& draft, const SessionSpec& spec) {
  const Vocabulary& v = draft.vocabulary;
  if (Status s = revise::SaveTheoryToFile(draft.theory, v, spec.stem + ".theory");
      !s.ok()) {
    return s;
  }
  const struct {
    const char* suffix;
    const std::vector<Formula>* formulas;
  } files[] = {{".revise", &draft.updates},
               {".ask", &draft.asks},
               {".model", &draft.minterms}};
  for (const auto& file : files) {
    if (Status s = revise::SaveTheoryToFile(Theory(*file.formulas), v,
                                            spec.stem + file.suffix);
        !s.ok()) {
      return s;
    }
  }
  if (!spec.start_from_artifact) return Status::Ok();
  // A scratch vocabulary: the artifact records names, not ids.
  Vocabulary scratch;
  StatusOr<Theory> t = revise::LoadTheoryFromFile(spec.stem + ".theory",
                                                  &scratch);
  if (!t.ok()) return t.status();
  StatusOr<revise::KnowledgeBase> kb = revise::KnowledgeBase::Create(
      std::move(*t), revise::OperatorById(spec.op), spec.strategy, &scratch);
  if (!kb.ok()) return kb.status();
  return revise::SaveKnowledgeBaseArtifact(*kb, spec.stem + ".init.rkb");
}

SessionSpec Base(int id, OperatorId op, RevisionStrategy strategy,
                 const std::string& dir) {
  SessionSpec spec;
  spec.id = id;
  spec.op = op;
  spec.strategy = strategy;
  spec.stem = dir + "/s" + std::to_string(id);
  return spec;
}

// ---- delayed_ask ---------------------------------------------------------
// Random 3-CNF T at n=14 with 256..384 models, 2 narrow updates (|V(P)| = 6;
// model-based revisions keep at most 384 models), 6 Ask + 2 IsModel calls
// per revision, Models() after the queries.
void DelayedAsk(Size size, Rng* rng, SessionSpec* spec, Draft* draft) {
  const int n = size == Size::kTiny ? 8 : 14;
  spec->steps = 2;
  spec->asks_per_step = 6;
  spec->models_per_step = 2;
  const std::vector<Var> x = Letters("x", n, &draft->vocabulary);
  revise::ModelSet mt;
  draft->theory = size == Size::kTiny
                      ? BandedTheory(x, 2.0, 8, 64, rng, &mt)
                      : BandedTheory(x, 2.8, 256, 384, rng, &mt);
  const auto draw = [&] { return SatisfiableCnf(Sample(x, 6, rng), 4, rng); };
  if (IsModelBased(spec->op)) {
    AddBandedUpdates(spec->op, spec->steps, 1, 384, draw, draft);
  } else {
    for (int i = 0; i < spec->steps; ++i) draft->updates.push_back(draw());
  }
  AddClauseQueries(x, spec->AskCount(), rng, draft);
  AddMinterms(x, mt, spec->MintermCount(), rng, draft);
}

// ---- delayed_wide --------------------------------------------------------
// Random 3-CNF T at n=12 with 48..64 models, wide updates (|V(P)| = 10),
// Models() right after each revision, then one Ask and one IsModel.
void DelayedWide(Size size, Rng* rng, SessionSpec* spec, Draft* draft) {
  const int n = size == Size::kTiny ? 8 : 12;
  spec->steps = 2;
  spec->asks_per_step = 1;
  spec->models_per_step = 1;
  spec->models_first = true;
  const std::vector<Var> x = Letters("x", n, &draft->vocabulary);
  revise::ModelSet mt;
  draft->theory = size == Size::kTiny
                      ? BandedTheory(x, 2.0, 16, 64, rng, &mt)
                      : BandedTheory(x, 3.0, 48, 64, rng, &mt);
  for (int i = 0; i < spec->steps; ++i) {
    draft->updates.push_back(
        SatisfiableCnf(Sample(x, static_cast<size_t>(n - 2), rng), 5, rng));
  }
  AddClauseQueries(x, spec->AskCount(), rng, draft);
  AddMinterms(x, mt, spec->MintermCount(), rng, draft);
}

// ---- compact_chain -------------------------------------------------------
// Random 3-CNF T at n=32 with 16..32 models, 5 updates.  Dalal and Weber fold
// unbounded 3-CNF updates (over 8 letters); the Section 6 operators and
// WIDTIO fold updates over at most two letters.  Every revised KB keeps at
// most 64 models.  Three Asks per step.
void CompactChain(OperatorId op, Size size, Rng* rng, SessionSpec* spec,
                  Draft* draft) {
  const int n = size == Size::kTiny ? 12 : 32;
  spec->steps = size == Size::kTiny ? 3 : 5;
  spec->asks_per_step = 3;
  spec->models_per_step = 0;
  const std::vector<Var> x = Letters("x", n, &draft->vocabulary);
  // Several clauses per theory element: WIDTIO enumerates the maximal
  // consistent subsets of the elements, exponentially many in the worst
  // case, so its sessions get eight elements; the others, 32.
  const bool widtio = op == OperatorId::kWidtio;
  revise::ModelSet mt;
  draft->theory =
      Chunked(BandedTheory(x, 4.0, 16, 32, rng, &mt), widtio ? 16 : 4);
  if (widtio) {
    // WIDTIO drops every element involved in a conflict, and with it most
    // constraints on 32 letters; its updates agree with one model of T so
    // the chain stays consistent and Models() stays small.
    const Interpretation& witness = mt[rng->Below(mt.size())];
    for (int i = 0; i < spec->steps; ++i) {
      draft->updates.push_back(
          BoundedUpdate(x, rng, &witness, &mt.alphabet()));
    }
  } else if (op == OperatorId::kDalal || op == OperatorId::kWeber) {
    AddBandedUpdates(
        op, spec->steps, 1, 64,
        [&] { return SatisfiableCnf(Sample(x, 8, rng), 3, rng); }, draft);
  } else {
    AddBandedUpdates(
        op, spec->steps, 1, 64, [&] { return BoundedUpdate(x, rng); },
        draft);
  }
  AddClauseQueries(x, spec->AskCount(), rng, draft);
}

// ---- explicit_persist ----------------------------------------------------
// Four input families, each under all nine operators: random 2-clause
// theories, Nebel's explosion family, Winslett's chain family, and the
// paper's reduction gadgets (Theorem 3.1 for the formula-based
// operators, Theorems 3.6 / 6.5 for the model-based ones) whose query
// answers equal satisfiability of a 3-SAT instance pi.
bool Satisfiable3Sat(const revise::TauMax& tau,
                     const std::vector<size_t>& pi) {
  const int n = tau.n();
  for (uint64_t a = 0; a < (uint64_t{1} << n); ++a) {
    bool all = true;
    for (const size_t j : pi) {
      const revise::TauClause& c = tau.clause(j);
      bool any = false;
      for (int k = 0; k < 3; ++k) {
        const bool value = (a >> c.var_index[k]) & 1;
        any = any || (value != c.negated[k]);
      }
      all = all && any;
    }
    if (all) return true;
  }
  return false;
}

// A random pi over tau_3^max: mostly satisfiable subsets, and the full
// clause set (the only unsatisfiable instance at n=3) a third of the time.
std::vector<size_t> RandomPi(const revise::TauMax& tau, Rng* rng) {
  if (rng->Below(3) == 0) return tau.RandomInstance(tau.num_clauses(), rng);
  return tau.RandomInstance(1 + rng->Below(tau.num_clauses() - 1), rng);
}

// Random clause queries and IsModel minterms over `letters`.
void AddQueries(const std::vector<Var>& letters, const revise::ModelSet& mt,
                const SessionSpec& spec, Rng* rng, Draft* draft) {
  AddClauseQueries(letters, spec.AskCount(), rng, draft);
  AddMinterms(letters, mt, spec.MintermCount(), rng, draft);
}

void ExplicitPersist(int id, OperatorId op, Size size, Rng* rng,
                     SessionSpec* spec, Draft* draft) {
  const bool tiny = size == Size::kTiny;
  spec->steps = 1;
  spec->asks_per_step = 4;
  spec->models_per_step = 2;
  switch ((id / 9) % 4) {
    case 0: {
      // Random 2-clause theories.
      const int n = tiny ? 8 : 14;
      const std::vector<Var> x = Letters("x", n, &draft->vocabulary);
      const size_t lo = tiny ? 16 : 512;
      revise::ModelSet mt;
      for (;;) {
        Theory t;
        for (int i = 0; i < n; ++i) t.Add(RandomClause(x, 2, rng));
        mt = revise::EnumerateModels(t.AsFormula(), Alphabet(x), 2 * lo + 1);
        if (mt.size() >= lo && mt.size() <= 2 * lo) {
          draft->theory = std::move(t);
          break;
        }
      }
      std::vector<Formula> literals;
      for (const Var v : Sample(x, 4, rng)) {
        literals.push_back(Formula::Literal(v, rng->Chance(0.5)));
      }
      draft->updates.push_back(revise::ConjoinAll(literals));
      AddQueries(x, mt, *spec, rng, draft);
      return;
    }
    case 1: {
      const revise::NebelExplosionFamily f(tiny ? 3 : 7, &draft->vocabulary);
      draft->theory = f.t;
      draft->updates.push_back(f.p);
      std::vector<Var> all = f.x;
      all.insert(all.end(), f.y.begin(), f.y.end());
      AddQueries(all, revise::ModelSet(), *spec, rng, draft);
      return;
    }
    case 2: {
      const revise::WinslettChainFamily f(tiny ? 2 : 4, &draft->vocabulary);
      draft->theory = f.t;
      draft->updates.push_back(f.p);
      std::vector<Var> all = f.x;
      all.insert(all.end(), f.y.begin(), f.y.end());
      all.insert(all.end(), f.z.begin(), f.z.end());
      AddQueries(all, revise::ModelSet(), *spec, rng, draft);
      return;
    }
    default:
      break;
  }
  if (!IsModelBased(op)) {
    // Theorem 3.1: pi satisfiable iff T_n *_GFUV P_n |= Q_pi.  WIDTIO and
    // Nebel answer the same queries; only GFUV's answers are known.
    const revise::Theorem31Family f(3, &draft->vocabulary);
    draft->theory = f.t;
    draft->updates.push_back(f.p);
    spec->models_per_step = 0;
    for (int i = 0; i <= spec->QueriesPerBlock(); ++i) {
      const std::vector<size_t> pi = RandomPi(f.tau, rng);
      draft->asks.push_back(f.Query(pi));
      if (op == OperatorId::kGfuv) {
        spec->known_answers.emplace_back(spec->AnswerIndex(0, i),
                                         Satisfiable3Sat(f.tau, pi));
      }
    }
    return;
  }
  // Theorem 3.6 (Dalal, Weber: the single update P_n) and Theorem 6.5
  // (every model-based operator: the sequence P^1..P^n):
  // pi satisfiable iff C_pi is a model of the revised KB.
  const revise::Theorem36Family f(3, &draft->vocabulary);
  draft->theory = f.t;
  if (op == OperatorId::kDalal || op == OperatorId::kWeber) {
    draft->updates.push_back(f.p);
  } else {
    draft->updates = f.updates;
  }
  spec->steps = static_cast<int>(draft->updates.size());
  spec->asks_per_step = 1;
  spec->models_per_step = 3;
  const Alphabet full = f.FullAlphabet();
  const std::vector<Var> letters = full.vars();
  AddClauseQueries(letters, spec->AskCount(), rng, draft);
  for (int b = 0; b < spec->steps; ++b) {
    for (int q = 0; q < spec->models_per_step; ++q) {
      const std::vector<size_t> pi = RandomPi(f.tau, rng);
      draft->minterms.push_back(Minterm(letters, f.CPi(pi, full), full));
      // Only the fully revised KB decides pi.
      if (b == spec->steps - 1) {
        spec->known_answers.emplace_back(
            spec->AnswerIndex(b, spec->asks_per_step + q),
            Satisfiable3Sat(f.tau, pi));
      }
    }
  }
}

}  // namespace

uint64_t SessionSpec::PlannedOps() const {
  // open, then per step: revise, the queries, Models(), save, cold start.
  return 1 + static_cast<uint64_t>(steps) * (QueriesPerBlock() + 4);
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (const Workload w :
       {Workload::kDelayedAsk, Workload::kDelayedWide,
        Workload::kCompactChain, Workload::kExplicitPersist}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDelayedAsk:
      return "delayed_ask";
    case Workload::kDelayedWide:
      return "delayed_wide";
    case Workload::kCompactChain:
      return "compact_chain";
    case Workload::kExplicitPersist:
      return "explicit_persist";
  }
  return "?";
}

StatusOr<std::vector<SessionSpec>> GenerateWorkload(Workload workload,
                                                    uint64_t seed, Size size,
                                                    const std::string& dir) {
  const bool tiny = size == Size::kTiny;
  int sessions = 0;
  switch (workload) {
    case Workload::kDelayedAsk:
      sessions = tiny ? 9 : 81;
      break;
    case Workload::kDelayedWide:
      sessions = tiny ? 6 : 216;
      break;
    case Workload::kCompactChain:
      sessions = tiny ? 7 : 168;
      break;
    case Workload::kExplicitPersist:
      sessions = tiny ? 36 : 108;
      break;
  }
  std::vector<SessionSpec> specs;
  for (int id = 0; id < sessions; ++id) {
    // Per-session streams: a session's inputs do not depend on the pool
    // size.
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(id));
    Draft draft;
    SessionSpec spec;
    switch (workload) {
      case Workload::kDelayedAsk:
        spec = Base(id, kAllOperators[id % 9],
                    RevisionStrategy::kDelayed, dir);
        DelayedAsk(size, &rng, &spec, &draft);
        break;
      case Workload::kDelayedWide:
        spec = Base(id, kModelBased[id % 6],
                    RevisionStrategy::kDelayed, dir);
        DelayedWide(size, &rng, &spec, &draft);
        break;
      case Workload::kCompactChain:
        spec = Base(id, kCompactOperators[id % 7],
                    RevisionStrategy::kCompact, dir);
        CompactChain(spec.op, size, &rng, &spec, &draft);
        break;
      case Workload::kExplicitPersist:
        spec = Base(id, kAllOperators[id % 9],
                    RevisionStrategy::kExplicit, dir);
        ExplicitPersist(id, spec.op, size, &rng, &spec, &draft);
        break;
    }
    spec.alphabet_size =
        revise::IteratedAlphabet(draft.theory, draft.updates).size();
    for (const Formula& p : draft.updates) {
      spec.max_update_letters =
          std::max(spec.max_update_letters, p.Vars().size());
    }
    // Every other session starts from an artifact compiled here.
    spec.start_from_artifact = id % 2 == 1;
    if (Status s = WriteSession(draft, spec); !s.ok()) return s;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace perfbench
