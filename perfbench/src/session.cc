#include "session.h"

#include <chrono>
#include <optional>
#include <utility>

#include "core/io.h"
#include "core/kb_artifact.h"
#include "core/knowledge_base.h"
#include "solve/model_cache.h"

namespace perfbench {
namespace {

using revise::Formula;
using revise::KnowledgeBase;
using revise::StatusOr;

// Collects the literals of a conjunction of literals.
bool CollectLiterals(const Formula& f,
                     std::vector<std::pair<revise::Var, bool>>* out) {
  switch (f.kind()) {
    case revise::Connective::kVar:
      out->emplace_back(f.var(), true);
      return true;
    case revise::Connective::kNot:
      if (f.child(0).kind() != revise::Connective::kVar) return false;
      out->emplace_back(f.child(0).var(), false);
      return true;
    case revise::Connective::kAnd:
      for (const Formula& c : f.children()) {
        if (!CollectLiterals(c, out)) return false;
      }
      return true;
    default:
      return false;
  }
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

bool Answer(const KnowledgeBase& kb, const Sources& sources, Query q) {
  if (q.is_model) {
    return kb.IsModel(sources.minterms[q.index], sources.minterm_alphabet);
  }
  return kb.Ask(sources.asks[q.index]);
}

}  // namespace

const char* OpKindName(OpKind kind) {
  static const char* const kNames[kOpKinds] = {
      "open", "revise", "ask", "models", "save", "cold_start"};
  return kNames[kind];
}

double OpTimes::TotalMs() const {
  double total = 0;
  for (const auto& v : ms) {
    for (const double x : v) total += x;
  }
  return total;
}

uint64_t OpTimes::Count() const {
  uint64_t n = 0;
  for (const auto& v : ms) n += v.size();
  return n;
}

StatusOr<Sources> ParseSources(const SessionSpec& spec,
                               revise::Vocabulary* vocabulary) {
  Sources sources;
  if (!spec.start_from_artifact) {
    StatusOr<revise::Theory> t =
        revise::LoadTheoryFromFile(spec.stem + ".theory", vocabulary);
    if (!t.ok()) return t.status();
    sources.theory = std::move(*t);
  }
  const struct {
    const char* suffix;
    std::vector<Formula>* out;
  } files[] = {{".revise", &sources.updates}, {".ask", &sources.asks}};
  for (const auto& file : files) {
    StatusOr<revise::Theory> t =
        revise::LoadTheoryFromFile(spec.stem + file.suffix, vocabulary);
    if (!t.ok()) return t.status();
    *file.out = t->formulas();
  }
  StatusOr<revise::Theory> minterms =
      revise::LoadTheoryFromFile(spec.stem + ".model", vocabulary);
  if (!minterms.ok()) return minterms.status();
  if (!minterms->empty()) {
    sources.minterm_alphabet = revise::Alphabet((*minterms)[0].Vars());
  }
  for (const Formula& f : minterms->formulas()) {
    std::vector<std::pair<revise::Var, bool>> literals;
    if (!CollectLiterals(f, &literals) ||
        literals.size() != sources.minterm_alphabet.size()) {
      return revise::InvalidArgumentError(spec.stem +
                                          ".model: not a full minterm");
    }
    revise::Interpretation m(sources.minterm_alphabet.size());
    for (const auto& [var, positive] : literals) {
      const auto index = sources.minterm_alphabet.IndexOf(var);
      if (!index.has_value()) {
        return revise::InvalidArgumentError(spec.stem +
                                            ".model: mixed alphabets");
      }
      m.Set(*index, positive);
    }
    sources.minterms.push_back(std::move(m));
  }
  if (sources.updates.size() != static_cast<size_t>(spec.steps) ||
      sources.asks.size() != spec.AskCount() ||
      sources.minterms.size() != spec.MintermCount()) {
    return revise::InvalidArgumentError(spec.stem +
                                        ": sources do not match the script");
  }
  return sources;
}

Query QueryAt(const SessionSpec& spec, int block, int i) {
  const size_t b = static_cast<size_t>(block);
  if (i < spec.asks_per_step) {
    return {false, b * (spec.asks_per_step + 1) + i};
  }
  if (i == spec.QueriesPerBlock()) {  // the cold-start query
    return {false, b * (spec.asks_per_step + 1) + spec.asks_per_step};
  }
  return {true, b * spec.models_per_step + (i - spec.asks_per_step)};
}

uint64_t ModelSetHash(const revise::ModelSet& models) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const revise::Var v : models.alphabet().vars()) mix(v);
  for (const revise::Interpretation& m : models) mix(m.Hash());
  return h;
}

SessionResult RunKbSession(const SessionSpec& spec,
                           const std::string& save_path) {
  revise::ModelCache::Global().Clear();
  SessionResult result;
  OpTimes& times = result.times;
  Transcript& transcript = result.transcript;
  const uint64_t planned = spec.PlannedOps();
  const auto fail = [&](const revise::Status& status) {
    result.failed = planned - times.Count();
    result.error = spec.stem + ": " + status.ToString();
    return result;
  };
  const revise::RevisionOperator* op = revise::OperatorById(spec.op);
  revise::Vocabulary vocabulary;

  // Open: parse the text sources (or load the initial artifact), create.
  Stopwatch open;
  std::optional<KnowledgeBase> kb;
  if (spec.start_from_artifact) {
    StatusOr<KnowledgeBase> loaded = revise::LoadKnowledgeBaseArtifact(
        spec.stem + ".init.rkb", &vocabulary);
    if (!loaded.ok()) return fail(loaded.status());
    kb.emplace(std::move(*loaded));
  }
  StatusOr<Sources> parsed = ParseSources(spec, &vocabulary);
  if (!parsed.ok()) return fail(parsed.status());
  const Sources& sources = *parsed;
  if (!kb.has_value()) {
    StatusOr<KnowledgeBase> created = KnowledgeBase::Create(
        sources.theory, op, spec.strategy, &vocabulary);
    if (!created.ok()) return fail(created.status());
    kb.emplace(std::move(*created));
  }
  times.ms[kOpen].push_back(open.Ms());

  const auto models = [&] {
    Stopwatch w;
    const revise::ModelSet m = kb->Models();
    times.ms[kModels].push_back(w.Ms());
    transcript.model_counts.push_back(m.size());
    transcript.model_hashes.push_back(ModelSetHash(m));
  };
  const auto query = [&](int block, int i) {
    Stopwatch w;
    const bool answer = Answer(*kb, sources, QueryAt(spec, block, i));
    times.ms[kAsk].push_back(w.Ms());
    transcript.answers.push_back(answer);
  };

  for (int step = 0; step < spec.steps; ++step) {
    {
      Stopwatch w;
      kb->Revise(sources.updates[step]);
      times.ms[kRevise].push_back(w.Ms());
    }
    if (spec.models_first) models();
    for (int i = 0; i < spec.QueriesPerBlock(); ++i) query(step, i);
    if (!spec.models_first) models();
    if (step + 1 == spec.steps) transcript.stored_size = kb->StoredSize();

    // Persist, then a cold start from the saved artifact.
    {
      Stopwatch w;
      const revise::Status s =
          revise::SaveKnowledgeBaseArtifact(*kb, save_path);
      if (!s.ok()) return fail(s);
      times.ms[kSave].push_back(w.Ms());
    }
    kb.reset();
    Stopwatch w;
    StatusOr<KnowledgeBase> loaded =
        revise::LoadKnowledgeBaseArtifact(save_path, &vocabulary);
    if (!loaded.ok()) return fail(loaded.status());
    kb.emplace(std::move(*loaded));
    const bool answer = Answer(
        *kb, sources, QueryAt(spec, step, spec.QueriesPerBlock()));
    times.ms[kColdStart].push_back(w.Ms());
    transcript.answers.push_back(answer);
  }
  return result;
}

}  // namespace perfbench
