#include "replay.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <type_traits>
#include <utility>

#include "artifact/kb_image.h"
#include "compact/iterated_revision.h"
#include "core/kb_artifact.h"
#include "core/knowledge_base.h"
#include "model/canonical.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "revision/candidates.h"
#include "revision/formula_based.h"
#include "revision/iterated.h"
#include "solve/model_cache.h"
#include "solve/services.h"

namespace perfbench {
namespace {

using revise::Alphabet;
using revise::Formula;
using revise::ModelSet;
using revise::OperatorId;
using revise::RevisionStrategy;
using revise::Theory;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// KnowledgeBase's state and member functions (core/knowledge_base.cc),
// rewritten as explicit layer calls.  Each method follows the line-by-line
// order of its KnowledgeBase counterpart; the only additions are spans.
class ReplayKb {
  // Runs f inside a span of `layer` (the helpers come first: their
  // deduced return types must be known where they are used).
  template <typename F>
  auto Traced(Layer layer, F&& f) {
    const int span = tracer_->Begin(layer);
    last_items_ = 0;
    auto result = f();
    tracer_->End(span, last_items_);
    return result;
  }

  // Runs f inside a `core` span.
  template <typename F>
  auto Core(F&& f) {
    const int span = tracer_->Begin(kLayerCore);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      tracer_->End(span);
    } else {
      auto result = f();
      tracer_->End(span);
      return result;
    }
  }

 public:
  ReplayKb(const revise::RevisionOperator* op, RevisionStrategy strategy,
           revise::Vocabulary* vocabulary, Tracer* tracer)
      : op_(op), strategy_(strategy), vocabulary_(vocabulary),
        tracer_(tracer) {}

  // KnowledgeBase::Create.
  void Create(const Theory& initial) {
    Core([&] {
      initial_ = initial;
      folded_ = initial_.AsFormula();
      folded_theory_ = initial_;
    });
  }

  // LoadKnowledgeBaseArtifact, adopting the loaded state.
  revise::Status Load(const std::string& path) {
    using Loaded = std::optional<revise::StatusOr<revise::KnowledgeBase>>;
    Loaded kb = Traced(kLayerArtifactLoad, [&] {
      return Loaded(revise::LoadKnowledgeBaseArtifact(path, vocabulary_));
    });
    if (!(*kb).ok()) return (*kb).status();
    Core([&] {
      const revise::KnowledgeBase& loaded = **kb;
      initial_ = loaded.initial();
      updates_ = loaded.updates();
      folded_ = loaded.folded();
      folded_theory_ = loaded.folded_theory();
      memo_ = loaded.Models();  // the memo seeded from the artifact
      kb.reset();
    });
    return revise::Status::Ok();
  }

  void Revise(const Formula& p) {
    Core([&] {
      updates_.push_back(p);
      memo_.reset();
    });
    switch (strategy_) {
      case RevisionStrategy::kDelayed:
        return;
      case RevisionStrategy::kExplicit:
        if (op_->id() == OperatorId::kWidtio) {
          FoldWidtio(p);
          return;
        }
        {
          Formula next = Traced(kLayerReviseFormula, [&] {
            return op_->ReviseFormula(folded_theory_, p);
          });
          Core([&] {
            folded_ = std::move(next);
            folded_theory_ = Theory({folded_});
          });
        }
        return;
      case RevisionStrategy::kCompact:
        CompactStep(p);
        return;
    }
  }

  bool Ask(const Formula& query) {
    if (strategy_ == RevisionStrategy::kDelayed) {
      std::optional<ModelSet> models = Models();
      std::optional<Formula> dnf = Traced(kLayerCanonicalDnf, [&] {
        last_items_ = models->size() * models->alphabet().size();
        return std::optional<Formula>(revise::CanonicalDnf(*models));
      });
      const bool answer = Traced(kLayerEntails, [&] {
        return revise::Entails(*dnf, query);
      });
      Core([&] {
        dnf.reset();
        models.reset();
      });
      return answer;
    }
    return Traced(kLayerEntails,
                  [&] { return revise::Entails(folded_, query); });
  }

  bool IsModel(const revise::Interpretation& m, const Alphabet& alphabet) {
    const Alphabet own = Core([&] { return CurrentAlphabet(); });
    std::optional<ModelSet> models = Models();
    return Core([&] {
      const bool answer =
          models->Contains(revise::Reinterpret(m, alphabet, own));
      models.reset();
      return answer;
    });
  }

  // KnowledgeBase::Models: fills the memo, returns a copy.
  std::optional<ModelSet> Models() {
    if (!memo_.has_value()) ComputeModels();
    return Core([&] { return std::optional<ModelSet>(*memo_); });
  }

  // SaveKnowledgeBaseArtifact.
  revise::Status Save(const std::string& path) {
    std::optional<ModelSet> models = Models();
    std::optional<revise::artifact::KbImage> image =
        Core([&] {
          std::optional<revise::artifact::KbImage> i(std::in_place);
          i->operator_id = op_->id();
          i->strategy = StrategyToWire();
          i->initial = initial_;
          i->updates = updates_;
          i->folded = folded_;
          i->folded_theory = folded_theory_;
          i->models = std::move(*models);
          return i;
        });
    const revise::Status s = Traced(kLayerArtifactSave, [&] {
      revise::Status written =
          revise::artifact::WriteKbArtifact(*image, *vocabulary_, path);
      std::error_code ec;
      if (written.ok()) last_items_ = std::filesystem::file_size(path, ec);
      return written;
    });
    Core([&] { image.reset(); });
    return s;
  }

  // KnowledgeBase::StoredSize.
  uint64_t StoredSize() const {
    if (strategy_ == RevisionStrategy::kDelayed) {
      uint64_t size = initial_.VarOccurrences();
      for (const Formula& p : updates_) size += p.VarOccurrences();
      return size;
    }
    return folded_.VarOccurrences();
  }

  // Drops the state (the KnowledgeBase going out of scope).
  void Reset() {
    initial_ = Theory();
    updates_.clear();
    folded_ = Formula();
    folded_theory_ = Theory();
    memo_.reset();
  }

 private:
  Alphabet CurrentAlphabet() const {
    return revise::IteratedAlphabet(initial_, updates_);
  }

  uint32_t StrategyToWire() const {
    switch (strategy_) {
      case RevisionStrategy::kDelayed:
        return revise::artifact::kStrategyDelayed;
      case RevisionStrategy::kExplicit:
        return revise::artifact::kStrategyExplicit;
      case RevisionStrategy::kCompact:
        return revise::artifact::kStrategyCompact;
    }
    return revise::artifact::kStrategyDelayed;
  }

  void FoldWidtio(const Formula& p) {
    Theory next = Traced(kLayerReviseFormula, [&] {
      return revise::WidtioTheory(folded_theory_, p);
    });
    Core([&] {
      folded_theory_ = std::move(next);
      folded_ = folded_theory_.AsFormula();
    });
  }

  void CompactStep(const Formula& p) {
    const OperatorId id = op_->id();
    if (id == OperatorId::kWidtio) {
      FoldWidtio(p);
      return;
    }
    std::optional<Alphabet> x;
    if (id == OperatorId::kDalal || id == OperatorId::kWeber) {
      x = Core([&] { return std::optional<Alphabet>(CurrentAlphabet()); });
    }
    Formula next = Traced(kLayerCompactStep, [&] {
      switch (id) {
        case OperatorId::kDalal:
          return revise::DalalCompactStep(folded_, p, x->vars(), vocabulary_);
        case OperatorId::kWeber:
          return revise::WeberCompactStep(folded_, p, x->vars(), vocabulary_);
        case OperatorId::kWinslett:
          return revise::WinslettCompactStep(folded_, p, vocabulary_);
        case OperatorId::kBorgida:
          return revise::BorgidaCompactStep(folded_, p, vocabulary_);
        case OperatorId::kSatoh:
          return revise::SatohCompactStep(folded_, p, vocabulary_);
        default:
          return revise::ForbusCompactStep(folded_, p, vocabulary_);
      }
    });
    Core([&] {
      folded_ = std::move(next);
      x.reset();
    });
  }

  // KnowledgeBase::ComputeModels, with IteratedReviseModels
  // (revision/iterated.cc) unrolled into its layer calls.
  void ComputeModels() {
    const Alphabet alphabet = Core([&] { return CurrentAlphabet(); });
    if (strategy_ != RevisionStrategy::kDelayed) {
      SetMemo(Enumerate(folded_, alphabet));
      return;
    }
    if (!op_->is_formula_based()) {
      const Formula t = Core([&] { return initial_.AsFormula(); });
      std::optional<ModelSet> current = Enumerate(t, alphabet);
      for (const Formula& p : updates_) {
        std::optional<ModelSet> next = Traced(kLayerReviseModels, [&] {
          std::optional<ModelSet> r(revise::ReviseModelsAuto(
              op_->id(), *current, p, alphabet));
          last_items_ = r->size();
          return r;
        });
        Core([&] { current = std::move(next); });
      }
      SetMemo(std::move(current));
      return;
    }
    std::optional<Theory> current = Core([&] { return std::optional<Theory>(initial_); });
    for (const Formula& p : updates_) {
      std::optional<Theory> next = Traced(kLayerReviseFormula, [&] {
        if (op_->id() == OperatorId::kWidtio) {
          return std::optional<Theory>(revise::WidtioTheory(*current, p));
        }
        return std::optional<Theory>(Theory({op_->ReviseFormula(*current, p)}));
      });
      Core([&] { current = std::move(next); });
    }
    const Formula f = Core([&] {
      Formula conjunction = current->AsFormula();
      current.reset();
      return conjunction;
    });
    SetMemo(Enumerate(f, alphabet));
  }

  std::optional<ModelSet> Enumerate(const Formula& f,
                                    const Alphabet& alphabet) {
    return Traced(kLayerEnumerate, [&] {
      std::optional<ModelSet> m(revise::EnumerateModels(f, alphabet));
      last_items_ = m->size();
      return m;
    });
  }

  void SetMemo(std::optional<ModelSet> models) {
    Core([&] { memo_ = std::move(models); });
  }

  const revise::RevisionOperator* op_;
  RevisionStrategy strategy_;
  revise::Vocabulary* vocabulary_;
  Tracer* tracer_;
  uint64_t last_items_ = 0;

  Theory initial_;
  std::vector<Formula> updates_;
  Formula folded_;
  Theory folded_theory_;
  std::optional<ModelSet> memo_;
};

}  // namespace

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "session",
      "op",
      "logic.parse",
      "solve.enumerate",
      "solve.entails",
      "model.canonical_dnf",
      "revision.revise_models",
      "revision.revise_formula",
      "compact.step",
      "artifact.save",
      "artifact.load",
      "core"};
  return kNames[layer];
}

const char* CounterName(Counter counter) {
  static const char* const kNames[kCounterCount] = {
      "sat.solves",
      "sat.conflicts",
      "sat.decisions",
      "sat.propagations",
      "solve.models_enumerated",
      "solve.model_cache.hits",
      "solve.model_cache.misses",
      "bdd.nodes_created"};
  return kNames[counter];
}

Tracer::Tracer() {
  for (int c = 0; c < kCounterCount; ++c) {
    counters_[c] = revise::obs::Registry::Global().GetCounter(
        CounterName(static_cast<Counter>(c)));
  }
  spans_.reserve(1 << 16);
}

std::array<uint64_t, kCounterCount> Tracer::ReadCounters() const {
  std::array<uint64_t, kCounterCount> values{};
  for (int c = 0; c < kCounterCount; ++c) values[c] = counters_[c]->Value();
  return values;
}

int Tracer::Begin(Layer layer, OpKind op) {
  SpanRecord span;
  span.layer = layer;
  span.session = session_;
  if (!open_.empty()) {
    span.parent = open_.back();
    if (layer != kLayerOp) span.op = spans_[span.parent].op;
  }
  if (layer == kLayerOp) span.op = op;
  span.counters = ReadCounters();
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index, uint64_t items) {
  if (index < 0) return;
  SpanRecord& span = spans_[index];
  span.end_ns = NowNs();
  const std::array<uint64_t, kCounterCount> now = ReadCounters();
  for (int c = 0; c < kCounterCount; ++c) {
    span.counters[c] = now[c] - span.counters[c];
  }
  span.items = items;
  open_.pop_back();
}

std::vector<int64_t> Tracer::SelfNanos() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

revise::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return revise::InternalError("cannot write " + path);
  const std::vector<int64_t> self = SelfNanos();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    revise::obs::Json line = revise::obs::Json::MakeObject();
    line["id"] = static_cast<uint64_t>(i);
    line["name"] = s.layer == kLayerOp
                       ? std::string("op.") + OpKindName(s.op)
                       : std::string(LayerName(s.layer));
    line["parent"] = static_cast<int64_t>(s.parent);
    line["session"] = static_cast<uint64_t>(s.session);
    line["start_ns"] = s.start_ns;
    line["end_ns"] = s.end_ns;
    line["self_ns"] = self[i];
    if (s.items != 0) line["items"] = s.items;
    for (int c = 0; c < kCounterCount; ++c) {
      if (s.counters[c] != 0) {
        line[CounterName(static_cast<Counter>(c))] = s.counters[c];
      }
    }
    std::fputs((line.Dump() + "\n").c_str(), out);
  }
  if (std::fclose(out) != 0) {
    return revise::InternalError("short write to " + path);
  }
  return revise::Status::Ok();
}

ReplayResult ReplaySession(const SessionSpec& spec, Tracer* tracer) {
  revise::ModelCache::Global().Clear();
  ReplayResult result;
  Transcript& transcript = result.transcript;
  revise::Vocabulary vocabulary;
  ReplayKb kb(revise::OperatorById(spec.op), spec.strategy, &vocabulary,
              tracer);
  tracer->set_session(static_cast<uint32_t>(spec.id));
  const int session = tracer->Begin(kLayerSession);
  // A failed replay fails the run, so its open spans are never read.
  const auto fail = [&](const revise::Status& status) {
    result.error = spec.stem + ": " + status.ToString();
    return result;
  };
  int op = tracer->Begin(kLayerOp, kOpen);
  if (spec.start_from_artifact) {
    const revise::Status s = kb.Load(spec.stem + ".init.rkb");
    if (!s.ok()) return fail(s);
  }
  const int parse = tracer->Begin(kLayerParse);
  revise::StatusOr<Sources> parsed = ParseSources(spec, &vocabulary);
  tracer->End(parse);
  if (!parsed.ok()) return fail(parsed.status());
  const Sources& sources = *parsed;
  if (!spec.start_from_artifact) kb.Create(sources.theory);
  tracer->End(op);

  const auto answer = [&](int block, int i) {
    const Query q = QueryAt(spec, block, i);
    return q.is_model ? kb.IsModel(sources.minterms[q.index],
                                   sources.minterm_alphabet)
                      : kb.Ask(sources.asks[q.index]);
  };
  const auto models = [&] {
    const int span = tracer->Begin(kLayerOp, kModels);
    std::optional<ModelSet> m = kb.Models();
    tracer->End(span);
    transcript.model_counts.push_back(m->size());
    transcript.model_hashes.push_back(ModelSetHash(*m));
  };
  const auto query = [&](int block, int i) {
    const int span = tracer->Begin(kLayerOp, kAsk);
    const bool a = answer(block, i);
    tracer->End(span);
    transcript.answers.push_back(a);
  };

  const std::string saved = spec.stem + ".rkb";
  for (int step = 0; step < spec.steps; ++step) {
    op = tracer->Begin(kLayerOp, kRevise);
    kb.Revise(sources.updates[step]);
    tracer->End(op);
    if (spec.models_first) models();
    for (int i = 0; i < spec.QueriesPerBlock(); ++i) query(step, i);
    if (!spec.models_first) models();
    if (step + 1 == spec.steps) transcript.stored_size = kb.StoredSize();

    op = tracer->Begin(kLayerOp, kSave);
    const revise::Status saved_status = kb.Save(saved);
    tracer->End(op);
    if (!saved_status.ok()) return fail(saved_status);
    kb.Reset();
    op = tracer->Begin(kLayerOp, kColdStart);
    if (revise::Status s = kb.Load(saved); !s.ok()) return fail(s);
    const bool cold = answer(step, spec.QueriesPerBlock());
    tracer->End(op);
    transcript.answers.push_back(cold);
  }
  tracer->End(session);
  return result;
}

}  // namespace perfbench
