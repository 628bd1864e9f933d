#include "core/knowledge_base.h"

#include "compact/iterated_revision.h"
#include "model/canonical.h"
#include "revision/formula_based.h"
#include "revision/iterated.h"
#include "solve/services.h"
#include "util/check.h"

namespace revise {

namespace {

// `models` re-expressed over `target`, a superset of its alphabet: the
// letters new in `target` take both values.
ModelSet OverAlphabet(const ModelSet& models, const Alphabet& target) {
  if (models.alphabet() == target) return models;
  std::vector<Interpretation> rows = models.ProjectTo(target).models();
  for (size_t i = 0; i < target.size(); ++i) {
    if (models.alphabet().Contains(target.var(i))) continue;
    const size_t n = rows.size();
    for (size_t r = 0; r < n; ++r) {
      rows.push_back(rows[r]);
      rows.back().Set(i, true);
    }
  }
  return ModelSet(target, std::move(rows));
}

}  // namespace

KnowledgeBase::KnowledgeBase(Theory initial, const RevisionOperator* op,
                             RevisionStrategy strategy,
                             Vocabulary* vocabulary)
    : op_(op),
      model_fold_(strategy == RevisionStrategy::kCompact
                      ? nullptr
                      : dynamic_cast<const ModelBasedOperator*>(op)),
      strategy_(strategy),
      vocabulary_(vocabulary),
      initial_(std::move(initial)),
      folded_(initial_.AsFormula()),
      folded_theory_(initial_) {
  REVISE_CHECK(op != nullptr);
  REVISE_CHECK(vocabulary != nullptr);
}

StatusOr<KnowledgeBase> KnowledgeBase::Create(Theory initial,
                                              const RevisionOperator* op,
                                              RevisionStrategy strategy,
                                              Vocabulary* vocabulary) {
  if (op == nullptr) return InvalidArgumentError("null operator");
  if (strategy == RevisionStrategy::kCompact &&
      (op->id() == OperatorId::kGfuv || op->id() == OperatorId::kNebel)) {
    return InvalidArgumentError(
        std::string(op->name()) +
        " admits no compact representation (Theorems 3.1 / 4.1); use the "
        "delayed strategy");
  }
  return KnowledgeBase(std::move(initial), op, strategy, vocabulary);
}

StatusOr<KnowledgeBase> KnowledgeBase::FromSnapshot(
    Theory initial, std::vector<Formula> updates, Formula folded,
    Theory folded_theory, std::optional<ModelSet> models,
    const RevisionOperator* op, RevisionStrategy strategy,
    Vocabulary* vocabulary) {
  if (models.has_value() &&
      !(models->alphabet() == IteratedAlphabet(initial, updates))) {
    return InvalidArgumentError(
        "snapshot model set is not over the letters of its theory and "
        "updates");
  }
  StatusOr<KnowledgeBase> kb =
      Create(std::move(initial), op, strategy, vocabulary);
  if (!kb.ok()) return kb;
  kb->updates_ = std::move(updates);
  kb->folded_ = std::move(folded);
  kb->folded_theory_ = std::move(folded_theory);
  kb->models_memo_ = std::move(models);
  kb->memo_updates_ = kb->updates_.size();
  return kb;
}

std::optional<bool> KnowledgeBase::KnownSatisfiable() const {
  if (models_memo_.has_value()) return !models_memo_->empty();
  // R3 and the convention that an unsatisfiable prior is revised to P:
  // a compact step's result is satisfiable iff its update is.
  if (!updates_.empty()) return IsSatisfiable(updates_.back());
  return std::nullopt;
}

void KnowledgeBase::Revise(const Formula& p) {
  // Read before p lands.  WIDTIO folds without a satisfiability check.
  const std::optional<bool> prior_satisfiable =
      strategy_ == RevisionStrategy::kCompact &&
              op_->id() != OperatorId::kWidtio
          ? KnownSatisfiable()
          : std::nullopt;
  updates_.push_back(p);
  solver_.reset();
  if (model_fold_ != nullptr) {
    // kDelayed stops here: the next query folds p into the memo.
    if (strategy_ == RevisionStrategy::kDelayed) return;
    // The fold is ReviseFormula(folded_theory_, p): the canonical DNF of
    // the revised model set over RevisionAlphabet(folded_theory_, p).
    // That alphabet is CurrentAlphabet() unless a step left folded_ =
    // False; the older letters are then unconstrained in the memo, so
    // projecting them away is exact.
    const ModelSet& revised = MemoizedModels();
    const Alphabet alphabet = RevisionAlphabet(folded_theory_, p);
    folded_ = CanonicalDnf(revised.alphabet() == alphabet
                               ? revised
                               : revised.ProjectTo(alphabet));
    folded_theory_ = Theory({folded_});
    return;
  }
  models_memo_.reset();
  switch (strategy_) {
    case RevisionStrategy::kDelayed:
      return;  // nothing to fold
    case RevisionStrategy::kExplicit: {
      if (op_->id() == OperatorId::kWidtio) {
        folded_theory_ = WidtioTheory(folded_theory_, p);
        folded_ = folded_theory_.AsFormula();
        return;
      }
      // Fold through the single-step operator API.  The first revision
      // sees the original theory structure (formula-based operators are
      // sensitive to it); later ones the folded singleton.
      folded_ = op_->ReviseFormula(folded_theory_, p);
      folded_theory_ = Theory({folded_});
      return;
    }
    case RevisionStrategy::kCompact: {
      switch (op_->id()) {
        case OperatorId::kDalal:
          folded_ = DalalCompactStep(folded_, p, CurrentAlphabet().vars(),
                                     vocabulary_, prior_satisfiable);
          return;
        case OperatorId::kWeber:
          folded_ = WeberCompactStep(folded_, p, CurrentAlphabet().vars(),
                                     vocabulary_, prior_satisfiable);
          return;
        case OperatorId::kWinslett:
          folded_ = WinslettCompactStep(folded_, p, vocabulary_,
                                        prior_satisfiable);
          return;
        case OperatorId::kBorgida:
          folded_ = BorgidaCompactStep(folded_, p, vocabulary_,
                                       prior_satisfiable);
          return;
        case OperatorId::kSatoh:
          folded_ = SatohCompactStep(folded_, p, vocabulary_,
                                     prior_satisfiable);
          return;
        case OperatorId::kForbus:
          folded_ = ForbusCompactStep(folded_, p, vocabulary_,
                                      prior_satisfiable);
          return;
        case OperatorId::kWidtio:
          folded_theory_ = WidtioTheory(folded_theory_, p);
          folded_ = folded_theory_.AsFormula();
          return;
        case OperatorId::kGfuv:
        case OperatorId::kNebel:
          REVISE_CHECK(false);  // rejected by Create
          return;
      }
      return;
    }
  }
}

Alphabet KnowledgeBase::CurrentAlphabet() const {
  return IteratedAlphabet(initial_, updates_);
}

ModelSet KnowledgeBase::Models() const { return MemoizedModels(); }

const ModelSet& KnowledgeBase::MemoizedModels() const {
  if (model_fold_ == nullptr) {
    if (!models_memo_.has_value()) models_memo_ = ComputeModels();
    return *models_memo_;
  }
  // Catch up: fold the updates the memo has not absorbed, on the memo
  // re-expressed over the KB's letters.
  if (!models_memo_.has_value()) {
    models_memo_ = EnumerateModels(initial_.AsFormula(), CurrentAlphabet());
    memo_updates_ = 0;
  } else if (memo_updates_ < updates_.size()) {
    models_memo_ = OverAlphabet(*models_memo_, CurrentAlphabet());
  }
  for (; memo_updates_ < updates_.size(); ++memo_updates_) {
    models_memo_ =
        model_fold_->ReviseModelSet(*models_memo_, updates_[memo_updates_]);
  }
  return *models_memo_;
}

ModelSet KnowledgeBase::ComputeModels() const {
  const Alphabet alphabet = CurrentAlphabet();
  if (strategy_ == RevisionStrategy::kDelayed) {
    return EnumerateModels(
        IteratedReviseTheory(*op_, initial_, updates_).AsFormula(), alphabet);
  }
  // Enumerated through Ask's solver: from here on the memo answers Ask.
  return Solver().Models(alphabet);
}

EntailmentSolver& KnowledgeBase::Solver() const {
  if (!solver_.has_value()) solver_.emplace(folded_);
  return *solver_;
}

bool KnowledgeBase::Ask(const Formula& query) const {
  if (strategy_ == RevisionStrategy::kDelayed) {
    // Compute the revision on demand (the paper's recommended strategy):
    // fill the memo or fold the pending updates into it, then decide
    // entailment on the memo itself.  Letters of the query outside the
    // knowledge base are unconstrained; EntailedByModels quantifies them
    // universally.
    return EntailedByModels(MemoizedModels(), query);
  }
  // Explicit / compact: the memo holds the models of folded_ over the KB's
  // letters (under kCompact their projection, which decides every query
  // over those letters by query equivalence, criterion (1)), so answer on
  // it when there is one, but never fill it here.
  if (models_memo_.has_value()) return EntailedByModels(*models_memo_, query);
  return Solver().Entails(query);
}

bool KnowledgeBase::IsModel(const Interpretation& m,
                            const Alphabet& alphabet) const {
  const ModelSet& models = MemoizedModels();
  return models.Contains(Reinterpret(m, alphabet, models.alphabet()));
}

uint64_t KnowledgeBase::StoredSize() const {
  if (strategy_ == RevisionStrategy::kDelayed) {
    uint64_t size = initial_.VarOccurrences();
    for (const Formula& p : updates_) size += p.VarOccurrences();
    return size;
  }
  return folded_.VarOccurrences();
}

}  // namespace revise
