#include "core/kb_artifact.h"

#include <chrono>
#include <optional>
#include <utility>

#include "artifact/kb_image.h"
#include "obs/metrics.h"

namespace revise {
namespace {

uint32_t StrategyToWire(RevisionStrategy strategy) {
  switch (strategy) {
    case RevisionStrategy::kDelayed:
      return artifact::kStrategyDelayed;
    case RevisionStrategy::kExplicit:
      return artifact::kStrategyExplicit;
    case RevisionStrategy::kCompact:
      return artifact::kStrategyCompact;
  }
  return artifact::kStrategyDelayed;
}

StatusOr<RevisionStrategy> StrategyFromWire(uint32_t strategy) {
  switch (strategy) {
    case artifact::kStrategyDelayed:
      return RevisionStrategy::kDelayed;
    case artifact::kStrategyExplicit:
      return RevisionStrategy::kExplicit;
    case artifact::kStrategyCompact:
      return RevisionStrategy::kCompact;
  }
  return InvalidArgumentError("artifact strategy " +
                              std::to_string(strategy) + " unknown");
}

}  // namespace

Status SaveKnowledgeBaseArtifact(const KnowledgeBase& kb,
                                 const std::string& path) {
  artifact::KbImage image;
  image.operator_id = kb.op().id();
  image.strategy = StrategyToWire(kb.strategy());
  image.initial = kb.initial();
  image.updates = kb.updates();
  image.folded = kb.folded();
  image.folded_theory = kb.folded_theory();
  image.models = kb.Models();
  return artifact::WriteKbArtifact(image, kb.vocabulary(), path);
}

StatusOr<KnowledgeBase> LoadKnowledgeBaseArtifact(const std::string& path,
                                                  Vocabulary* vocabulary) {
  const auto start = std::chrono::steady_clock::now();
  StatusOr<artifact::KbArtifact> opened = artifact::KbArtifact::Open(path);
  if (!opened.ok()) return opened.status();
  StatusOr<artifact::KbImage> image = opened->Materialize(vocabulary);
  if (!image.ok()) return image.status();

  const RevisionOperator* op = OperatorById(image->operator_id);
  StatusOr<RevisionStrategy> strategy = StrategyFromWire(image->strategy);
  if (!strategy.ok()) return strategy.status();

  StatusOr<KnowledgeBase> kb = KnowledgeBase::FromSnapshot(
      std::move(image->initial), std::move(image->updates),
      std::move(image->folded), std::move(image->folded_theory),
      std::make_optional(std::move(image->models)), op, *strategy,
      vocabulary);
  if (kb.ok()) {
    REVISE_OBS_COUNTER("artifact.loads").Increment();
    REVISE_OBS_HISTOGRAM("artifact.load_us")
        .Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
  }
  return kb;
}

}  // namespace revise
