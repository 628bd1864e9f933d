// Compiled knowledge-base images: the meaning of the .rkb sections.
//
// A KbImage is everything the core KnowledgeBase needs to resume exactly
// where a previous process stopped, plus the canonical ModelSet of the
// revised knowledge base that makes cold starts cheap: it is packed in the
// PackedModelMatrix row layout so the loader can read rows in place from
// the file buffer, and it seeds the loaded KnowledgeBase's Models() memo.
//
// The formula sections carry the syntactic state — the initial theory,
// the update sequence, and the folded explicit/compact representation
// (for the compact strategy this is the paper's precomputed compact
// revision, fresh letters included) — as one structurally deduplicated
// node table.  Variables are stored by name; loading interns the names
// into the caller's Vocabulary and remaps ids, so an artifact can be
// loaded into a process whose vocabulary already holds other letters.
//
// This layer is vocabulary/logic/model-level only; core/kb_artifact.h
// bridges KbImage to the KnowledgeBase class.

#ifndef REVISE_ARTIFACT_KB_IMAGE_H_
#define REVISE_ARTIFACT_KB_IMAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "logic/formula.h"
#include "logic/interpretation.h"
#include "logic/theory.h"
#include "logic/vocabulary.h"
#include "model/model_set.h"
#include "revision/operator.h"
#include "util/status.h"

namespace revise::artifact {

// Storage-strategy encoding in the KBMETA section.  Frozen format
// values; core/kb_artifact.cc maps them to RevisionStrategy.
inline constexpr uint32_t kStrategyDelayed = 0;
inline constexpr uint32_t kStrategyExplicit = 1;
inline constexpr uint32_t kStrategyCompact = 2;

// "delayed" / "explicit" / "compact" ("unknown" otherwise).
std::string_view StrategyName(uint32_t strategy);

// A fully materialized knowledge-base snapshot.
struct KbImage {
  OperatorId operator_id = OperatorId::kDalal;
  uint32_t strategy = kStrategyDelayed;
  Theory initial;
  std::vector<Formula> updates;
  Formula folded;
  Theory folded_theory;
  ModelSet models;
};

// Per-section row of InspectArtifact / `revise_compile inspect`.
struct SectionInfo {
  std::string name;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t crc = 0;
};

struct ArtifactInfo {
  uint32_t format_version = 0;
  uint64_t file_size = 0;
  uint64_t file_crc = 0;
  std::vector<SectionInfo> sections;
  std::string operator_name;
  std::string strategy_name;
  uint64_t vocabulary_size = 0;
  uint64_t formula_nodes = 0;
  uint64_t update_count = 0;
  uint64_t alphabet_size = 0;
  uint64_t model_count = 0;
};

// Compiles the image into a .rkb file: packs the models, deduplicates the
// formula DAG, checksums everything.
// `vocabulary` must be the one the image's formulas are expressed in.
Status WriteKbArtifact(const KbImage& image, const Vocabulary& vocabulary,
                       const std::string& path);

// An opened, checksum-validated artifact with its metadata decoded.  Open
// also enforces the packed-section invariants: rows strictly increasing
// (canonical), padding bits zero, and the KBMETA model count equal to the
// row count.  The packed model rows stay in the file buffer and are read
// in place; Materialize() is the only call that copies them out.
class KbArtifact {
 public:
  static StatusOr<KbArtifact> Open(const std::string& path);

  KbArtifact(KbArtifact&&) noexcept = default;
  KbArtifact& operator=(KbArtifact&&) noexcept = default;

  const ArtifactInfo& info() const { return info_; }

  size_t model_rows() const { return rows_; }
  size_t model_bits() const { return alphabet_.size(); }
  // Bit `bit` of packed row `row`, read in place from the file buffer.
  [[nodiscard]] bool RowBit(size_t row, size_t bit) const;
  // Row `row` as an Interpretation over the stored alphabet: a zero-parse
  // word copy when the host is little-endian and the section is 8-byte
  // aligned (always, given the 64-byte section alignment), a per-word
  // decode otherwise.
  [[nodiscard]] Interpretation ModelRow(size_t row) const;

  // Decodes everything into formulas/models over `*vocabulary` (interning
  // the stored names; ids are remapped, so the vocabulary need not be
  // empty).
  StatusOr<KbImage> Materialize(Vocabulary* vocabulary) const;

 private:
  KbArtifact() = default;
  Status DecodeMeta();
  // Word `word` of packed row `row`, decoded little-endian in place.
  uint64_t RowWord(size_t row, size_t word) const;

  ArtifactFile file_;
  ArtifactInfo info_;

  std::vector<std::string> names_;     // stored vocabulary, id order
  std::vector<Var> alphabet_;          // stored var ids, strictly ascending
  size_t rows_ = 0;
  size_t stride_words_ = 0;
  const uint8_t* row_bytes_ = nullptr;

  // KBMETA fields needed by Materialize.
  uint32_t operator_id_ = 0;
  uint32_t strategy_ = 0;
  std::vector<uint32_t> initial_roots_;
  std::vector<uint32_t> update_roots_;
  std::vector<uint32_t> folded_theory_roots_;
  uint32_t folded_root_ = 0;
};

}  // namespace revise::artifact

#endif  // REVISE_ARTIFACT_KB_IMAGE_H_
