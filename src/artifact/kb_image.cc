#include "artifact/kb_image.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <span>
#include <utility>

#include "artifact/checksum.h"
#include "kernel/packed_matrix.h"
#include "kernel/simd.h"
#include "obs/metrics.h"

namespace revise::artifact {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

// --- formula node table ------------------------------------------------
//
// Nodes are emitted children-first, so every child reference is a smaller
// index.  Two tables deduplicate: by node identity (cheap, catches shared
// DAG nodes) and by structure (catches equal subtrees allocated apart),
// so the table is a true structural DAG regardless of how the formulas
// were built.  Neither allocates per node.  A node's structural key (its
// kind, then its payload or its children's indices) is built on one reused
// stack, each child pushing its index as it returns; emitted keys are kept
// in one arena, and both tables are open-addressed arrays (linear probing,
// at most half full) of node indices.

inline constexpr uint32_t kNoNode = ~uint32_t{0};

// The splitmix64 finalizer: spreads every input bit over the low bits
// that pick a slot.
uint64_t Mix(uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

uint64_t HashKey(std::span<const uint32_t> key) {
  uint64_t h = key.size();
  for (uint32_t word : key) {
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  }
  return Mix(h);
}

class FormulaEncoder {
 public:
  uint32_t Add(const Formula& f) {
    if (uint32_t known = FindId(f.id()); known != kNoNode) {
      return known;
    }
    const size_t base = stack_.size();
    stack_.push_back(static_cast<uint32_t>(f.kind()));
    switch (f.kind()) {
      case Connective::kConst:
        stack_.push_back(f.const_value() ? 1 : 0);
        break;
      case Connective::kVar:
        stack_.push_back(f.var());
        break;
      default:
        for (const Formula& child : f.children()) {
          const uint32_t index = Add(child);
          stack_.push_back(index);
        }
        break;
    }
    const uint32_t index = Intern(
        std::span<const uint32_t>(stack_).subspan(base));
    stack_.resize(base);
    InsertId(f.id(), index);
    return index;
  }

  std::vector<uint8_t> Finish() && {
    ByteWriter payload;
    payload.U32(count());
    std::vector<uint8_t> body = std::move(body_).Take();
    payload.Bytes(body.data(), body.size());
    return std::move(payload).Take();
  }

 private:
  struct IdSlot {
    const void* id = nullptr;
    uint32_t index = kNoNode;
  };

  uint32_t count() const { return static_cast<uint32_t>(hashes_.size()); }

  std::span<const uint32_t> KeyOf(uint32_t node) const {
    return std::span<const uint32_t>(keys_).subspan(
        key_begin_[node], key_begin_[node + 1] - key_begin_[node]);
  }

  static uint64_t HashId(const void* id) {
    return Mix(reinterpret_cast<uintptr_t>(id));
  }

  uint32_t FindId(const void* id) const {
    const size_t mask = ids_.size() - 1;
    for (size_t slot = HashId(id) & mask;; slot = (slot + 1) & mask) {
      if (ids_[slot].id == id) return ids_[slot].index;
      if (ids_[slot].id == nullptr) return kNoNode;
    }
  }

  void InsertId(const void* id, uint32_t index) {
    if (2 * (id_count_ + 1) > ids_.size()) {
      std::vector<IdSlot> old(2 * ids_.size());
      old.swap(ids_);
      for (const IdSlot& entry : old) {
        if (entry.id != nullptr) PlaceId(entry);
      }
    }
    PlaceId({id, index});
    ++id_count_;
  }

  void PlaceId(const IdSlot& entry) {
    const size_t mask = ids_.size() - 1;
    size_t slot = HashId(entry.id) & mask;
    while (ids_[slot].id != nullptr) slot = (slot + 1) & mask;
    ids_[slot] = entry;
  }

  // The index of the node with this key, emitting it first if new.
  uint32_t Intern(std::span<const uint32_t> key) {
    const uint64_t hash = HashKey(key);
    size_t mask = by_structure_.size() - 1;
    size_t slot = hash & mask;
    for (; by_structure_[slot] != kNoNode; slot = (slot + 1) & mask) {
      const uint32_t node = by_structure_[slot];
      if (hashes_[node] == hash && std::ranges::equal(KeyOf(node), key)) {
        return node;
      }
    }
    const uint32_t index = count();
    hashes_.push_back(hash);
    keys_.insert(keys_.end(), key.begin(), key.end());
    key_begin_.push_back(static_cast<uint32_t>(keys_.size()));
    EmitNode(key);
    by_structure_[slot] = index;
    if (2 * count() > by_structure_.size()) {
      std::vector<uint32_t> grown(2 * by_structure_.size(), kNoNode);
      mask = grown.size() - 1;
      for (uint32_t node = 0; node < count(); ++node) {
        size_t s = hashes_[node] & mask;
        while (grown[s] != kNoNode) s = (s + 1) & mask;
        grown[s] = node;
      }
      by_structure_.swap(grown);
    }
    return index;
  }

  void EmitNode(std::span<const uint32_t> key) {
    body_.U8(static_cast<uint8_t>(key[0]));
    switch (static_cast<Connective>(key[0])) {
      case Connective::kConst:
        body_.U8(static_cast<uint8_t>(key[1]));
        break;
      case Connective::kVar:
        body_.U32(key[1]);
        break;
      default:
        body_.U32(static_cast<uint32_t>(key.size() - 1));
        for (uint32_t child : key.subspan(1)) {
          body_.U32(child);
        }
        break;
    }
  }

  ByteWriter body_;
  std::vector<uint32_t> stack_;
  // Emitted node i: its key's hash hashes_[i] and its key, which spans
  // keys_[key_begin_[i], key_begin_[i + 1]).
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> key_begin_ = {0};
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> by_structure_ = std::vector<uint32_t>(64, kNoNode);
  std::vector<IdSlot> ids_ = std::vector<IdSlot>(64);
  size_t id_count_ = 0;
};

// Decodes the node table, rebuilding each node through the public
// factories with variables remapped.  Stored nodes are factory-normal
// (flattened, constant-folded), and the factories are idempotent on
// normal forms, so the rebuilt formulas are structurally identical to
// what was saved.
Status DecodeFormulas(ByteReader reader, const std::vector<Var>& remap,
                      std::vector<Formula>* nodes) {
  uint32_t count = reader.U32();
  if (!reader.ok() || count > reader.remaining()) {
    return InvalidArgumentError("artifact formula table header corrupt");
  }
  nodes->clear();
  nodes->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t kind = reader.U8();
    switch (static_cast<Connective>(kind)) {
      case Connective::kConst:
        nodes->push_back(Formula::Constant(reader.U8() != 0));
        break;
      case Connective::kVar: {
        uint32_t var = reader.U32();
        if (!reader.ok() || var >= remap.size()) {
          return InvalidArgumentError("artifact formula variable id " +
                                      std::to_string(var) + " out of range");
        }
        nodes->push_back(Formula::Variable(remap[var]));
        break;
      }
      case Connective::kNot:
      case Connective::kAnd:
      case Connective::kOr:
      case Connective::kImplies:
      case Connective::kIff:
      case Connective::kXor: {
        uint32_t arity = reader.U32();
        if (!reader.ok() || arity > reader.remaining() / 4 + 1) {
          return InvalidArgumentError("artifact formula arity corrupt");
        }
        std::vector<Formula> children;
        children.reserve(arity);
        for (uint32_t c = 0; c < arity; ++c) {
          uint32_t child = reader.U32();
          if (!reader.ok() || child >= i) {
            return InvalidArgumentError(
                "artifact formula child reference out of order");
          }
          children.push_back((*nodes)[child]);
        }
        switch (static_cast<Connective>(kind)) {
          case Connective::kNot:
            if (arity != 1) {
              return InvalidArgumentError("artifact NOT node arity != 1");
            }
            nodes->push_back(Formula::Not(children[0]));
            break;
          case Connective::kAnd:
            nodes->push_back(Formula::And(children));
            break;
          case Connective::kOr:
            nodes->push_back(Formula::Or(children));
            break;
          default:
            if (arity != 2) {
              return InvalidArgumentError(
                  "artifact binary connective arity != 2");
            }
            if (static_cast<Connective>(kind) == Connective::kImplies) {
              nodes->push_back(Formula::Implies(children[0], children[1]));
            } else if (static_cast<Connective>(kind) == Connective::kIff) {
              nodes->push_back(Formula::Iff(children[0], children[1]));
            } else {
              nodes->push_back(Formula::Xor(children[0], children[1]));
            }
            break;
        }
        break;
      }
      default:
        return InvalidArgumentError("artifact formula kind " +
                                    std::to_string(kind) + " unknown");
    }
  }
  if (!reader.AtEnd()) {
    return InvalidArgumentError("artifact formula table has trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

std::string_view StrategyName(uint32_t strategy) {
  switch (strategy) {
    case kStrategyDelayed:
      return "delayed";
    case kStrategyExplicit:
      return "explicit";
    case kStrategyCompact:
      return "compact";
    default:
      return "unknown";
  }
}

Status WriteKbArtifact(const KbImage& image, const Vocabulary& vocabulary,
                       const std::string& path) {
  Clock::time_point start = Clock::now();
  ArtifactWriter writer;

  // VOCAB: every interned name in id order, so load can rebuild the
  // old-id -> new-id remap (and Fresh() keeps skipping taken names).
  {
    ByteWriter payload;
    payload.U32(static_cast<uint32_t>(vocabulary.size()));
    for (Var var = 0; var < vocabulary.size(); ++var) {
      payload.String(vocabulary.Name(var));
    }
    writer.AddSection(SectionId::kVocabulary, std::move(payload).Take());
  }

  // FORMULAS + the root indices for KBMETA.
  FormulaEncoder formulas;
  std::vector<uint32_t> initial_roots;
  for (const Formula& f : image.initial) {
    initial_roots.push_back(formulas.Add(f));
  }
  std::vector<uint32_t> update_roots;
  for (const Formula& f : image.updates) {
    update_roots.push_back(formulas.Add(f));
  }
  uint32_t folded_root = formulas.Add(image.folded);
  std::vector<uint32_t> folded_theory_roots;
  for (const Formula& f : image.folded_theory) {
    folded_theory_roots.push_back(formulas.Add(f));
  }
  writer.AddSection(SectionId::kFormulas, std::move(formulas).Finish());

  // MODELMETA + MODELROWS: the canonical model set in PackedModelMatrix
  // row layout, 64-byte aligned in the file for in-place reads.
  const Alphabet& alphabet = image.models.alphabet();
  kernel::PackedModelMatrix matrix = kernel::PackedModelMatrix::FromModels(
      alphabet.size(), image.models.models());
  {
    ByteWriter payload;
    payload.U32(static_cast<uint32_t>(alphabet.size()));
    for (Var var : alphabet.vars()) {
      payload.U32(var);
    }
    payload.U64(matrix.rows());
    payload.U64(matrix.row_stride());
    writer.AddSection(SectionId::kModelMeta, std::move(payload).Take());
  }
  {
    ByteWriter payload;
    for (size_t r = 0; r < matrix.rows(); ++r) {
      const uint64_t* row = matrix.row(r);
      for (size_t w = 0; w < matrix.row_stride(); ++w) {
        payload.U64(row[w]);
      }
    }
    writer.AddSection(SectionId::kModelRows, std::move(payload).Take());
  }

  // KBMETA: operator, strategy, and the formula roots.
  {
    ByteWriter payload;
    payload.U32(static_cast<uint32_t>(image.operator_id));
    payload.U32(image.strategy);
    payload.U32(0);  // flags, reserved
    payload.U64(matrix.rows());
    payload.U32(static_cast<uint32_t>(initial_roots.size()));
    for (uint32_t root : initial_roots) {
      payload.U32(root);
    }
    payload.U32(static_cast<uint32_t>(update_roots.size()));
    for (uint32_t root : update_roots) {
      payload.U32(root);
    }
    payload.U32(folded_root);
    payload.U32(static_cast<uint32_t>(folded_theory_roots.size()));
    for (uint32_t root : folded_theory_roots) {
      payload.U32(root);
    }
    writer.AddSection(SectionId::kKbMeta, std::move(payload).Take());
  }

  Status written = writer.WriteToFile(path);
  if (!written.ok()) {
    return written;
  }
  REVISE_OBS_COUNTER("artifact.compiles").Increment();
  REVISE_OBS_HISTOGRAM("artifact.compile_us").Record(ElapsedUs(start));
  return Status::Ok();
}

StatusOr<KbArtifact> KbArtifact::Open(const std::string& path) {
  StatusOr<ArtifactFile> file = ArtifactFile::Open(path);
  if (!file.ok()) {
    return file.status();
  }
  KbArtifact artifact;
  artifact.file_ = std::move(*file);
  Status decoded = artifact.DecodeMeta();
  if (!decoded.ok()) {
    return decoded;
  }
  return artifact;
}

Status KbArtifact::DecodeMeta() {
  for (const ArtifactFile::Section& section : file_.sections()) {
    info_.sections.push_back({std::string(SectionIdName(section.id)),
                              section.offset, section.size, section.crc});
  }
  info_.format_version = file_.format_version();
  info_.file_size = file_.file_size();
  info_.file_crc = file_.file_crc();

  const ArtifactFile::Section* vocab = file_.Find(SectionId::kVocabulary);
  const ArtifactFile::Section* formulas = file_.Find(SectionId::kFormulas);
  const ArtifactFile::Section* model_meta = file_.Find(SectionId::kModelMeta);
  const ArtifactFile::Section* model_rows = file_.Find(SectionId::kModelRows);
  const ArtifactFile::Section* kb_meta = file_.Find(SectionId::kKbMeta);
  if (vocab == nullptr || formulas == nullptr || model_meta == nullptr ||
      model_rows == nullptr || kb_meta == nullptr) {
    return InvalidArgumentError(
        "artifact is missing a required section (not a compiled KB?)");
  }

  // VOCAB.
  {
    ByteReader reader(file_.SectionData(*vocab), vocab->size);
    uint32_t count = reader.U32();
    if (!reader.ok() || count > reader.remaining()) {
      return InvalidArgumentError("artifact vocabulary header corrupt");
    }
    names_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string name;
      if (!reader.String(&name)) {
        return InvalidArgumentError("artifact vocabulary truncated");
      }
      names_.push_back(std::move(name));
    }
    if (!reader.AtEnd()) {
      return InvalidArgumentError("artifact vocabulary has trailing bytes");
    }
  }
  info_.vocabulary_size = names_.size();

  // FORMULAS header only; the body is decoded in Materialize.
  uint32_t formula_count = 0;
  {
    ByteReader reader(file_.SectionData(*formulas), formulas->size);
    formula_count = reader.U32();
    if (!reader.ok()) {
      return InvalidArgumentError("artifact formula table truncated");
    }
  }
  info_.formula_nodes = formula_count;

  // MODELMETA.
  {
    ByteReader reader(file_.SectionData(*model_meta), model_meta->size);
    uint32_t bits = reader.U32();
    if (!reader.ok() || bits > reader.remaining() / 4) {
      return InvalidArgumentError("artifact model alphabet corrupt");
    }
    alphabet_.reserve(bits);
    for (uint32_t i = 0; i < bits; ++i) {
      uint32_t var = reader.U32();
      if (var >= names_.size() ||
          (!alphabet_.empty() && var <= alphabet_.back())) {
        return InvalidArgumentError(
            "artifact model alphabet not strictly ascending / out of range");
      }
      alphabet_.push_back(var);
    }
    rows_ = reader.U64();
    stride_words_ = reader.U64();
    if (!reader.ok() || !reader.AtEnd()) {
      return InvalidArgumentError("artifact model metadata corrupt");
    }
    // The stride is the writer's PackedModelMatrix row stride: the used
    // words rounded up to whole SIMD blocks, at least one block — also
    // for rows == 0, where the rows section itself is empty.
    const size_t words_used = (alphabet_.size() + 63) / 64;
    const size_t expected_stride =
        std::max<size_t>(1, (words_used + kernel::kWordsPerBlock - 1) /
                                kernel::kWordsPerBlock) *
        kernel::kWordsPerBlock;
    if (stride_words_ != expected_stride) {
      return InvalidArgumentError("artifact model row stride corrupt");
    }
    if (rows_ * stride_words_ * 8 != model_rows->size) {
      return InvalidArgumentError(
          "artifact model rows section size does not match its metadata");
    }
    row_bytes_ = file_.SectionData(*model_rows);
  }
  info_.alphabet_size = alphabet_.size();
  info_.model_count = rows_;

  // Canonicity + padding: rows strictly increasing, tail bits zero.  This
  // means ModelRow can hand words straight to Interpretation::FromWords.
  {
    const size_t bits = alphabet_.size();
    const size_t words_used = (bits + 63) / 64;
    for (size_t r = 0; r < rows_; ++r) {
      for (size_t w = words_used; w < stride_words_; ++w) {
        if (RowWord(r, w) != 0) {
          return InvalidArgumentError("artifact model row padding not zero");
        }
      }
      if (bits % 64 != 0 && words_used > 0 &&
          (RowWord(r, words_used - 1) >> (bits % 64)) != 0) {
        return InvalidArgumentError("artifact model row tail bits not zero");
      }
      if (r > 0 && !(ModelRow(r - 1) < ModelRow(r))) {
        return InvalidArgumentError(
            "artifact model rows not in canonical order");
      }
    }
  }

  // KBMETA.
  {
    ByteReader reader(file_.SectionData(*kb_meta), kb_meta->size);
    operator_id_ = reader.U32();
    strategy_ = reader.U32();
    reader.U32();  // flags, reserved
    uint64_t model_count = reader.U64();
    if (!reader.ok() || model_count != rows_) {
      return InvalidArgumentError(
          "artifact kb metadata model count mismatch");
    }
    if (operator_id_ > static_cast<uint32_t>(OperatorId::kWeber)) {
      return InvalidArgumentError("artifact operator id " +
                                  std::to_string(operator_id_) +
                                  " unknown");
    }
    if (StrategyName(strategy_) == "unknown") {
      return InvalidArgumentError("artifact strategy " +
                                  std::to_string(strategy_) + " unknown");
    }
    auto ReadRoots = [&](std::vector<uint32_t>* roots) -> bool {
      uint32_t count = reader.U32();
      if (!reader.ok() || count > reader.remaining() / 4) {
        return false;
      }
      roots->reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t root = reader.U32();
        if (root >= formula_count) {
          return false;
        }
        roots->push_back(root);
      }
      return reader.ok();
    };
    if (!ReadRoots(&initial_roots_) || !ReadRoots(&update_roots_)) {
      return InvalidArgumentError("artifact kb metadata roots corrupt");
    }
    folded_root_ = reader.U32();
    if (!reader.ok() || folded_root_ >= formula_count) {
      return InvalidArgumentError("artifact folded root out of range");
    }
    if (!ReadRoots(&folded_theory_roots_) || !reader.AtEnd()) {
      return InvalidArgumentError("artifact kb metadata roots corrupt");
    }
  }
  info_.update_count = update_roots_.size();
  info_.operator_name = std::string(
      OperatorById(static_cast<OperatorId>(operator_id_))->name());
  info_.strategy_name = std::string(StrategyName(strategy_));
  return Status::Ok();
}

uint64_t KbArtifact::RowWord(size_t row, size_t word) const {
  const uint8_t* at = row_bytes_ + (row * stride_words_ + word) * 8;
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(at[i]) << (8 * i);
  }
  return value;
}

bool KbArtifact::RowBit(size_t row, size_t bit) const {
  // Bytewise in-place peek: independent of host endianness and section
  // alignment (little-endian words make byte b hold bits 8b..8b+7).
  const uint8_t byte = row_bytes_[row * stride_words_ * 8 + bit / 8];
  return (byte >> (bit % 8)) & 1;
}

Interpretation KbArtifact::ModelRow(size_t row) const {
  const size_t bits = alphabet_.size();
  const uint8_t* at = row_bytes_ + row * stride_words_ * 8;
  if constexpr (std::endian::native == std::endian::little) {
    if (reinterpret_cast<uintptr_t>(at) % alignof(uint64_t) == 0) {
      // Zero-parse fast path: the packed words are the file bytes.
      REVISE_OBS_COUNTER("artifact.rows_inplace").Increment();
      return Interpretation::FromWords(
          bits, reinterpret_cast<const uint64_t*>(at));
    }
  }
  REVISE_OBS_COUNTER("artifact.rows_streamed").Increment();
  const size_t words_used = (bits + 63) / 64;
  std::vector<uint64_t> words(words_used);
  for (size_t w = 0; w < words_used; ++w) {
    words[w] = RowWord(row, w);
  }
  return Interpretation::FromWords(bits, words.data());
}

StatusOr<KbImage> KbArtifact::Materialize(Vocabulary* vocabulary) const {
  Clock::time_point start = Clock::now();
  std::vector<Var> remap;
  remap.reserve(names_.size());
  for (const std::string& name : names_) {
    remap.push_back(vocabulary->Intern(name));
  }

  const ArtifactFile::Section* formulas = file_.Find(SectionId::kFormulas);
  std::vector<Formula> nodes;
  Status decoded = DecodeFormulas(
      ByteReader(file_.SectionData(*formulas), formulas->size), remap,
      &nodes);
  if (!decoded.ok()) {
    return decoded;
  }

  KbImage image;
  image.operator_id = static_cast<OperatorId>(operator_id_);
  image.strategy = strategy_;
  std::vector<Formula> initial;
  for (uint32_t root : initial_roots_) {
    initial.push_back(nodes[root]);
  }
  image.initial = Theory(std::move(initial));
  for (uint32_t root : update_roots_) {
    image.updates.push_back(nodes[root]);
  }
  image.folded = nodes[folded_root_];
  std::vector<Formula> folded_theory;
  for (uint32_t root : folded_theory_roots_) {
    folded_theory.push_back(nodes[root]);
  }
  image.folded_theory = Theory(std::move(folded_theory));

  // Models: remap the alphabet; when the remap preserves the stored
  // order (always when loading into a fresh vocabulary) rows transfer
  // words-at-a-time, otherwise bits are permuted one by one.
  std::vector<Var> new_vars;
  new_vars.reserve(alphabet_.size());
  bool order_preserved = true;
  for (size_t i = 0; i < alphabet_.size(); ++i) {
    new_vars.push_back(remap[alphabet_[i]]);
    if (i > 0 && new_vars[i] <= new_vars[i - 1]) {
      order_preserved = false;
    }
  }
  Alphabet alphabet(new_vars);
  std::vector<Interpretation> models;
  models.reserve(rows_);
  if (order_preserved) {
    for (size_t r = 0; r < rows_; ++r) {
      models.push_back(ModelRow(r));
    }
  } else {
    for (size_t r = 0; r < rows_; ++r) {
      Interpretation m(alphabet.size());
      for (size_t bit = 0; bit < alphabet_.size(); ++bit) {
        if (RowBit(r, bit)) {
          m.Set(*alphabet.IndexOf(new_vars[bit]), true);
        }
      }
      models.push_back(std::move(m));
    }
  }
  image.models = ModelSet(alphabet, std::move(models));

  REVISE_OBS_HISTOGRAM("artifact.materialize_us").Record(ElapsedUs(start));
  return image;
}

}  // namespace revise::artifact
