// The .rkb artifact container: a versioned little-endian binary file
// holding a compiled knowledge base (kb_image.h gives the sections their
// meaning; this header only knows about bytes).
//
// Layout (all integers little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     8  magic "RKB!\r\n\x1a\n" (the PNG trick: the CRLF / ^Z
//                 bytes catch text-mode and truncating transports)
//        8     4  format version (kFormatVersion)
//       12     4  section count
//       16     8  file size in bytes
//       24     8  CRC-64/XZ of the whole file, computed with these eight
//                 bytes zeroed
//       32    32  reserved (zero)
//       64   32n  section table: n entries of
//                   u32 id, u32 reserved, u64 offset, u64 size, u64 crc
//    .....        section payloads, each starting on a 64-byte boundary
//                 (zero padding between), so packed 64-bit model rows can
//                 be read in place
//
// The loader validates magic, declared size, the whole-file checksum, the
// format version, section-table bounds and every per-section checksum
// before handing out a single payload byte; a flipped byte anywhere is a
// load error, never a decoded value.  The header layout (magic, version,
// size, crc offsets) is frozen across format versions so that version
// mismatches are always reported cleanly.
//
// A read loads the whole file into one owned buffer (util/file.h) and
// validates it there; payloads are handed out as pointers into that
// buffer.

#ifndef REVISE_ARTIFACT_ARTIFACT_H_
#define REVISE_ARTIFACT_ARTIFACT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace revise::artifact {

inline constexpr uint32_t kFormatVersion = 2;
inline constexpr size_t kMagicSize = 8;
inline constexpr size_t kHeaderSize = 64;
inline constexpr size_t kSectionEntrySize = 32;
inline constexpr size_t kSectionAlignment = 64;
inline constexpr size_t kMaxSections = 1024;
// Offsets of the frozen header fields (see layout above).
inline constexpr size_t kVersionOffset = 8;
inline constexpr size_t kFileCrcOffset = 24;

extern const std::array<uint8_t, kMagicSize> kMagic;

enum class SectionId : uint32_t {
  kVocabulary = 1,  // interned names, id order
  kFormulas = 2,    // structurally deduplicated formula node table
  kModelMeta = 3,   // alphabet + packed-row geometry
  kModelRows = 4,   // raw PackedModelMatrix rows, read in place
  // 5 held the version-1 BDD section; it stays unused.
  kKbMeta = 6,      // operator, strategy, formula roots
};

// "vocabulary", "formulas", ... ("unknown" for ids not in the enum).
std::string_view SectionIdName(SectionId id);

// Append-only little-endian encoder for section payloads.
class ByteWriter {
 public:
  void U8(uint8_t value) { out_.push_back(value); }
  void U32(uint32_t value);
  void U64(uint64_t value);
  void Bytes(const void* data, size_t size);
  // u32 length + raw bytes.
  void String(std::string_view s);

  size_t size() const { return out_.size(); }
  std::vector<uint8_t> Take() && { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

// Bounds-checked little-endian cursor over a section payload.  Overruns
// set a sticky failure flag and make every further read return zero, so
// decoders can read a whole record and check ok() once.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  // Reads a u32 length + bytes; fails (returning false) on overrun.
  bool String(std::string* out);

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return ok_ && pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Assembles and writes an artifact: add section payloads in any order,
// then WriteToFile (or Assemble for an in-memory image).
class ArtifactWriter {
 public:
  void AddSection(SectionId id, std::vector<uint8_t> payload);

  // The complete file image, checksums filled in.
  std::vector<uint8_t> Assemble() const;

  // Assemble + atomic write: the image goes to `path` + ".tmp", which is
  // flushed, checked and then renamed over `path`.  A short write (e.g. a
  // full disk) is an error, not an Ok, and any failure leaves the file
  // previously at `path` untouched.
  Status WriteToFile(const std::string& path) const;

 private:
  struct Pending {
    SectionId id;
    std::vector<uint8_t> payload;
  };
  std::vector<Pending> sections_;
};

// A validated, opened artifact.  Owns the file's bytes; hands out
// borrowed pointers into them, which stay valid when the ArtifactFile is
// moved.  Move-only.
class ArtifactFile {
 public:
  struct Section {
    SectionId id;
    size_t offset;
    size_t size;
    uint64_t crc;
  };

  // An empty placeholder (no sections); real instances come from Open /
  // FromBytes.  Exists so owners can default-construct and move-assign.
  ArtifactFile() = default;

  // Reads the whole file, then validates it as FromBytes does.  A path
  // that cannot be read (missing, a directory, a FIFO, an I/O error) is
  // reported as util::ReadFileBytes reports it; every corrupt-file error
  // is InvalidArgument with a message naming the failed check.
  static StatusOr<ArtifactFile> Open(const std::string& path);
  // Validates an in-memory image (checksums included).
  static StatusOr<ArtifactFile> FromBytes(std::vector<uint8_t> bytes);

  ArtifactFile(ArtifactFile&&) noexcept = default;
  ArtifactFile& operator=(ArtifactFile&&) noexcept = default;
  ArtifactFile(const ArtifactFile&) = delete;
  ArtifactFile& operator=(const ArtifactFile&) = delete;

  uint32_t format_version() const { return version_; }
  size_t file_size() const { return bytes_.size(); }
  uint64_t file_crc() const { return crc_; }

  const std::vector<Section>& sections() const { return sections_; }
  const Section* Find(SectionId id) const;
  const uint8_t* SectionData(const Section& section) const {
    return bytes_.data() + section.offset;
  }

 private:
  Status Validate();

  std::vector<uint8_t> bytes_;
  std::vector<Section> sections_;
  uint32_t version_ = 0;
  uint64_t crc_ = 0;
};

}  // namespace revise::artifact

#endif  // REVISE_ARTIFACT_ARTIFACT_H_
