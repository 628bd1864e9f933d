#include "artifact/artifact.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "artifact/checksum.h"
#include "obs/metrics.h"
#include "util/file.h"

namespace revise::artifact {

const std::array<uint8_t, kMagicSize> kMagic = {'R',  'K',  'B',  '!',
                                                0x0d, 0x0a, 0x1a, 0x0a};

namespace {

void StoreU32(uint8_t* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

void StoreU64(uint8_t* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

uint32_t LoadU32(const uint8_t* in) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(in[i]) << (8 * i);
  }
  return value;
}

uint64_t LoadU64(const uint8_t* in) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

size_t AlignUp(size_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

// CRC-64 of the full image with the file-crc field read as zero.
uint64_t FileCrc(const uint8_t* data, size_t size) {
  static const uint8_t kZeros[8] = {0};
  uint64_t state = Crc64Init();
  state = Crc64Update(state, data, kFileCrcOffset);
  state = Crc64Update(state, kZeros, sizeof(kZeros));
  state = Crc64Update(state, data + kFileCrcOffset + 8,
                      size - kFileCrcOffset - 8);
  return Crc64Final(state);
}

}  // namespace

std::string_view SectionIdName(SectionId id) {
  switch (id) {
    case SectionId::kVocabulary:
      return "vocabulary";
    case SectionId::kFormulas:
      return "formulas";
    case SectionId::kModelMeta:
      return "model_meta";
    case SectionId::kModelRows:
      return "model_rows";
    case SectionId::kKbMeta:
      return "kb_meta";
  }
  return "unknown";
}

void ByteWriter::U32(uint32_t value) {
  size_t at = out_.size();
  out_.resize(at + 4);
  StoreU32(out_.data() + at, value);
}

void ByteWriter::U64(uint64_t value) {
  size_t at = out_.size();
  out_.resize(at + 8);
  StoreU64(out_.data() + at, value);
}

void ByteWriter::Bytes(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  out_.insert(out_.end(), bytes, bytes + size);
}

void ByteWriter::String(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  Bytes(s.data(), s.size());
}

uint8_t ByteReader::U8() {
  if (!ok_ || size_ - pos_ < 1) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

uint32_t ByteReader::U32() {
  if (!ok_ || size_ - pos_ < 4) {
    ok_ = false;
    return 0;
  }
  uint32_t value = LoadU32(data_ + pos_);
  pos_ += 4;
  return value;
}

uint64_t ByteReader::U64() {
  if (!ok_ || size_ - pos_ < 8) {
    ok_ = false;
    return 0;
  }
  uint64_t value = LoadU64(data_ + pos_);
  pos_ += 8;
  return value;
}

bool ByteReader::String(std::string* out) {
  uint32_t length = U32();
  if (!ok_ || size_ - pos_ < length) {
    ok_ = false;
    return false;
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_), length);
  pos_ += length;
  return true;
}

void ArtifactWriter::AddSection(SectionId id, std::vector<uint8_t> payload) {
  sections_.push_back({id, std::move(payload)});
}

std::vector<uint8_t> ArtifactWriter::Assemble() const {
  const size_t table_size = sections_.size() * kSectionEntrySize;
  size_t offset = AlignUp(kHeaderSize + table_size);
  std::vector<size_t> offsets;
  offsets.reserve(sections_.size());
  for (const Pending& section : sections_) {
    offsets.push_back(offset);
    offset = AlignUp(offset + section.payload.size());
  }
  // The file ends right after the last payload (no trailing padding).
  size_t total = sections_.empty() ? kHeaderSize + table_size
                                   : offsets.back() + sections_.back()
                                                          .payload.size();

  std::vector<uint8_t> image(total, 0);
  std::memcpy(image.data(), kMagic.data(), kMagicSize);
  StoreU32(image.data() + kVersionOffset, kFormatVersion);
  StoreU32(image.data() + 12, static_cast<uint32_t>(sections_.size()));
  StoreU64(image.data() + 16, total);

  for (size_t i = 0; i < sections_.size(); ++i) {
    const Pending& section = sections_[i];
    uint8_t* entry = image.data() + kHeaderSize + i * kSectionEntrySize;
    StoreU32(entry, static_cast<uint32_t>(section.id));
    StoreU32(entry + 4, 0);
    StoreU64(entry + 8, offsets[i]);
    StoreU64(entry + 16, section.payload.size());
    StoreU64(entry + 24,
             Crc64(section.payload.data(), section.payload.size()));
    std::copy(section.payload.begin(), section.payload.end(),
              image.begin() + static_cast<ptrdiff_t>(offsets[i]));
  }

  StoreU64(image.data() + kFileCrcOffset, FileCrc(image.data(), total));
  return image;
}

Status ArtifactWriter::WriteToFile(const std::string& path) const {
  std::vector<uint8_t> image = Assemble();
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return InternalError("cannot open " + tmp + " for writing");
  }
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  out.flush();
  const bool wrote = out.good();
  out.close();
  Status written = Status::Ok();
  if (!wrote) {
    written = InternalError("short write to " + tmp);
  } else if (out.fail()) {
    written = InternalError("close of " + tmp + " failed");
  } else if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    written = InternalError("cannot rename " + tmp + " to " + path + ": " +
                            std::strerror(errno));
  }
  if (!written.ok()) {
    std::remove(tmp.c_str());
    return written;
  }
  REVISE_OBS_COUNTER("artifact.writes").Increment();
  REVISE_OBS_HISTOGRAM("artifact.write_bytes").Record(image.size());
  return Status::Ok();
}

StatusOr<ArtifactFile> ArtifactFile::Open(const std::string& path) {
  StatusOr<std::vector<uint8_t>> bytes = util::ReadFileBytes(path);
  if (!bytes.ok()) {
    REVISE_OBS_COUNTER("artifact.open_failures").Increment();
    return bytes.status();
  }
  StatusOr<ArtifactFile> file = FromBytes(std::move(bytes).value());
  if (!file.ok()) {
    return file.status();
  }
  REVISE_OBS_COUNTER("artifact.opens").Increment();
  REVISE_OBS_HISTOGRAM("artifact.open_bytes").Record(file->file_size());
  return file;
}

StatusOr<ArtifactFile> ArtifactFile::FromBytes(std::vector<uint8_t> bytes) {
  ArtifactFile file;
  file.bytes_ = std::move(bytes);
  Status valid = file.Validate();
  if (!valid.ok()) {
    REVISE_OBS_COUNTER("artifact.open_failures").Increment();
    return valid;
  }
  return file;
}

Status ArtifactFile::Validate() {
  const uint8_t* data = bytes_.data();
  const size_t size = bytes_.size();
  if (size < kHeaderSize) {
    return InvalidArgumentError("artifact truncated: " +
                                std::to_string(size) +
                                " bytes is smaller than the header");
  }
  if (std::memcmp(data, kMagic.data(), kMagicSize) != 0) {
    return InvalidArgumentError("bad magic: not a .rkb artifact");
  }
  uint64_t declared_size = LoadU64(data + 16);
  if (declared_size != size) {
    return InvalidArgumentError(
        "artifact size mismatch: header declares " +
        std::to_string(declared_size) + " bytes, file has " +
        std::to_string(size));
  }
  // Whole-file checksum before anything else is trusted: any flipped
  // byte from here on is caught as a checksum error.
  crc_ = LoadU64(data + kFileCrcOffset);
  uint64_t actual_crc = FileCrc(data, size);
  if (crc_ != actual_crc) {
    REVISE_OBS_COUNTER("artifact.checksum_failures").Increment();
    return InvalidArgumentError("artifact checksum mismatch (file CRC-64)");
  }
  version_ = LoadU32(data + kVersionOffset);
  if (version_ != kFormatVersion) {
    return InvalidArgumentError(
        "unsupported artifact format version " + std::to_string(version_) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        ")");
  }
  uint32_t count = LoadU32(data + 12);
  if (count > kMaxSections) {
    return InvalidArgumentError("artifact section count " +
                                std::to_string(count) + " out of range");
  }
  size_t table_end = kHeaderSize + size_t{count} * kSectionEntrySize;
  if (table_end > size) {
    return InvalidArgumentError("artifact section table truncated");
  }
  sections_.clear();
  sections_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* entry = data + kHeaderSize + i * kSectionEntrySize;
    Section section;
    section.id = static_cast<SectionId>(LoadU32(entry));
    section.offset = LoadU64(entry + 8);
    section.size = LoadU64(entry + 16);
    section.crc = LoadU64(entry + 24);
    if (section.offset % kSectionAlignment != 0 ||
        section.offset < table_end || section.offset > size ||
        section.size > size - section.offset) {
      return InvalidArgumentError(
          "artifact section " + std::string(SectionIdName(section.id)) +
          " out of bounds");
    }
    for (const Section& before : sections_) {
      if (before.id == section.id) {
        return InvalidArgumentError(
            "duplicate artifact section " +
            std::string(SectionIdName(section.id)));
      }
    }
    // Redundant with the file CRC, but keeps section-level blame: a
    // mismatch here names the damaged section.
    uint64_t section_crc = Crc64(data + section.offset, section.size);
    if (section_crc != section.crc) {
      REVISE_OBS_COUNTER("artifact.checksum_failures").Increment();
      return InvalidArgumentError(
          "artifact checksum mismatch in section " +
          std::string(SectionIdName(section.id)));
    }
    sections_.push_back(section);
  }
  return Status::Ok();
}

const ArtifactFile::Section* ArtifactFile::Find(SectionId id) const {
  for (const Section& section : sections_) {
    if (section.id == id) {
      return &section;
    }
  }
  return nullptr;
}

}  // namespace revise::artifact
