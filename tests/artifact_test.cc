// Tests for the .rkb artifact subsystem (src/artifact/): the checksum
// primitive, the container round-trip, corruption rejection (bad magic,
// bad version, truncation, arbitrary bit flips), the atomic save,
// knowledge-base round-trips across operators / strategies / fuzz
// scenario shapes and thread counts, encoding independent of node sharing,
// the committed golden canary and the example artifacts' committed CRCs.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "artifact/artifact.h"
#include "artifact/checksum.h"
#include "artifact/kb_image.h"
#include "core/io.h"
#include "core/kb_artifact.h"
#include "core/knowledge_base.h"
#include "fuzz/scenario.h"
#include "logic/parser.h"
#include "solve/model_cache.h"
#include "util/parallel.h"

namespace revise::artifact {
namespace {

std::filesystem::path TempPath(const std::string& stem) {
  return std::filesystem::temp_directory_path() /
         (stem + "_" + std::to_string(::getpid()) + ".rkb");
}

std::vector<uint8_t> ReadAll(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// --- checksum ----------------------------------------------------------

TEST(Crc64Test, KnownCheckValue) {
  // The CRC-64/XZ check value from the catalogue of parametrised CRCs.
  EXPECT_EQ(Crc64("123456789", 9), 0x995dc9bbdf1939faull);
}

TEST(Crc64Test, EmptyAndIncrementalAgree) {
  EXPECT_EQ(Crc64(nullptr, 0), 0u);
  const std::string data = "the size of a revised knowledge base";
  uint64_t state = Crc64Init();
  state = Crc64Update(state, data.data(), 10);
  state = Crc64Update(state, data.data() + 10, data.size() - 10);
  EXPECT_EQ(Crc64Final(state), Crc64(data.data(), data.size()));
}

// The bit-at-a-time definition of CRC-64/XZ's state update, independent
// of the sliced tables.
uint64_t BitwiseCrc64Update(uint64_t state, const uint8_t* bytes,
                            size_t size) {
  for (size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1) ? 0xc96c5795d7870f42ull : 0);
    }
  }
  return state;
}

TEST(Crc64Test, SlicedUpdateMatchesBitwiseReference) {
  std::vector<uint8_t> buffer(64 + 8);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* data = buffer.data() + offset;
    for (size_t size = 0; size <= 64; ++size) {
      const uint64_t want = BitwiseCrc64Update(Crc64Init(), data, size);
      EXPECT_EQ(Crc64Update(Crc64Init(), data, size), want)
          << "offset " << offset << " size " << size;
      // Split at every point: the sliced and tail loops meet mid-stream.
      for (size_t split = 0; split <= size; ++split) {
        const uint64_t state = Crc64Update(Crc64Init(), data, split);
        ASSERT_EQ(Crc64Update(state, data + split, size - split), want)
            << "offset " << offset << " size " << size << " split " << split;
      }
    }
  }
}

TEST(Crc64Test, SensitiveToEveryBit) {
  const std::string data = "abcdefgh";
  const uint64_t reference = Crc64(data.data(), data.size());
  for (size_t i = 0; i < data.size() * 8; ++i) {
    std::string flipped = data;
    flipped[i / 8] = static_cast<char>(flipped[i / 8] ^ (1 << (i % 8)));
    EXPECT_NE(Crc64(flipped.data(), flipped.size()), reference) << i;
  }
}

// --- byte codec --------------------------------------------------------

TEST(ByteCodecTest, RoundTrip) {
  ByteWriter writer;
  writer.U8(0xab);
  writer.U32(0xdeadbeef);
  writer.U64(0x0123456789abcdefull);
  writer.String("letters");
  std::vector<uint8_t> bytes = std::move(writer).Take();

  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.U8(), 0xab);
  EXPECT_EQ(reader.U32(), 0xdeadbeefu);
  EXPECT_EQ(reader.U64(), 0x0123456789abcdefull);
  std::string s;
  EXPECT_TRUE(reader.String(&s));
  EXPECT_EQ(s, "letters");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, OverrunIsSticky) {
  ByteWriter writer;
  writer.U32(7);
  std::vector<uint8_t> bytes = std::move(writer).Take();
  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.U32(), 7u);
  EXPECT_EQ(reader.U64(), 0u);  // overrun
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.U8(), 0u);  // still failed
  EXPECT_FALSE(reader.AtEnd());
}

// --- container ---------------------------------------------------------

std::vector<uint8_t> TwoSectionImage() {
  ArtifactWriter writer;
  writer.AddSection(SectionId::kVocabulary, {1, 2, 3});
  writer.AddSection(SectionId::kKbMeta,
                    std::vector<uint8_t>(100, 0x5a));
  return writer.Assemble();
}

TEST(ArtifactFileTest, AssembleAndReopen) {
  StatusOr<ArtifactFile> file = ArtifactFile::FromBytes(TwoSectionImage());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->format_version(), kFormatVersion);
  ASSERT_EQ(file->sections().size(), 2u);
  const ArtifactFile::Section* vocab =
      file->Find(SectionId::kVocabulary);
  ASSERT_NE(vocab, nullptr);
  EXPECT_EQ(vocab->size, 3u);
  EXPECT_EQ(vocab->offset % kSectionAlignment, 0u);
  const uint8_t* data = file->SectionData(*vocab);
  EXPECT_EQ(data[0], 1);
  EXPECT_EQ(data[2], 3);
  EXPECT_EQ(file->Find(SectionId::kFormulas), nullptr);
}

TEST(ArtifactFileTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes = TwoSectionImage();
  bytes[0] = 'X';
  const StatusOr<ArtifactFile> file =
      ArtifactFile::FromBytes(std::move(bytes));
  ASSERT_FALSE(file.ok());
  EXPECT_NE(file.status().ToString().find("magic"), std::string::npos);
}

// TwoSectionImage() re-stamped as format `version`, checksum recomputed,
// so the only thing wrong with it is the version.
std::vector<uint8_t> TwoSectionImageOfVersion(uint32_t version) {
  std::vector<uint8_t> bytes = TwoSectionImage();
  for (size_t i = 0; i < 4; ++i) {
    bytes[kVersionOffset + i] = static_cast<uint8_t>(version >> (8 * i));
  }
  for (size_t i = 0; i < 8; ++i) bytes[kFileCrcOffset + i] = 0;
  const uint64_t crc = Crc64(bytes.data(), bytes.size());
  for (size_t i = 0; i < 8; ++i) {
    bytes[kFileCrcOffset + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

TEST(ArtifactFileTest, RejectsGenuinelyNewerVersion) {
  // A well-formed file of a future version (checksum recomputed) must be
  // reported as a version problem, not a checksum one: the header layout
  // is frozen exactly so this diagnosis works across versions.
  const StatusOr<ArtifactFile> file =
      ArtifactFile::FromBytes(TwoSectionImageOfVersion(kFormatVersion + 1));
  ASSERT_FALSE(file.ok());
  EXPECT_NE(file.status().ToString().find("version"), std::string::npos);
}

TEST(ArtifactFileTest, RejectsVersionOne) {
  // Version 1 files carried a BDD section that this build no longer
  // reads or writes; they get the version error, not a half-decoded load.
  const StatusOr<ArtifactFile> file =
      ArtifactFile::FromBytes(TwoSectionImageOfVersion(1));
  ASSERT_FALSE(file.ok());
  constexpr std::string_view kWant = "unsupported artifact format version 1";
  const std::string message = file.status().ToString();
  EXPECT_NE(message.find(kWant), std::string::npos) << message;
}

TEST(ArtifactFileTest, FlippedVersionByteIsAChecksumError) {
  std::vector<uint8_t> bytes = TwoSectionImage();
  bytes[kVersionOffset] ^= 0x02;  // flipped in transit, CRC not fixed up
  const StatusOr<ArtifactFile> file =
      ArtifactFile::FromBytes(std::move(bytes));
  ASSERT_FALSE(file.ok());
  EXPECT_NE(file.status().ToString().find("checksum"), std::string::npos);
}

TEST(ArtifactFileTest, RejectsEveryTruncation) {
  const std::vector<uint8_t> bytes = TwoSectionImage();
  for (size_t keep = 0; keep < bytes.size(); keep += 13) {
    StatusOr<ArtifactFile> file = ArtifactFile::FromBytes(
        std::vector<uint8_t>(bytes.begin(), bytes.begin() + keep));
    EXPECT_FALSE(file.ok()) << "accepted a " << keep << "-byte prefix";
  }
}

TEST(ArtifactFileTest, RejectsEverySingleFlippedBit) {
  const std::vector<uint8_t> bytes = TwoSectionImage();
  // Every byte, one flipped bit each (rotating which bit).
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= static_cast<uint8_t>(1u << (i % 8));
    StatusOr<ArtifactFile> file =
        ArtifactFile::FromBytes(std::move(corrupt));
    EXPECT_FALSE(file.ok()) << "accepted a flipped bit in byte " << i;
  }
}

TEST(ArtifactFileTest, RejectsAppendedBytes) {
  std::vector<uint8_t> bytes = TwoSectionImage();
  bytes.push_back(0);
  const StatusOr<ArtifactFile> file =
      ArtifactFile::FromBytes(std::move(bytes));
  EXPECT_FALSE(file.ok());
}

// --- knowledge-base round trips ----------------------------------------

struct RoundTripCase {
  const char* name;
  OperatorId op;
  RevisionStrategy strategy;
};

// Saves kb, reloads it into `vocabulary`, and checks observable
// equivalence: models, alphabet, entailment answers, replayability.
void ExpectRoundTrips(const KnowledgeBase& kb, Vocabulary* vocabulary,
                      const std::vector<Formula>& queries,
                      const std::string& stem) {
  const std::filesystem::path path = TempPath(stem);
  ASSERT_TRUE(SaveKnowledgeBaseArtifact(kb, path.string()).ok());
  StatusOr<KnowledgeBase> loaded =
      LoadKnowledgeBaseArtifact(path.string(), vocabulary);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(&loaded->op(), &kb.op());
  EXPECT_EQ(loaded->strategy(), kb.strategy());
  EXPECT_EQ(loaded->num_revisions(), kb.num_revisions());
  EXPECT_TRUE(loaded->Models() == kb.Models());
  EXPECT_TRUE(loaded->CurrentAlphabet() == kb.CurrentAlphabet());
  EXPECT_TRUE(loaded->folded().StructurallyEqual(kb.folded()));
  for (const Formula& q : queries) {
    EXPECT_EQ(loaded->Ask(q), kb.Ask(q));
  }
}

TEST(KbArtifactTest, RoundTripsAcrossOperatorsAndStrategies) {
  const RoundTripCase cases[] = {
      {"dalal_delayed", OperatorId::kDalal, RevisionStrategy::kDelayed},
      {"weber_delayed", OperatorId::kWeber, RevisionStrategy::kDelayed},
      {"winslett_explicit", OperatorId::kWinslett,
       RevisionStrategy::kExplicit},
      {"borgida_explicit", OperatorId::kBorgida,
       RevisionStrategy::kExplicit},
      {"dalal_compact", OperatorId::kDalal, RevisionStrategy::kCompact},
      {"widtio_explicit", OperatorId::kWidtio,
       RevisionStrategy::kExplicit},
  };
  for (const RoundTripCase& c : cases) {
    SCOPED_TRACE(c.name);
    Vocabulary vocabulary;
    StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
        Theory::ParseOrDie("a -> b; b -> c; a", &vocabulary),
        OperatorById(c.op), c.strategy, &vocabulary);
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb->Revise(ParseOrDie("!c", &vocabulary));
    kb->Revise(ParseOrDie("a | c", &vocabulary));
    const std::vector<Formula> queries = {
        ParseOrDie("a", &vocabulary), ParseOrDie("b | !c", &vocabulary),
        ParseOrDie("a -> !c", &vocabulary)};
    ExpectRoundTrips(*kb, &vocabulary, queries,
                     std::string("kb_roundtrip_") + c.name);
  }
}

TEST(KbArtifactTest, RoundTripsDegenerateModelSets) {
  // An unsatisfiable revision leaves zero models; zero rows must survive
  // the trip.
  Vocabulary vocabulary;
  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      Theory::ParseOrDie("p | q", &vocabulary),
      OperatorById(OperatorId::kDalal), RevisionStrategy::kDelayed,
      &vocabulary);
  ASSERT_TRUE(kb.ok());
  kb->Revise(ParseOrDie("p & !p", &vocabulary));
  EXPECT_EQ(kb->Models().size(), 0u);
  ExpectRoundTrips(*kb, &vocabulary, {ParseOrDie("p", &vocabulary)},
                   "kb_roundtrip_unsat");
}

TEST(KbArtifactTest, RoundTripsNoRevisions) {
  Vocabulary vocabulary;
  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      Theory::ParseOrDie("x0 & (x1 | x2)", &vocabulary),
      OperatorById(OperatorId::kSatoh), RevisionStrategy::kDelayed,
      &vocabulary);
  ASSERT_TRUE(kb.ok());
  ExpectRoundTrips(*kb, &vocabulary, {ParseOrDie("x0", &vocabulary)},
                   "kb_roundtrip_norevisions");
}

TEST(KbArtifactTest, LoadedModelsMemoSkipsRecomputation) {
  // A loaded artifact primes the Models() memo: Models() must answer
  // without touching the (cleared) global enumeration cache.
  Vocabulary vocabulary;
  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      Theory::ParseOrDie("a | b", &vocabulary),
      OperatorById(OperatorId::kDalal), RevisionStrategy::kDelayed,
      &vocabulary);
  ASSERT_TRUE(kb.ok());
  kb->Revise(ParseOrDie("!a", &vocabulary));
  const ModelSet direct = kb->Models();

  const std::filesystem::path path = TempPath("kb_memo");
  ASSERT_TRUE(SaveKnowledgeBaseArtifact(*kb, path.string()).ok());
  Vocabulary fresh;
  StatusOr<KnowledgeBase> loaded =
      LoadKnowledgeBaseArtifact(path.string(), &fresh);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ModelCache::Global().Clear();
  EXPECT_TRUE(loaded->Models() == direct);
  // A further revision is folded into the loaded memo.
  loaded->Revise(ParseOrDie("a | b", &fresh));
  EXPECT_EQ(loaded->Models().size(), 1u);
}

TEST(KbArtifactTest, RejectsAModelSetOverTheWrongLetters) {
  // A well-formed image whose model set is over {a} while the KB's
  // letters are {a, b}: adopted as the memo it would answer Ask(b) from a
  // set that says nothing about b.
  Vocabulary vocabulary;
  const Theory t = Theory::ParseOrDie("a & b", &vocabulary);
  KbImage image;
  image.operator_id = OperatorId::kDalal;
  image.strategy = kStrategyDelayed;
  image.initial = t;
  image.folded = t.AsFormula();
  image.folded_theory = t;
  Interpretation a_true(1);
  a_true.Set(0, true);
  image.models =
      ModelSet(Alphabet({vocabulary.Find("a")}), {std::move(a_true)});
  const std::filesystem::path path = TempPath("kb_wrong_letters");
  ASSERT_TRUE(WriteKbArtifact(image, vocabulary, path.string()).ok());
  Vocabulary fresh;
  StatusOr<KnowledgeBase> loaded =
      LoadKnowledgeBaseArtifact(path.string(), &fresh);
  std::filesystem::remove(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbArtifactTest, StructuralDedupSharesRepeatedSubtrees) {
  Vocabulary vocabulary;
  // The same (a & b) subtree five times, built through separate parses so
  // node identity differs but structure matches.
  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      Theory::ParseOrDie("(a & b) | c; (a & b) | d; (a & b)", &vocabulary),
      OperatorById(OperatorId::kDalal), RevisionStrategy::kDelayed,
      &vocabulary);
  ASSERT_TRUE(kb.ok());
  kb->Revise(ParseOrDie("(a & b) -> !d", &vocabulary));

  const std::filesystem::path path = TempPath("kb_dedup");
  ASSERT_TRUE(SaveKnowledgeBaseArtifact(*kb, path.string()).ok());
  StatusOr<KbArtifact> artifact = KbArtifact::Open(path.string());
  std::filesystem::remove(path);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  // Shared: a, b, c, d, (a&b), !d, plus the four roots' distinct upper
  // nodes — far fewer than the sum of the tree sizes.
  EXPECT_LE(artifact->info().formula_nodes, 10u);
  StatusOr<KbImage> image = artifact->Materialize(&vocabulary);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_TRUE(image->models == kb->Models());
}

// A copy of f with a fresh node for every occurrence of every subformula:
// structurally equal to f, sharing none of its nodes.
Formula Unshared(const Formula& f) {
  std::vector<Formula> children;
  for (const Formula& child : f.children()) {
    children.push_back(Unshared(child));
  }
  switch (f.kind()) {
    case Connective::kConst:
      return f;
    case Connective::kVar:
      return Formula::Variable(f.var());
    case Connective::kNot:
      return Formula::Not(children[0]);
    case Connective::kAnd:
      return Formula::And(children);
    case Connective::kOr:
      return Formula::Or(children);
    case Connective::kImplies:
      return Formula::Implies(children[0], children[1]);
    case Connective::kIff:
      return Formula::Iff(children[0], children[1]);
    case Connective::kXor:
      return Formula::Xor(children[0], children[1]);
  }
  return f;
}

TEST(KbArtifactTest, EncodingDependsOnStructureNotNodeSharing) {
  // An explicit KB's folded DNF shares one literal node per letter and
  // sign; rebuilt with a node per literal occurrence it must save to the
  // same bytes.
  Vocabulary vocabulary;
  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      Theory::ParseOrDie("a | b; b -> c; c -> d; e | !a", &vocabulary),
      OperatorById(OperatorId::kWinslett), RevisionStrategy::kExplicit,
      &vocabulary);
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  kb->Revise(ParseOrDie("!b | !d", &vocabulary));
  kb->Revise(ParseOrDie("a -> c", &vocabulary));
  ASSERT_EQ(kb->folded().kind(), Connective::kOr);

  const Formula unshared = Unshared(kb->folded());
  ASSERT_TRUE(unshared.StructurallyEqual(kb->folded()));
  ASSERT_GT(unshared.DagSize(), kb->folded().DagSize());
  std::vector<Formula> folded_theory;
  for (const Formula& f : kb->folded_theory().formulas()) {
    folded_theory.push_back(Unshared(f));
  }
  StatusOr<KnowledgeBase> copy = KnowledgeBase::FromSnapshot(
      kb->initial(), kb->updates(), unshared, Theory(folded_theory),
      kb->Models(), &kb->op(), kb->strategy(), &vocabulary);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();

  const std::filesystem::path path = TempPath("kb_shared_literals");
  ASSERT_TRUE(SaveKnowledgeBaseArtifact(*kb, path.string()).ok());
  const std::vector<uint8_t> shared_bytes = ReadAll(path);
  ASSERT_TRUE(SaveKnowledgeBaseArtifact(*copy, path.string()).ok());
  const std::vector<uint8_t> unshared_bytes = ReadAll(path);
  std::filesystem::remove(path);
  ASSERT_FALSE(shared_bytes.empty());
  EXPECT_EQ(shared_bytes, unshared_bytes);
}

TEST(KbArtifactTest, FailedSaveKeepsThePreviousFile) {
  // A save writes beside the target and renames over it, so a save that
  // fails must leave the previous artifact byte for byte as it was.
  Vocabulary vocabulary;
  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      Theory::ParseOrDie("a | b; b -> c", &vocabulary),
      OperatorById(OperatorId::kDalal), RevisionStrategy::kDelayed,
      &vocabulary);
  ASSERT_TRUE(kb.ok());
  const std::filesystem::path path = TempPath("kb_atomic");
  const std::filesystem::path tmp = path.string() + ".tmp";
  ASSERT_TRUE(SaveKnowledgeBaseArtifact(*kb, path.string()).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  const std::vector<uint8_t> before = ReadAll(path);
  ASSERT_FALSE(before.empty());

  // A directory where the temporary file goes makes the write fail.
  kb->Revise(ParseOrDie("!b", &vocabulary));
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  const Status failed = SaveKnowledgeBaseArtifact(*kb, path.string());
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(ReadAll(path), before);
  EXPECT_TRUE(std::filesystem::is_directory(tmp));
  std::filesystem::remove(tmp);

  // Once the obstacle is gone the save replaces the file.
  ASSERT_TRUE(SaveKnowledgeBaseArtifact(*kb, path.string()).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_NE(ReadAll(path), before);
  Vocabulary fresh;
  StatusOr<KnowledgeBase> loaded =
      LoadKnowledgeBaseArtifact(path.string(), &fresh);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_revisions(), 1u);
}

TEST(KbArtifactTest, RoundTripsEveryFuzzShapeAtOneAndEightThreads) {
  // Sweep generated scenarios until every generator shape has round
  // tripped, at 1 and at 8 worker threads (the packed row layout must
  // not depend on enumeration parallelism).
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(threads);
    SetParallelThreadsOverride(threads);
    std::set<fuzz::Shape> seen;
    for (uint64_t seed = 1; seed <= 200 && seen.size() < 6; ++seed) {
      const fuzz::Scenario s = fuzz::GenerateScenario(seed);
      if (!seen.insert(s.shape).second) continue;
      SCOPED_TRACE(fuzz::ShapeName(s.shape));
      StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
          s.t, OperatorById(OperatorId::kDalal),
          RevisionStrategy::kDelayed, s.vocabulary.get());
      ASSERT_TRUE(kb.ok()) << kb.status().ToString();
      kb->Revise(s.p);
      ExpectRoundTrips(*kb, s.vocabulary.get(), {s.q},
                       "kb_shape_" + std::to_string(seed));
    }
    EXPECT_EQ(seen.size(), 6u) << "generator no longer covers all shapes";
  }
  SetParallelThreadsOverride(0);
}

TEST(KbArtifactTest, SavedFileSurvivesByteLevelScrutiny) {
  // End-to-end: a saved KB artifact rejects every single flipped bit
  // (sampled) — the oracle property, straight from the public API.
  Vocabulary vocabulary;
  StatusOr<KnowledgeBase> kb = KnowledgeBase::Create(
      Theory::ParseOrDie("a | b; b -> c", &vocabulary),
      OperatorById(OperatorId::kDalal), RevisionStrategy::kDelayed,
      &vocabulary);
  ASSERT_TRUE(kb.ok());
  kb->Revise(ParseOrDie("!b", &vocabulary));
  const std::filesystem::path path = TempPath("kb_scrutiny");
  ASSERT_TRUE(SaveKnowledgeBaseArtifact(*kb, path.string()).ok());
  const std::vector<uint8_t> bytes = ReadAll(path);
  std::filesystem::remove(path);
  ASSERT_FALSE(bytes.empty());
  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= static_cast<uint8_t>(1u << (i % 8));
    EXPECT_FALSE(ArtifactFile::FromBytes(std::move(corrupt)).ok())
        << "byte " << i;
  }
}

// --- golden canary -----------------------------------------------------

#ifdef REVISE_ARTIFACT_GOLDEN_DIR

std::string GoldenPath() {
  return std::string(REVISE_ARTIFACT_GOLDEN_DIR) + "/canary.rkb";
}

TEST(GoldenCanaryTest, CommittedArtifactStillLoads) {
  // The committed canary pins the on-disk format: if an encoder change
  // breaks compatibility, this fails before any user's artifact does.
  StatusOr<KbArtifact> artifact = KbArtifact::Open(GoldenPath());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact->info().format_version, kFormatVersion);
  EXPECT_EQ(artifact->info().operator_name, "Dalal");
  EXPECT_EQ(artifact->info().strategy_name, "delayed");
  EXPECT_EQ(artifact->info().update_count, 1u);
  std::vector<std::string> sections;
  for (const SectionInfo& section : artifact->info().sections) {
    sections.push_back(section.name);
  }
  const std::vector<std::string> expected = {
      "vocabulary", "formulas", "model_meta", "model_rows", "kb_meta"};
  EXPECT_EQ(sections, expected);

  Vocabulary vocabulary;
  StatusOr<KbImage> image = artifact->Materialize(&vocabulary);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  // canary.rkb compiles examples/kb/circuit.theory revised by !l: the
  // lamp is dark, the Dalal-closest explanation keeps s and p.
  Vocabulary loaded;
  StatusOr<KnowledgeBase> kb =
      LoadKnowledgeBaseArtifact(GoldenPath(), &loaded);
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  EXPECT_EQ(kb->Models().size(), 1u);
  // Both vocabularies were empty, so the names intern to the same ids.
  EXPECT_TRUE(kb->Models() == image->models);
  EXPECT_TRUE(kb->Ask(ParseOrDie("!l", &loaded)));
  EXPECT_TRUE(kb->Ask(ParseOrDie("s & p", &loaded)));
}

TEST(GoldenCanaryTest, CorruptedCanaryIsRejected) {
  const std::vector<uint8_t> bytes = ReadAll(GoldenPath());
  ASSERT_FALSE(bytes.empty());
  for (size_t i = 0; i < bytes.size(); i += 11) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= static_cast<uint8_t>(1u << (i % 8));
    EXPECT_FALSE(ArtifactFile::FromBytes(std::move(corrupt)).ok())
        << "byte " << i;
  }
}

// Every byte of the example artifacts, pinned by their whole-file CRCs:
// examples/kb compiled in-process (as `revise_compile compile` does) under
// each operator x strategy pair Create accepts must reproduce
// examples_rkb.crc line for line.
TEST(ExampleArtifactsTest, ExampleKbBytesMatchTheCommittedCrcs) {
  std::map<std::string, uint64_t> committed;
  std::ifstream list(std::string(REVISE_ARTIFACT_GOLDEN_DIR) +
                     "/examples_rkb.crc");
  ASSERT_TRUE(list.is_open());
  std::string line;
  while (std::getline(list, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kb, op, strategy, crc;
    ASSERT_TRUE(fields >> kb >> op >> strategy >> crc) << line;
    committed[kb + " " + op + " " + strategy] = std::stoull(crc, nullptr, 16);
  }

  const std::pair<RevisionStrategy, const char*> strategies[] = {
      {RevisionStrategy::kDelayed, "delayed"},
      {RevisionStrategy::kExplicit, "explicit"},
      {RevisionStrategy::kCompact, "compact"}};
  const std::filesystem::path path = TempPath("kb_examples");
  size_t compiled = 0;
  for (const char* kb : {"circuit", "library", "office"}) {
    const std::string stem = std::string(REVISE_EXAMPLES_KB_DIR) + "/" + kb;
    for (const RevisionOperator* op : AllOperators()) {
      for (const auto& [strategy, strategy_name] : strategies) {
        std::string key = kb;
        key.append(" ").append(op->name()).append(" ").append(strategy_name);
        SCOPED_TRACE(key);
        Vocabulary vocabulary;
        StatusOr<Theory> theory =
            LoadTheoryFromFile(stem + ".theory", &vocabulary);
        ASSERT_TRUE(theory.ok()) << theory.status().ToString();
        StatusOr<Theory> revisions =
            LoadTheoryFromFile(stem + ".revise", &vocabulary);
        ASSERT_TRUE(revisions.ok()) << revisions.status().ToString();
        StatusOr<KnowledgeBase> created = KnowledgeBase::Create(
            *std::move(theory), op, strategy, &vocabulary);
        if (!created.ok()) {
          EXPECT_EQ(committed.count(key), 0u);
          continue;
        }
        for (const Formula& p : revisions->formulas()) {
          created->Revise(p);
        }
        ASSERT_TRUE(SaveKnowledgeBaseArtifact(*created, path.string()).ok());
        StatusOr<ArtifactFile> file = ArtifactFile::Open(path.string());
        ASSERT_TRUE(file.ok()) << file.status().ToString();
        ++compiled;
        auto it = committed.find(key);
        ASSERT_NE(it, committed.end());
        EXPECT_EQ(file->file_crc(), it->second)
            << std::hex << "compiled " << file->file_crc() << ", committed "
            << it->second;
      }
    }
  }
  std::filesystem::remove(path);
  EXPECT_EQ(compiled, 75u);
  EXPECT_EQ(committed.size(), compiled);
}

#endif  // REVISE_ARTIFACT_GOLDEN_DIR

}  // namespace
}  // namespace revise::artifact
