// Tests for the whole-file reads behind the library's loaders
// (util/file.h): the .rkb loader, the theory loader and the fuzz corpus
// loader.  A directory, a FIFO with no writer and an empty file must each
// come back as a non-OK Status — not an abort, a hang, or a silently
// empty theory.  A regression in a FIFO case blocks in open() forever, so
// ctest runs every test here under a TIMEOUT (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "artifact/kb_image.h"
#include "core/io.h"
#include "fuzz/corpus.h"
#include "logic/vocabulary.h"
#include "util/file.h"

namespace revise {
namespace {

// A private directory per test holding a subdirectory, a FIFO and an
// empty file.
class UnreadablePathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("revise_file_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(std::filesystem::create_directories(dir_ / "subdir"));
    ASSERT_EQ(::mkfifo(Fifo().c_str(), 0600), 0);
    std::ofstream(Empty()).close();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Directory() const { return (dir_ / "subdir").string(); }
  std::string Fifo() const { return (dir_ / "fifo").string(); }
  std::string Empty() const { return (dir_ / "empty").string(); }

  std::filesystem::path dir_;
};

Status OpenArtifact(const std::string& path) {
  return artifact::KbArtifact::Open(path).status();
}

Status LoadTheory(const std::string& path) {
  Vocabulary vocabulary;
  return LoadTheoryFromFile(path, &vocabulary).status();
}

TEST_F(UnreadablePathTest, ArtifactLoaderRejectsDirectory) {
  const Status status = OpenArtifact(Directory());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("not a regular file"), std::string::npos);
}

TEST_F(UnreadablePathTest, ArtifactLoaderRejectsFifo) {
  const Status status = OpenArtifact(Fifo());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("not a regular file"), std::string::npos);
}

TEST_F(UnreadablePathTest, ArtifactLoaderRejectsEmptyFile) {
  const Status status = OpenArtifact(Empty());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("empty file"), std::string::npos);
}

TEST_F(UnreadablePathTest, TheoryLoaderRejectsDirectory) {
  const Status status = LoadTheory(Directory());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(UnreadablePathTest, TheoryLoaderRejectsFifo) {
  const Status status = LoadTheory(Fifo());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(UnreadablePathTest, TheoryLoaderRejectsEmptyFile) {
  const Status status = LoadTheory(Empty());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(UnreadablePathTest, CorpusLoaderRejectsEveryUnreadablePath) {
  for (const std::string& path : {Directory(), Fifo(), Empty()}) {
    EXPECT_EQ(fuzz::LoadEntry(path).status().code(),
              StatusCode::kInvalidArgument)
        << path;
  }
}

TEST_F(UnreadablePathTest, MissingFileIsNotFound) {
  const std::string missing = (dir_ / "missing").string();
  EXPECT_EQ(util::ReadFileBytes(missing).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LoadTheory(missing).code(), StatusCode::kNotFound);
}

TEST_F(UnreadablePathTest, ReadsRegularFileWhole) {
  const std::string path = (dir_ / "bytes").string();
  const std::string contents("a\0b\nc\xff", 6);
  std::ofstream(path, std::ios::binary) << contents;

  const StatusOr<std::string> text = util::ReadFileText(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, contents);
  const StatusOr<std::vector<uint8_t>> bytes = util::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, std::vector<uint8_t>(contents.begin(), contents.end()));
}

}  // namespace
}  // namespace revise
