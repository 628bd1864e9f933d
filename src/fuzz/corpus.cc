#include "fuzz/corpus.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "logic/printer.h"
#include "util/file.h"

namespace revise::fuzz {

namespace {

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

}  // namespace

std::string FormatEntry(const CorpusEntry& entry) {
  std::string out = kCorpusHeader;
  out += "\nname: " + entry.name;
  out += "\noracle: " + entry.oracle;
  out += "\nexpect: " + entry.expect;
  out += "\nseed: " + std::to_string(entry.seed);
  out += "\ntheory: " + entry.theory;
  out += "\np: " + entry.p;
  out += "\nq: " + entry.q;
  out += "\n";
  return out;
}

StatusOr<CorpusEntry> ParseEntry(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || Trim(line) != kCorpusHeader) {
    return InvalidArgumentError(
        std::string("corpus entry must start with \"") + kCorpusHeader +
        "\"");
  }
  CorpusEntry entry;
  std::set<std::string> seen;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const size_t colon = trimmed.find(':');
    if (colon == std::string::npos) {
      return InvalidArgumentError("corpus line " +
                                  std::to_string(line_number) +
                                  ": expected \"key: value\"");
    }
    const std::string key = Trim(trimmed.substr(0, colon));
    const std::string value = Trim(trimmed.substr(colon + 1));
    if (!seen.insert(key).second) {
      return InvalidArgumentError("corpus line " +
                                  std::to_string(line_number) +
                                  ": duplicate key \"" + key + "\"");
    }
    if (key == "name") {
      entry.name = value;
    } else if (key == "oracle") {
      entry.oracle = value;
    } else if (key == "expect") {
      if (value != "ok" && value != "parse-error") {
        return InvalidArgumentError(
            "corpus line " + std::to_string(line_number) +
            ": expect must be \"ok\" or \"parse-error\"");
      }
      entry.expect = value;
    } else if (key == "seed") {
      char* end = nullptr;
      entry.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return InvalidArgumentError("corpus line " +
                                    std::to_string(line_number) +
                                    ": seed is not a number");
      }
    } else if (key == "theory") {
      entry.theory = value;
    } else if (key == "p") {
      entry.p = value;
    } else if (key == "q") {
      entry.q = value;
    } else {
      return InvalidArgumentError("corpus line " +
                                  std::to_string(line_number) +
                                  ": unknown key \"" + key + "\"");
    }
  }
  if (entry.name.empty()) {
    return InvalidArgumentError("corpus entry is missing \"name:\"");
  }
  if (entry.p.empty()) {
    return InvalidArgumentError("corpus entry is missing \"p:\"");
  }
  return entry;
}

StatusOr<CorpusEntry> LoadEntry(const std::string& path) {
  StatusOr<std::string> text = util::ReadFileText(path);
  if (!text.ok()) return text.status();
  StatusOr<CorpusEntry> entry = ParseEntry(*text);
  if (!entry.ok()) {
    return Status(entry.status().code(),
                  path + ": " + entry.status().message());
  }
  return entry;
}

StatusOr<std::vector<std::string>> ListCorpusFiles(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    return NotFoundError("corpus directory not found: " + dir);
  }
  std::vector<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().extension() == kCorpusExtension) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

StatusOr<Scenario> ScenarioFromEntry(const CorpusEntry& entry) {
  Scenario scenario;
  scenario.vocabulary = std::make_shared<Vocabulary>();
  scenario.seed = entry.seed;
  scenario.shape = Shape::kGeneral;
  if (!entry.theory.empty()) {
    REVISE_ASSIGN_OR_RETURN(
        scenario.t, Theory::Parse(entry.theory, scenario.vocabulary.get()));
  }
  REVISE_ASSIGN_OR_RETURN(scenario.p,
                          Parse(entry.p, scenario.vocabulary.get()));
  const std::string q = entry.q.empty() ? "true" : entry.q;
  REVISE_ASSIGN_OR_RETURN(scenario.q, Parse(q, scenario.vocabulary.get()));
  return scenario;
}

CorpusEntry EntryFromScenario(const Scenario& scenario, std::string name,
                              std::string oracle) {
  CorpusEntry entry;
  entry.name = std::move(name);
  entry.oracle = std::move(oracle);
  entry.seed = scenario.seed;
  const Vocabulary& vocabulary = *scenario.vocabulary;
  for (size_t i = 0; i < scenario.t.size(); ++i) {
    if (i > 0) entry.theory += "; ";
    entry.theory += ToString(scenario.t[i], vocabulary);
  }
  entry.p = ToString(scenario.p, vocabulary);
  entry.q = ToString(scenario.q, vocabulary);
  return entry;
}

}  // namespace revise::fuzz
