// revise_lint: project-specific static checks clang-tidy cannot express.
//
// Rules (ids are stable; they key the allowlist):
//   unlimited-enumerate  EnumerateModels without an explicit limit argument
//                        outside src/solve/.  Unlimited AllSAT sweeps are
//                        the library's exponential hazard; call sites
//                        outside the solve layer must bound the
//                        enumeration (limit-taking overload) or be
//                        explicitly grandfathered in the allowlist as
//                        known-safe (they then go through the model
//                        cache).
//   raw-thread           std::thread construction/storage outside
//                        src/util/parallel.  All parallelism goes through
//                        the deterministic ThreadPool so results stay
//                        bit-identical across thread counts.  (Qualified
//                        uses like std::thread::hardware_concurrency are
//                        allowed.)
//   raw-mutex            std::mutex / std::lock_guard / std::unique_lock /
//                        std::condition_variable and friends anywhere in
//                        the tree.  All locking goes through the
//                        annotated util::Mutex / util::MutexLock wrappers
//                        (src/util/mutex.h) so clang -Wthread-safety sees
//                        every acquisition; the wrapper itself is the one
//                        allowlisted exception.
//   bench-json-meta      a bench file that emits a JSON report without the
//                        shared JsonReporter, which stamps the
//                        threads/hardware/model-cache metadata making
//                        reports comparable across machines.
//   include-guard        header guard not matching
//                        REVISE_<DIR>_<FILE>_H_ (path relative to the
//                        repository root, leading "src/" dropped).
//   check-side-effect    REVISE_CHECK* / REVISE_DCHECK* whose argument
//                        text mutates state (++/--/assignment/container
//                        mutation).  DCHECK arguments are not evaluated in
//                        Release builds, so side effects there change
//                        behavior between build types.
//   obs-name             a REVISE_OBS_COUNTER/GAUGE/HISTOGRAM,
//                        REVISE_FLIGHT_EVENT, or REVISE_PROFILE_KEY call
//                        whose literal name does not follow the
//                        `subsystem.metric` convention (lowercase
//                        [a-z0-9_] segments joined by '.', starting with
//                        a lowercase letter).  Instrument
//                        names key the JSON reports, profile counter keys
//                        key the EXPLAIN trees, and flight-recorder event
//                        names key the crash dumps; a stray spelling
//                        silently forks a metric.  Non-literal arguments
//                        (the macro definitions, forwarded identifiers)
//                        are skipped.
//   hot-kernel           REVISE_CHECK* (the always-on flavor) in a file
//                        under src/kernel/.  The kernel layer is the
//                        measured inner loop — its sweeps run per 32x32
//                        tile — so release builds must pay no check cost
//                        there; use REVISE_DCHECK*, which compiles out of
//                        Release, and validate at the operator boundary.
//   fuzz-corpus          a committed .corpus regression repro that the
//                        replay job would reject: wrong header line,
//                        unknown or duplicated key, bad expect/seed
//                        value, or a missing required field.  A rotted
//                        corpus file silently drops a regression from the
//                        replay, so malformedness is a lint failure, not
//                        a runtime skip.  (The validation mirrors
//                        src/fuzz/corpus.cc deliberately but
//                        independently: the linter stays link-free and
//                        double-checks the parser's contract.)
//
// Usage:
//   revise_lint --root=DIR [--allowlist=FILE] [file...]
//
// Without positional files the tool walks src/, bench/, tests/, tools/ and
// examples/ under the root (skipping build dirs, hidden dirs and
// tools/lint_fixtures).  Exit status: 0 clean, 1 findings, 2 bad usage.
//
// The allowlist holds lines of the form "<rule-id> <path>" (paths relative
// to the root, '#' comments).  Allowlisted findings are reported as
// "allowed" but do not fail the run; stale entries (no finding) fail the
// run so the list only shrinks.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string path;  // relative to root, '/'-separated
  size_t line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  fs::path root;
  fs::path allowlist;
  std::vector<fs::path> files;
};

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// Replaces comments and string/character literals with spaces, preserving
// newlines so byte offsets keep their line numbers.  This keeps every
// scan below from tripping over patterns that only occur in prose.
std::string StripCommentsAndLiterals(const std::string& text) {
  std::string out(text.size(), ' ');
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delimiter;  // for )delim" of a raw string
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') out[i] = '\n';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(text[i - 1]))) {
          // R"delim( ... )delim"
          size_t open = text.find('(', i + 2);
          if (open == std::string::npos) break;
          raw_delimiter = ")";
          raw_delimiter.append(text, i + 2, open - (i + 2));
          raw_delimiter += '"';
          state = State::kRawString;
          i = open;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' && !(i > 0 && IsIdentChar(text[i - 1]))) {
          // Excludes digit separators (1'000'000).
          state = State::kChar;
        } else {
          out[i] = c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') state = State::kCode;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
          if (next == '\n') out[i] = '\n';
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delimiter.size(), raw_delimiter) == 0) {
          i += raw_delimiter.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

size_t LineOfOffset(const std::string& text, size_t offset) {
  return 1 + static_cast<size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<ptrdiff_t>(
                                               std::min(offset, text.size())),
                            '\n'));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// --- rule: include-guard ------------------------------------------------

std::string ExpectedGuard(const std::string& rel_path) {
  std::string_view path = rel_path;
  if (StartsWith(path, "src/")) path.remove_prefix(4);
  std::string guard = "REVISE_";
  for (const char c : path) {
    if (c >= 'a' && c <= 'z') {
      guard += static_cast<char>(c - 'a' + 'A');
    } else if ((c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
      guard += c;
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

void CheckIncludeGuard(const std::string& rel_path, const std::string& code,
                       std::vector<Finding>* findings) {
  const std::string expected = ExpectedGuard(rel_path);
  std::istringstream in(code);
  std::string line;
  size_t line_number = 0;
  size_t ifndef_line = 0;
  std::string guard;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) continue;
    if (directive == "#ifndef") {
      tokens >> guard;
      ifndef_line = line_number;
      break;
    }
    if (directive == "#pragma") {
      std::string what;
      tokens >> what;
      if (what == "once") {
        findings->push_back({rel_path, line_number, "include-guard",
                             "use an include guard named " + expected +
                                 ", not #pragma once"});
        return;
      }
    }
  }
  if (guard.empty()) {
    findings->push_back({rel_path, 1, "include-guard",
                         "missing include guard " + expected});
    return;
  }
  if (guard != expected) {
    findings->push_back({rel_path, ifndef_line, "include-guard",
                         "guard is " + guard + ", expected " + expected});
  }
}

// --- rule: raw-thread ---------------------------------------------------

void CheckRawThread(const std::string& rel_path, const std::string& code,
                    std::vector<Finding>* findings) {
  if (StartsWith(rel_path, "src/util/parallel")) return;
  constexpr std::string_view kToken = "std::thread";
  size_t pos = 0;
  while ((pos = code.find(kToken, pos)) != std::string::npos) {
    const size_t after = pos + kToken.size();
    const bool qualified =
        after + 1 < code.size() && code[after] == ':' && code[after + 1] == ':';
    const bool ident_continues = after < code.size() && IsIdentChar(code[after]);
    if (!qualified && !ident_continues) {
      findings->push_back(
          {rel_path, LineOfOffset(code, pos), "raw-thread",
           "raw std::thread; use util/parallel (ThreadPool / "
           "ParallelMapRanges) so results stay deterministic"});
    }
    pos = after;
  }
}

// --- rule: raw-mutex ----------------------------------------------------

// Any mention of the std locking vocabulary is a finding; there is no
// legitimate qualified use (unlike std::thread::hardware_concurrency),
// so no qualified-access carve-out.  The prefix overlap between
// condition_variable and condition_variable_any is resolved by the
// own-token check.
void CheckRawMutex(const std::string& rel_path, const std::string& code,
                   std::vector<Finding>* findings) {
  constexpr std::string_view kTokens[] = {
      "std::mutex",
      "std::recursive_mutex",
      "std::timed_mutex",
      "std::shared_mutex",
      "std::lock_guard",
      "std::unique_lock",
      "std::scoped_lock",
      "std::shared_lock",
      "std::condition_variable",
      "std::condition_variable_any",
  };
  for (const std::string_view token : kTokens) {
    size_t pos = 0;
    while ((pos = code.find(token, pos)) != std::string::npos) {
      const size_t after = pos + token.size();
      const bool own_token =
          (pos == 0 || !IsIdentChar(code[pos - 1])) &&
          (after >= code.size() || !IsIdentChar(code[after]));
      if (own_token) {
        findings->push_back(
            {rel_path, LineOfOffset(code, pos), "raw-mutex",
             "raw " + std::string(token) +
                 "; use util::Mutex / util::MutexLock / util::CondVar "
                 "(src/util/mutex.h) so -Wthread-safety sees the "
                 "acquisition"});
      }
      pos = after;
    }
  }
}

// --- rule: unlimited-enumerate ------------------------------------------

// Returns the number of top-level arguments of the call whose opening
// parenthesis is at `open`, or -1 if the parentheses never balance.
int CountCallArgs(const std::string& code, size_t open) {
  int depth = 0;
  int args = 1;
  bool any_token = false;
  for (size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) return any_token ? args : 0;
    } else if (c == ',' && depth == 1) {
      ++args;
    } else if (depth >= 1 && !std::isspace(static_cast<unsigned char>(c))) {
      any_token = true;
    }
  }
  return -1;
}

void CheckUnlimitedEnumerate(const std::string& rel_path,
                             const std::string& code,
                             std::vector<Finding>* findings) {
  if (!StartsWith(rel_path, "src/") || StartsWith(rel_path, "src/solve/")) {
    return;
  }
  constexpr std::string_view kToken = "EnumerateModels";
  size_t pos = 0;
  while ((pos = code.find(kToken, pos)) != std::string::npos) {
    const size_t after = pos + kToken.size();
    const bool own_token =
        (pos == 0 || !IsIdentChar(code[pos - 1])) &&
        (after >= code.size() || !IsIdentChar(code[after]));
    if (own_token) {
      size_t open = after;
      while (open < code.size() &&
             std::isspace(static_cast<unsigned char>(code[open]))) {
        ++open;
      }
      if (open < code.size() && code[open] == '(') {
        const int args = CountCallArgs(code, open);
        if (args >= 0 && args < 3) {
          findings->push_back(
              {rel_path, LineOfOffset(code, pos), "unlimited-enumerate",
               "unlimited EnumerateModels outside solve/; pass an explicit "
               "limit or allowlist the site as known-safe"});
        }
      }
    }
    pos = after;
  }
}

// --- rule: bench-json-meta ----------------------------------------------

// `code` (comments/literals stripped) decides whether JsonReporter is
// actually used; `raw` is scanned for the writer patterns, which typically
// live inside string literals ("--json").
void CheckBenchJsonMeta(const std::string& rel_path, const std::string& code,
                        const std::string& raw,
                        std::vector<Finding>* findings) {
  if (!StartsWith(rel_path, "bench/")) return;
  if (code.find("JsonReporter") != std::string::npos) return;
  constexpr std::string_view kWriters[] = {"WriteToFile(", "--json",
                                           "std::ofstream"};
  for (const std::string_view writer : kWriters) {
    const size_t pos = raw.find(writer);
    if (pos != std::string::npos) {
      findings->push_back(
          {rel_path, LineOfOffset(raw, pos), "bench-json-meta",
           "bench emits JSON without bench_util.h JsonReporter; reports "
           "must stamp the shared execution metadata"});
      return;
    }
  }
}

// --- rule: check-side-effect --------------------------------------------

bool HasMutation(std::string_view args) {
  constexpr std::string_view kMutators[] = {
      ".push_back(",  ".pop_back(", ".pop_front(", ".insert(",
      ".erase(",      ".emplace",   ".clear(",     ".reset(",
      ".release(",    "->push_back(", "->insert(", "->erase(",
      "->emplace",    "->clear(",   "->reset(",    "->release(",
  };
  for (const std::string_view m : kMutators) {
    if (args.find(m) != std::string_view::npos) return true;
  }
  for (size_t i = 0; i < args.size(); ++i) {
    const char c = args[i];
    const char next = i + 1 < args.size() ? args[i + 1] : '\0';
    if ((c == '+' && next == '+') || (c == '-' && next == '-')) return true;
    if (c == '=' ) {
      const char prev = i > 0 ? args[i - 1] : '\0';
      // Comparison / relational operators are fine; a bare or compound
      // assignment is a mutation.
      if (next == '=') {
        ++i;  // ==
        continue;
      }
      if (prev == '=' || prev == '!' || prev == '<' || prev == '>') continue;
      if (prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
          prev == '%' || prev == '&' || prev == '|' || prev == '^') {
        return true;  // compound assignment
      }
      return true;  // plain assignment
    }
  }
  return false;
}

void CheckCheckSideEffect(const std::string& rel_path,
                          const std::string& code,
                          std::vector<Finding>* findings) {
  if (rel_path == "src/util/check.h") return;  // the macro definitions
  constexpr std::string_view kPrefixes[] = {"REVISE_CHECK", "REVISE_DCHECK"};
  for (const std::string_view prefix : kPrefixes) {
    size_t pos = 0;
    while ((pos = code.find(prefix, pos)) != std::string::npos) {
      if (pos > 0 && IsIdentChar(code[pos - 1])) {
        pos += prefix.size();
        continue;
      }
      size_t cursor = pos + prefix.size();
      while (cursor < code.size() && IsIdentChar(code[cursor])) ++cursor;
      const std::string_view macro(code.data() + pos, cursor - pos);
      while (cursor < code.size() &&
             std::isspace(static_cast<unsigned char>(code[cursor]))) {
        ++cursor;
      }
      if (cursor >= code.size() || code[cursor] != '(') {
        pos = cursor;
        continue;
      }
      int depth = 0;
      size_t end = cursor;
      for (; end < code.size(); ++end) {
        if (code[end] == '(') ++depth;
        if (code[end] == ')' && --depth == 0) break;
      }
      if (end >= code.size()) break;
      const std::string_view args(code.data() + cursor + 1,
                                  end - cursor - 1);
      if (HasMutation(args)) {
        findings->push_back(
            {rel_path, LineOfOffset(code, pos), "check-side-effect",
             std::string(macro) +
                 " argument has side effects; checks may be compiled out "
                 "and must be pure"});
      }
      pos = end;
    }
  }
}

// --- rule: obs-name -----------------------------------------------------

// `subsystem.metric`: lowercase [a-z0-9_] segments, at least one dot, no
// empty segments, and a lowercase letter first.
bool IsValidInstrumentName(std::string_view name) {
  if (name.empty() || name[0] < 'a' || name[0] > 'z') return false;
  bool saw_dot = false;
  bool segment_empty = true;
  for (const char c : name) {
    if (c == '.') {
      if (segment_empty) return false;
      saw_dot = true;
      segment_empty = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
               c == '_') {
      segment_empty = false;
    } else {
      return false;
    }
  }
  return saw_dot && !segment_empty;
}

// Macro positions come from the stripped `code`; the literal itself was
// blanked there, so it is read back out of `raw` (same offsets — the
// strip preserves length).
void CheckObsName(const std::string& rel_path, const std::string& code,
                  const std::string& raw,
                  std::vector<Finding>* findings) {
  constexpr std::string_view kMacros[] = {
      "REVISE_OBS_COUNTER", "REVISE_OBS_GAUGE", "REVISE_OBS_HISTOGRAM",
      "REVISE_FLIGHT_EVENT", "REVISE_PROFILE_KEY"};
  for (const std::string_view macro : kMacros) {
    size_t pos = 0;
    while ((pos = code.find(macro, pos)) != std::string::npos) {
      const size_t after = pos + macro.size();
      const bool own_token =
          (pos == 0 || !IsIdentChar(code[pos - 1])) &&
          (after >= code.size() || !IsIdentChar(code[after]));
      if (!own_token) {
        pos = after;
        continue;
      }
      size_t open = after;
      while (open < code.size() &&
             std::isspace(static_cast<unsigned char>(code[open]))) {
        ++open;
      }
      if (open >= code.size() || code[open] != '(') {
        pos = after;
        continue;
      }
      size_t quote = open + 1;
      while (quote < raw.size() &&
             std::isspace(static_cast<unsigned char>(raw[quote]))) {
        ++quote;
      }
      if (quote >= raw.size() || raw[quote] != '"') {
        pos = after;  // not a literal argument
        continue;
      }
      const size_t end = raw.find('"', quote + 1);
      if (end == std::string::npos) break;
      const std::string_view name(raw.data() + quote + 1, end - quote - 1);
      if (!IsValidInstrumentName(name)) {
        findings->push_back(
            {rel_path, LineOfOffset(code, pos), "obs-name",
             "instrument name \"" + std::string(name) +
                 "\" violates the subsystem.metric convention (lowercase "
                 "[a-z0-9_] segments joined by '.', starting with a "
                 "letter)"});
      }
      pos = end;
    }
  }
}

// --- rule: hot-kernel ---------------------------------------------------

// Finds REVISE_CHECK / REVISE_CHECK_EQ / ... tokens under src/kernel/.
// The token match deliberately excludes REVISE_DCHECK* ("REVISE_CHECK"
// is not a substring of "REVISE_DCHECK") and identifiers that merely
// embed the name (preceded by an identifier character).
void CheckHotKernel(const std::string& rel_path, const std::string& code,
                    std::vector<Finding>* findings) {
  if (!StartsWith(rel_path, "src/kernel/")) return;
  constexpr std::string_view kToken = "REVISE_CHECK";
  size_t pos = 0;
  while ((pos = code.find(kToken, pos)) != std::string::npos) {
    if (pos == 0 || !IsIdentChar(code[pos - 1])) {
      findings->push_back(
          {rel_path, LineOfOffset(code, pos), "hot-kernel",
           "always-on REVISE_CHECK* in the kernel layer; the tiled "
           "sweeps must use REVISE_DCHECK* and validate at the operator "
           "boundary"});
    }
    pos += kToken.size();
  }
}

// --- rule: fuzz-corpus --------------------------------------------------

// Validates a committed fuzz-regression repro without linking the fuzz
// library: header line, known keys only, no duplicates, well-formed
// expect/seed, and the required name/p fields.  Must stay in sync with
// the format in src/fuzz/corpus.cc.
void CheckFuzzCorpus(const std::string& rel_path, const std::string& raw,
                     std::vector<Finding>* findings) {
  constexpr std::string_view kHeader = "# revise_fuzz corpus v1";
  constexpr std::string_view kKeys[] = {"name",   "oracle", "expect",
                                        "seed",   "theory", "p",
                                        "q"};
  const auto add = [&](size_t line, const std::string& message) {
    findings->push_back({rel_path, line, "fuzz-corpus", message});
  };
  const auto trim = [](std::string_view s) {
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.front()))) {
      s.remove_prefix(1);
    }
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back()))) {
      s.remove_suffix(1);
    }
    return s;
  };

  std::istringstream in(raw);
  std::string line;
  size_t line_number = 0;
  bool saw_header = false;
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view text = trim(line);
    if (line_number == 1) {
      if (text != kHeader) {
        add(1, "first line must be \"" + std::string(kHeader) + "\"");
        return;  // everything after a bad header would be noise
      }
      saw_header = true;
      continue;
    }
    if (text.empty() || text.front() == '#') continue;
    const size_t colon = text.find(':');
    if (colon == std::string_view::npos) {
      add(line_number, "expected \"key: value\", got \"" +
                           std::string(text) + "\"");
      continue;
    }
    const std::string key(trim(text.substr(0, colon)));
    const std::string value(trim(text.substr(colon + 1)));
    if (std::find(std::begin(kKeys), std::end(kKeys), key) ==
        std::end(kKeys)) {
      add(line_number, "unknown key \"" + key + "\"");
      continue;
    }
    if (!seen.insert(key).second) {
      add(line_number, "duplicate key \"" + key + "\"");
      continue;
    }
    if (key == "expect" && value != "ok" && value != "parse-error") {
      add(line_number,
          "expect must be \"ok\" or \"parse-error\", got \"" + value +
              "\"");
    }
    if (key == "seed" &&
        (value.empty() ||
         !std::all_of(value.begin(), value.end(), [](char c) {
           return c >= '0' && c <= '9';
         }))) {
      add(line_number, "seed must be a non-negative integer, got \"" +
                           value + "\"");
    }
  }
  if (!saw_header) {
    add(1, "empty corpus file (missing header line)");
    return;
  }
  for (const char* required : {"name", "p"}) {
    if (seen.count(required) == 0) {
      add(line_number, std::string("missing required key \"") + required +
                           "\"");
    }
  }
}

// --- driver -------------------------------------------------------------

bool HasExtension(const fs::path& path, std::string_view ext) {
  return path.extension() == ext;
}

bool ShouldScan(const fs::path& path) {
  return HasExtension(path, ".h") || HasExtension(path, ".cc") ||
         HasExtension(path, ".cpp") || HasExtension(path, ".corpus");
}

void CollectFiles(const fs::path& root, std::vector<fs::path>* files) {
  constexpr std::string_view kTopDirs[] = {"src", "bench", "tests", "tools",
                                           "examples"};
  for (const std::string_view top : kTopDirs) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      const std::string name = it->path().filename().string();
      if (it->is_directory() &&
          ((name.size() > 9 &&
            name.compare(name.size() - 9, 9, "_fixtures") == 0) ||
           name.rfind("build", 0) == 0 ||
           (!name.empty() && name[0] == '.'))) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && ShouldScan(it->path())) {
        files->push_back(it->path());
      }
    }
  }
  std::sort(files->begin(), files->end());
}

std::string RelativeTo(const fs::path& root, const fs::path& path) {
  return fs::relative(fs::absolute(path), fs::absolute(root))
      .generic_string();
}

int Fail(const char* message) {
  std::fprintf(stderr, "revise_lint: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (StartsWith(arg, "--root=")) {
      options.root = std::string(arg.substr(7));
    } else if (StartsWith(arg, "--allowlist=")) {
      options.allowlist = std::string(arg.substr(12));
    } else if (arg == "--help") {
      std::printf(
          "usage: revise_lint --root=DIR [--allowlist=FILE] [file...]\n");
      return 0;
    } else if (StartsWith(arg, "--")) {
      return Fail("unknown flag (see --help)");
    } else {
      options.files.emplace_back(std::string(arg));
    }
  }
  if (options.root.empty()) return Fail("--root=DIR is required");
  if (!fs::is_directory(options.root)) return Fail("--root is not a directory");

  // rule-id -> path pairs that are tolerated.
  std::set<std::pair<std::string, std::string>> allowed;
  if (!options.allowlist.empty()) {
    std::ifstream in(options.allowlist);
    if (!in) return Fail("cannot read allowlist");
    std::string line;
    while (std::getline(in, line)) {
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream tokens(line);
      std::string rule, path;
      if (tokens >> rule >> path) allowed.insert({rule, path});
    }
  }

  std::vector<fs::path> files = options.files;
  if (files.empty()) CollectFiles(options.root, &files);

  std::vector<Finding> findings;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "revise_lint: cannot read %s\n",
                   file.string().c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string raw = buffer.str();
    const std::string rel = RelativeTo(options.root, file);

    if (HasExtension(file, ".corpus")) {
      // Corpus repros are line-oriented data, not C++; only the format
      // rule applies.
      CheckFuzzCorpus(rel, raw, &findings);
      continue;
    }
    const std::string code = StripCommentsAndLiterals(raw);

    if (HasExtension(file, ".h")) CheckIncludeGuard(rel, code, &findings);
    CheckRawThread(rel, code, &findings);
    CheckRawMutex(rel, code, &findings);
    CheckUnlimitedEnumerate(rel, code, &findings);
    CheckBenchJsonMeta(rel, code, raw, &findings);
    CheckCheckSideEffect(rel, code, &findings);
    CheckObsName(rel, code, raw, &findings);
    CheckHotKernel(rel, code, &findings);
  }

  // Partition into hard findings and allowlisted ones; track which
  // allowlist entries actually fired so stale entries are flagged.
  std::set<std::pair<std::string, std::string>> used;
  size_t hard = 0;
  for (const Finding& finding : findings) {
    const auto key = std::make_pair(finding.rule, finding.path);
    const bool is_allowed = allowed.count(key) > 0;
    if (is_allowed) used.insert(key);
    std::fprintf(stderr, "%s:%zu: [%s]%s %s\n", finding.path.c_str(),
                 finding.line, finding.rule.c_str(),
                 is_allowed ? " (allowed)" : "", finding.message.c_str());
    if (!is_allowed) ++hard;
  }
  // An unfired entry is stale; an entry whose file is gone entirely gets
  // the sharper message (the usual cause: the file was deleted or moved
  // and the allowlist was not updated with it).
  size_t stale = 0;
  for (const auto& entry : allowed) {
    if (used.count(entry) != 0) continue;
    if (!fs::exists(options.root / entry.second)) {
      std::fprintf(stderr,
                   "revise_lint: allowlist entry %s %s references a "
                   "missing file (remove it)\n",
                   entry.first.c_str(), entry.second.c_str());
    } else {
      std::fprintf(stderr,
                   "revise_lint: stale allowlist entry: %s %s (no such "
                   "finding; remove it)\n",
                   entry.first.c_str(), entry.second.c_str());
    }
    ++stale;
  }

  if (hard == 0 && stale == 0) {
    std::printf("revise_lint: %zu files, %zu findings (%zu allowlisted)\n",
                files.size(), findings.size(), findings.size());
    return 0;
  }
  std::fprintf(stderr,
               "revise_lint: %zu files, %zu non-allowlisted findings, %zu "
               "stale allowlist entries\n",
               files.size(), hard, stale);
  return 1;
}
