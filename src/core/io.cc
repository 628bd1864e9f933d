#include "core/io.h"

#include <fstream>
#include <sstream>

#include "logic/parser.h"
#include "logic/printer.h"
#include "util/file.h"

namespace revise {

StatusOr<Theory> TheoryFromText(const std::string& text,
                                Vocabulary* vocabulary) {
  Theory theory;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments and whitespace-only lines.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    bool blank = true;
    for (const char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    StatusOr<Formula> f = Parse(line, vocabulary);
    if (!f.ok()) {
      return InvalidArgumentError("line " + std::to_string(line_number) +
                                  ": " + f.status().message());
    }
    theory.Add(std::move(f).value());
  }
  return theory;
}

std::string TheoryToText(const Theory& theory,
                         const Vocabulary& vocabulary) {
  std::string out;
  for (const Formula& f : theory) {
    out += ToString(f, vocabulary);
    out += "\n";
  }
  return out;
}

StatusOr<Theory> LoadTheoryFromFile(const std::string& path,
                                    Vocabulary* vocabulary) {
  StatusOr<std::string> text = util::ReadFileText(path);
  if (!text.ok()) {
    return text.status();
  }
  return TheoryFromText(*text, vocabulary);
}

Status SaveTheoryToFile(const Theory& theory, const Vocabulary& vocabulary,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return InternalError("cannot write " + path);
  }
  out << "# librevise theory file\n" << TheoryToText(theory, vocabulary);
  // An ofstream buffers: without an explicit flush the data may still be
  // in memory here, and a short write (e.g. a full disk) would only
  // surface at destruction — after Ok was already returned.
  out.flush();
  if (!out.good()) {
    return InternalError("short write to " + path);
  }
  out.close();
  if (out.fail()) {
    return InternalError("close of " + path + " failed");
  }
  return Status::Ok();
}

}  // namespace revise
