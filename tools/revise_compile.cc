// revise_compile: compile, inspect and verify .rkb knowledge-base
// artifacts (src/artifact/).
//
// Subcommands:
//   compile <theory-file> --out=<kb.rkb> [--operator=Dalal]
//           [--strategy=delayed|explicit|compact] [--revise=<file>]
//     Parses the theory, applies each formula of the --revise file (one
//     per line, same syntax as theory files) as a revision, and writes
//     the compiled artifact: vocabulary, formula DAG, canonical packed
//     model set, and the folded representation.
//
//   inspect <kb.rkb>
//     Prints the validated header and per-section metadata.
//
//   verify <kb.rkb> [--deep]
//     Validates every checksum and the packed-section invariants; with
//     --deep also replays the revision sequence from the stored formulas
//     and checks the recomputed model set against the stored rows bit for
//     bit.
//
// `--json` on any subcommand emits the same information as a single JSON
// object on stdout.  Exit status: 0 success, 1 failure, 2 usage.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "artifact/kb_image.h"
#include "core/io.h"
#include "core/kb_artifact.h"
#include "core/knowledge_base.h"
#include "obs/json.h"

namespace {

using revise::Formula;
using revise::KnowledgeBase;
using revise::OperatorById;
using revise::RevisionOperator;
using revise::RevisionStrategy;
using revise::Status;
using revise::StatusOr;
using revise::Theory;
using revise::Vocabulary;
using revise::artifact::ArtifactInfo;
using revise::artifact::KbArtifact;
using revise::artifact::KbImage;
using revise::obs::Json;

int Usage() {
  std::fprintf(
      stderr,
      "usage: revise_compile compile <theory> --out=<kb.rkb>\n"
      "                      [--operator=<name>] [--strategy=<name>]\n"
      "                      [--revise=<file>] [--json]\n"
      "       revise_compile inspect <kb.rkb> [--json]\n"
      "       revise_compile verify <kb.rkb> [--deep] [--json]\n");
  return 2;
}

int Fail(bool json, const std::string& action, const Status& status) {
  if (json) {
    Json out = Json::MakeObject();
    out["action"] = action;
    out["ok"] = false;
    out["error"] = status.ToString();
    std::printf("%s\n", out.Dump(2).c_str());
  } else {
    std::fprintf(stderr, "revise_compile %s: %s\n", action.c_str(),
                 status.ToString().c_str());
  }
  return 1;
}

const RevisionOperator* OperatorByName(const std::string& name) {
  for (const RevisionOperator* op : revise::AllOperators()) {
    if (name == std::string(op->name())) return op;
  }
  return nullptr;
}

bool StrategyByName(const std::string& name, RevisionStrategy* strategy) {
  if (name == "delayed") {
    *strategy = RevisionStrategy::kDelayed;
  } else if (name == "explicit") {
    *strategy = RevisionStrategy::kExplicit;
  } else if (name == "compact") {
    *strategy = RevisionStrategy::kCompact;
  } else {
    return false;
  }
  return true;
}

Json InfoToJson(const ArtifactInfo& info) {
  Json out = Json::MakeObject();
  out["format_version"] = info.format_version;
  out["file_size"] = info.file_size;
  out["file_crc"] = info.file_crc;
  out["operator"] = info.operator_name;
  out["strategy"] = info.strategy_name;
  out["vocabulary_size"] = info.vocabulary_size;
  out["formula_nodes"] = info.formula_nodes;
  out["updates"] = info.update_count;
  out["alphabet_size"] = info.alphabet_size;
  out["models"] = info.model_count;
  Json sections = Json::MakeArray();
  for (const revise::artifact::SectionInfo& section : info.sections) {
    Json row = Json::MakeObject();
    row["name"] = section.name;
    row["offset"] = section.offset;
    row["size"] = section.size;
    row["crc"] = section.crc;
    sections.Append(std::move(row));
  }
  out["sections"] = std::move(sections);
  return out;
}

void PrintInfo(const ArtifactInfo& info) {
  std::printf("format version : %u\n", info.format_version);
  std::printf("file size      : %llu bytes\n",
              static_cast<unsigned long long>(info.file_size));
  std::printf("file crc64     : %016llx\n",
              static_cast<unsigned long long>(info.file_crc));
  std::printf("operator       : %s\n", info.operator_name.c_str());
  std::printf("strategy       : %s\n", info.strategy_name.c_str());
  std::printf("vocabulary     : %llu names\n",
              static_cast<unsigned long long>(info.vocabulary_size));
  std::printf("formula nodes  : %llu\n",
              static_cast<unsigned long long>(info.formula_nodes));
  std::printf("revisions      : %llu\n",
              static_cast<unsigned long long>(info.update_count));
  std::printf("alphabet       : %llu letters\n",
              static_cast<unsigned long long>(info.alphabet_size));
  std::printf("models         : %llu\n",
              static_cast<unsigned long long>(info.model_count));
  std::printf("sections       :\n");
  for (const revise::artifact::SectionInfo& section : info.sections) {
    std::printf("  %-12s offset=%-8llu size=%-8llu crc64=%016llx\n",
                section.name.c_str(),
                static_cast<unsigned long long>(section.offset),
                static_cast<unsigned long long>(section.size),
                static_cast<unsigned long long>(section.crc));
  }
}

int RunCompile(const std::string& theory_path, const std::string& out_path,
               const std::string& operator_name,
               const std::string& strategy_name,
               const std::string& revise_path, bool json) {
  const RevisionOperator* op = OperatorByName(operator_name);
  if (op == nullptr) {
    return Fail(json, "compile",
                revise::InvalidArgumentError("unknown operator " +
                                             operator_name));
  }
  RevisionStrategy strategy;
  if (!StrategyByName(strategy_name, &strategy)) {
    return Fail(json, "compile",
                revise::InvalidArgumentError("unknown strategy " +
                                             strategy_name));
  }

  Vocabulary vocabulary;
  StatusOr<Theory> theory =
      revise::LoadTheoryFromFile(theory_path, &vocabulary);
  if (!theory.ok()) return Fail(json, "compile", theory.status());

  std::vector<Formula> revisions;
  if (!revise_path.empty()) {
    StatusOr<Theory> parsed =
        revise::LoadTheoryFromFile(revise_path, &vocabulary);
    if (!parsed.ok()) return Fail(json, "compile", parsed.status());
    revisions = parsed->formulas();
  }

  StatusOr<KnowledgeBase> kb =
      KnowledgeBase::Create(*std::move(theory), op, strategy, &vocabulary);
  if (!kb.ok()) return Fail(json, "compile", kb.status());
  for (const Formula& p : revisions) {
    kb->Revise(p);
  }

  Status saved = revise::SaveKnowledgeBaseArtifact(*kb, out_path);
  if (!saved.ok()) return Fail(json, "compile", saved);

  // Re-open what was just written: the summary doubles as a self-check.
  StatusOr<KbArtifact> artifact = KbArtifact::Open(out_path);
  if (!artifact.ok()) return Fail(json, "compile", artifact.status());
  if (json) {
    Json out = InfoToJson(artifact->info());
    out["action"] = "compile";
    out["ok"] = true;
    out["output"] = out_path;
    std::printf("%s\n", out.Dump(2).c_str());
  } else {
    std::printf("compiled %s -> %s\n", theory_path.c_str(),
                out_path.c_str());
    PrintInfo(artifact->info());
  }
  return 0;
}

int RunInspect(const std::string& path, bool json) {
  StatusOr<KbArtifact> artifact = KbArtifact::Open(path);
  if (!artifact.ok()) return Fail(json, "inspect", artifact.status());
  if (json) {
    Json out = InfoToJson(artifact->info());
    out["action"] = "inspect";
    out["ok"] = true;
    std::printf("%s\n", out.Dump(2).c_str());
  } else {
    PrintInfo(artifact->info());
  }
  return 0;
}

int RunVerify(const std::string& path, bool deep, bool json) {
  // Open validates the checksums and the packed-section invariants
  // (canonical row order, zero padding, model count).
  StatusOr<KbArtifact> artifact = KbArtifact::Open(path);
  if (!artifact.ok()) return Fail(json, "verify", artifact.status());

  if (deep) {
    Vocabulary vocabulary;
    StatusOr<KbImage> image = artifact->Materialize(&vocabulary);
    if (!image.ok()) return Fail(json, "verify", image.status());

    // Replay the stored revision sequence from the stored formulas and
    // demand the same canonical model set.
    RevisionStrategy strategy = RevisionStrategy::kDelayed;
    if (image->strategy == revise::artifact::kStrategyExplicit) {
      strategy = RevisionStrategy::kExplicit;
    } else if (image->strategy == revise::artifact::kStrategyCompact) {
      strategy = RevisionStrategy::kCompact;
    }
    StatusOr<KnowledgeBase> replay =
        KnowledgeBase::Create(image->initial, OperatorById(image->operator_id),
                              strategy, &vocabulary);
    if (!replay.ok()) return Fail(json, "verify", replay.status());
    for (const Formula& p : image->updates) {
      replay->Revise(p);
    }
    if (!(replay->Models() == image->models)) {
      return Fail(json, "verify",
                  revise::InternalError(
                      "stored model set differs from a fresh replay of the "
                      "stored revision sequence"));
    }
  }

  if (json) {
    Json out = InfoToJson(artifact->info());
    out["action"] = "verify";
    out["ok"] = true;
    out["deep"] = deep;
    std::printf("%s\n", out.Dump(2).c_str());
  } else {
    std::printf("OK %s(%s)\n", deep ? "deep " : "", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  std::string input;
  std::string out_path;
  std::string operator_name = "Dalal";
  std::string strategy_name = "delayed";
  std::string revise_path;
  bool json = false;
  bool deep = false;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--operator=", 11) == 0) {
      operator_name = arg + 11;
    } else if (std::strncmp(arg, "--strategy=", 11) == 0) {
      strategy_name = arg + 11;
    } else if (std::strncmp(arg, "--revise=", 9) == 0) {
      revise_path = arg + 9;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--deep") == 0) {
      deep = true;
    } else if (arg[0] == '-') {
      return Usage();
    } else if (input.empty()) {
      input = arg;
    } else {
      return Usage();
    }
  }
  if (input.empty()) return Usage();

  if (command == "compile") {
    if (out_path.empty()) return Usage();
    return RunCompile(input, out_path, operator_name, strategy_name,
                      revise_path, json);
  }
  if (command == "inspect") {
    return RunInspect(input, json);
  }
  if (command == "verify") {
    return RunVerify(input, deep, json);
  }
  return Usage();
}
