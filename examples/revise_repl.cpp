// An interactive belief-revision shell on top of the public API.
//
// Commands (one per line; also accepted from a pipe or here-doc):
//   operator <name>      select GFUV|Nebel|WIDTIO|Winslett|Borgida|
//                        Forbus|Satoh|Dalal|Weber    (default Dalal)
//   strategy <s>         delayed | explicit | compact (resets the KB)
//   assert <formula>     add a formula to the initial theory (resets)
//   revise <formula>     incorporate new information
//   ask <formula>        is it entailed by the revised base?
//   models               print the current model set
//   size                 stored representation size
//   :stats               instrumentation snapshot: counters, gauges,
//                        histogram percentiles, peak RSS
//   :trace <path>        write a Chrome Trace Event file covering the
//                        spans of the most recent `revise`
//   :explain <op> <phi> <mu>
//                        run {phi} * mu under <op> with per-operation
//                        cost attribution and print the EXPLAIN tree
//                        (formulas with spaces: separate phi and mu
//                        with ';')
//   :save <path>         compile the current knowledge base into a
//                        checksummed .rkb artifact (core/kb_artifact.h)
//   :load <path>         replace the session with a knowledge base
//                        loaded from a .rkb artifact
//   reset                clear everything
//   help, quit
//
// Example session:
//   assert g | b
//   revise !g
//   ask b            -> yes
//
// Run scripted:  printf 'assert g|b\nrevise !g\nask b\n' | revise_repl

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/kb_artifact.h"
#include "core/librevise.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"

namespace {

using namespace revise;

const RevisionOperator* FindOperator(const std::string& name) {
  for (const RevisionOperator* op : AllOperators()) {
    std::string lower(op->name());
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    std::string query = name;
    for (char& c : query) c = static_cast<char>(std::tolower(c));
    if (lower == query) return op;
  }
  return nullptr;
}

class Repl {
 public:
  void Run() {
    std::printf("librevise shell — 'help' for commands\n");
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
    }
  }

 private:
  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) return true;  // blank line
    std::string rest;
    std::getline(in, rest);
    while (!rest.empty() && std::isspace(rest.front())) rest.erase(0, 1);

    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      std::printf(
          "operator <name> | strategy <delayed|explicit|compact> |\n"
          "assert <f> | revise <f> | ask <f> | models | size | :stats | "
          ":trace <path> | :explain <op> <phi> <mu> | "
          ":save <path> | :load <path> | reset | quit\n");
      return true;
    }
    if (command == "operator") {
      const RevisionOperator* found = FindOperator(rest);
      if (found == nullptr) {
        std::printf("unknown operator '%s'\n", rest.c_str());
        return true;
      }
      op_ = found;
      Rebuild();
      std::printf("operator = %s\n", std::string(op_->name()).c_str());
      return true;
    }
    if (command == "strategy") {
      if (rest == "delayed") {
        strategy_ = RevisionStrategy::kDelayed;
      } else if (rest == "explicit") {
        strategy_ = RevisionStrategy::kExplicit;
      } else if (rest == "compact") {
        strategy_ = RevisionStrategy::kCompact;
      } else {
        std::printf("unknown strategy '%s'\n", rest.c_str());
        return true;
      }
      Rebuild();
      std::printf("strategy = %s (knowledge base rebuilt)\n",
                  rest.c_str());
      return true;
    }
    if (command == "reset") {
      theory_ = Theory();
      Rebuild();
      std::printf("cleared\n");
      return true;
    }
    if (command == "assert") {
      StatusOr<Formula> f = Parse(rest, &vocabulary_);
      if (!f.ok()) {
        std::printf("parse error: %s\n", f.status().ToString().c_str());
        return true;
      }
      theory_.Add(*f);
      Rebuild();
      std::printf("theory now has %zu formula(s)\n", theory_.size());
      return true;
    }
    if (command == "revise") {
      StatusOr<Formula> f = Parse(rest, &vocabulary_);
      if (!f.ok()) {
        std::printf("parse error: %s\n", f.status().ToString().c_str());
        return true;
      }
      EnsureKb();
      // Keep only the spans of this revision in the buffer so a
      // following :trace exports exactly one revision's timeline.
      obs::ClearSpans();
      kb_->Revise(*f);
      std::printf("revised (%zu revision(s) so far)\n",
                  kb_->num_revisions());
      return true;
    }
    if (command == "ask") {
      StatusOr<Formula> f = Parse(rest, &vocabulary_);
      if (!f.ok()) {
        std::printf("parse error: %s\n", f.status().ToString().c_str());
        return true;
      }
      EnsureKb();
      const bool yes = kb_->Ask(*f);
      const bool no = kb_->Ask(Formula::Not(*f));
      std::printf("%s\n", yes ? "yes" : (no ? "no" : "unknown"));
      return true;
    }
    if (command == "models") {
      EnsureKb();
      const Alphabet alphabet = kb_->CurrentAlphabet();
      const ModelSet models = kb_->Models();
      std::printf("%zu model(s):", models.size());
      for (const Interpretation& m : models) {
        std::printf(" %s", m.ToString(alphabet, vocabulary_).c_str());
      }
      std::printf("\n");
      return true;
    }
    if (command == ":stats" || command == "stats") {
      const auto [counters, gauges, histograms] =
          obs::Registry::Global().Snapshot();
      if (counters.empty() && gauges.empty() && histograms.empty()) {
        std::printf("no instrumentation recorded yet\n");
        return true;
      }
      for (const auto& [name, value] : counters) {
        std::printf("%-28s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
      for (const auto& [name, value] : gauges) {
        std::printf("%-28s %lld  (gauge)\n", name.c_str(),
                    static_cast<long long>(value));
      }
      for (const auto& [name, snapshot] : histograms) {
        std::printf("%-28s n=%llu p50=%llu p90=%llu p99=%llu max=%llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(snapshot.count),
                    static_cast<unsigned long long>(snapshot.p50),
                    static_cast<unsigned long long>(snapshot.p90),
                    static_cast<unsigned long long>(snapshot.p99),
                    static_cast<unsigned long long>(snapshot.max));
      }
      std::printf("%-28s %llu bytes\n", "peak rss",
                  static_cast<unsigned long long>(
                      obs::MemoryStats::PeakRssBytes()));
      return true;
    }
    if (command == ":trace") {
      if (rest.empty()) {
        std::printf("usage: :trace <path>\n");
        return true;
      }
      if (obs::SnapshotSpans().empty()) {
        std::printf(
            "no spans recorded — run a `revise` first (tracing is "
            "collected automatically)\n");
        return true;
      }
      const Status status = obs::WriteChromeTrace(rest);
      if (status.ok()) {
        std::printf("chrome trace written to %s\n", rest.c_str());
      } else {
        std::printf("trace export failed: %s\n",
                    status.ToString().c_str());
      }
      return true;
    }
    if (command == ":explain") {
      std::istringstream args(rest);
      std::string op_name;
      if (!(args >> op_name)) {
        std::printf("usage: :explain <op> <phi> <mu>\n");
        return true;
      }
      const RevisionOperator* op = FindOperator(op_name);
      if (op == nullptr) {
        std::printf("unknown operator '%s'\n", op_name.c_str());
        return true;
      }
      std::string formulas;
      std::getline(args, formulas);
      // phi and mu are separated by ';' (needed when the formulas contain
      // spaces) or, failing that, by the last run of whitespace.
      std::string phi_text;
      std::string mu_text;
      if (const size_t semi = formulas.find(';');
          semi != std::string::npos) {
        phi_text = formulas.substr(0, semi);
        mu_text = formulas.substr(semi + 1);
      } else {
        const size_t split = formulas.find_last_not_of(" \t");
        const size_t space = formulas.find_last_of(" \t", split);
        if (space == std::string::npos) {
          std::printf("usage: :explain <op> <phi> <mu>\n");
          return true;
        }
        phi_text = formulas.substr(0, space);
        mu_text = formulas.substr(space + 1);
      }
      StatusOr<Formula> phi = Parse(phi_text, &vocabulary_);
      if (!phi.ok()) {
        std::printf("parse error in phi: %s\n",
                    phi.status().ToString().c_str());
        return true;
      }
      StatusOr<Formula> mu = Parse(mu_text, &vocabulary_);
      if (!mu.ok()) {
        std::printf("parse error in mu: %s\n",
                    mu.status().ToString().c_str());
        return true;
      }
      const Explanation explanation =
          Explain(*op, Theory({*phi}), *mu);
      std::printf("%s", RenderExplanation(explanation).c_str());
      return true;
    }
    if (command == ":save") {
      if (rest.empty()) {
        std::printf("usage: :save <path>\n");
        return true;
      }
      EnsureKb();
      const Status status = SaveKnowledgeBaseArtifact(*kb_, rest);
      if (status.ok()) {
        std::printf("artifact written to %s\n", rest.c_str());
      } else {
        std::printf("save failed: %s\n", status.ToString().c_str());
      }
      return true;
    }
    if (command == ":load") {
      if (rest.empty()) {
        std::printf("usage: :load <path>\n");
        return true;
      }
      StatusOr<KnowledgeBase> loaded =
          LoadKnowledgeBaseArtifact(rest, &vocabulary_);
      if (!loaded.ok()) {
        std::printf("load failed: %s\n",
                    loaded.status().ToString().c_str());
        return true;
      }
      kb_ = std::make_unique<KnowledgeBase>(std::move(loaded).value());
      // Sync the session so assert/reset rebuild from the loaded state.
      theory_ = kb_->initial();
      op_ = &kb_->op();
      strategy_ = kb_->strategy();
      std::printf("loaded %s: operator=%s, %zu revision(s), %zu model(s)\n",
                  rest.c_str(), std::string(op_->name()).c_str(),
                  kb_->num_revisions(), kb_->Models().size());
      return true;
    }
    if (command == "size") {
      EnsureKb();
      std::printf("stored size: %llu variable occurrences\n",
                  static_cast<unsigned long long>(kb_->StoredSize()));
      return true;
    }
    std::printf("unknown command '%s' — try 'help'\n", command.c_str());
    return true;
  }

  void EnsureKb() {
    if (kb_ == nullptr) Rebuild();
  }

  void Rebuild() {
    auto kb = KnowledgeBase::Create(theory_, op_, strategy_, &vocabulary_);
    if (!kb.ok()) {
      std::printf("%s — falling back to the delayed strategy\n",
                  kb.status().ToString().c_str());
      strategy_ = RevisionStrategy::kDelayed;
      kb = KnowledgeBase::Create(theory_, op_, strategy_, &vocabulary_);
    }
    kb_ = std::make_unique<KnowledgeBase>(std::move(kb).value());
  }

  Vocabulary vocabulary_;
  Theory theory_;
  const RevisionOperator* op_ = OperatorById(OperatorId::kDalal);
  RevisionStrategy strategy_ = RevisionStrategy::kDelayed;
  std::unique_ptr<KnowledgeBase> kb_;
};

}  // namespace

int main() {
  // Collect spans silently so :trace always has a timeline to export;
  // an explicit REVISE_TRACE=chrome:<path> setting wins.
  if (!revise::obs::TracingEnabled()) {
    revise::obs::SetTraceSink(revise::obs::TraceSink::kSilent);
  }
  // Honor REVISE_WATCHDOG_S like the benches do.
  revise::obs::StartStallWatchdogFromEnv();
  Repl repl;
  repl.Run();
  return 0;
}
