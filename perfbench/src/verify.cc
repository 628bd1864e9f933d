#include "verify.h"

#include <memory>

#include "fuzz/oracles.h"
#include "fuzz/scenario.h"

namespace perfbench {
namespace {

using revise::RevisionStrategy;

constexpr size_t kMaxDetails = 8;
// The naive reference is cubic in the model counts (seconds per scenario
// at 12 letters), so a run checks only its first eligible (T, P^i) pairs.
constexpr uint64_t kMaxOracleScenarios = 2;

void Disagree(VerifyReport* report, const std::string& what) {
  ++report->wrong_answers;
  if (report->details.size() < kMaxDetails) report->details.push_back(what);
}

// Updates wider than this make the Section 6 constructions (which
// expand a quantifier over every assignment to V(P)) exponential, so the
// compact re-run is skipped for those four operators.
constexpr size_t kMaxBoundedUpdateLetters = 6;

bool CompactApplies(const SessionSpec& spec) {
  switch (spec.op) {
    case revise::OperatorId::kGfuv:
    case revise::OperatorId::kNebel:
      return false;  // Create rejects them
    case revise::OperatorId::kWinslett:
    case revise::OperatorId::kBorgida:
    case revise::OperatorId::kSatoh:
    case revise::OperatorId::kForbus:
      return spec.max_update_letters <= kMaxBoundedUpdateLetters;
    default:
      return true;
  }
}

const char* StrategyName(RevisionStrategy s) {
  switch (s) {
    case RevisionStrategy::kDelayed:
      return "delayed";
    case RevisionStrategy::kExplicit:
      return "explicit";
    case RevisionStrategy::kCompact:
      return "compact";
  }
  return "?";
}

void CheckStrategies(const SessionSpec& spec, const Transcript& measured,
                     VerifyReport* report) {
  for (const RevisionStrategy s :
       {RevisionStrategy::kDelayed, RevisionStrategy::kExplicit,
        RevisionStrategy::kCompact}) {
    if (s == spec.strategy) continue;
    if (s == RevisionStrategy::kCompact && !CompactApplies(spec)) {
      ++report->skipped;
      continue;
    }
    SessionSpec other = spec;
    other.strategy = s;
    other.start_from_artifact = false;  // the initial .rkb fixes a strategy
    const SessionResult r = RunKbSession(
        other, spec.stem + "." + StrategyName(s) + ".rkb");
    report->attempted += other.PlannedOps();
    report->failed += r.failed;
    const std::string where = spec.stem + " " + StrategyName(s) + ": ";
    if (!r.error.empty()) {
      Disagree(report, where + r.error);
      continue;
    }
    const Transcript& t = r.transcript;
    for (size_t i = 0; i < measured.answers.size(); ++i) {
      ++report->checks;
      if (i >= t.answers.size() || t.answers[i] != measured.answers[i]) {
        Disagree(report, where + "answer " + std::to_string(i));
      }
    }
    for (size_t i = 0; i < measured.model_hashes.size(); ++i) {
      ++report->checks;
      if (i >= t.model_hashes.size() ||
          t.model_hashes[i] != measured.model_hashes[i]) {
        Disagree(report, where + "Models() call " + std::to_string(i));
      }
    }
  }
}

void CheckKnownAnswers(const SessionSpec& spec, const Transcript& measured,
                       VerifyReport* report) {
  for (const auto& [index, expected] : spec.known_answers) {
    ++report->checks;
    if (index >= measured.answers.size() ||
        measured.answers[index] != expected) {
      Disagree(report, spec.stem + ": answer " + std::to_string(index) +
                           " differs from 3-SAT of pi");
    }
  }
}

void CheckOperatorReference(const SessionSpec& spec, VerifyReport* report) {
  if (spec.alphabet_size > revise::fuzz::kMaxOracleAlphabet) return;
  auto vocabulary = std::make_shared<revise::Vocabulary>();
  SessionSpec text = spec;
  text.start_from_artifact = false;
  revise::StatusOr<Sources> sources = ParseSources(text, vocabulary.get());
  if (!sources.ok()) {
    Disagree(report, spec.stem + ": " + sources.status().ToString());
    return;
  }
  for (const revise::Formula& p : sources->updates) {
    if (report->oracle_scenarios == kMaxOracleScenarios) return;
    ++report->oracle_scenarios;
    revise::fuzz::Scenario scenario;
    scenario.vocabulary = vocabulary;
    scenario.t = sources->theory;
    scenario.p = p;
    scenario.q = sources->asks.empty() ? revise::Formula::True()
                                       : sources->asks.front();
    ++report->checks;
    if (const auto failure =
            revise::fuzz::CheckScenario(scenario, "operator-reference")) {
      Disagree(report, spec.stem + ": " + failure->oracle + ": " +
                           failure->detail);
    }
  }
}

}  // namespace

VerifyReport Verify(const std::vector<SessionSpec>& specs,
                    const std::vector<Transcript>& transcripts,
                    size_t deep_sessions) {
  VerifyReport report;
  for (size_t i = 0; i < specs.size(); ++i) {
    CheckKnownAnswers(specs[i], transcripts[i], &report);
    if (i < deep_sessions) {
      CheckStrategies(specs[i], transcripts[i], &report);
      CheckOperatorReference(specs[i], &report);
    }
  }
  return report;
}

}  // namespace perfbench
