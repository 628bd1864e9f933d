// Workload inputs for the pipeline benchmark.
//
// A workload is a pool of sessions generated from the --seed argument.
// Each session is a script a client runs against one KnowledgeBase:
// text sources on disk (theory, update log, Ask queries, IsModel
// minterms), optionally a compiled initial .rkb, and the shape of the
// loop (revisions, queries per revision, where Models() goes).  The
// library only ever sees the files; everything in SessionSpec besides
// the paths and the loop shape is bookkeeping for the verification pass.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/knowledge_base.h"
#include "revision/operator.h"
#include "util/status.h"

namespace perfbench {

enum class Workload { kDelayedAsk, kDelayedWide, kCompactChain, kExplicitPersist };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// kTiny runs every workload in well under a second (smoke test).
enum class Size { kTiny, kFull };

struct SessionSpec {
  int id = 0;
  revise::OperatorId op = revise::OperatorId::kDalal;
  revise::RevisionStrategy strategy = revise::RevisionStrategy::kDelayed;
  // Files: stem + ".theory" / ".revise" / ".ask" / ".model", and for
  // sessions that start from a compiled artifact stem + ".init.rkb".
  // The session saves to stem + ".rkb".
  std::string stem;
  bool start_from_artifact = false;

  // The script: open, then per revision step
  //   Revise(P^i) -> [Models()] -> asks_per_step x Ask
  //   -> models_per_step x IsModel -> [Models()] -> save -> cold start
  // where Models() comes first or last by models_first, and the cold start
  // drops the KB, loads the saved artifact and asks one more query.
  int steps = 0;            // revisions m
  int asks_per_step = 0;    // Ask calls after each revision
  int models_per_step = 0;  // IsModel calls after each revision
  bool models_first = false;

  // Answers known from the paper's reductions: (index into the session's
  // answer sequence, expected answer).
  std::vector<std::pair<size_t, bool>> known_answers;
  // |V(T) ∪ V(P^1) ∪ ... ∪ V(P^m)| and max_i |V(P^i)|.
  size_t alphabet_size = 0;
  size_t max_update_letters = 0;

  // Number of timed operations the script performs.
  [[nodiscard]] uint64_t PlannedOps() const;
  // Ask + IsModel calls in one step, before the cold-start query.
  [[nodiscard]] int QueriesPerBlock() const {
    return asks_per_step + models_per_step;
  }
  // Lengths of the .ask file (asks_per_step + the cold-start query, per
  // step) and of the .model file.
  [[nodiscard]] size_t AskCount() const {
    return static_cast<size_t>(steps) * (asks_per_step + 1);
  }
  [[nodiscard]] size_t MintermCount() const {
    return static_cast<size_t>(steps) * models_per_step;
  }
  // Position in the answer sequence of query i of step `block`;
  // i == QueriesPerBlock() is the cold-start query.
  [[nodiscard]] size_t AnswerIndex(int block, int i) const {
    return static_cast<size_t>(block) * (QueriesPerBlock() + 1) + i;
  }
};

// Generates the session pool of `workload` from `seed` and writes its
// sources (and any initial artifacts) under `dir`, which must exist.
revise::StatusOr<std::vector<SessionSpec>> GenerateWorkload(
    Workload workload, uint64_t seed, Size size, const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
