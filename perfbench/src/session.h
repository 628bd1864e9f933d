// The client: runs one session script against the public KnowledgeBase
// API, timing every operation with the steady clock.

#ifndef PERFBENCH_SESSION_H_
#define PERFBENCH_SESSION_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "logic/formula.h"
#include "logic/interpretation.h"
#include "logic/theory.h"
#include "logic/vocabulary.h"
#include "model/model_set.h"
#include "util/status.h"
#include "workloads.h"

namespace perfbench {

// Timed operation kinds.  kAsk covers Ask and IsModel; kColdStart is
// LoadKnowledgeBaseArtifact plus the first query on the loaded KB.
enum OpKind { kOpen, kRevise, kAsk, kModels, kSave, kColdStart, kOpKinds };
const char* OpKindName(OpKind kind);

// What a session returned, compared across strategies (verification)
// and between the KnowledgeBase run and its layer replay (fidelity).
struct Transcript {
  std::vector<bool> answers;          // every Ask / IsModel, in order
  std::vector<uint64_t> model_counts;  // |Models()| per call
  std::vector<uint64_t> model_hashes;  // ModelSetHash per call
  uint64_t stored_size = 0;            // StoredSize() before the save

  bool operator==(const Transcript& other) const = default;
};

// Latencies of one session, per kind in call order.
struct OpTimes {
  std::array<std::vector<double>, kOpKinds> ms;

  double TotalMs() const;
  uint64_t Count() const;
};

// The parsed text sources of a session.
struct Sources {
  revise::Theory theory;  // empty when the session starts from an artifact
  std::vector<revise::Formula> updates;
  std::vector<revise::Formula> asks;
  std::vector<revise::Interpretation> minterms;
  revise::Alphabet minterm_alphabet;
};

// Parses the session's text sources into `vocabulary`, in a fixed order
// so that every run of a script interns the same ids.
revise::StatusOr<Sources> ParseSources(const SessionSpec& spec,
                                       revise::Vocabulary* vocabulary);

// The i-th query of `block`: an Ask when i < asks_per_step, else IsModel.
struct Query {
  bool is_model = false;
  size_t index = 0;  // into Sources::asks or Sources::minterms
};
Query QueryAt(const SessionSpec& spec, int block, int i);

// Order-sensitive hash of a model set (its alphabet and rows).
uint64_t ModelSetHash(const revise::ModelSet& models);

struct SessionResult {
  Transcript transcript;
  OpTimes times;
  uint64_t failed = 0;  // planned operations that failed or never ran
  std::string error;    // first failure
};

// Runs `spec` through KnowledgeBase, saving the artifact to `save_path`.
// The global model cache is cleared first, so every session starts as a
// fresh process would.
SessionResult RunKbSession(const SessionSpec& spec,
                           const std::string& save_path);

}  // namespace perfbench

#endif  // PERFBENCH_SESSION_H_
