// The traced run: replays a session by calling the layer functions that
// KnowledgeBase composes, in the same order, with a span around each
// call.
//
// Spans are recorded from the benchmark's side of each layer boundary
// and kept in memory; work counts come from the library's obs::Registry
// counters read before and after every span.  Three span levels:
//
//   session                      one per replayed session
//     op.<kind>                  one per timed KnowledgeBase operation
//       <layer>                  one per layer call inside the operation
//
// Layer spans never nest, so a layer's self time is its span duration.
// Everything an operation does between layer calls (alphabet
// recomputation, the by-value Models() copies, state moves and frees,
// Reinterpret) runs inside `core` spans; what the spans miss is the op
// spans' own self time, reported as the unattributed share.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "session.h"
#include "util/status.h"
#include "workloads.h"

namespace perfbench {

enum Layer : uint8_t {
  kLayerSession,
  kLayerOp,
  kLayerParse,          // logic: TheoryFromText via LoadTheoryFromFile
  kLayerEnumerate,      // solve: EnumerateModels
  kLayerEntails,        // solve: Entails
  kLayerCanonicalDnf,   // model: CanonicalDnf
  kLayerReviseModels,   // revision: ReviseModelsAuto (kernel sweeps inside)
  kLayerReviseFormula,  // revision: ReviseFormula / WidtioTheory
  kLayerCompactStep,    // compact: *CompactStep
  kLayerArtifactSave,   // artifact: WriteKbArtifact
  kLayerArtifactLoad,   // artifact: LoadKnowledgeBaseArtifact
  kLayerCore,           // core: KnowledgeBase's own glue
  kLayerCount
};
const char* LayerName(Layer layer);

// Registry counters sampled around every span.
enum Counter : uint8_t {
  kSatSolves,
  kSatConflicts,
  kSatDecisions,
  kSatPropagations,
  kModelsEnumerated,
  kCacheHits,
  kCacheMisses,
  kBddNodes,
  kCounterCount
};
const char* CounterName(Counter counter);

struct SpanRecord {
  Layer layer = kLayerSession;
  OpKind op = kOpen;  // the enclosing operation (op and layer spans)
  int32_t parent = -1;
  uint32_t session = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Layer-specific size of the call's result: models returned by
  // EnumerateModels / ReviseModelsAuto, |M| * |alphabet| for CanonicalDnf,
  // the file size for an artifact save.
  uint64_t items = 0;
  std::array<uint64_t, kCounterCount> counters{};  // deltas over the span
};

class Tracer {
 public:
  Tracer();

  // Opens a span under the innermost open span (or as a root).
  int Begin(Layer layer, OpKind op = kOpen);
  void End(int span, uint64_t items = 0);

  void set_session(uint32_t session) { session_ = session; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  // Per span: duration minus the durations of its children.
  std::vector<int64_t> SelfNanos() const;
  // One JSON object per line.
  revise::Status WriteJsonLines(const std::string& path) const;

 private:
  std::array<uint64_t, kCounterCount> ReadCounters() const;

  std::array<const revise::obs::Counter*, kCounterCount> counters_{};
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  uint32_t session_ = 0;
};

struct ReplayResult {
  Transcript transcript;
  std::string error;
};

// Replays `spec` under one session span.  Clears the global model cache
// first, as RunKbSession does.
ReplayResult ReplaySession(const SessionSpec& spec, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
