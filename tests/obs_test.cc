// Tests for the observability layer: counter/gauge/histogram registry,
// scoped tracing spans and the span ring buffer, causal span trees
// across the thread pool, Chrome trace export (including flow events),
// memory accounting, the JSON document model, the report schema, and the
// soft-deadline path through SatContext.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sat/literal.h"
#include "solve/sat_context.h"
#include "util/parallel.h"
#include "util/status.h"

namespace revise {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::Json;
using obs::Registry;
using obs::Span;
using obs::SpanRecord;
using obs::TraceSink;

// ---------------------------------------------------------------------
// Counter / gauge registry.

TEST(MetricsTest, CounterIncrementAndValue) {
  obs::Counter* c = Registry::Global().GetCounter("test.counter_basic");
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST(MetricsTest, GetCounterInternsByName) {
  obs::Counter* a = Registry::Global().GetCounter("test.interned");
  obs::Counter* b = Registry::Global().GetCounter("test.interned");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "test.interned");
  // The macro resolves to the same instrument.
  REVISE_OBS_COUNTER("test.interned").Increment();
  EXPECT_GE(a->Value(), 1u);
}

TEST(MetricsTest, SnapshotContainsRegisteredCounter) {
  obs::Counter* c = Registry::Global().GetCounter("test.snapshot_me");
  c->Reset();
  c->Increment(7);
  bool found = false;
  const auto snapshot = Registry::Global().Snapshot().counters;
  for (const auto& [name, value] : snapshot) {
    if (name == "test.snapshot_me") {
      found = true;
      EXPECT_EQ(value, 7u);
    }
  }
  EXPECT_TRUE(found);
  // Snapshots are name-sorted.
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].first, snapshot[i].first);
  }
}

TEST(MetricsTest, GaugeSetAndUpdateMax) {
  obs::Gauge* g = Registry::Global().GetGauge("test.gauge");
  g->Reset();
  g->Set(10);
  EXPECT_EQ(g->Value(), 10);
  g->UpdateMax(5);  // no effect: 5 < 10
  EXPECT_EQ(g->Value(), 10);
  g->UpdateMax(20);
  EXPECT_EQ(g->Value(), 20);
}

TEST(MetricsTest, ConcurrentIncrementsAreNotLost) {
  obs::Counter* c = Registry::Global().GetCounter("test.threads");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------
// Histograms.

TEST(HistogramTest, SmallValuesHaveExactBuckets) {
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), v);
  }
}

TEST(HistogramTest, BucketBoundsBracketTheSample) {
  const uint64_t samples[] = {8,    9,     15,        16,  17,
                              100,  1023,  1024,      4095, 1u << 20,
                              uint64_t{1} << 40, ~uint64_t{0}};
  for (const uint64_t v : samples) {
    const size_t index = Histogram::BucketIndex(v);
    ASSERT_LT(index, Histogram::kNumBuckets) << v;
    const uint64_t upper = Histogram::BucketUpperBound(index);
    EXPECT_GE(upper, v) << v;
    // Sub-bucket width is 2^(octave-3): the conservative representative
    // overshoots by at most 12.5%.
    EXPECT_LE(upper - v, v / Histogram::kSubBuckets) << v;
    // The representative maps back to its own bucket, and the next value
    // starts the next bucket.
    EXPECT_EQ(Histogram::BucketIndex(upper), index) << v;
    if (upper != ~uint64_t{0}) {
      EXPECT_EQ(Histogram::BucketIndex(upper + 1), index + 1) << v;
    }
  }
}

TEST(HistogramTest, SnapshotOfEmptyHistogramIsZero) {
  Histogram* h = Registry::Global().GetHistogram("test.hist_empty");
  h->Reset();
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(HistogramTest, PercentilesOfUniformSamples) {
  Histogram* h = Registry::Global().GetHistogram("test.hist_uniform");
  h->Reset();
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v);
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 5050u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
  // Bucketed percentiles are conservative: at or above the true rank
  // value, within the 12.5% bucket width.
  EXPECT_GE(s.p50, 50u);
  EXPECT_LE(s.p50, 50u + 50u / 8u);
  EXPECT_GE(s.p90, 90u);
  EXPECT_LE(s.p90, 90u + 90u / 8u);
  EXPECT_GE(s.p99, 99u);
  EXPECT_LE(s.p99, 99u + 99u / 8u);
  h->Reset();
  EXPECT_EQ(h->Snapshot().count, 0u);
}

TEST(HistogramTest, SingleSamplePinsEveryPercentile) {
  Histogram* h = Registry::Global().GetHistogram("test.hist_single");
  h->Reset();
  h->Record(37);
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 37u);
  EXPECT_EQ(s.min, 37u);
  EXPECT_EQ(s.max, 37u);
  EXPECT_DOUBLE_EQ(s.Mean(), 37.0);
  // With one sample, every quantile falls in its bucket: the shared
  // representative is the bucket upper bound for 37 (the 32..39 octave
  // slice, representative 39).
  const uint64_t representative =
      Histogram::BucketUpperBound(Histogram::BucketIndex(37));
  EXPECT_EQ(s.p50, representative);
  EXPECT_EQ(s.p90, representative);
  EXPECT_EQ(s.p99, representative);
}

TEST(HistogramTest, SingleExactSamplePercentilesAreExact) {
  // Values below kSubBuckets have width-one buckets, so the percentile
  // estimate is the sample itself, not an overshoot.
  Histogram* h = Registry::Global().GetHistogram("test.hist_exact");
  h->Reset();
  h->Record(5);
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.p50, 5u);
  EXPECT_EQ(s.p90, 5u);
  EXPECT_EQ(s.p99, 5u);
}

TEST(HistogramTest, AllSamplesInOneSubBucketCollapseThePercentiles) {
  // 1000 samples spread across one sub-bucket (1024..1151 share a bucket
  // at 3 sub-bucket bits) are indistinguishable to the estimator: every
  // percentile reports the bucket's upper bound while min/max/sum stay
  // exact.
  Histogram* h = Registry::Global().GetHistogram("test.hist_one_bucket");
  h->Reset();
  const size_t index = Histogram::BucketIndex(1024);
  ASSERT_EQ(Histogram::BucketIndex(1151), index);
  for (uint64_t i = 0; i < 1000; ++i) h->Record(1024 + i % 128);
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1024u);
  EXPECT_EQ(s.max, 1151u);
  const uint64_t representative = Histogram::BucketUpperBound(index);
  EXPECT_EQ(representative, 1151u);
  EXPECT_EQ(s.p50, representative);
  EXPECT_EQ(s.p90, representative);
  EXPECT_EQ(s.p99, representative);
}

TEST(HistogramTest, ZeroSamplesLandInTheZeroBucket) {
  // A histogram fed only zeros must not confuse "no samples" with
  // "samples of value zero".
  Histogram* h = Registry::Global().GetHistogram("test.hist_zeros");
  h->Reset();
  for (int i = 0; i < 10; ++i) h->Record(0);
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.p99, 0u);
}

TEST(HistogramTest, SaturatingSampleStaysInTheLastBucket) {
  Histogram* h = Registry::Global().GetHistogram("test.hist_saturate");
  h->Reset();
  h->Record(~uint64_t{0});
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.max, ~uint64_t{0});
  EXPECT_EQ(s.p50, ~uint64_t{0});
  EXPECT_EQ(s.p99, ~uint64_t{0});
}

TEST(HistogramTest, TwoSamplesSplitTheMedianRank) {
  // With two samples, rank(ceil(0.5 * 2)) == 1: the median is the lower
  // sample's bucket, while p90/p99 land on the upper one.
  Histogram* h = Registry::Global().GetHistogram("test.hist_two");
  h->Reset();
  h->Record(2);
  h->Record(1000);
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.p50, 2u);
  EXPECT_EQ(s.p90, Histogram::BucketUpperBound(Histogram::BucketIndex(1000)));
  EXPECT_EQ(s.p99, s.p90);
}

TEST(HistogramTest, MacroInternsByName) {
  Histogram* h = Registry::Global().GetHistogram("test.hist_macro");
  h->Reset();
  REVISE_OBS_HISTOGRAM("test.hist_macro").Record(3);
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_EQ(h->name(), "test.hist_macro");
}

TEST(HistogramTest, ConcurrentRecordsAreNotLost) {
  Histogram* h = Registry::Global().GetHistogram("test.hist_threads");
  h->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot s = h->Snapshot();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(s.count, kTotal);
  EXPECT_EQ(s.sum, kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, kTotal - 1);
}

// ---------------------------------------------------------------------
// Spans.

TEST(TraceTest, DisabledSpansRecordNothing) {
  obs::SetTraceSink(TraceSink::kNone);
  obs::ClearSpans();
  {
    Span span("test.should_not_appear");
  }
  EXPECT_TRUE(obs::SnapshotSpans().empty());
}

TEST(TraceTest, NestedSpansRecordDepthAndCompletionOrder) {
  obs::SetTraceSink(TraceSink::kSilent);
  obs::ClearSpans();
  {
    Span outer("test.outer");
    {
      Span inner("test.", "inner");
    }
  }
  obs::SetTraceSink(TraceSink::kNone);
  const std::vector<SpanRecord> spans = obs::SnapshotSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: inner finishes first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].depth, 0);
  // The outer span contains the inner one in time.
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].duration_ns, spans[0].duration_ns);
  // Causal links: the inner span carries the outer one's id; the outer
  // span is a root.
  EXPECT_NE(spans[1].id, 0u);
  EXPECT_NE(spans[0].id, spans[1].id);
  EXPECT_EQ(spans[0].parent_id, spans[1].id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  obs::ClearSpans();
  EXPECT_TRUE(obs::SnapshotSpans().empty());
}

TEST(TraceTest, RingBufferWrapsOldestFirstAndCountsDrops) {
  obs::SetSpanBufferCapacity(4);
  obs::Counter* dropped =
      Registry::Global().GetCounter("obs.spans_dropped");
  const uint64_t before = dropped->Value();
  obs::SetTraceSink(TraceSink::kSilent);
  for (int i = 0; i < 6; ++i) {
    Span span("test.wrap_" + std::to_string(i));
  }
  obs::SetTraceSink(TraceSink::kNone);
  const std::vector<SpanRecord> spans = obs::SnapshotSpans();
  ASSERT_EQ(spans.size(), 4u);  // bounded at capacity
  // Oldest surviving span first: 0 and 1 were overwritten.
  EXPECT_EQ(spans[0].name, "test.wrap_2");
  EXPECT_EQ(spans[3].name, "test.wrap_5");
  EXPECT_EQ(dropped->Value(), before + 2);
  obs::SetSpanBufferCapacity(obs::kDefaultSpanBufferCapacity);
}

TEST(TraceTest, SpanBufferCapacityClampsZeroToOne) {
  obs::SetSpanBufferCapacity(0);
  EXPECT_EQ(obs::SpanBufferCapacity(), 1u);
  obs::SetSpanBufferCapacity(obs::kDefaultSpanBufferCapacity);
  EXPECT_EQ(obs::SpanBufferCapacity(), obs::kDefaultSpanBufferCapacity);
}

TEST(TraceTest, ChromeTraceExportRoundTrips) {
  obs::SetSpanBufferCapacity(obs::kDefaultSpanBufferCapacity);
  obs::SetTraceSink(TraceSink::kSilent);
  {
    Span outer("test.chrome_outer");
    Span inner("test.chrome_inner");
  }
  obs::SetTraceSink(TraceSink::kNone);

  const std::string path = ::testing::TempDir() + "revise_chrome_trace.json";
  const Status status = obs::WriteChromeTrace(path);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  StatusOr<Json> parsed = Json::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("displayTimeUnit")->AsString(), "ms");
  const Json& events = *parsed->Find("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  bool outer_found = false;
  for (const Json& event : events.array()) {
    EXPECT_EQ(event.Find("ph")->AsString(), "X");
    EXPECT_EQ(event.Find("cat")->AsString(), "revise");
    EXPECT_TRUE(event.Has("ts"));
    EXPECT_TRUE(event.Has("dur"));
    EXPECT_TRUE(event.Has("pid"));
    EXPECT_TRUE(event.Has("tid"));
    // Timestamps are rebased to the earliest span.
    EXPECT_GE(event.Find("ts")->AsDouble(), 0.0);
    if (event.Find("name")->AsString() == "test.chrome_outer") {
      outer_found = true;
      EXPECT_EQ(event.Find("args")->Find("depth")->AsInt(), 0);
      EXPECT_EQ(event.Find("args")->Find("parent_id")->AsUint(), 0u);
      EXPECT_NE(event.Find("args")->Find("id")->AsUint(), 0u);
    }
  }
  EXPECT_TRUE(outer_found);
  std::remove(path.c_str());
  obs::ClearSpans();
}

// ---------------------------------------------------------------------
// Causal span trees across the thread pool.

// Collects the spans of one traced parallel operation: a root span that
// fans out via ParallelMapRanges, each shard opening a span with a
// nested leaf.
std::vector<SpanRecord> RunTracedParallelOperation() {
  obs::SetTraceSink(TraceSink::kSilent);
  obs::ClearSpans();
  {
    Span root("test.causal_root");
    ParallelMapRanges<int>(64, 1, [](size_t begin, size_t end) {
      Span shard("test.causal_shard");
      Span leaf("test.causal_leaf");
      return static_cast<int>(end - begin);
    });
  }
  obs::SetTraceSink(TraceSink::kNone);
  return obs::SnapshotSpans();
}

// The regression this guards: spans opened inside pool-worker shard
// tasks used to start fresh roots on the worker thread.  With the
// pool-context hooks they attach to the operation that spawned the
// batch, so every thread count yields one single rooted tree.
TEST(TraceCausalityTest, PoolShardSpansFormOneRootedTree) {
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreadsOverride(threads);
    const std::vector<SpanRecord> spans = RunTracedParallelOperation();
    SetParallelThreadsOverride(0);
    ASSERT_GE(spans.size(), 3u) << "threads=" << threads;

    std::map<uint64_t, const SpanRecord*> by_id;
    uint64_t root_id = 0;
    size_t roots = 0;
    for (const SpanRecord& span : spans) {
      EXPECT_NE(span.id, 0u);
      EXPECT_TRUE(by_id.emplace(span.id, &span).second)
          << "duplicate span id " << span.id;
      if (span.parent_id == 0) {
        ++roots;
        root_id = span.id;
        EXPECT_EQ(span.name, "test.causal_root");
      }
    }
    EXPECT_EQ(roots, 1u) << "threads=" << threads;

    for (const SpanRecord& span : spans) {
      if (span.parent_id == 0) continue;
      // Every non-root span hangs off a recorded span, and the parent
      // links are stable: shards attach to the root, leaves to their
      // shard, with depths one below their parent's.
      const auto parent = by_id.find(span.parent_id);
      ASSERT_NE(parent, by_id.end()) << span.name;
      EXPECT_EQ(span.depth, parent->second->depth + 1) << span.name;
      if (span.name == "test.causal_shard") {
        EXPECT_EQ(span.parent_id, root_id);
      } else {
        ASSERT_EQ(span.name, "test.causal_leaf");
        EXPECT_EQ(parent->second->name, "test.causal_shard");
      }
    }
  }
}

TEST(TraceCausalityTest, ChromeExportEmitsFlowEventsForCrossThreadSpans) {
  SetParallelThreadsOverride(8);
  const std::vector<SpanRecord> spans = RunTracedParallelOperation();
  SetParallelThreadsOverride(0);

  // Whether any child ran on a different thread than its parent decides
  // whether flow events must appear (the pool may legally run every
  // shard on the submitting thread if it drains the batch first).
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) by_id.emplace(span.id, &span);
  std::set<uint64_t> cross_thread_children;
  for (const SpanRecord& span : spans) {
    const auto parent = by_id.find(span.parent_id);
    if (parent != by_id.end() && parent->second->tid != span.tid) {
      cross_thread_children.insert(span.id);
    }
  }

  const std::string path = ::testing::TempDir() + "revise_flow_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path).ok());
  obs::ClearSpans();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  StatusOr<Json> parsed = Json::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Flow events round-trip: every cross-thread child has a start ("s")
  // and finish ("f") pair keyed by its span id, and no other flow ids
  // appear.
  std::set<uint64_t> starts;
  std::set<uint64_t> finishes;
  for (const Json& event : parsed->Find("traceEvents")->array()) {
    const std::string ph = event.Find("ph")->AsString();
    if (ph != "s" && ph != "f") continue;
    EXPECT_EQ(event.Find("cat")->AsString(), "revise.flow");
    const uint64_t flow_id = event.Find("id")->AsUint();
    EXPECT_TRUE(cross_thread_children.count(flow_id) != 0) << flow_id;
    (ph == "s" ? starts : finishes).insert(flow_id);
  }
  EXPECT_EQ(starts, cross_thread_children);
  EXPECT_EQ(finishes, cross_thread_children);
}

// ---------------------------------------------------------------------
// Memory accounting.

TEST(MemoryTest, PeakRssIsPositiveAndMonotone) {
#ifdef __linux__
  const uint64_t first = obs::MemoryStats::PeakRssBytes();
  EXPECT_GT(first, 0u);
  // Touch a few megabytes so the high-water mark cannot go backwards
  // even if the kernel re-accounts pages.
  std::vector<char> ballast(8 << 20, 1);
  EXPECT_GT(ballast.back(), 0);
  const uint64_t second = obs::MemoryStats::PeakRssBytes();
  EXPECT_GE(second, first);
#else
  EXPECT_EQ(obs::MemoryStats::PeakRssBytes(), 0u);
#endif
}

TEST(MemoryTest, ToJsonCarriesRssAndByteGauges) {
  // The report's memory section: process RSS plus the `mem.*` gauges.
  REVISE_OBS_GAUGE("mem.test_bytes").Set(123);
  const Json doc = obs::Report("memory").ToJson();
  const Json& j = *doc.Find("memory");
  ASSERT_TRUE(j.Has("peak_rss_bytes"));
  ASSERT_TRUE(j.Has("current_rss_bytes"));
  ASSERT_TRUE(j.Has("mem.test_bytes"));
  EXPECT_EQ(j.Find("mem.test_bytes")->AsInt(), 123);
#ifdef __linux__
  EXPECT_GE(j.Find("peak_rss_bytes")->AsUint(),
            j.Find("current_rss_bytes")->AsUint());
#endif
  REVISE_OBS_GAUGE("mem.test_bytes").Set(0);
}

// ---------------------------------------------------------------------
// Json.

TEST(JsonTest, DumpScalars) {
  EXPECT_EQ(Json(nullptr).Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(-3).Dump(), "-3");
  EXPECT_EQ(Json(uint64_t{18446744073709551615u}).Dump(),
            "18446744073709551615");
  EXPECT_EQ(Json("hi \"there\"\n").Dump(), "\"hi \\\"there\\\"\\n\"");
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  Json j = Json::MakeObject();
  j["zebra"] = 1;
  j["apple"] = 2;
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.object()[0].first, "zebra");
  EXPECT_EQ(j.object()[1].first, "apple");
  EXPECT_EQ(j.Dump(), "{\"zebra\": 1, \"apple\": 2}");
}

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string text =
      "{\"name\": \"bench\", \"values\": [1, 2.5, -7, true, null], "
      "\"nested\": {\"k\": \"v\"}, \"big\": 18446744073709551615}";
  StatusOr<Json> parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);
  // Round-trip again through the pretty printer.
  StatusOr<Json> reparsed = Json::Parse(parsed->Dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(*reparsed == *parsed);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
}

TEST(JsonTest, ParseBoundsNestingDepth) {
  // Regression: the recursive-descent parser once followed any nesting
  // and overflowed the stack at 100k levels (200 KB of input).
  const auto nested = [](size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const StatusOr<Json> deepest = Json::Parse(nested(obs::kMaxJsonDepth));
  EXPECT_TRUE(deepest.ok()) << deepest.status().ToString();
  for (const size_t depth :
       {static_cast<size_t>(obs::kMaxJsonDepth) + 1, size_t{100000}}) {
    const StatusOr<Json> parsed = Json::Parse(nested(depth));
    ASSERT_FALSE(parsed.ok()) << depth;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("depth limit"),
              std::string::npos);
  }
  const StatusOr<Json> objects =
      Json::Parse(std::string(100000, '{') + std::string(100000, '}'));
  EXPECT_EQ(objects.status().code(), StatusCode::kInvalidArgument);
  std::string mixed;
  for (int i = 0; i < 50000; ++i) mixed += "{\"a\":[";
  EXPECT_EQ(Json::Parse(mixed).status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Report schema.

TEST(ReportTest, ToJsonMatchesSchema) {
  obs::Report report("schema_check");
  report.SetMeta("n", 12);
  report.AddTable("sizes", {"m", "size"});
  report.AddRow("sizes", {1, uint64_t{10}});
  report.AddRow("sizes", {2, uint64_t{20}});
  report.AddSeries("growth", {10.0, 20.0}, "polynomial");
  // Ensure at least one counter, histogram sample, and span exist in the
  // snapshot.
  REVISE_OBS_COUNTER("test.report_counter").Increment();
  REVISE_OBS_HISTOGRAM("test.report_hist").Record(7);
  obs::SetTraceSink(TraceSink::kSilent);
  { Span span("test.report_span"); }
  obs::SetTraceSink(TraceSink::kNone);

  const Json j = report.ToJson();
  // Fixed top-level field order (schema v2.1: additive over v2 — the
  // minor stamp right after the version, profiles appended last).
  const std::vector<std::string> expected_keys = {
      "schema_version", "schema_minor", "name",     "manifest",
      "meta",           "tables",       "series",   "counters",
      "gauges",         "histograms",   "memory",   "spans",
      "profiles"};
  ASSERT_EQ(j.object().size(), expected_keys.size());
  for (size_t i = 0; i < expected_keys.size(); ++i) {
    EXPECT_EQ(j.object()[i].first, expected_keys[i]);
  }
  EXPECT_EQ(j.Find("schema_version")->AsInt(), obs::kSchemaVersion);
  EXPECT_EQ(j.Find("schema_minor")->AsInt(), obs::kSchemaMinor);
  EXPECT_TRUE(j.Find("profiles")->is_array());
  EXPECT_EQ(j.Find("name")->AsString(), "schema_check");
  EXPECT_EQ(j.Find("meta")->Find("n")->AsInt(), 12);

  // The manifest pins the build and environment the run came from.
  const Json& manifest = *j.Find("manifest");
  EXPECT_TRUE(manifest.Has("git_sha"));
  EXPECT_TRUE(manifest.Has("compiler"));
  EXPECT_TRUE(manifest.Has("build_type"));
  EXPECT_TRUE(manifest.Has("threads"));
  EXPECT_TRUE(manifest.Has("hardware_threads"));
  // v2.2: the process-start anchor and derived uptime.
  EXPECT_GT(manifest.Find("process_start_ns")->AsInt(), 0);
  EXPECT_EQ(manifest.Find("process_start_ns")->AsInt(),
            obs::ProcessStartNanos());
  EXPECT_GE(manifest.Find("uptime_seconds")->AsDouble(), 0.0);
  EXPECT_TRUE(manifest.Find("env")->is_object());

  const Json& tables = *j.Find("tables");
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables.at(0).Find("name")->AsString(), "sizes");
  ASSERT_EQ(tables.at(0).Find("columns")->size(), 2u);
  ASSERT_EQ(tables.at(0).Find("rows")->size(), 2u);
  EXPECT_EQ(tables.at(0).Find("rows")->at(1).at(1).AsUint(), 20u);

  const Json& series = *j.Find("series");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series.at(0).Find("name")->AsString(), "growth");
  EXPECT_EQ(series.at(0).Find("verdict")->AsString(), "polynomial");
  ASSERT_EQ(series.at(0).Find("values")->size(), 2u);

  EXPECT_TRUE(j.Find("counters")->Has("test.report_counter"));
  // Building the manifest refreshes the uptime gauge before the snapshot.
  EXPECT_TRUE(j.Find("gauges")->Has("obs.uptime_seconds"));

  // Histograms carry the summary statistics, not raw buckets.
  const Json* hist = j.Find("histograms")->Find("test.report_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->Find("count")->AsUint(), 1u);
  for (const char* field : {"sum", "min", "max", "mean", "p50", "p90",
                            "p99"}) {
    EXPECT_TRUE(hist->Has(field)) << field;
  }

  EXPECT_TRUE(j.Find("memory")->Has("peak_rss_bytes"));

  bool span_found = false;
  for (const Json& span : j.Find("spans")->array()) {
    if (span.Find("name")->AsString() == "test.report_span") {
      span_found = true;
      EXPECT_TRUE(span.Has("depth"));
      EXPECT_TRUE(span.Has("tid"));
      EXPECT_TRUE(span.Has("start_ns"));
      EXPECT_TRUE(span.Has("duration_ns"));
      EXPECT_NE(span.Find("id")->AsUint(), 0u);
      EXPECT_TRUE(span.Has("parent_id"));
    }
  }
  EXPECT_TRUE(span_found);

  // The document survives a serialize/parse round trip.
  StatusOr<Json> reparsed = Json::Parse(j.Dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(*reparsed == j);
  obs::ClearSpans();
}

// ---------------------------------------------------------------------
// Soft deadline through SatContext.

// Pigeonhole clauses (holes + 1 pigeons into `holes` holes): UNSAT with an
// exponential-resolution proof, so the search reliably outlives a
// microscopic deadline.
void AddPigeonhole(SatContext* context, int holes) {
  const int pigeons = holes + 1;
  sat::Solver& solver = context->solver();
  solver.EnsureVarCount(pigeons * holes);
  auto var = [&](int p, int h) { return p * holes + h; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(sat::PosLit(var(p, h)));
    ASSERT_TRUE(solver.AddClause(std::move(clause)));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(solver.AddClause(
            {sat::NegLit(var(p1, h)), sat::NegLit(var(p2, h))}));
      }
    }
  }
}

TEST(DeadlineTest, TinyDeadlineTimesOutAndReportsCounter) {
  obs::Counter* timeouts =
      Registry::Global().GetCounter("solve.timed_out");
  const uint64_t before = timeouts->Value();
  SatContext context;
  AddPigeonhole(&context, 10);
  context.set_soft_deadline_seconds(1e-6);
  EXPECT_FALSE(context.Solve());
  EXPECT_TRUE(context.timed_out());
  EXPECT_EQ(timeouts->Value(), before + 1);
}

TEST(DeadlineTest, SolveOrDeadlineReturnsExplicitStatus) {
  SatContext context;
  AddPigeonhole(&context, 10);
  context.set_soft_deadline_seconds(1e-6);
  StatusOr<bool> result = context.SolveOrDeadline();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, NoDeadlineSolvesNormally) {
  SatContext context;
  AddPigeonhole(&context, 5);
  EXPECT_FALSE(context.Solve());  // pigeonhole is UNSAT
  EXPECT_FALSE(context.timed_out());
  StatusOr<bool> result = context.SolveOrDeadline();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(*result);
}

TEST(DeadlineTest, DeadlineCutsAnEnumerationShortAsUnknown) {
  // 2^12 projections with no conflict among them: the per-model poll
  // sees the deadline, and the call reports kUnknown, not a complete set.
  SatContext context;
  context.solver().EnsureVarCount(12);
  const std::vector<int> vars = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  context.set_soft_deadline_seconds(1e-6);
  size_t visited = 0;
  const sat::Solver::Result result = context.EnumerateProjections(
      vars, [&](std::span<const sat::Lit>) {
        ++visited;
        return true;
      });
  EXPECT_EQ(result, sat::Solver::Result::kUnknown);
  EXPECT_TRUE(context.timed_out());
  EXPECT_LT(visited, size_t{1} << 12);
}

TEST(DeadlineTest, GenerousDeadlineDoesNotTrigger) {
  SatContext context;
  AddPigeonhole(&context, 4);
  context.set_soft_deadline_seconds(3600.0);
  EXPECT_FALSE(context.Solve());
  EXPECT_FALSE(context.timed_out());
}

}  // namespace
}  // namespace revise
