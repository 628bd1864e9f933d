// Tests for the performance layer: thread-pool/parallel-for determinism,
// parallel revision kernels against the sequential reference, the
// cardinality-bucketed minc/maxc filters, the capped Hamming primitives,
// and the EnumerateModels LRU cache (hit counters, eviction, and
// bit-identical results).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "logic/parser.h"
#include "model/model_set.h"
#include "obs/metrics.h"
#include "revision/model_based.h"
#include "revision/operator.h"
#include "solve/model_cache.h"
#include "solve/services.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/random.h"

namespace revise {
namespace {

using ::revise::testing::BruteForceModels;

// Restores the default parallelism when a test scope ends.
class ScopedThreads {
 public:
  explicit ScopedThreads(size_t threads) { SetParallelThreadsOverride(threads); }
  ~ScopedThreads() { SetParallelThreadsOverride(0); }
};

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name)->Value();
}

// ---------------------------------------------------------------------------
// ShardRanges / ThreadPool
// ---------------------------------------------------------------------------

// Enumerates purely for its model-cache side effect; the returned set is
// irrelevant to the caller beyond a width sanity check.
void WarmCache(const Formula& f, const Alphabet& alphabet) {
  const ModelSet models = EnumerateModels(f, alphabet);
  EXPECT_EQ(models.alphabet().size(), alphabet.size());
}

TEST(ShardRangesTest, PartitionsExactly) {
  for (const size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 100u, 1000u}) {
    for (const size_t shards : {1u, 2u, 3u, 8u, 64u}) {
      const std::vector<ShardRange> ranges = ShardRanges(n, shards);
      if (n == 0) {
        EXPECT_TRUE(ranges.empty());
        continue;
      }
      EXPECT_EQ(std::min<size_t>(shards, n), ranges.size());
      size_t expected_begin = 0;
      for (const ShardRange& r : ranges) {
        EXPECT_EQ(expected_begin, r.begin);
        EXPECT_LT(r.begin, r.end);
        expected_begin = r.end;
      }
      EXPECT_EQ(n, expected_begin);
      // Near-equal: lengths differ by at most one.
      EXPECT_LE(ranges.front().end - ranges.front().begin,
                ranges.back().end - ranges.back().begin + 1);
    }
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ScopedThreads threads(8);
  constexpr size_t kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  ThreadPool::Global().Run(kTasks,
                           [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(1, hits[i].load()) << i;
}

TEST(ThreadPoolTest, NestedRunServializesWithoutDeadlock) {
  ScopedThreads threads(4);
  std::atomic<int> total{0};
  ThreadPool::Global().Run(8, [&](size_t) {
    ThreadPool::Global().Run(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(64, total.load());
}

TEST(ThreadPoolTest, OverrideControlsParallelThreads) {
  SetParallelThreadsOverride(3);
  EXPECT_EQ(3u, ParallelThreads());
  SetParallelThreadsOverride(0);
  EXPECT_GE(ParallelThreads(), 1u);
}

TEST(ParallelMapTest, MergesInShardOrder) {
  ScopedThreads threads(8);
  const std::vector<std::vector<size_t>> shards =
      ParallelMapRanges<std::vector<size_t>>(
          100, 1, [](size_t begin, size_t end) {
            std::vector<size_t> out;
            for (size_t i = begin; i < end; ++i) out.push_back(i);
            return out;
          });
  std::vector<size_t> merged;
  for (const auto& shard : shards) {
    merged.insert(merged.end(), shard.begin(), shard.end());
  }
  ASSERT_EQ(100u, merged.size());
  for (size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(i, merged[i]);
}

// ---------------------------------------------------------------------------
// Randomized kernel equivalence across thread counts
// ---------------------------------------------------------------------------

Interpretation RandomInterpretation(size_t bits, Rng* rng) {
  Interpretation m(bits);
  for (size_t i = 0; i < bits; ++i) m.Set(i, rng->Next() & 1);
  return m;
}

ModelSet RandomModelSet(const Alphabet& alphabet, size_t count, Rng* rng) {
  std::vector<Interpretation> models;
  for (size_t i = 0; i < count; ++i) {
    models.push_back(RandomInterpretation(alphabet.size(), rng));
  }
  return ModelSet(alphabet, std::move(models));
}

TEST(ParallelKernelTest, AllOperatorsBitIdenticalAcrossThreadCounts) {
  std::vector<Var> vars;
  for (Var v = 0; v < 10; ++v) vars.push_back(v);
  const Alphabet alphabet(vars);
  Rng rng(20260806);
  for (int round = 0; round < 20; ++round) {
    const ModelSet mt =
        RandomModelSet(alphabet, 1 + rng.Below(48), &rng);
    const ModelSet mp =
        RandomModelSet(alphabet, 1 + rng.Below(48), &rng);
    for (const ModelBasedOperator* op : AllModelBasedOperators()) {
      ModelSet reference;
      {
        ScopedThreads threads(1);
        reference = op->ReviseModelSets(mt, mp);
      }
      for (const size_t threads : {2u, 8u}) {
        ScopedThreads scoped(threads);
        const ModelSet parallel = op->ReviseModelSets(mt, mp);
        EXPECT_EQ(reference, parallel)
            << op->name() << " differs at " << threads
            << " threads (round " << round << ")";
      }
    }
  }
}

TEST(ParallelKernelTest, GlobalSweepsMatchSequentialReference) {
  std::vector<Var> vars;
  for (Var v = 0; v < 12; ++v) vars.push_back(v);
  const Alphabet alphabet(vars);
  Rng rng(4242);
  for (int round = 0; round < 10; ++round) {
    const ModelSet mt = RandomModelSet(alphabet, 1 + rng.Below(40), &rng);
    const ModelSet mp = RandomModelSet(alphabet, 1 + rng.Below(40), &rng);
    std::vector<Interpretation> ref_diffs;
    std::optional<size_t> ref_distance;
    {
      ScopedThreads threads(1);
      ref_diffs = GlobalMinimalDiffsOfSets(mt, mp);
      ref_distance = GlobalMinDistanceOfSets(mt, mp);
    }
    ScopedThreads threads(8);
    EXPECT_EQ(ref_diffs, GlobalMinimalDiffsOfSets(mt, mp));
    EXPECT_EQ(ref_distance, GlobalMinDistanceOfSets(mt, mp));
  }
}

TEST(ParallelKernelTest, DeterministicAcrossRepeatedRuns) {
  std::vector<Var> vars;
  for (Var v = 0; v < 10; ++v) vars.push_back(v);
  const Alphabet alphabet(vars);
  Rng rng(7);
  const ModelSet mt = RandomModelSet(alphabet, 40, &rng);
  const ModelSet mp = RandomModelSet(alphabet, 40, &rng);
  ScopedThreads threads(8);
  for (const ModelBasedOperator* op : AllModelBasedOperators()) {
    const ModelSet first = op->ReviseModelSets(mt, mp);
    const ModelSet second = op->ReviseModelSets(mt, mp);
    EXPECT_EQ(first, second) << op->name();
  }
}

// ---------------------------------------------------------------------------
// Sharpened primitives
// ---------------------------------------------------------------------------

// The pre-sharpening O(n^2) filters, kept as the test reference.
std::vector<Interpretation> NaiveMinimal(std::vector<Interpretation> sets) {
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::vector<Interpretation> result;
  for (size_t i = 0; i < sets.size(); ++i) {
    bool minimal = true;
    for (size_t j = 0; j < sets.size(); ++j) {
      if (i != j && sets[j].IsProperSubsetOf(sets[i])) minimal = false;
    }
    if (minimal) result.push_back(sets[i]);
  }
  return result;
}

std::vector<Interpretation> NaiveMaximal(std::vector<Interpretation> sets) {
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::vector<Interpretation> result;
  for (size_t i = 0; i < sets.size(); ++i) {
    bool maximal = true;
    for (size_t j = 0; j < sets.size(); ++j) {
      if (i != j && sets[i].IsProperSubsetOf(sets[j])) maximal = false;
    }
    if (maximal) result.push_back(sets[i]);
  }
  return result;
}

TEST(InclusionFilterTest, MatchesNaiveReference) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    std::vector<Interpretation> sets;
    const size_t count = rng.Below(60);
    for (size_t i = 0; i < count; ++i) {
      sets.push_back(RandomInterpretation(9, &rng));
    }
    EXPECT_EQ(NaiveMinimal(sets), MinimalUnderInclusion(sets));
    EXPECT_EQ(NaiveMaximal(sets), MaximalUnderInclusion(sets));
  }
}

TEST(InclusionFilterTest, HandlesEmptyAndSingleton) {
  EXPECT_TRUE(MinimalUnderInclusion({}).empty());
  EXPECT_TRUE(MaximalUnderInclusion({}).empty());
  const Interpretation m(5);
  EXPECT_EQ(std::vector<Interpretation>{m}, MinimalUnderInclusion({m, m}));
  EXPECT_EQ(std::vector<Interpretation>{m}, MaximalUnderInclusion({m, m}));
}

// ---------------------------------------------------------------------------
// Model cache
// ---------------------------------------------------------------------------

// Restores global-cache capacity and contents when a test scope ends.
class ScopedCache {
 public:
  explicit ScopedCache(size_t capacity) {
    ModelCache::Global().Clear();
    ModelCache::Global().set_capacity(capacity);
  }
  ~ScopedCache() {
    ModelCache::Global().Clear();
    ModelCache::Global().set_capacity(ModelCache::kDefaultCapacity);
  }
};

TEST(ModelCacheTest, SecondEnumerationIsAHit) {
  ScopedCache cache(ModelCache::kDefaultCapacity);
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("(a | b) & (b | c)", &vocabulary);
  const Alphabet alphabet(f.Vars());
  const uint64_t hits_before = CounterValue("solve.model_cache.hits");
  const uint64_t misses_before = CounterValue("solve.model_cache.misses");
  const ModelSet cold = EnumerateModels(f, alphabet);
  EXPECT_EQ(misses_before + 1, CounterValue("solve.model_cache.misses"));
  EXPECT_EQ(hits_before, CounterValue("solve.model_cache.hits"));
  const ModelSet warm = EnumerateModels(f, alphabet);
  EXPECT_EQ(hits_before + 1, CounterValue("solve.model_cache.hits"));
  EXPECT_EQ(cold, warm);
}

TEST(ModelCacheTest, StructurallyEqualFormulasShareAnEntry) {
  ScopedCache cache(ModelCache::kDefaultCapacity);
  Vocabulary vocabulary;
  const Formula first = ParseOrDie("a & (b | !c)", &vocabulary);
  // A second parse builds distinct DAG nodes with the same structure.
  const Formula second = ParseOrDie("a & (b | !c)", &vocabulary);
  EXPECT_NE(first.id(), second.id());
  EXPECT_EQ(first.StructuralHash(), second.StructuralHash());
  const Alphabet alphabet(first.Vars());
  const ModelSet warm = EnumerateModels(first, alphabet);
  const uint64_t hits_before = CounterValue("solve.model_cache.hits");
  const ModelSet cached = EnumerateModels(second, alphabet);
  EXPECT_EQ(hits_before + 1, CounterValue("solve.model_cache.hits"));
  EXPECT_EQ(warm.size(), cached.size());
}

TEST(ModelCacheTest, DistinctAlphabetsAreDistinctEntries) {
  ScopedCache cache(ModelCache::kDefaultCapacity);
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a | b", &vocabulary);
  const Var c = vocabulary.Intern("c");
  const Alphabet narrow(f.Vars());
  std::vector<Var> wide_vars = f.Vars();
  wide_vars.push_back(c);
  const Alphabet wide(wide_vars);
  const ModelSet over_narrow = EnumerateModels(f, narrow);
  const ModelSet over_wide = EnumerateModels(f, wide);
  EXPECT_EQ(3u, over_narrow.size());
  EXPECT_EQ(6u, over_wide.size());  // the free letter c doubles the models
}

TEST(ModelCacheTest, LruEvictionDropsTheColdestEntry) {
  ScopedCache cache(2);
  Vocabulary vocabulary;
  const Formula f1 = ParseOrDie("a", &vocabulary);
  const Formula f2 = ParseOrDie("b", &vocabulary);
  const Formula f3 = ParseOrDie("a & b", &vocabulary);
  const Alphabet alphabet(
      {vocabulary.Find("a"), vocabulary.Find("b")});
  const uint64_t evictions_before =
      CounterValue("solve.model_cache.evictions");
  WarmCache(f1, alphabet);
  WarmCache(f2, alphabet);
  EXPECT_EQ(2u, ModelCache::Global().size());
  // Touch f1 so f2 becomes the LRU entry, then overflow with f3.
  WarmCache(f1, alphabet);
  WarmCache(f3, alphabet);
  EXPECT_EQ(2u, ModelCache::Global().size());
  EXPECT_EQ(evictions_before + 1, CounterValue("solve.model_cache.evictions"));
  // f1 and f3 are warm; f2 was evicted and misses again.
  const uint64_t misses_before = CounterValue("solve.model_cache.misses");
  WarmCache(f1, alphabet);
  WarmCache(f3, alphabet);
  EXPECT_EQ(misses_before, CounterValue("solve.model_cache.misses"));
  WarmCache(f2, alphabet);
  EXPECT_EQ(misses_before + 1, CounterValue("solve.model_cache.misses"));
}

TEST(ModelCacheTest, DisabledCacheStillBitIdentical) {
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("(a -> b) & (c ^ a)", &vocabulary);
  const Alphabet alphabet(f.Vars());
  ModelSet with_cache;
  {
    ScopedCache cache(ModelCache::kDefaultCapacity);
    WarmCache(f, alphabet);                     // cold fill
    with_cache = EnumerateModels(f, alphabet);  // warm copy
  }
  ModelSet without_cache;
  {
    ScopedCache cache(0);
    without_cache = EnumerateModels(f, alphabet);
  }
  EXPECT_EQ(without_cache, with_cache);
  EXPECT_EQ(BruteForceModels(f, alphabet), with_cache);
}

TEST(ModelCacheTest, ClearInvalidatesExplicitly) {
  ScopedCache cache(ModelCache::kDefaultCapacity);
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a ^ b", &vocabulary);
  const Alphabet alphabet(f.Vars());
  WarmCache(f, alphabet);
  EXPECT_EQ(1u, ModelCache::Global().size());
  ModelCache::Global().Clear();
  EXPECT_EQ(0u, ModelCache::Global().size());
  const uint64_t misses_before = CounterValue("solve.model_cache.misses");
  WarmCache(f, alphabet);
  EXPECT_EQ(misses_before + 1, CounterValue("solve.model_cache.misses"));
}

TEST(ModelCacheTest, DisabledCacheCountsEveryLookupAsAMiss) {
  // Regression: Lookup used to bail out before the miss counter when the
  // cache was disabled, so hits + misses undercounted the enumerations
  // and REVISE_MODEL_CACHE=0 runs reported impossible ratios.
  ScopedCache cache(0);
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a & (b | c)", &vocabulary);
  const Alphabet alphabet(f.Vars());
  const uint64_t hits_before = CounterValue("solve.model_cache.hits");
  const uint64_t misses_before = CounterValue("solve.model_cache.misses");
  WarmCache(f, alphabet);
  WarmCache(f, alphabet);
  EXPECT_EQ(misses_before + 2, CounterValue("solve.model_cache.misses"));
  EXPECT_EQ(hits_before, CounterValue("solve.model_cache.hits"));
  EXPECT_EQ(0u, ModelCache::Global().size());
  EXPECT_EQ(0u, ModelCache::Global().approx_bytes());
}

int64_t GaugeValue(const char* name) {
  return obs::Registry::Global().GetGauge(name)->Value();
}

TEST(ModelCacheTest, DisablingEvictsEverythingAndZeroesGauges) {
  ScopedCache cache(ModelCache::kDefaultCapacity);
  Vocabulary vocabulary;
  const Formula f1 = ParseOrDie("a | b", &vocabulary);
  const Formula f2 = ParseOrDie("a & b", &vocabulary);
  const Alphabet alphabet(f1.Vars());
  WarmCache(f1, alphabet);
  WarmCache(f2, alphabet);
  EXPECT_EQ(2, GaugeValue("solve.model_cache.size"));
  EXPECT_GT(GaugeValue("mem.model_cache_bytes"), 0);
  const uint64_t evictions_before =
      CounterValue("solve.model_cache.evictions");
  ModelCache::Global().set_capacity(0);
  EXPECT_FALSE(ModelCache::Global().enabled());
  EXPECT_EQ(evictions_before + 2,
            CounterValue("solve.model_cache.evictions"));
  EXPECT_EQ(0, GaugeValue("solve.model_cache.size"));
  EXPECT_EQ(0, GaugeValue("mem.model_cache_bytes"));
  EXPECT_EQ(0u, ModelCache::Global().approx_bytes());
  // Inserts while disabled stay no-ops and leave the gauges at zero.
  WarmCache(f1, alphabet);
  EXPECT_EQ(0u, ModelCache::Global().size());
  EXPECT_EQ(0, GaugeValue("solve.model_cache.size"));
  // Re-enabling starts from an empty cache and resumes publishing.
  ModelCache::Global().set_capacity(4);
  WarmCache(f1, alphabet);
  EXPECT_EQ(1, GaugeValue("solve.model_cache.size"));
  EXPECT_GT(GaugeValue("mem.model_cache_bytes"), 0);
}

TEST(ModelCacheTest, LocalInstancesDoNotStompTheGlobalGauges) {
  // Regression: a short-lived local ModelCache used to publish its own
  // size/bytes into the process-wide gauges, leaving them describing a
  // dead cache after the instance was destroyed.
  ScopedCache cache(ModelCache::kDefaultCapacity);
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a -> b", &vocabulary);
  const Alphabet alphabet(f.Vars());
  WarmCache(f, alphabet);
  const int64_t size_before = GaugeValue("solve.model_cache.size");
  const int64_t bytes_before = GaugeValue("mem.model_cache_bytes");
  EXPECT_EQ(1, size_before);
  {
    ModelCache local(8);
    local.Insert(f, alphabet, EnumerateModels(f, alphabet));
    local.Insert(ParseOrDie("a & b & a", &vocabulary), alphabet,
                 EnumerateModels(f, alphabet));
    EXPECT_EQ(2u, local.size());
    local.set_capacity(0);
    local.Clear();
  }
  EXPECT_EQ(size_before, GaugeValue("solve.model_cache.size"));
  EXPECT_EQ(bytes_before, GaugeValue("mem.model_cache_bytes"));
}

TEST(ModelCacheTest, LimitedEnumerationsBypassTheCache) {
  ScopedCache cache(ModelCache::kDefaultCapacity);
  Vocabulary vocabulary;
  const Formula f = ParseOrDie("a | b | c", &vocabulary);
  const Alphabet alphabet(f.Vars());
  const ModelSet limited = EnumerateModels(f, alphabet, 2);
  EXPECT_EQ(2u, limited.size());
  EXPECT_EQ(0u, ModelCache::Global().size());
  // A later unlimited enumeration is complete, not the truncated set.
  EXPECT_EQ(7u, EnumerateModels(f, alphabet).size());
}

// ---------------------------------------------------------------------------
// QueryEquivalent short-circuits
// ---------------------------------------------------------------------------

// Builds a random formula over names v0..v{vars-1}, possibly mentioning
// letters outside the query alphabet.
Formula RandomFormula(size_t vars, size_t depth, Vocabulary* vocabulary,
                      Rng* rng) {
  if (depth == 0 || rng->Below(4) == 0) {
    return Formula::Variable(vocabulary->InternIndexed("v", rng->Below(vars)));
  }
  switch (rng->Below(4)) {
    case 0:
      return Formula::And(RandomFormula(vars, depth - 1, vocabulary, rng),
                          RandomFormula(vars, depth - 1, vocabulary, rng));
    case 1:
      return Formula::Or(RandomFormula(vars, depth - 1, vocabulary, rng),
                         RandomFormula(vars, depth - 1, vocabulary, rng));
    case 2:
      return Formula::Xor(RandomFormula(vars, depth - 1, vocabulary, rng),
                          RandomFormula(vars, depth - 1, vocabulary, rng));
    default:
      return Formula::Not(RandomFormula(vars, depth - 1, vocabulary, rng));
  }
}

TEST(QueryEquivalentTest, MatchesBruteForceProjectionComparison) {
  Rng rng(321);
  Vocabulary vocabulary;
  constexpr size_t kVars = 6;
  std::vector<Var> all_vars;
  for (size_t i = 0; i < kVars; ++i) {
    all_vars.push_back(vocabulary.InternIndexed("v", i));
  }
  const Alphabet full(all_vars);
  // Query alphabet covers only the first four letters, so formulas
  // mentioning v4/v5 exercise the projection (enumeration) path while
  // formulas inside the alphabet exercise the single-SAT-call path.
  const Alphabet query({all_vars[0], all_vars[1], all_vars[2], all_vars[3]});
  int equivalent_seen = 0;
  for (int round = 0; round < 60; ++round) {
    const Formula a = RandomFormula(kVars, 3, &vocabulary, &rng);
    const Formula b = rng.Below(3) == 0
                          ? a
                          : RandomFormula(kVars, 3, &vocabulary, &rng);
    const bool expected = BruteForceModels(a, full).ProjectTo(query) ==
                          BruteForceModels(b, full).ProjectTo(query);
    EXPECT_EQ(expected, QueryEquivalent(a, b, query)) << "round " << round;
    if (expected) ++equivalent_seen;
  }
  EXPECT_GT(equivalent_seen, 0);  // both outcomes exercised
}

TEST(QueryEquivalentTest, ProjectionFreePairTakesTheSatShortcut) {
  ScopedCache cache(ModelCache::kDefaultCapacity);
  Vocabulary vocabulary;
  const Formula a = ParseOrDie("(a -> b) & (b -> a)", &vocabulary);
  const Formula b = ParseOrDie("a <-> b", &vocabulary);
  const Alphabet alphabet(a.Vars());
  const uint64_t shortcut_before =
      CounterValue("solve.query_equiv.sat_shortcut");
  EXPECT_TRUE(QueryEquivalent(a, b, alphabet));
  EXPECT_EQ(shortcut_before + 1,
            CounterValue("solve.query_equiv.sat_shortcut"));
}

TEST(QueryEquivalentTest, StreamingSideStopsAtFirstUnsharedModel) {
  ScopedCache cache(ModelCache::kDefaultCapacity);
  Vocabulary vocabulary;
  // b mentions a letter outside the alphabet, forcing the streaming path;
  // the two projections differ, so the stream exits early.
  const Formula a = ParseOrDie("x & y", &vocabulary);
  const Formula b = ParseOrDie("(!x | !y) & (z | !z)", &vocabulary);
  const Alphabet alphabet(
      {vocabulary.Find("x"), vocabulary.Find("y")});
  const uint64_t early_before = CounterValue("solve.query_equiv.early_exit");
  EXPECT_FALSE(QueryEquivalent(a, b, alphabet));
  EXPECT_EQ(early_before + 1, CounterValue("solve.query_equiv.early_exit"));
}

// ---------------------------------------------------------------------------
// Cached enumeration + parallel kernels through the public operator API
// ---------------------------------------------------------------------------

TEST(ParallelPipelineTest, ReviseModelsStableAcrossThreadsAndCache) {
  Vocabulary vocabulary;
  const Theory t({ParseOrDie("a & b & c", &vocabulary)});
  const Formula p = ParseOrDie("(!a & !b & !d) | (!c & b & (a ^ d))",
                               &vocabulary);
  ModelSet reference;
  {
    ScopedCache cache(0);
    ScopedThreads threads(1);
    reference = OperatorById(OperatorId::kDalal)->ReviseModels(t, p);
  }
  for (const size_t threads : {2u, 8u}) {
    ScopedCache cache(ModelCache::kDefaultCapacity);
    ScopedThreads scoped(threads);
    const ModelSet cold = OperatorById(OperatorId::kDalal)->ReviseModels(t, p);
    const ModelSet warm = OperatorById(OperatorId::kDalal)->ReviseModels(t, p);
    EXPECT_EQ(reference, cold);
    EXPECT_EQ(reference, warm);
  }
}

}  // namespace
}  // namespace revise
