// A minimal process-wide thread pool and a deterministic parallel-for.
//
// Design (see DESIGN.md "Performance"):
//   * no external dependencies: std::thread, one mutex, two condition
//     variables;
//   * the worker count comes from the REVISE_THREADS environment variable
//     (falling back to std::thread::hardware_concurrency), and can be
//     overridden in-process with SetParallelThreadsOverride — tests run
//     the same kernels at 1, 2 and 8 threads from a single binary;
//   * determinism: ParallelMapRanges splits [0, n) into contiguous shards
//     whose boundaries depend only on n and the thread count, and returns
//     the per-shard results indexed by shard.  Callers merge in shard
//     order, so a result is bit-identical across runs and across worker
//     interleavings.  The revision kernels additionally merge through
//     canonicalizing reducers (MinimalUnderInclusion / ModelSet), which
//     makes their outputs identical across *thread counts* as well;
//   * re-entrancy: a parallel region entered from inside another parallel
//     region (or from a pool worker) runs inline on the calling thread.
//     Nothing deadlocks, nested parallelism just serializes.

#ifndef REVISE_UTIL_PARALLEL_H_
#define REVISE_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace revise {

// The configured parallelism level, always >= 1.  Priority: the in-process
// override, then REVISE_THREADS, then hardware_concurrency.
size_t ParallelThreads();

// Overrides ParallelThreads() for this process (0 restores the
// environment/hardware default).  Intended for tests and benches.
void SetParallelThreadsOverride(size_t threads);

// Per-batch caller context carried from the submitting thread to every
// thread that executes tasks of the batch.  util/ does not interpret the
// fields; the observability layer registers hooks (SetPoolContextHooks)
// that fill and install them, so spans and profiles opened inside pool
// tasks attach to the operation that spawned the batch instead of
// starting a fresh root on the worker thread.
struct PoolTaskContext {
  uint64_t trace_span_id = 0;   // innermost open span on the submitter
  int trace_depth = 0;          // its nesting depth
  void* profile_node = nullptr; // current cost-attribution node
};

// `capture` reads the submitting thread's context into *out at batch
// submission.  `swap` installs `incoming` on the executing thread and
// saves the previous context into *previous (callers restore by swapping
// back).  Registered once, by obs/trace.cc; both hooks must be
// thread-safe and cheap.
using PoolContextCaptureFn = void (*)(PoolTaskContext* out);
using PoolContextSwapFn = void (*)(const PoolTaskContext& incoming,
                                   PoolTaskContext* previous);
void SetPoolContextHooks(PoolContextCaptureFn capture,
                         PoolContextSwapFn swap);

// A lazily created, process-wide pool of parked worker threads.  Work is
// submitted as a batch of `count` tasks; workers (and the calling thread)
// claim task indices under a mutex — tasks are coarse shards, so the
// per-claim lock is noise.  Run blocks until every task has finished.
class ThreadPool {
 public:
  static ThreadPool& Global();

  // Calls fn(0) .. fn(count - 1), each exactly once, from the calling
  // thread and the pool workers.  Returns when all calls have completed.
  // Runs inline when count <= 1, ParallelThreads() == 1, or the calling
  // thread is already inside a Run (nested regions serialize).
  void Run(size_t count, const std::function<void(size_t)>& fn)
      REVISE_EXCLUDES(run_mu_, mu_);

  // Workers currently parked in the pool (grows on demand, never shrinks).
  size_t worker_count() const REVISE_EXCLUDES(mu_);

 private:
  ThreadPool() = default;

  void EnsureWorkers(size_t target) REVISE_EXCLUDES(mu_);
  void WorkerLoop() REVISE_EXCLUDES(mu_);
  // Claims one task of generation `generation` into *fn / *index (and the
  // batch's caller context into *context); returns false when that batch
  // is exhausted or superseded.
  bool Claim(uint64_t generation, const std::function<void(size_t)>** fn,
             size_t* index, PoolTaskContext* context) REVISE_EXCLUDES(mu_);
  void FinishOne() REVISE_EXCLUDES(mu_);
  void RunBatch(uint64_t generation) REVISE_EXCLUDES(mu_);

  // run_mu_ serializes whole batches and is always taken before the
  // state mutex; mu_ guards every piece of batch state below.
  mutable util::Mutex mu_;
  util::CondVar work_cv_;
  util::CondVar done_cv_;
  util::Mutex run_mu_ REVISE_ACQUIRED_BEFORE(mu_);
  std::vector<std::thread> workers_ REVISE_GUARDED_BY(mu_);
  const std::function<void(size_t)>* task_ REVISE_GUARDED_BY(mu_) = nullptr;
  PoolTaskContext task_context_ REVISE_GUARDED_BY(mu_);
  size_t task_count_ REVISE_GUARDED_BY(mu_) = 0;
  size_t next_ REVISE_GUARDED_BY(mu_) = 0;
  size_t completed_ REVISE_GUARDED_BY(mu_) = 0;
  uint64_t generation_ REVISE_GUARDED_BY(mu_) = 0;
  bool stop_ REVISE_GUARDED_BY(mu_) = false;
};

// A named, joinable thread for long-lived service loops such as the
// stall watchdog.  The deterministic ThreadPool above is for bounded
// compute batches that a caller blocks on; BackgroundThread is the
// sanctioned home for work that outlives a call (the raw-thread lint
// rule forbids std::thread anywhere else).  Join() blocks until the
// function returns; the destructor joins too, so the owner's teardown
// must first make the loop exit (set a stop flag).
class BackgroundThread {
 public:
  BackgroundThread() = default;
  explicit BackgroundThread(std::function<void()> fn)
      : thread_(std::move(fn)) {}
  ~BackgroundThread() { Join(); }

  BackgroundThread(BackgroundThread&&) = default;
  BackgroundThread& operator=(BackgroundThread&& other) {
    Join();
    thread_ = std::move(other.thread_);
    return *this;
  }
  BackgroundThread(const BackgroundThread&) = delete;
  BackgroundThread& operator=(const BackgroundThread&) = delete;

  bool joinable() const { return thread_.joinable(); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

// A contiguous index shard [begin, end).
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
};

// Splits [0, n) into at most `shards` contiguous, near-equal ranges (the
// first n % shards ranges are one longer).  Returns min(shards, n) ranges;
// empty for n == 0.  Boundaries depend only on n and `shards`.
std::vector<ShardRange> ShardRanges(size_t n, size_t shards);

// Deterministic parallel map over [0, n): evaluates fn(begin, end) for
// contiguous shard ranges and returns the results indexed by shard.
// `min_grain` bounds the smallest shard (at least that many indices per
// shard), so tiny inputs never pay for thread handoff.  The shard
// decomposition depends only on n, min_grain and ParallelThreads().
template <typename R, typename F>
std::vector<R> ParallelMapRanges(size_t n, size_t min_grain, F&& fn) {
  if (n == 0) return {};
  const size_t grain = min_grain == 0 ? 1 : min_grain;
  const size_t want = std::min(ParallelThreads(), std::max<size_t>(1, n / grain));
  const std::vector<ShardRange> ranges = ShardRanges(n, want);
  std::vector<R> results(ranges.size());
  if (ranges.size() == 1) {
    results[0] = fn(size_t{0}, n);
    return results;
  }
  ThreadPool::Global().Run(ranges.size(), [&](size_t shard) {
    results[shard] = fn(ranges[shard].begin, ranges[shard].end);
  });
  return results;
}

}  // namespace revise

#endif  // REVISE_UTIL_PARALLEL_H_
