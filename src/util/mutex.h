// An annotated mutex, RAII lock, and condition variable over the std
// primitives.
//
// `util::Mutex` is a std::mutex that clang Thread Safety Analysis can
// see: it is declared a capability, Lock/Unlock acquire and release it,
// and members guarded with REVISE_GUARDED_BY(mu_) become compile errors
// when touched without the lock (see util/thread_annotations.h and the
// -Wthread-safety CI job).  `MutexLock` is the scoped form — the project
// analogue of std::lock_guard.  `CondVar` pairs with Mutex the way
// std::condition_variable pairs with std::unique_lock; Wait() declares
// REVISE_REQUIRES(mu), so a wait outside the lock is a build error too.
//
// This header is the only place raw std::mutex / std::lock_guard /
// std::condition_variable may appear (enforced by the raw-mutex rule in
// tools/revise_lint; the wrapper itself is allowlisted).  Everything
// else locks through these types so the whole tree stays analyzable.
//
// The wrappers add no state and no indirection: Mutex is exactly a
// std::mutex, MutexLock is exactly a lock_guard, and CondVar waits on
// the underlying std::mutex directly (condition_variable_any over the
// raw mutex — one virtual-free template instantiation, no shared_ptr
// machinery).

#ifndef REVISE_UTIL_MUTEX_H_
#define REVISE_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/thread_annotations.h"

namespace revise::util {

class REVISE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() REVISE_ACQUIRE() { mu_.lock(); }
  void Unlock() REVISE_RELEASE() { mu_.unlock(); }
  bool TryLock() REVISE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Scoped acquisition: locks at construction, unlocks at destruction.
class REVISE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) REVISE_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() REVISE_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// A condition variable bound to util::Mutex.  Wait() requires the mutex
// held (the analysis checks it) and may wake spuriously, so callers
// re-test their predicate in an explicit `while` loop — deliberately:
// a lambda predicate would read guarded members from a context the
// analysis cannot annotate, while a `while (!ready_) cv_.Wait(mu_);`
// loop is checked like any other guarded access.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REVISE_REQUIRES(mu) { cv_.wait(mu.mu_); }

  // Timed wait for service loops (the stall watchdog): returns false on
  // timeout, true when notified (or woken spuriously — callers re-test
  // their predicate in a `while` loop either way, exactly as with Wait).
  bool WaitFor(Mutex& mu, int64_t timeout_ms) REVISE_REQUIRES(mu) {
    return cv_.wait_for(mu.mu_, std::chrono::milliseconds(timeout_ms)) ==
           std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // _any because it waits on the raw std::mutex rather than a
  // std::unique_lock; the analysis never sees the raw mutex move.
  std::condition_variable_any cv_;
};

}  // namespace revise::util

#endif  // REVISE_UTIL_MUTEX_H_
