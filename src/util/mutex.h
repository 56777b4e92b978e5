// Capability-annotated mutex primitives.
//
// libstdc++'s std::mutex carries no thread-safety attributes, so Clang's
// -Wthread-safety analysis cannot check code written against it. These
// wrappers are zero-cost shims over std::mutex / std::condition_variable
// that attach the capability annotations (src/util/thread_annotations.h);
// all lock discipline in the repo is written against them:
//
//   pitex::Mutex mu_;
//   int counter_ PITEX_GUARDED_BY(mu_);
//
//   void Bump() PITEX_EXCLUDES(mu_) {
//     MutexLock lock(mu_);
//     ++counter_;  // OK: analysis sees the scoped hold
//   }
//
// Condition waits use explicit while-loops instead of predicate lambdas
// (a lambda body is a separate function to the analysis and would not
// inherit the hold):
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.Wait(lock);

#ifndef PITEX_SRC_UTIL_MUTEX_H_
#define PITEX_SRC_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/util/thread_annotations.h"

namespace pitex {

class CondVar;
class MutexLock;

/// Standard exclusive mutex, annotated as a capability. Same semantics,
/// size and cost as the std::mutex it wraps (TSan instruments the
/// underlying mutex as usual).
class PITEX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PITEX_ACQUIRE() { mu_.lock(); }
  void Unlock() PITEX_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  friend class MutexLock;

  std::mutex mu_;
};

/// RAII hold of a Mutex for a scope (the std::scoped_lock/lock_guard
/// replacement). Backed by std::unique_lock so CondVar can wait on it;
/// the lock is held for the entire MutexLock lifetime.
class PITEX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PITEX_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() PITEX_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;

  std::unique_lock<std::mutex> lock_;
};

/// Condition variable tied to pitex::Mutex. Wait releases the lock while
/// blocked and has reacquired it when it returns, so annotations that
/// held before the wait hold after it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// `lock` must hold the mutex guarding the waited-on state. Spurious
  /// wakeups are possible: always wait in a while-loop.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Timed wait: returns false when `timeout` elapsed without a notify,
  /// true on a notify (or spurious wakeup — re-check the predicate
  /// either way, exactly as with Wait). Used by the replication
  /// transport's bounded Recv (src/serve/replication.h), where a caller
  /// polling for frames must regain control to notice heartbeat loss.
  template <class Rep, class Period>
  bool WaitFor(MutexLock& lock,
               const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.lock_, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pitex

#endif  // PITEX_SRC_UTIL_MUTEX_H_
