// A fixed-size worker pool for index builds and query serving.
//
// The pool is deliberately minimal: submit void() tasks, wait for
// quiescence, destructor joins. PITEX uses it for two workloads with
// different shapes:
//   * bulk index construction (src/index/rr_index.cc): ParallelForSlots
//     over theta samples, each claiming slot appending its contiguous
//     sample ranges to its own sketch run, guided chunk claims absorbing
//     the power-law skew of sketch sizes;
//   * the online serving layer (src/serve/pitex_service.h): long-lived
//     pump tasks that need to know which worker runs them so they can
//     bind to per-worker engine replicas — SubmitIndexed passes the
//     executing worker's index into the task. Two tasks observing the
//     same index never run concurrently (a worker runs one task at a
//     time), so index-keyed state needs no locking.
//
// ParallelFor is the convenience wrapper for index-style static ranges.
//
// Lock discipline is machine-checked: the queue state is annotated
// against mutex_ (src/util/thread_annotations.h) and clang builds carry
// -Wthread-safety. Tasks must own their state by value — capturing a
// caller's scratch object by reference across the Submit boundary is
// rejected by tools/check (rule `scratch-capture`).

#ifndef PITEX_SRC_UTIL_THREAD_POOL_H_
#define PITEX_SRC_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pitex {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);

  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw (the library does not use
  /// exceptions); a task may Submit further tasks. Returns false --
  /// without enqueueing -- once Shutdown() has been called: submission
  /// after shutdown is an ordinary race in teardown paths (a drain
  /// thread racing the owner's destructor), so it is defined behavior,
  /// not a crash. Callers for whom a rejection is a logic error should
  /// PITEX_CHECK the result.
  bool Submit(std::function<void()> task) PITEX_EXCLUDES(mutex_);

  /// Like Submit, but the task receives the index (in [0, num_threads))
  /// of the pool worker executing it. The index identifies an exclusive
  /// slot: tasks seeing the same index are serialized, so per-worker
  /// state (engine replicas, scratch buffers) indexed by it is safe
  /// without synchronization. Returns false after Shutdown().
  bool SubmitIndexed(std::function<void(size_t)> task) PITEX_EXCLUDES(mutex_);

  /// Stops accepting new tasks: every later Submit/SubmitIndexed returns
  /// false. Tasks already queued still run to completion (use Wait() to
  /// block for them); workers are joined by the destructor, not here.
  /// Idempotent, safe from any thread, called implicitly by the
  /// destructor.
  void Shutdown() PITEX_EXCLUDES(mutex_);

  /// Blocks until every submitted task (including tasks submitted by
  /// running tasks) has finished.
  void Wait() PITEX_EXCLUDES(mutex_);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop(size_t worker_index) PITEX_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_available_;
  CondVar all_idle_;
  std::deque<std::function<void(size_t)>> queue_ PITEX_GUARDED_BY(mutex_);
  size_t in_flight_ PITEX_GUARDED_BY(mutex_) = 0;  // queued + running tasks
  bool shutting_down_ PITEX_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;  // written only by ctor/dtor
};

/// Runs fn(i) for i in [begin, end) across the pool, blocking until all
/// iterations finish. Iterations are claimed dynamically in *guided*
/// chunks off a shared cursor (like PitexService's run claims): each
/// claim takes remaining/(4 * tasks) iterations, so early claims are
/// large (amortizing the atomic) and tail claims shrink toward 1 —
/// a power-law-cost item landing in the last fixed-size chunk can no
/// longer stall the join while every other task sits idle. Results are
/// independent of thread count and claim interleaving as long as fn(i)
/// depends only on i.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

/// ParallelFor variant whose callback also receives a stable *slot* id in
/// [0, min(pool->num_threads(), end - begin)): each slot is one claiming
/// task, so invocations sharing a slot are serialized. Callers key
/// per-task state (e.g. one sketch run per slot in the index build) by
/// it without synchronization.
void ParallelForSlots(ThreadPool* pool, size_t begin, size_t end,
                      const std::function<void(size_t, size_t)>& fn);

}  // namespace pitex

#endif  // PITEX_SRC_UTIL_THREAD_POOL_H_
