// Allocation-free tracing spans for the serving tier
// (docs/observability.md, "Span taxonomy").
//
// Answers "where did this query's 40ms go?": each sampled query (and
// each publish) gets a TraceContext -- an 8-byte identity that crosses
// threads with the query -- and the instrumented pipeline records
// timed spans against it: admission -> queue wait -> cache probe ->
// solve -> result delivery on the query path, and publish -> WAL
// append/fsync -> freeze/pack -> swap -> checkpoint on the publish
// path.
//
// Storage deliberately does NOT live in the context: a span array
// embedded per query would bloat PendingQuery and be memcpy'd through
// every scheduler move/steal. Spans land in preallocated THREAD-LOCAL
// ring buffers (fixed capacity, overwrite-oldest) owned by the process
// tracer; Collect(trace_id) stitches a query's spans back together by
// identity. Buffers are recycled through a free list when threads
// exit, so churning thread pools do not grow the footprint.
//
// Cost model (mirrors src/util/failpoint.h, measured by
// BM_SpanStartStop in bench/micro_components.cc):
//   * compiled out (-DPITEX_TRACING=OFF): the macros vanish; the class
//     stays linkable but StartTrace() always returns 0;
//   * disarmed (sampling off, or this query not sampled): a span is a
//     thread-local load and a branch -- no clock read, ~1ns;
//   * armed: two steady_clock reads plus a ring append under the
//     buffer's own (uncontended) mutex.
//
// The sampling knob: SetSampleEvery(n) samples one of every n traces
// (0 disables; 1 traces everything). Arm from the environment with
// PITEX_TRACE_SAMPLE=<n> -- same pattern as PITEX_FAILPOINTS. All
// timestamps are steady_clock (the tree's blessed monotonic clock;
// system_clock is banned by tools/check rule `determinism`).

#ifndef PITEX_SRC_OBS_TRACE_H_
#define PITEX_SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

// CMake sets this to 0 under -DPITEX_TRACING=OFF; the default build
// (and a standalone include) compiles the spans in.
#ifndef PITEX_TRACING_ENABLED
#define PITEX_TRACING_ENABLED 1
#endif

namespace pitex {
namespace obs {

enum class SpanKind : uint8_t {
  // Query path.
  kAdmission = 0,  // admission verdict + enqueue
  kQueueWait,      // enqueue -> worker pickup (recorded by the worker)
  kCacheProbe,     // ResultCache lookup
  kSolve,          // engine execution (Explore / ExploreTopN)
  kResult,         // answer delivery (promise/slot + batch countdown)
  // Publish path.
  kPublish,    // whole ApplyUpdates critical section
  kWalAppend,  // WriteAheadLog::Append
  kWalFsync,   // WriteAheadLog::Sync (the commit point)
  kFreeze,     // FreezeSnapshotLocked
  kPack,       // IndexSnapshot::FromDynamic (overlay freeze + any
               // compaction, which folds blocks; the name is the metric's)
  kSwap,       // IndexSnapshotRegistry::Publish (the epoch swap)
  kCheckpoint, // checkpoint write + WAL truncation
  kSpanKindCount,
};

const char* SpanKindName(SpanKind kind);

struct SpanRecord {
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kAdmission;
};

/// Monotonic nanoseconds (steady_clock), the time base of every span
/// and journal event.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t ToNs(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

// Spans a thread-local buffer can hold before overwriting the oldest
// (drops are counted, never silent).
inline constexpr size_t kSpanBufferCapacity = 4096;

/// Process-wide span recorder. Thread-safe throughout.
class Tracer {
 public:
  /// First use parses PITEX_TRACE_SAMPLE from the environment.
  static Tracer& Instance();

  /// Sample one of every `n` started traces; 0 disables sampling (and
  /// with it every span cost beyond one relaxed load per StartTrace).
  void SetSampleEvery(uint64_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  uint64_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Returns a fresh nonzero trace id when this trace is sampled, 0
  /// otherwise. Always returns 0 when tracing is compiled out.
  uint64_t StartTrace();

  /// The trace id armed on this thread by ScopedTrace (0 = none).
  static uint64_t CurrentTrace();

  /// Records one completed span. A zero trace_id is a no-op, which is
  /// what makes unsampled queries free at every record site.
  void Record(uint64_t trace_id, SpanKind kind, int64_t start_ns,
              int64_t end_ns);

  /// All spans recorded for `trace_id`, ordered by start time.
  std::vector<SpanRecord> Collect(uint64_t trace_id) PITEX_EXCLUDES(mutex_);
  /// Every live span in every thread buffer, ordered by start time.
  std::vector<SpanRecord> CollectAll() PITEX_EXCLUDES(mutex_);

  /// Spans overwritten before collection (ring wrap), cumulative.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Empties every buffer (test isolation between cases).
  void Clear() PITEX_EXCLUDES(mutex_);

 private:
  friend class ScopedTrace;
  friend struct TracerThreadHandle;

  struct SpanBuffer {
    Mutex mutex;
    std::array<SpanRecord, kSpanBufferCapacity> ring PITEX_GUARDED_BY(mutex);
    size_t size PITEX_GUARDED_BY(mutex) = 0;
    size_t pos PITEX_GUARDED_BY(mutex) = 0;  // next write slot once full
    bool free = false;  // guarded by the tracer's mutex_
  };

  Tracer();

  SpanBuffer* AcquireBuffer() PITEX_EXCLUDES(mutex_);
  void ReleaseBuffer(SpanBuffer* buffer) PITEX_EXCLUDES(mutex_);
  SpanBuffer* ThisThreadBuffer();

  std::atomic<uint64_t> sample_every_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};

  mutable Mutex mutex_;
  // Owns every buffer ever handed out; exited threads mark theirs free
  // for reuse instead of destroying them (Collect may still read them).
  std::vector<std::unique_ptr<SpanBuffer>> buffers_ PITEX_GUARDED_BY(mutex_);
};

/// Thin per-query handle: the identity spans are recorded against.
class TraceContext {
 public:
  TraceContext() = default;
  /// Samples: a sampled context has a nonzero id.
  static TraceContext Start() { return TraceContext(Tracer::Instance().StartTrace()); }

  uint64_t id() const { return id_; }
  bool sampled() const { return id_ != 0; }
  /// Explicit-timestamp record (cross-thread spans like queue wait,
  /// whose start was observed on the submitting thread).
  void Record(SpanKind kind, int64_t start_ns, int64_t end_ns) const {
    Tracer::Instance().Record(id_, kind, start_ns, end_ns);
  }

 private:
  explicit TraceContext(uint64_t id) : id_(id) {}
  uint64_t id_ = 0;
};

/// Arms `trace_id` as this thread's current trace for the enclosing
/// scope, so PITEX_SPAN sites in callees (the pack inside a freeze, the
/// solver inside a serve run) attribute to it without plumbing.
class ScopedTrace {
 public:
  explicit ScopedTrace(uint64_t trace_id);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  uint64_t saved_;
};

/// RAII span against the thread's current trace: inert (no clock read)
/// when no trace is armed.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind)
      : trace_id_(Tracer::CurrentTrace()), kind_(kind) {
    if (trace_id_ != 0) start_ns_ = NowNs();
  }
  ~ScopedSpan() {
    if (trace_id_ != 0) {
      Tracer::Instance().Record(trace_id_, kind_, start_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t trace_id_;
  int64_t start_ns_ = 0;
  SpanKind kind_;
};

}  // namespace obs
}  // namespace pitex

#define PITEX_OBS_CAT_INNER(a, b) a##b
#define PITEX_OBS_CAT(a, b) PITEX_OBS_CAT_INNER(a, b)

#if PITEX_TRACING_ENABLED
/// Times the enclosing scope against the thread's current trace.
#define PITEX_SPAN(kind)                 \
  ::pitex::obs::ScopedSpan PITEX_OBS_CAT(pitex_span_, __LINE__)( \
      ::pitex::obs::SpanKind::kind)
/// Arms `id` as the current trace for the enclosing scope.
#define PITEX_TRACE_SCOPE(id) \
  ::pitex::obs::ScopedTrace PITEX_OBS_CAT(pitex_trace_scope_, __LINE__)(id)
#else
#define PITEX_SPAN(kind) \
  do {                   \
  } while (0)
#define PITEX_TRACE_SCOPE(id) \
  do {                        \
    (void)(id);               \
  } while (0)
#endif

#endif  // PITEX_SRC_OBS_TRACE_H_
