// Unified metrics registry for the serving tier (docs/observability.md).
//
// The registry is the serving tier's only aggregate surface: every
// counter, gauge and histogram PitexService exports lives here (numbers
// that belong to one query, such as its sojourn time, ride on the
// answer instead). It has three properties:
//
//   * typed handles -- Counter (monotonic), Gauge (instantaneous) and
//     Histogram (fixed log-scaled buckets) are registered ONCE at
//     startup and then incremented through stable pointers. The hot
//     path never touches the registry again: no name lookup, no hash,
//     no lock;
//   * sharded relaxed atomics -- a Counter spreads its increments over
//     cacheline-padded shards selected by a thread-local slot, so N
//     serving pumps incrementing the same metric never ping-pong one
//     cache line. Value() folds the shards; monotonicity per shard
//     makes the fold a consistent lower bound at every instant and
//     exact in quiescence;
//   * snapshot-consistent export -- Snapshot() first runs registered
//     collector callbacks (which pull values out of internally-locked
//     sources like ResultCache or the snapshot registry into gauges),
//     then reads every metric, and the result renders to JSON or the
//     Prometheus text format without further synchronization.
//
// Ownership: a MetricsRegistry instance is embedded in the subsystem it
// describes (PitexService owns one per service -- two services in one
// process never share counts, which the conservation-invariant tests
// rely on). Code with no service context (the solver's deadline
// checkpoint, the thread pool dispatch loop, the result-cache probes)
// reports through the process-wide *hot counter table*: a fixed static
// array of Counters indexed by enum, incremented via PITEX_COUNT --
// the only metrics form tools/check rule `obs-hotpath` permits inside
// PITEX_NOALLOC bodies, because it is allocation-free and lookup-free
// by construction.

#ifndef PITEX_SRC_OBS_METRICS_H_
#define PITEX_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pitex {
namespace obs {

// Shards per counter. 16 x 64B = 1KiB per counter: cheap enough for a
// few dozen registered metrics, wide enough that a typical serving pool
// (4-16 pumps) rarely collides.
inline constexpr size_t kMetricShards = 16;

/// Stable per-thread shard slot in [0, kMetricShards): assigned
/// round-robin on first use so concurrent threads spread evenly.
size_t ThreadShard();

/// Monotonic counter. Inc() is wait-free: one relaxed fetch_add on the
/// calling thread's shard. Value() folds the shards (exact once writers
/// quiesce; a consistent lower bound while they run).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    shards_[ThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Instantaneous value, set by whoever observed it last (collectors use
/// Set to mirror internally-locked sources at export time).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Cumulative-bucket histogram over fixed upper bounds (the Prometheus
/// shape). Observe() is a short linear scan (bucket lists are small,
/// ~16 bounds) plus relaxed increments; the sum uses a CAS loop because
/// pre-C++20 toolchains lack atomic<double>::fetch_add.
class Histogram {
 public:
  /// `bounds` must be strictly increasing; an implicit +Inf bucket
  /// catches everything above the last bound.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// counts()[i] covers (bounds[i-1], bounds[i]]; the last element is
  /// the +Inf bucket.
  std::vector<uint64_t> Counts() const;
  uint64_t TotalCount() const;
  double Sum() const;

 private:
  std::vector<double> bounds_;
  // One atomic per bucket (buckets are already spread by value, so
  // cross-thread collisions need both the same metric AND the same
  // bucket -- rare enough to skip the per-bucket shard fan-out).
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

/// One exported metric value (see MetricsSnapshot).
struct MetricValue {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  uint64_t counter = 0;  // kCounter
  int64_t gauge = 0;     // kGauge
  // kHistogram: per-bucket (non-cumulative) counts; bounds from the
  // histogram, +Inf implicit as the trailing entry.
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
  uint64_t count = 0;
  double sum = 0.0;
};

/// A point-in-time read of every registered metric; renders to JSON or
/// the Prometheus text exposition format.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* Find(std::string_view name) const;
  /// Checked lookups for tests and invariant assertions: abort on a
  /// missing name or a type mismatch (a misspelled metric name must be
  /// a loud failure, not a silent zero).
  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
  /// Observations recorded by a histogram (its `_count` series).
  uint64_t HistogramCount(std::string_view name) const;

  std::string ToJson() const;
  std::string ToPrometheus() const;
};

/// Registry of named metrics. Registration happens once at subsystem
/// startup (idempotent per name: re-registering returns the existing
/// handle, so a restarted component keeps its counts); handles stay
/// valid for the registry's lifetime. All methods are thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* RegisterCounter(std::string_view name, std::string_view help)
      PITEX_EXCLUDES(mutex_);
  Gauge* RegisterGauge(std::string_view name, std::string_view help)
      PITEX_EXCLUDES(mutex_);
  Histogram* RegisterHistogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds)
      PITEX_EXCLUDES(mutex_);

  /// Collectors run (serialized, under the registry lock) at the start
  /// of every Snapshot(): the hook that turns internally-locked sources
  /// (cache shards, the snapshot registry, admission) into gauge values
  /// read in the same pass as everything else.
  void AddCollector(std::function<void()> collector) PITEX_EXCLUDES(mutex_);

  MetricsSnapshot Snapshot() PITEX_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type;
    // Exactly one of these is engaged, matching `type`, so a gauge
    // does not pay for a counter's 1 KiB of shards. Owning pointers keep
    // the handles stable across registrations.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;

    explicit Entry(std::string_view n, std::string_view h, MetricType t)
        : name(n), help(h), type(t) {}
  };

  Entry* FindLocked(std::string_view name, MetricType type)
      PITEX_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<Entry> entries_ PITEX_GUARDED_BY(mutex_);
  std::vector<std::function<void()>> collectors_ PITEX_GUARDED_BY(mutex_);
};

// ---------------------------------------------------------------------------
// Process-wide hot counter table.
//
// Hot paths that cannot carry a registry handle (the PITEX_NOALLOC
// solver loop, the pool dispatch loop) increment these. The table is a
// static array -- no registration, no lookup, no allocation, ever --
// and HotCountersSnapshot() exports it with stable names.

enum class HotCounter : uint8_t {
  /// Cooperative deadline checkpoints evaluated by the best-effort
  /// solver (one per frontier pop under a budget).
  kSolveDeadlineChecks = 0,
  /// Frontier pops in the best-effort solver (budgeted or not).
  kSolveFrontierPops,
  /// ResultCache::Lookup calls (hits + misses).
  kCacheProbes,
  /// ResultCache::Insert calls.
  kCacheInserts,
  /// Tasks executed by any ThreadPool worker.
  kPoolTasks,
  kHotCounterCount,
};

/// The Counter behind one table slot. Constant-time array index into
/// static storage -- safe before main() and inside PITEX_NOALLOC code.
Counter& HotCounterRef(HotCounter which);

/// Named export of the whole table (appended to CLI stats dumps).
MetricsSnapshot HotCountersSnapshot();

}  // namespace obs
}  // namespace pitex

/// The sanctioned counter form for PITEX_NOALLOC bodies (tools/check
/// rule `obs-hotpath`): indexes the static hot-counter table and does
/// one relaxed fetch_add -- no registry, no strings, no allocation.
#define PITEX_COUNT(which, n) \
  (::pitex::obs::HotCounterRef(::pitex::obs::HotCounter::which).Inc(n))

#endif  // PITEX_SRC_OBS_METRICS_H_
