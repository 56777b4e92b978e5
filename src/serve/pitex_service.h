// PitexService: the query-serving subsystem, for closed batches and open
// streams alike.
//
// An offline evaluation run (the paper's fixed batch of queries per
// configuration, Sec. 7.1) wants a deterministic answer stream; that is
// the `deterministic` mode below. A serving deployment faces a different
// shape: an open stream of queries with skewed per-query cost (hub users
// cost orders of magnitude more than leaf users), arriving in bursts,
// while the underlying influence model is re-learned continually.
// PitexService covers both:
//
//   * scheduling — every query lands on a per-worker FIFO deque; idle
//     workers steal from the most loaded deque, so one hub query no
//     longer stalls the whole residue class it round-robins into. Each
//     worker owns a persistent PitexEngine replica (and thereby a
//     persistent BestEffortScratch + sampler state), so steady-state
//     serving allocates only at the scheduling layer. A `deterministic`
//     mode disables stealing and pins query i of a ServeAll batch to
//     worker i % num_threads — bit-identical to one PitexEngine per
//     worker answering its share in order (pinned for every method by
//     DeterministicSweepTest in tests/pitex_service_test.cc);
//   * snapshots — queries pin the current IndexSnapshot; ApplyUpdates
//     repairs a private DynamicRrIndex master and publishes a fresh
//     immutable snapshot sharing the master's network and base sketches,
//     so in-flight queries finish on the epoch they started while new
//     queries see the repaired index (see src/serve/snapshot_registry.h);
//   * memoization — answers are cached per (user, k, top_n, method,
//     epoch) in a sharded LRU ResultCache; epoch keying makes update
//     invalidation free. The cache is forced off in deterministic mode
//     (a hit would skip sampler RNG advancement and change every later
//     answer on that worker).
//
// Threading: built on util/thread_pool — Start() parks one pump task per
// pool worker via SubmitIndexed, whose worker index keys the engine
// replica. ServeAll blocks until its batch drains; Submit returns a
// future for streaming callers. All public methods are thread-safe;
// ServeAll/Submit may run concurrently with ApplyUpdates.

#ifndef PITEX_SRC_SERVE_PITEX_SERVICE_H_
#define PITEX_SRC_SERVE_PITEX_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "src/core/engine.h"
#include "src/index/dynamic_index.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/admission.h"
#include "src/serve/result_cache.h"
#include "src/serve/snapshot_registry.h"
#include "src/serve/term_authority.h"
#include "src/serve/wal.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace pitex {

enum class ScheduleMode {
  /// Per-worker deques with stealing: best throughput under skew; the
  /// worker (and hence sampler seed) serving a query is load-dependent.
  kWorkStealing,
  /// Static assignment (batch query i -> worker i % num_threads), no
  /// stealing, no cache: bit-identical to one PitexEngine per worker
  /// (seeded engine.seed + w, sharing the base seed's index) answering
  /// its queries in order, for the same (options, num_threads).
  kDeterministic,
};

struct ServeOptions {
  /// Per-worker engine configuration; worker w uses seed engine.seed + w.
  /// The shared index is built from IndexOptionsFor(engine), i.e. from
  /// the base seed.
  EngineOptions engine;
  size_t num_threads = 4;
  ScheduleMode mode = ScheduleMode::kWorkStealing;
  /// Ranked answers per query (1 = classic Explore).
  size_t top_n = 1;
  /// Result-cache entry budget; 0 disables. Ignored (off) in
  /// deterministic mode.
  size_t cache_capacity = 4096;
  /// Keep a DynamicRrIndex master so ApplyUpdates can publish repaired
  /// snapshots. Requires an RR-Graph method (kIndexEst / kIndexEstPlus).
  bool enable_updates = false;

  // --- overload resilience (docs/robustness.md) ---

  /// Admission control (bounded queue, publish priority, per-user rate
  /// limits). Active only in work-stealing mode AND when at least one
  /// limit is set (max_queue_depth or user_rate_limit non-zero);
  /// deterministic mode never sheds -- admission would make the answer
  /// stream load-dependent.
  AdmissionOptions admission;

  // --- durability (docs/robustness.md, "Durability") ---

  /// Directory holding the WAL and checkpoints; empty (the default)
  /// disables durability. Requires enable_updates. Start() recovers
  /// from this directory (newest checkpoint + WAL-tail replay) before
  /// serving, and ApplyUpdates makes every batch durable before
  /// applying or acknowledging it.
  std::string durability_dir;
  /// WAL tuning: segment rotation size and the fsync policy knob.
  WalOptions wal;
  /// Take a checkpoint (and truncate the WAL behind it) every N
  /// successful publishes. 0 = never checkpoint: recovery replays the
  /// whole log and the log grows without bound.
  uint64_t checkpoint_every = 8;

  // --- replication (docs/robustness.md, "Replication & failover") ---

  /// Fencing oracle shared across the replica set (not owned; must
  /// outlive the service). When set, ApplyUpdates acknowledges a batch
  /// only while the authority's current term equals this writer's
  /// adopted term (see AdoptTerm) — a deposed primary's late write
  /// returns kFencedStaleTerm before anything reaches the log, so a
  /// promotion it slept through cannot fork history. Null disables
  /// fencing (single-writer deployments).
  TermAuthority* term_authority = nullptr;
  /// The term this writer starts under. Promotion adopts a higher one
  /// through AdoptTerm.
  uint64_t term = 1;
};

/// How a query left the service (ServedResult::status).
enum class ServeStatus : uint8_t {
  /// Served to completion (cache hit or exhaustive search).
  kOk,
  /// The query's budget expired mid-search: `ranking` holds the best
  /// top-N found so far (possibly empty), not the proven optimum.
  /// Degraded answers are never cached.
  kDegraded,
  /// The budget was already exhausted when a worker picked the query up
  /// (it expired in queue). No search was run; `ranking` is empty.
  kDeadlineExpired,
  /// Refused at admission (queue full or rate-limited); never enqueued,
  /// `ranking` is empty and `epoch`/`worker` are meaningless.
  kShed,
};

/// Disposition of one ApplyUpdates call (optional out-parameter). The
/// epoch return value alone cannot tell a caller what to do with a
/// rejected batch: a WAL failure means "retry the same batch", an
/// invalid batch fails again unchanged, and a fenced writer must
/// re-route the batch to the current primary.
enum class ApplyUpdatesOutcome : uint8_t {
  /// Applied and published; the return value is the new epoch.
  kPublished,
  /// The batch failed validation (InvalidUpdateReason: edge out of
  /// range, non-finite or out-of-[0,1] probability, unknown topic, or a
  /// topic repeated among an update's positive entries). Nothing was logged or applied; the same
  /// batch fails the same way on retry — fix it, don't resend it.
  kInvalidBatch,
  /// The WAL append/commit failed: the batch is neither durable nor
  /// applied (the uncommitted bytes were rolled back). Retry the batch.
  kWalFailed,
  /// This writer's term is stale: a newer primary was elected since it
  /// last checked the term authority. Nothing was logged or applied.
  /// Do NOT retry here — re-route the write to the current primary.
  /// Folding this into kWalFailed would tell the caller to retry, the
  /// exact wrong advice for a deposed writer.
  kFencedStaleTerm,
};

/// One served answer plus serving metadata.
struct ServedResult {
  PitexResult result;
  /// Up to top_n ranked tag sets (ranking[0] == result.tags). For cache
  /// hits the PitexResult counters are zero — no work was done.
  std::vector<RankedTagSet> ranking;
  /// Index epoch the answer was computed against.
  uint64_t epoch = 0;
  /// Worker that served it.
  uint32_t worker = 0;
  bool cache_hit = false;
  /// Served off another worker's deque (work-stealing mode).
  bool stolen = false;
  /// Disposition under overload: kOk on the happy path; see ServeStatus.
  ServeStatus status = ServeStatus::kOk;
  /// Enqueue-to-answer time, the value pitex_query_sojourn_seconds
  /// observes for this query. Set for every answer a worker produced
  /// (ok, cache hit, degraded, deadline-expired); 0 for kShed. Callers
  /// wanting exact percentiles over a window of their choosing take
  /// them over these (pitex::Quantile).
  double sojourn_seconds = 0.0;
  /// Nonzero when the query was trace-sampled: the id to pass to
  /// obs::Tracer::Collect for the admission -> queue -> solve -> result
  /// span chain (docs/observability.md).
  uint64_t trace_id = 0;
};

class PitexService {
 public:
  /// `network` must outlive the service.
  PitexService(const SocialNetwork* network, const ServeOptions& options);
  ~PitexService();

  PitexService(const PitexService&) = delete;
  PitexService& operator=(const PitexService&) = delete;

  /// Builds the epoch-1 snapshot (offline index for index methods) and
  /// parks the worker pumps. Idempotent; invoked lazily by the serving
  /// entry points.
  void Start() PITEX_EXCLUDES(start_mutex_, update_mutex_);

  /// Answers a batch: results[i] corresponds to queries[i]. Blocks until
  /// every query in the batch is served; other threads may ServeAll /
  /// Submit / ApplyUpdates concurrently.
  std::vector<ServedResult> ServeAll(std::span<const PitexQuery> queries)
      PITEX_EXCLUDES(sched_mutex_, batch_mutex_);

  /// Streaming entry point: enqueues one query, returns immediately.
  std::future<ServedResult> Submit(const PitexQuery& query)
      PITEX_EXCLUDES(sched_mutex_);

  /// Repairs the shadow master index and atomically publishes the result
  /// as a new snapshot epoch (returned). In-flight queries are
  /// unaffected; subsequent queries see the repaired index. Requires
  /// options.enable_updates.
  ///
  /// The snapshot freeze cannot fail: a batch that passes the fence,
  /// validation and the WAL is always published. While the freeze is in
  /// flight, admission (when enabled) tightens the query queue bound so
  /// the publish is never starved by a query storm, and the publish
  /// watchdog gauges report its age.
  ///
  /// Durability: with options.durability_dir set, the batch is appended
  /// to the WAL and committed (fsync per policy) BEFORE the master is
  /// repaired -- a return value != 0 means the batch survives any
  /// subsequent crash. Batches are validated (InvalidUpdateReason --
  /// the same check recovery applies on replay) BEFORE the append: an invalid batch is rejected up front and never
  /// reaches the log, because a durable poison record would turn one
  /// bad call into a permanent recovery failure on every restart. If
  /// the WAL append or commit fails, the batch is rolled back out of
  /// the log and the master is left untouched.
  ///
  /// All three failure modes return 0; `outcome` (when non-null) tells
  /// the caller which one happened -- and therefore whether retrying is
  /// safe (kWalFailed), futile (kInvalidBatch), or belongs on another
  /// writer (kFencedStaleTerm).
  uint64_t ApplyUpdates(std::span<const EdgeInfluenceUpdate> updates,
                        ApplyUpdatesOutcome* outcome = nullptr)
      PITEX_EXCLUDES(update_mutex_);

  /// The snapshot new queries are currently served from.
  std::shared_ptr<const IndexSnapshot> CurrentSnapshot() const;
  uint64_t current_epoch() const;

  /// Point-in-time export of every registered metric: the service's
  /// only aggregate counter surface (per-query numbers ride on each
  /// ServedResult). Collector callbacks run first, mirroring
  /// internally-locked sources (cache shards, the snapshot registry,
  /// admission), the staleness atomics and the publish age into gauges,
  /// so one snapshot is internally consistent enough for the
  /// conservation invariants the chaos suite asserts
  /// (docs/observability.md, "Metric catalog"). Never takes the
  /// publisher lock, so it stays responsive during a stuck publish.
  obs::MetricsSnapshot SnapshotMetrics();

  /// The service's flight recorder: a lock-free ring of rare structured
  /// events (shed, degraded, WAL failure, fenced write, epoch swap...).
  /// Dumped to stderr automatically on crash-adjacent Start() failures.
  const obs::EventJournal& journal() const { return journal_; }

  /// Footprint of the current snapshot's shared index (0 for online
  /// methods).
  size_t SharedIndexSizeBytes() const;

  // --- replication surface (src/serve/replication.h) ---

  /// Adopts a new term (follower promotion). ApplyUpdates fences
  /// against the authority's current term, so adoption is exactly what
  /// turns a promoted follower into an acknowledging primary.
  void AdoptTerm(uint64_t term);
  /// The term this writer currently operates under.
  uint64_t term() const { return term_.load(std::memory_order_acquire); }
  /// Last WAL LSN acknowledged as durable (0 without durability). A
  /// lock-free mirror, safe from any thread: the WAL shipper tails the
  /// log up to exactly this watermark, never past it — records beyond
  /// it may still be rolled back by a failed commit.
  uint64_t durable_lsn() const {
    return durable_lsn_mirror_.load(std::memory_order_acquire);
  }
  /// The service's metrics registry. Replication components register
  /// their series here so one --stats-out dump carries the serving and
  /// replication ledgers together (docs/observability.md).
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Journal handle for components recording on this service's
  /// timeline (ship / resync / promote events).
  obs::EventJournal& mutable_journal() { return journal_; }
  /// The WAL's retention-hold registry (internally synchronized;
  /// stable until destruction), or nullptr without durability. Only
  /// meaningful after Start().
  WalRetentionHolds* WalRetention() PITEX_EXCLUDES(update_mutex_);

  const ServeOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingQuery {
    PitexQuery query;
    Clock::time_point enqueued;
    ServedResult* slot = nullptr;                      // batch delivery
    std::unique_ptr<std::promise<ServedResult>> promise;  // streaming
    std::atomic<size_t>* remaining = nullptr;          // batch countdown
    /// Identity only (8 bytes): span storage lives in the tracer's
    /// thread-local rings, not in the query (src/obs/trace.h).
    obs::TraceContext trace;
  };

  /// Engine replica + pinned snapshot of one worker. Only pump w touches
  /// workers_[w] (worker exclusivity via SubmitIndexed — two tasks with
  /// the same index never run concurrently), so these fields carry no
  /// lock annotation.
  struct WorkerState {
    std::unique_ptr<PitexEngine> engine;
    std::shared_ptr<const IndexSnapshot> snapshot;
    uint64_t engine_epoch = 0;
  };

  /// Registered-once handles into metrics_ (stable for the service's
  /// lifetime; see RegisterMetrics for the name catalog). The hot paths
  /// increment through these pointers -- never a registry lookup.
  struct MetricHandles {
    // Conservation chain: submitted == admitted + shed_queue_full +
    // shed_rate_limited, and admitted == ok + degraded +
    // deadline_expired once the queue drains (asserted by the chaos
    // suite). Incremented at the verdict sites so the identities hold
    // with or without an AdmissionController.
    obs::Counter* submitted = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* shed_queue_full = nullptr;
    obs::Counter* shed_rate_limited = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Counter* deadline_expired = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* steals = nullptr;
    obs::Counter* wal_appends = nullptr;
    obs::Counter* wal_fsyncs = nullptr;
    obs::Counter* wal_append_failures = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* checkpoint_failures = nullptr;
    obs::Counter* recovery_replayed = nullptr;
    obs::Counter* fenced_writes = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Histogram* sojourn = nullptr;
    // Observed by the AdmissionController at each decision.
    obs::Histogram* queue_depth = nullptr;
    // Set by the writer after each freeze.
    obs::Gauge* overlay_sketches = nullptr;
    // Set at each publish (Start() and every ApplyUpdates epoch).
    obs::Gauge* index_bytes = nullptr;
    // Derived gauges, written only by CollectDerivedMetrics().
    obs::Gauge* cache_entries = nullptr;
    obs::Gauge* cache_insertions = nullptr;
    obs::Gauge* cache_evictions = nullptr;
    obs::Gauge* current_epoch = nullptr;
    obs::Gauge* epochs_published = nullptr;
    obs::Gauge* snapshots_alive = nullptr;
    obs::Gauge* admission_in_flight = nullptr;
    obs::Gauge* publish_in_flight = nullptr;
    obs::Gauge* publish_age_ms = nullptr;
    obs::Gauge* durable_lsn = nullptr;
    obs::Gauge* published_lsn = nullptr;
    obs::Gauge* staleness_batches = nullptr;
    obs::Gauge* staleness_lsns = nullptr;
    obs::Gauge* term = nullptr;
  };

  void PumpLoop(size_t worker) PITEX_EXCLUDES(sched_mutex_, batch_mutex_);
  void ServeRun(size_t worker, std::vector<PendingQuery>* run, bool stolen)
      PITEX_EXCLUDES(batch_mutex_);
  void BindWorker(WorkerState* state,
                  std::shared_ptr<const IndexSnapshot> snapshot,
                  size_t worker);
  /// Freezes a snapshot of the master at `epoch` (compacting the
  /// master's overlay first when `compact`). Never returns null.
  /// Maintains the publish watchdog atomics, the admission
  /// publish-priority window and the overlay metrics.
  std::shared_ptr<const IndexSnapshot> FreezeSnapshotLocked(uint64_t epoch,
                                                            bool compact)
      PITEX_REQUIRES(update_mutex_);
  /// Whether the publish in progress completes the checkpoint cadence
  /// (its snapshot is then compacted and checkpointed).
  bool CheckpointDueLocked() const PITEX_REQUIRES(update_mutex_);
  /// After a successful publish: when the checkpoint cadence is due,
  /// persists `snapshot` + a manifest through src/serve/recovery.h and
  /// truncates the WAL behind it. Failure is non-fatal (counted in
  /// checkpoint_failures; the next publish retries).
  void MaybeCheckpointLocked(const IndexSnapshot& snapshot)
      PITEX_REQUIRES(update_mutex_);
  /// Registers every per-service metric into metrics_ and installs the
  /// derived-gauge collector. Ctor only (handles are then immutable).
  void RegisterMetrics();
  /// Collector body, run under the registry lock at every Snapshot():
  /// mirrors internally-locked sources and the staleness atomics into
  /// the gauges of MetricHandles.
  void CollectDerivedMetrics();
  void EnqueueLocked(PendingQuery item, size_t sequence)
      PITEX_REQUIRES(sched_mutex_);
  bool AnyStealableLocked(size_t thief) const PITEX_REQUIRES(sched_mutex_);
  bool TryStealLocked(size_t thief, std::vector<PendingQuery>* run)
      PITEX_REQUIRES(sched_mutex_);

  const SocialNetwork* network_;
  ServeOptions options_;

  // Observability spine (docs/observability.md). Per-service instances:
  // two services in one process never share counts, which the
  // conservation-invariant tests rely on. Registered handles in m_ are
  // written lock-free from the serving paths; journal_.Record is
  // wait-free and only ever called on rare-event paths.
  obs::MetricsRegistry metrics_;
  obs::EventJournal journal_;
  MetricHandles m_;

  Mutex start_mutex_;  // serializes lazy Start()
  std::atomic<bool> started_{false};

  IndexSnapshotRegistry registry_;
  /// Serializes publishers (Start's initial build, ApplyUpdates) and
  /// guards the writer-side state they touch.
  Mutex update_mutex_;
  // The index repairs mutate privately (enable_updates only).
  std::unique_ptr<DynamicRrIndex> master_ PITEX_GUARDED_BY(update_mutex_);
  uint64_t compactions_seen_ PITEX_GUARDED_BY(update_mutex_) = 0;
  // Publish watchdog feed (read by the collector without update_mutex_
  // -- a stuck publish holds that mutex, which is exactly when a scrape
  // must still make progress): the in-flight flag and its start time,
  // exported as pitex_publish_in_flight and pitex_publish_age_ms.
  std::atomic<bool> publish_in_flight_{false};
  std::atomic<int64_t> publish_started_ns_{0};
  // Durability (all null/zero when options_.durability_dir is empty).
  // Writer-side state lives under update_mutex_ with the master it
  // journals; the wal_*_seen_ trackers convert the WAL's absolute
  // appends()/fsyncs() readings into registry-counter deltas (counters
  // only go up) without a scrape ever touching the publisher lock.
  std::unique_ptr<WriteAheadLog> wal_ PITEX_GUARDED_BY(update_mutex_);
  uint64_t last_durable_lsn_ PITEX_GUARDED_BY(update_mutex_) = 0;
  uint64_t publishes_since_checkpoint_ PITEX_GUARDED_BY(update_mutex_) = 0;
  uint64_t wal_appends_seen_ PITEX_GUARDED_BY(update_mutex_) = 0;
  uint64_t wal_fsyncs_seen_ PITEX_GUARDED_BY(update_mutex_) = 0;
  // Edges diverged from the base network (sorted, unique): the next
  // checkpoint's model delta. Seeded by recovery, grown per batch.
  std::vector<EdgeId> touched_edges_ PITEX_GUARDED_BY(update_mutex_);
  // Staleness feed (docs/observability.md, "Staleness"): how far the
  // served snapshot trails the acknowledged (durable) history. Written
  // under update_mutex_ serialization, read lock-free by the collector:
  //   staleness_batches = applied - published   (epoch lag)
  //   staleness_lsns    = durable - published   (ack lag)
  // Both are zero in steady state; nonzero while a freeze runs, when
  // readers serve an epoch that predates a batch already applied/acked.
  std::atomic<uint64_t> applied_batches_{0};
  std::atomic<uint64_t> published_batches_{0};
  std::atomic<uint64_t> durable_lsn_mirror_{0};
  std::atomic<uint64_t> published_lsn_mirror_{0};
  // This writer's replication term (see AdoptTerm). Atomic, not
  // update_mutex_-guarded: a promoted follower adopts from its
  // replication thread while readers poll term() freely.
  std::atomic<uint64_t> term_{1};
  std::unique_ptr<ResultCache> cache_;  // created by ctor, then immutable
  // Admission control; null unless work-stealing mode with a limit set.
  // Created by the ctor, then immutable (internally synchronized).
  std::unique_ptr<AdmissionController> admission_;

  // Scheduler state.
  Mutex sched_mutex_;
  CondVar work_cv_;
  std::vector<std::deque<PendingQuery>> deques_ PITEX_GUARDED_BY(sched_mutex_);
  bool stop_ PITEX_GUARDED_BY(sched_mutex_) = false;
  // Round-robin placement for Submit.
  uint64_t stream_seq_ PITEX_GUARDED_BY(sched_mutex_) = 0;

  // Batch completion: decrement-to-zero notifies under batch_mutex_. The
  // mutex guards no member — it exists so the final notify cannot slip
  // between a waiter's predicate check and its wait.
  Mutex batch_mutex_;
  CondVar batch_cv_;

  std::vector<WorkerState> workers_;  // element w owned by pump w

  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace pitex

#endif  // PITEX_SRC_SERVE_PITEX_SERVICE_H_
