#include "src/serve/pitex_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/serve/recovery.h"
#include "src/util/check.h"

namespace pitex {

PitexService::PitexService(const SocialNetwork* network,
                           const ServeOptions& options)
    : network_(network), options_(options) {
  PITEX_CHECK(network != nullptr);
  options_.num_threads = std::max<size_t>(1, options_.num_threads);
  options_.top_n = std::max<size_t>(1, options_.top_n);
  PITEX_CHECK_MSG(options_.durability_dir.empty() || options_.enable_updates,
                  "durability_dir requires enable_updates");
  term_.store(options_.term, std::memory_order_relaxed);
  deques_.resize(options_.num_threads);
  workers_ = std::vector<WorkerState>(options_.num_threads);
  RegisterMetrics();
  // Deterministic mode forbids the cache: a hit skips the engine, so the
  // worker's sampler RNG would not advance and every subsequent answer
  // on that worker would diverge from the per-worker engine reference.
  if (options_.mode == ScheduleMode::kWorkStealing &&
      options_.cache_capacity > 0) {
    constexpr size_t kCacheShards = 8;
    cache_ = std::make_unique<ResultCache>(options_.cache_capacity,
                                           kCacheShards);
  }
  // Admission is load-shedding, and shedding is inherently
  // load-dependent -- deterministic mode must answer every query, so the
  // controller only exists in work-stealing mode with a limit set.
  if (options_.mode == ScheduleMode::kWorkStealing &&
      (options_.admission.max_queue_depth > 0 ||
       options_.admission.user_rate_limit > 0.0)) {
    admission_ = std::make_unique<AdmissionController>(options_.admission,
                                                       m_.queue_depth);
  }
}

void PitexService::RegisterMetrics() {
  m_.submitted = metrics_.RegisterCounter(
      "pitex_queries_submitted_total",
      "Queries offered to the service (admitted + shed)");
  m_.admitted = metrics_.RegisterCounter(
      "pitex_queries_admitted_total", "Queries accepted past admission");
  m_.shed_queue_full = metrics_.RegisterCounter(
      "pitex_queries_shed_queue_full_total",
      "Queries refused because the bounded queue was full");
  m_.shed_rate_limited = metrics_.RegisterCounter(
      "pitex_queries_shed_rate_limited_total",
      "Queries refused by the per-user token bucket");
  m_.ok = metrics_.RegisterCounter(
      "pitex_queries_ok_total",
      "Queries served to completion (cache hits included)");
  m_.degraded = metrics_.RegisterCounter(
      "pitex_queries_degraded_total",
      "Queries whose budget expired mid-search (best-so-far answer)");
  m_.deadline_expired = metrics_.RegisterCounter(
      "pitex_queries_deadline_expired_total",
      "Queries whose budget was already gone at worker pickup");
  m_.cache_hits = metrics_.RegisterCounter(
      "pitex_cache_hits_total", "Result-cache hits observed by workers");
  m_.steals = metrics_.RegisterCounter(
      "pitex_steals_total", "Queries served off another worker's deque");
  m_.wal_appends = metrics_.RegisterCounter(
      "pitex_wal_appends_total", "Update batches appended to the WAL");
  m_.wal_fsyncs = metrics_.RegisterCounter(
      "pitex_wal_fsyncs_total", "fsync(2) calls issued by the WAL");
  m_.wal_append_failures = metrics_.RegisterCounter(
      "pitex_wal_append_failures_total",
      "Batches rejected because the WAL append/commit failed");
  m_.checkpoints = metrics_.RegisterCounter(
      "pitex_checkpoints_total", "Checkpoints written (WAL truncated)");
  m_.checkpoint_failures = metrics_.RegisterCounter(
      "pitex_checkpoint_failures_total",
      "Checkpoint attempts that failed (previous one stays valid)");
  m_.recovery_replayed = metrics_.RegisterCounter(
      "pitex_recovery_replayed_lsns_total",
      "WAL records replayed over the checkpoint by Start() recovery");
  m_.fenced_writes = metrics_.RegisterCounter(
      "pitex_fenced_writes_total",
      "Update batches rejected because this writer's term is stale");
  m_.compactions = metrics_.RegisterCounter(
      "pitex_index_compactions_total",
      "Master index overlays folded into a new base sketch pool");
  m_.overlay_sketches = metrics_.RegisterGauge(
      "pitex_index_overlay_sketches",
      "Repaired sketch copies in the master index overlay at the last "
      "freeze");
  m_.index_bytes = metrics_.RegisterGauge(
      "pitex_index_bytes",
      "Footprint of the served snapshot's shared index, set at every "
      "publish");
  m_.sojourn = metrics_.RegisterHistogram(
      "pitex_query_sojourn_seconds",
      "Enqueue-to-answer latency of engine-served queries",
      {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
       0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0});
  m_.queue_depth = metrics_.RegisterHistogram(
      "pitex_admission_queue_depth",
      "Admitted queries in flight as seen by each admission decision",
      {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096});
  m_.cache_entries = metrics_.RegisterGauge(
      "pitex_cache_entries", "Result-cache entries currently resident");
  m_.cache_insertions = metrics_.RegisterGauge(
      "pitex_cache_insertions", "Result-cache insertions so far");
  m_.cache_evictions = metrics_.RegisterGauge(
      "pitex_cache_evictions", "Result-cache evictions so far");
  m_.current_epoch = metrics_.RegisterGauge(
      "pitex_current_epoch", "Epoch new queries are served from");
  m_.epochs_published = metrics_.RegisterGauge(
      "pitex_epochs_published", "Index snapshots published so far");
  m_.snapshots_alive = metrics_.RegisterGauge(
      "pitex_snapshots_alive",
      "Retired snapshots still pinned by in-flight readers");
  m_.admission_in_flight = metrics_.RegisterGauge(
      "pitex_admission_in_flight",
      "Admitted queries currently queued or executing");
  m_.publish_in_flight = metrics_.RegisterGauge(
      "pitex_publish_in_flight", "1 while a snapshot freeze is running");
  m_.publish_age_ms = metrics_.RegisterGauge(
      "pitex_publish_age_ms",
      "Age of the in-flight snapshot freeze in ms (0 when idle)");
  m_.durable_lsn = metrics_.RegisterGauge(
      "pitex_durable_lsn", "Last WAL LSN acknowledged as durable");
  m_.published_lsn = metrics_.RegisterGauge(
      "pitex_published_lsn", "Durable LSN covered by the served epoch");
  m_.staleness_batches = metrics_.RegisterGauge(
      "pitex_staleness_batches",
      "Applied update batches the served epoch does not cover yet");
  m_.staleness_lsns = metrics_.RegisterGauge(
      "pitex_staleness_lsns",
      "Durable LSNs the served epoch does not cover yet");
  m_.term = metrics_.RegisterGauge(
      "pitex_term", "Replication term this writer operates under");
  m_.term->Set(static_cast<int64_t>(options_.term));
  metrics_.AddCollector([this] { CollectDerivedMetrics(); });
}

void PitexService::CollectDerivedMetrics() {
  if (cache_ != nullptr) {
    // One GetStats call per collection: each shard's (insertions,
    // evictions, entries) triple is read under that shard's lock, so
    // the cache conservation identity insertions == evictions + entries
    // survives into the exported gauges.
    const ResultCache::Stats cache_stats = cache_->GetStats();
    m_.cache_entries->Set(static_cast<int64_t>(cache_stats.entries));
    m_.cache_insertions->Set(static_cast<int64_t>(cache_stats.insertions));
    m_.cache_evictions->Set(static_cast<int64_t>(cache_stats.evictions));
  }
  if (admission_ != nullptr) {
    m_.admission_in_flight->Set(
        static_cast<int64_t>(admission_->in_flight()));
  }
  m_.current_epoch->Set(static_cast<int64_t>(registry_.current_epoch()));
  m_.epochs_published->Set(static_cast<int64_t>(registry_.epochs_published()));
  m_.snapshots_alive->Set(static_cast<int64_t>(registry_.AliveSnapshots()));
  // Watchdog: the age of a publish still in flight. A stuck publish
  // holds update_mutex_, so only atomics are read here.
  const bool publishing = publish_in_flight_.load(std::memory_order_acquire);
  const int64_t publish_age_ns =
      publishing ? obs::NowNs() -
                       publish_started_ns_.load(std::memory_order_relaxed)
                 : 0;
  m_.publish_in_flight->Set(publishing ? 1 : 0);
  m_.publish_age_ms->Set(std::max<int64_t>(0, publish_age_ns / 1'000'000));
  const uint64_t applied = applied_batches_.load(std::memory_order_relaxed);
  const uint64_t published =
      published_batches_.load(std::memory_order_relaxed);
  const uint64_t durable = durable_lsn_mirror_.load(std::memory_order_relaxed);
  const uint64_t covered =
      published_lsn_mirror_.load(std::memory_order_relaxed);
  m_.durable_lsn->Set(static_cast<int64_t>(durable));
  m_.published_lsn->Set(static_cast<int64_t>(covered));
  m_.staleness_batches->Set(
      applied >= published ? static_cast<int64_t>(applied - published) : 0);
  m_.staleness_lsns->Set(
      durable >= covered ? static_cast<int64_t>(durable - covered) : 0);
}

PitexService::~PitexService() {
  if (pool_ != nullptr) {
    {
      MutexLock lock(sched_mutex_);
      stop_ = true;
    }
    work_cv_.NotifyAll();
    // ThreadPool::~ThreadPool waits for the pumps, which drain every
    // still-pending query (promises must not be abandoned) and exit.
    pool_.reset();
  }
}

void PitexService::Start() {
  if (started_.load(std::memory_order_acquire)) return;
  MutexLock start_lock(start_mutex_);
  if (started_.load(std::memory_order_relaxed)) return;

  const size_t num_threads = options_.num_threads;
  pool_ = std::make_unique<ThreadPool>(num_threads);

  // Offline cost is paid once here, from the base seed's index options
  // (deterministic mode depends on the index derivation matching one
  // PitexEngine built with the same EngineOptions).
  const Method method = options_.engine.method;
  RrIndexOptions index_options = IndexOptionsFor(options_.engine);

  std::shared_ptr<const IndexSnapshot> snapshot;
  if (method == Method::kIndexEst || method == Method::kIndexEstPlus) {
    if (options_.enable_updates) {
      // Master: repairs mutate it privately; every published epoch is
      // an immutable replica sharing its base. The initial state is
      // bit-identical to a freshly built RrIndex with these options.
      // Writer-side state is update_mutex_ territory even during the
      // one-time init: an ApplyUpdates racing a concurrent lazy Start()
      // must observe either "no master" (and Start() itself below, via
      // its own Start() call) or the fully built one — found by the
      // -Wthread-safety annotation pass (docs/static_analysis.md).
      MutexLock update_lock(update_mutex_);
      uint64_t initial_epoch = 1;
      if (!options_.durability_dir.empty()) {
        // Recover: newest checkpoint + WAL-tail replay. Every batch in
        // the result was acknowledged before the last shutdown/crash,
        // and the replayed master is bit-identical to a never-crashed
        // reference (src/serve/recovery.h), so serving resumes exactly
        // where the acknowledged history left off.
        RecoveredState recovered;
        std::string error;
        if (!RecoverServingState(*network_, index_options,
                                 options_.durability_dir, &recovered,
                                 &error)) {
          // Crash-adjacent: dump the flight recorder before aborting so
          // the events leading here are on the console with the reason.
          journal_.DumpTo(stderr);
          PITEX_CHECK_MSG(false, error.c_str());
        }
        master_ = std::move(recovered.master);
        touched_edges_ = std::move(recovered.touched_edges);
        last_durable_lsn_ = recovered.last_lsn;
        m_.recovery_replayed->Inc(recovered.replayed_records);
        journal_.Record(obs::EventKind::kRecoveryReplay,
                        recovered.replayed_records, recovered.last_lsn);
        durable_lsn_mirror_.store(recovered.last_lsn,
                                  std::memory_order_relaxed);
        initial_epoch = recovered.publish_epoch;
        wal_ = WriteAheadLog::Open(options_.durability_dir,
                                   recovered.last_lsn + 1, options_.wal,
                                   &error);
        if (wal_ == nullptr) {
          journal_.DumpTo(stderr);
          PITEX_CHECK_MSG(false, error.c_str());
        }
        wal_appends_seen_ = wal_->appends();
        wal_fsyncs_seen_ = wal_->fsyncs();
      } else {
        master_ = std::make_unique<DynamicRrIndex>(*network_, index_options);
        master_->Build();
      }
      snapshot = FreezeSnapshotLocked(initial_epoch, /*compact=*/false);
      // The initial snapshot covers everything recovery acknowledged.
      published_lsn_mirror_.store(
          durable_lsn_mirror_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    } else {
      index_options.num_build_threads = num_threads;
      auto index = std::make_unique<RrIndex>(*network_, index_options);
      // The pump pool doubles as the build pool (pumps are parked only
      // after the build); the index is bit-identical for any pool size.
      index->Build(pool_.get());
      snapshot = IndexSnapshot::Wrap(network_, std::move(index), 1);
    }
  } else {
    PITEX_CHECK_MSG(!options_.enable_updates,
                    "enable_updates requires kIndexEst or kIndexEstPlus");
    std::unique_ptr<DelayMatIndex> prototype;
    if (method == Method::kDelayMat) {
      prototype = std::make_unique<DelayMatIndex>(*network_, index_options);
      prototype->Build();
    }
    snapshot = IndexSnapshot::Wrap(network_, nullptr, 1, std::move(prototype));
  }
  const uint64_t first_epoch = snapshot->epoch();
  registry_.Publish(std::move(snapshot));
  m_.index_bytes->Set(static_cast<int64_t>(SharedIndexSizeBytes()));
  journal_.Record(obs::EventKind::kEpochSwap, first_epoch,
                  durable_lsn_mirror_.load(std::memory_order_relaxed));

  for (size_t i = 0; i < num_threads; ++i) {
    PITEX_CHECK_MSG(
        pool_->SubmitIndexed([this](size_t worker) { PumpLoop(worker); }),
        "serving pool shut down before the pumps parked");
  }
  started_.store(true, std::memory_order_release);
}

void PitexService::EnqueueLocked(PendingQuery item, size_t sequence) {
  size_t worker;
  if (options_.mode == ScheduleMode::kDeterministic) {
    worker = sequence % deques_.size();
  } else {
    // User-affinity placement: the per-worker engine replicas keep
    // per-user state (IndexEst+ filter caches, DelayMat recovered
    // graphs), so a user's home deque is chosen by hash, keeping those
    // caches warm across the stream. Stealing remains the overflow
    // valve when a home deque runs hot.
    const uint64_t hash =
        static_cast<uint64_t>(item.query.user) * 0x9e3779b97f4a7c15ULL;
    worker = static_cast<size_t>(hash >> 32) % deques_.size();
  }
  deques_[worker].push_back(std::move(item));
}

bool PitexService::AnyStealableLocked(size_t thief) const {
  // Backlogs of one are left to their home worker: stealing the last
  // item buys nothing but a cold per-user cache on the thief. The
  // predicate must match TryStealLocked exactly, or an idle pump would
  // spin on work it can never claim.
  for (size_t v = 0; v < deques_.size(); ++v) {
    if (v != thief && deques_[v].size() >= 2) return true;
  }
  return false;
}

// Queries claimed per lock acquisition. Runs amortize the scheduler's
// mutex/condvar traffic across many queries while staying small enough
// that the tail of a skewed batch is still redistributed finely.
constexpr size_t kMaxRunLength = 16;

bool PitexService::TryStealLocked(size_t thief,
                                  std::vector<PendingQuery>* run) {
  size_t best = deques_.size();
  size_t best_size = 0;
  for (size_t v = 0; v < deques_.size(); ++v) {
    if (v == thief) continue;
    if (deques_[v].size() > best_size) {
      best = v;
      best_size = deques_[v].size();
    }
  }
  if (best == deques_.size() || best_size < 2) return false;
  // Steal half the victim's backlog (capped) from the back: the owner
  // pops the front, so thief and owner touch opposite ends, and one
  // steal rebalances a whole run instead of a single query.
  std::deque<PendingQuery>& victim = deques_[best];
  const size_t take = std::min(kMaxRunLength, victim.size() / 2);
  const size_t start = victim.size() - take;
  for (size_t i = start; i < victim.size(); ++i) {
    run->push_back(std::move(victim[i]));
  }
  victim.erase(victim.begin() + static_cast<ptrdiff_t>(start), victim.end());
  return true;
}

void PitexService::PumpLoop(size_t worker) {
  const bool stealing = options_.mode == ScheduleMode::kWorkStealing;
  std::vector<PendingQuery> run;
  run.reserve(kMaxRunLength);
  for (;;) {
    run.clear();
    bool stolen = false;
    {
      MutexLock lock(sched_mutex_);
      while (!stop_ && deques_[worker].empty() &&
             !(stealing && AnyStealableLocked(worker))) {
        work_cv_.Wait(lock);
      }
      std::deque<PendingQuery>& own = deques_[worker];
      if (!own.empty()) {
        // Claim a run of the own backlog. Halving (instead of taking it
        // all) leaves the rest visible to thieves, so a worker stuck on
        // an expensive run is still relieved.
        const size_t take =
            std::min(kMaxRunLength, std::max<size_t>(1, own.size() / 2));
        for (size_t i = 0; i < take; ++i) {
          run.push_back(std::move(own.front()));
          own.pop_front();
        }
      } else if (stealing && TryStealLocked(worker, &run)) {
        stolen = true;
      } else if (stop_) {
        return;  // drained: stop only ever fires after pending work
      } else {
        continue;  // another pump took the work this wakeup announced
      }
    }
    ServeRun(worker, &run, stolen);
  }
}

void PitexService::BindWorker(WorkerState* state,
                              std::shared_ptr<const IndexSnapshot> snapshot,
                              size_t worker) {
  EngineOptions worker_options = options_.engine;
  worker_options.seed = options_.engine.seed + worker;
  auto engine =
      std::make_unique<PitexEngine>(&snapshot->network(), worker_options);
  if (snapshot->rr_index() != nullptr) {
    engine->UseSharedRrIndex(snapshot->rr_index());
  } else if (snapshot->delay_index() != nullptr) {
    // DelayMat caches recovered graphs per query user, so each worker
    // serves its own replica, sharing the prototype's counters.
    engine->AdoptDelayMatIndex(snapshot->delay_index()->Replica());
  }
  engine->BuildIndex();  // wraps/attaches; cheap for adopted indexes
  state->engine = std::move(engine);
  state->engine_epoch = snapshot->epoch();
  state->snapshot = std::move(snapshot);  // pin: keeps the epoch alive
}

void PitexService::ServeRun(size_t worker, std::vector<PendingQuery>* run,
                            bool stolen) {
  // Epoch pickup is per run: a publish mid-run becomes visible on the
  // next claim. Answers are still labeled with the epoch that actually
  // computed them (state.engine_epoch), so correctness is unaffected.
  std::shared_ptr<const IndexSnapshot> snapshot = registry_.Current();
  WorkerState& state = workers_[worker];
  if (state.engine == nullptr || state.engine_epoch != snapshot->epoch()) {
    BindWorker(&state, std::move(snapshot), worker);
    journal_.Record(obs::EventKind::kWorkerRebind, worker,
                    state.engine_epoch);
  }

  ResultCacheKey key;
  key.top_n = static_cast<uint32_t>(options_.top_n);
  key.method = static_cast<uint8_t>(options_.engine.method);
  key.epoch = state.engine_epoch;

  ServedResult outs[kMaxRunLength];
  size_t count = 0;
  uint64_t hit_count = 0;
  uint64_t degraded_count = 0;
  uint64_t deadline_count = 0;

  for (PendingQuery& item : *run) {
    // Queue-wait span: the start was observed on the submitting thread
    // (enqueue time), so it crosses threads and is recorded explicitly.
    // Arming the trace for the rest of the iteration lets the cache
    // probe / solve spans (and the solver's own sites) attribute to it
    // without plumbing the id through every call.
    if (item.trace.sampled()) {
      item.trace.Record(obs::SpanKind::kQueueWait, obs::ToNs(item.enqueued),
                        obs::NowNs());
    }
    PITEX_TRACE_SCOPE(item.trace.id());
    ServedResult& out = outs[count];
    out.epoch = state.engine_epoch;
    out.worker = static_cast<uint32_t>(worker);
    out.stolen = stolen;
    out.cache_hit = false;
    out.status = ServeStatus::kOk;
    out.trace_id = item.trace.id();
    key.user = item.query.user;
    key.k = static_cast<uint32_t>(item.query.k);

    // A query budget is measured from enqueue, so queue wait counts
    // against it; the engine gets whatever remains.
    double remaining_budget = 0.0;
    if (item.query.budget_seconds > 0.0) {
      const double waited =
          std::chrono::duration<double>(Clock::now() - item.enqueued).count();
      remaining_budget = item.query.budget_seconds - waited;
      if (remaining_budget <= 0.0) {
        // Expired in queue: answering with stale-best is impossible (no
        // search ran) and starting one would only delay the queries
        // behind it -- the overload-collapse mode deadlines exist to
        // prevent. Report expiry and move on.
        out.status = ServeStatus::kDeadlineExpired;
        out.result = PitexResult{};
        out.result.degraded = true;
        out.ranking.clear();
        ++deadline_count;
        journal_.Record(obs::EventKind::kDeadlineExpired, item.query.user,
                        worker);
        out.sojourn_seconds =
            std::chrono::duration<double>(Clock::now() - item.enqueued)
                .count();
        ++count;
        continue;
      }
    }

    bool cache_hit = false;
    if (cache_ != nullptr) {
      PITEX_SPAN(kCacheProbe);
      cache_hit = cache_->Lookup(key, &out.ranking);
    }
    if (cache_hit) {
      out.cache_hit = true;
      ++hit_count;
      out.result = PitexResult{};
      out.result.tags = out.ranking.front().tags;
      out.result.influence = out.ranking.front().influence;
    } else {
      PitexQuery engine_query = item.query;
      engine_query.budget_seconds = remaining_budget;
      {
        PITEX_SPAN(kSolve);
        if (options_.top_n == 1) {
          out.result = state.engine->Explore(engine_query);
          if (out.result.degraded && out.result.tags.empty()) {
            out.ranking.clear();  // budget died before the first full set
          } else {
            out.ranking.assign(
                1, RankedTagSet{out.result.tags, out.result.influence});
          }
        } else {
          out.ranking =
              state.engine->ExploreTopN(engine_query, options_.top_n,
                                        &out.result);
        }
      }
      if (out.result.degraded) {
        out.status = ServeStatus::kDegraded;
        ++degraded_count;
        journal_.Record(obs::EventKind::kDegraded, item.query.user, worker);
        // Degraded answers are budget artifacts, not properties of
        // (user, k, epoch) -- caching one would serve a truncated
        // ranking to future unconstrained queries.
      } else if (cache_ != nullptr) {
        cache_->Insert(key, out.ranking);
      }
    }

    out.sojourn_seconds =
        std::chrono::duration<double>(Clock::now() - item.enqueued).count();
    ++count;
  }

  // Admitted slots free up as soon as the answers are computed (before
  // delivery: the waiter's reaction time is not queue occupancy).
  if (admission_ != nullptr) admission_->Release(run->size());

  // Flush the counters BEFORE delivering: once the batch waiter (or a
  // future holder) unblocks, SnapshotMetrics() must already account for
  // every query of this run. One lock-free flush per run, not per query.
  m_.ok->Inc(count - degraded_count - deadline_count);
  m_.degraded->Inc(degraded_count);
  m_.deadline_expired->Inc(deadline_count);
  m_.cache_hits->Inc(hit_count);
  if (stolen) m_.steals->Inc(count);
  for (size_t i = 0; i < count; ++i) {
    m_.sojourn->Observe(outs[i].sojourn_seconds);
  }

  for (size_t i = 0; i < count; ++i) {
    PendingQuery& item = (*run)[i];
    // Delivery span recorded between the answer handoff and the batch
    // countdown: by the time the final countdown wakes a batch waiter,
    // every span of every query in the batch is already collectible.
    // (A streaming future can win the race against its own kResult
    // record; batch waiters cannot.)
    const bool traced = item.trace.sampled();
    const int64_t delivery_start = traced ? obs::NowNs() : 0;
    if (item.promise != nullptr) {
      item.promise->set_value(std::move(outs[i]));
    } else if (item.slot != nullptr) {
      *item.slot = std::move(outs[i]);
    }
    if (traced) {
      item.trace.Record(obs::SpanKind::kResult, delivery_start,
                        obs::NowNs());
    }
    if (item.remaining != nullptr &&
        item.remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Lock/unlock pairs with the waiter's predicate check so the final
      // notify cannot slip between its check and its wait.
      MutexLock lock(batch_mutex_);
      batch_cv_.NotifyAll();
    }
  }
}

std::vector<ServedResult> PitexService::ServeAll(
    std::span<const PitexQuery> queries) {
  if (queries.empty()) return {};
  Start();
  std::vector<ServedResult> results(queries.size());
  // Admission decisions happen before enqueue: shed slots are answered
  // in place (status kShed, nothing else touched) and never reach the
  // scheduler, so `remaining` counts only admitted queries.
  size_t admitted = 0;
  std::atomic<size_t> remaining{0};
  const auto now = Clock::now();
  m_.submitted->Inc(queries.size());
  {
    MutexLock lock(sched_mutex_);
    for (size_t i = 0; i < queries.size(); ++i) {
      const obs::TraceContext trace = obs::TraceContext::Start();
      // The admission span starts at the batch arrival instant (`now`,
      // which is also the enqueue timestamp): admission covers
      // arrival -> enqueued, queue wait covers enqueued -> pickup, and
      // the shared start keeps the exported chain ordered (Collect
      // breaks start-time ties by kind).
      const int64_t admission_start = trace.sampled() ? obs::ToNs(now) : 0;
      if (admission_ != nullptr) {
        const AdmissionVerdict verdict =
            admission_->TryAdmit(queries[i].user, now);
        if (verdict != AdmissionVerdict::kAdmit) {
          const bool queue_full = verdict == AdmissionVerdict::kShedQueueFull;
          (queue_full ? m_.shed_queue_full : m_.shed_rate_limited)->Inc();
          journal_.Record(obs::EventKind::kShed, queries[i].user,
                          queue_full ? 1 : 2);
          results[i].status = ServeStatus::kShed;
          results[i].trace_id = trace.id();
          if (trace.sampled()) {
            trace.Record(obs::SpanKind::kAdmission, admission_start,
                         obs::NowNs());
          }
          continue;
        }
      }
      m_.admitted->Inc();
      ++admitted;
      PendingQuery item;
      item.query = queries[i];
      item.enqueued = now;
      item.slot = &results[i];
      item.remaining = &remaining;
      item.trace = trace;
      // Batch-local i % N placement: in deterministic mode this IS the
      // assignment (static round-robin); in work-stealing mode it is
      // only the initial placement.
      EnqueueLocked(std::move(item), i);
      if (trace.sampled()) {
        trace.Record(obs::SpanKind::kAdmission, admission_start,
                     obs::NowNs());
      }
    }
    remaining.store(admitted, std::memory_order_release);
  }
  if (admitted == 0) return results;
  work_cv_.NotifyAll();
  MutexLock lock(batch_mutex_);
  while (remaining.load(std::memory_order_acquire) != 0) {
    batch_cv_.Wait(lock);
  }
  return results;
}

std::future<ServedResult> PitexService::Submit(const PitexQuery& query) {
  Start();
  m_.submitted->Inc();
  PendingQuery item;
  item.query = query;
  item.enqueued = Clock::now();
  item.trace = obs::TraceContext::Start();
  const int64_t admission_start = item.trace.sampled() ? obs::NowNs() : 0;
  item.promise = std::make_unique<std::promise<ServedResult>>();
  std::future<ServedResult> future = item.promise->get_future();
  if (admission_ != nullptr) {
    const AdmissionVerdict verdict =
        admission_->TryAdmit(query.user, item.enqueued);
    if (verdict != AdmissionVerdict::kAdmit) {
      const bool queue_full = verdict == AdmissionVerdict::kShedQueueFull;
      (queue_full ? m_.shed_queue_full : m_.shed_rate_limited)->Inc();
      journal_.Record(obs::EventKind::kShed, query.user, queue_full ? 1 : 2);
      // Shed: satisfy the future immediately -- callers always get an
      // answer, overload just changes which kind.
      ServedResult shed;
      shed.status = ServeStatus::kShed;
      shed.trace_id = item.trace.id();
      if (item.trace.sampled()) {
        item.trace.Record(obs::SpanKind::kAdmission, admission_start,
                          obs::NowNs());
      }
      item.promise->set_value(std::move(shed));
      return future;
    }
  }
  m_.admitted->Inc();
  const obs::TraceContext trace = item.trace;
  {
    MutexLock lock(sched_mutex_);
    EnqueueLocked(std::move(item), stream_seq_++);
  }
  if (trace.sampled()) {
    trace.Record(obs::SpanKind::kAdmission, admission_start, obs::NowNs());
  }
  work_cv_.NotifyAll();
  return future;
}

std::shared_ptr<const IndexSnapshot> PitexService::FreezeSnapshotLocked(
    uint64_t epoch, bool compact) {
  // The kPack span inside IndexSnapshot::FromDynamic nests under this
  // one via the thread's current trace. Inert when no trace is armed
  // (Start()).
  PITEX_SPAN(kFreeze);
  if (admission_ != nullptr) admission_->BeginPublish();
  publish_started_ns_.store(obs::NowNs(), std::memory_order_relaxed);
  publish_in_flight_.store(true, std::memory_order_release);
  std::shared_ptr<const IndexSnapshot> snapshot =
      IndexSnapshot::FromDynamic(*master_, epoch, compact);
  publish_in_flight_.store(false, std::memory_order_release);
  if (admission_ != nullptr) admission_->EndPublish();
  m_.compactions->Inc(master_->stats().compactions - compactions_seen_);
  compactions_seen_ = master_->stats().compactions;
  m_.overlay_sketches->Set(static_cast<int64_t>(master_->overlay_sketches()));
  return snapshot;
}

uint64_t PitexService::ApplyUpdates(
    std::span<const EdgeInfluenceUpdate> updates,
    ApplyUpdatesOutcome* outcome) {
  Start();
  ApplyUpdatesOutcome local_outcome;
  if (outcome == nullptr) outcome = &local_outcome;
  // One trace per publish: the WAL append/fsync, freeze (with its
  // nested pack), swap and checkpoint spans below all attribute to it
  // through the thread's current trace.
  const obs::TraceContext trace = obs::TraceContext::Start();
  PITEX_TRACE_SCOPE(trace.id());
  PITEX_SPAN(kPublish);
  // The master check belongs under the lock too: reading master_ before
  // acquiring update_mutex_ was an unguarded access the annotation pass
  // rejected (harmless today only because Start() is ordered first, but
  // the contract is "writer state under update_mutex_", no exceptions).
  MutexLock lock(update_mutex_);
  PITEX_CHECK_MSG(master_ != nullptr,
                  "ApplyUpdates requires options.enable_updates");
  // Fence BEFORE anything reaches the log: a deposed primary (the term
  // authority moved past our adopted term while we were partitioned or
  // stopped) must not append, apply, or acknowledge — a fenced write
  // that reached the WAL would fork history against the promoted
  // follower's log, the exact split-brain fencing exists to prevent.
  // The check-then-append window is benign: promotion happens only
  // after the heartbeat timeout, orders of magnitude longer than one
  // ApplyUpdates call, and the authority advanced before the follower
  // acknowledged anything under its new term.
  if (options_.term_authority != nullptr) {
    const uint64_t current = options_.term_authority->Current();
    const uint64_t mine = term_.load(std::memory_order_acquire);
    if (current != mine) {
      m_.fenced_writes->Inc();
      journal_.Record(obs::EventKind::kFencedWrite, current, mine);
      *outcome = ApplyUpdatesOutcome::kFencedStaleTerm;
      return 0;
    }
  }
  // Validate BEFORE the WAL append, with exactly the checks recovery
  // applies on replay: once an invalid batch is committed it is a
  // durable poison record -- the in-process abort it used to cause
  // would recur as a recovery failure on every restart, and nothing
  // acknowledged since the last checkpoint would be reachable again.
  // Rejecting here keeps the log's invariant: every record it holds is
  // a record replay will accept.
  for (const EdgeInfluenceUpdate& update : updates) {
    if (InvalidUpdateReason(update, *network_) != nullptr) {
      *outcome = ApplyUpdatesOutcome::kInvalidBatch;
      return 0;  // nothing logged, nothing applied
    }
  }
  if (wal_ != nullptr) {
    // Durable-before-apply: the batch reaches disk (and the fsync
    // commit point, per policy) before the master mutates or the caller
    // hears anything. A failed append/commit is truncated back out of
    // the log and the master is untouched -- the log's content is
    // always exactly the acknowledged-batch prefix, which is what makes
    // replay-to-bit-identical recovery possible.
    uint64_t lsn;
    {
      PITEX_SPAN(kWalAppend);
      lsn = wal_->Append(updates);
    }
    bool committed = lsn != 0;
    if (committed) {
      PITEX_SPAN(kWalFsync);
      committed = wal_->Sync();
    }
    m_.wal_appends->Inc(wal_->appends() - wal_appends_seen_);
    wal_appends_seen_ = wal_->appends();
    m_.wal_fsyncs->Inc(wal_->fsyncs() - wal_fsyncs_seen_);
    wal_fsyncs_seen_ = wal_->fsyncs();
    if (!committed) {
      m_.wal_append_failures->Inc();
      journal_.Record(obs::EventKind::kWalFailure, updates.size());
      *outcome = ApplyUpdatesOutcome::kWalFailed;
      return 0;  // rejected: not durable, not applied, not acknowledged
    }
    last_durable_lsn_ = lsn;
    durable_lsn_mirror_.store(lsn, std::memory_order_relaxed);
    for (const EdgeInfluenceUpdate& update : updates) {
      const auto it = std::lower_bound(touched_edges_.begin(),
                                       touched_edges_.end(), update.edge);
      if (it == touched_edges_.end() || *it != update.edge) {
        touched_edges_.insert(it, update.edge);
      }
    }
  }
  master_->ApplyUpdates(updates);
  applied_batches_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t epoch = registry_.current_epoch() + 1;
  // A checkpoint saves the snapshot it follows, so that snapshot is
  // frozen from a compacted master: the checkpoint file is its base pool
  // verbatim, and the overlay restarts empty.
  std::shared_ptr<const IndexSnapshot> snapshot =
      FreezeSnapshotLocked(epoch, /*compact=*/CheckpointDueLocked());
  {
    PITEX_SPAN(kSwap);
    registry_.Publish(snapshot);
  }
  m_.index_bytes->Set(static_cast<int64_t>(SharedIndexSizeBytes()));
  published_batches_.store(applied_batches_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  published_lsn_mirror_.store(last_durable_lsn_, std::memory_order_relaxed);
  journal_.Record(obs::EventKind::kEpochSwap, epoch, last_durable_lsn_);
  work_cv_.NotifyAll();  // idle pumps may rebind eagerly on next query
  if (wal_ != nullptr) MaybeCheckpointLocked(*snapshot);
  *outcome = ApplyUpdatesOutcome::kPublished;
  return epoch;
}

bool PitexService::CheckpointDueLocked() const {
  return wal_ != nullptr && options_.checkpoint_every != 0 &&
         publishes_since_checkpoint_ + 1 >= options_.checkpoint_every;
}

void PitexService::MaybeCheckpointLocked(const IndexSnapshot& snapshot) {
  const bool due = CheckpointDueLocked();
  ++publishes_since_checkpoint_;
  if (!due) return;
  // Placed after the cadence early-returns: publishes that skip the
  // checkpoint get no (trivial) span.
  PITEX_SPAN(kCheckpoint);
  CheckpointManifest manifest;
  manifest.lsn = last_durable_lsn_;
  manifest.epoch = snapshot.epoch();
  manifest.index_version = master_->version();
  char name[64];
  std::snprintf(name, sizeof(name), "checkpoint-%016llx.rridx",
                static_cast<unsigned long long>(manifest.lsn));
  manifest.snapshot_file = name;
  // Model delta: the CURRENT topic vector of every diverged edge.
  // ReplaceEdgeTopics folds are last-writer-wins per edge, so final
  // state is exact without history -- which the truncation below is
  // about to destroy.
  manifest.model_delta.reserve(touched_edges_.size());
  for (const EdgeId e : touched_edges_) {
    EdgeInfluenceUpdate update;
    update.edge = e;
    const auto entries = master_->network().influence.EdgeTopics(e);
    update.entries.assign(entries.begin(), entries.end());
    manifest.model_delta.push_back(std::move(update));
  }
  if (!WriteCheckpoint(options_.durability_dir, *snapshot.rr_index(),
                       manifest)) {
    // Non-fatal: the previous checkpoint (or the full log) still
    // recovers everything. The counter stays >= the cadence, so the
    // next publish retries.
    m_.checkpoint_failures->Inc();
    journal_.Record(obs::EventKind::kCheckpointFailure, manifest.lsn);
    return;
  }
  publishes_since_checkpoint_ = 0;
  m_.checkpoints->Inc();
  journal_.Record(obs::EventKind::kCheckpoint, manifest.lsn, manifest.epoch);
  wal_->TruncateThrough(manifest.lsn);
}

void PitexService::AdoptTerm(uint64_t term) {
  term_.store(term, std::memory_order_release);
  m_.term->Set(static_cast<int64_t>(term));
}

WalRetentionHolds* PitexService::WalRetention() {
  MutexLock lock(update_mutex_);
  return wal_ == nullptr ? nullptr : &wal_->retention();
}

std::shared_ptr<const IndexSnapshot> PitexService::CurrentSnapshot() const {
  return registry_.Current();
}

uint64_t PitexService::current_epoch() const {
  return registry_.current_epoch();
}

size_t PitexService::SharedIndexSizeBytes() const {
  const auto snapshot = registry_.Current();
  if (snapshot == nullptr) return 0;
  if (snapshot->rr_index() != nullptr) {
    return snapshot->rr_index()->SizeBytes();
  }
  if (snapshot->delay_index() != nullptr) {
    return snapshot->delay_index()->SizeBytes();
  }
  return 0;
}

obs::MetricsSnapshot PitexService::SnapshotMetrics() {
  return metrics_.Snapshot();
}

}  // namespace pitex
