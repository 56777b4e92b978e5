// End-to-end observability of the serving tier (docs/observability.md):
// a sampled query's exported trace must contain the full span chain
// (admission -> queue wait -> solve -> result, plus the cache probe in
// work-stealing mode), a publish's trace must cover the WAL append,
// fsync, freeze (with its nested pack) and the epoch swap, the
// staleness gauges must rise while publishes fail and return to zero
// once healed, the index overlay gauge must grow with publishes and
// clear at a checkpoint's compaction, SnapshotMetrics() must conserve
// every query and agree with the answers it counts, and the publish
// watchdog gauges must expose a stalled publish while it runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/obs/trace.h"
#include "src/serve/pitex_service.h"
#include "src/util/failpoint.h"

namespace pitex {
namespace {

namespace fs = std::filesystem;

using obs::SpanKind;
using obs::SpanRecord;
using obs::Tracer;

class ServeObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisableAll();
#if PITEX_TRACING_ENABLED
    Tracer::Instance().SetSampleEvery(0);
    Tracer::Instance().Clear();
#endif
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisableAll();
#if PITEX_TRACING_ENABLED
    Tracer::Instance().SetSampleEvery(0);
    Tracer::Instance().Clear();
#endif
  }

  static ServeOptions BaseOptions(ScheduleMode mode) {
    ServeOptions options;
    options.engine.method = Method::kIndexEst;
    options.engine.index_theta_per_vertex = 150.0;
    options.engine.seed = 5;
    options.num_threads = 2;
    options.mode = mode;
    return options;
  }

  static EdgeInfluenceUpdate MakeUpdate(const SocialNetwork& n,
                                        uint64_t round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>(round % n.num_edges());
    update.entries = {{static_cast<TopicId>(round % n.topics.num_topics()),
                       0.2 + 0.1 * static_cast<double>(round % 5)}};
    return update;
  }

  static const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                                    SpanKind kind) {
    for (const SpanRecord& span : spans) {
      if (span.kind == kind) return &span;
    }
    return nullptr;
  }
};

// The ISSUE acceptance criterion: in deterministic mode a sampled
// query's exported trace is the complete chain with non-negative,
// properly ordered durations. ServeAll (not Submit) because batch
// delivery decrements the countdown AFTER the result span is recorded,
// so every span is visible once the call returns.
TEST_F(ServeObservabilityTest, DeterministicQueryTraceHasFullSpanChain) {
#if !PITEX_TRACING_ENABLED
  GTEST_SKIP() << "tracing compiled out (-DPITEX_TRACING=OFF)";
#else
  const SocialNetwork n = MakeRunningExample();
  PitexService service(&n, BaseOptions(ScheduleMode::kDeterministic));
  service.Start();  // untraced: epoch-1 publish stays out of the buffers

  Tracer::Instance().SetSampleEvery(1);
  Tracer::Instance().Clear();

  const std::vector<PitexQuery> queries = {{.user = 0, .k = 2}};
  const std::vector<ServedResult> results = service.ServeAll(queries);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].status, ServeStatus::kOk);
  ASSERT_NE(results[0].trace_id, 0u) << "every trace sampled at 1-in-1";

  const std::vector<SpanRecord> spans =
      Tracer::Instance().Collect(results[0].trace_id);
  // Deterministic mode has no cache, so the chain is exactly these four
  // (Collect orders by start time).
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].kind, SpanKind::kAdmission);
  EXPECT_EQ(spans[1].kind, SpanKind::kQueueWait);
  EXPECT_EQ(spans[2].kind, SpanKind::kSolve);
  EXPECT_EQ(spans[3].kind, SpanKind::kResult);
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, results[0].trace_id);
    EXPECT_GE(span.end_ns, span.start_ns)
        << obs::SpanKindName(span.kind) << " has negative duration";
  }
  // Chain ordering: the solve starts after the queue wait began and the
  // result delivery starts no earlier than the solve ended.
  EXPECT_GE(spans[2].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[3].start_ns, spans[2].end_ns);
#endif
}

TEST_F(ServeObservabilityTest, WorkStealingTraceIncludesCacheProbe) {
#if !PITEX_TRACING_ENABLED
  GTEST_SKIP() << "tracing compiled out (-DPITEX_TRACING=OFF)";
#else
  const SocialNetwork n = MakeRunningExample();
  PitexService service(&n, BaseOptions(ScheduleMode::kWorkStealing));
  service.Start();

  Tracer::Instance().SetSampleEvery(1);
  Tracer::Instance().Clear();

  const std::vector<PitexQuery> queries = {{.user = 1, .k = 2}};
  const std::vector<ServedResult> results = service.ServeAll(queries);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_NE(results[0].trace_id, 0u);

  const std::vector<SpanRecord> spans =
      Tracer::Instance().Collect(results[0].trace_id);
  const SpanRecord* probe = FindSpan(spans, SpanKind::kCacheProbe);
  const SpanRecord* solve = FindSpan(spans, SpanKind::kSolve);
  ASSERT_NE(probe, nullptr);
  ASSERT_NE(solve, nullptr);
  // Cold cache: the probe missed, so the solve ran after it.
  EXPECT_GE(solve->start_ns, probe->end_ns);
#endif
}

// Second half of the acceptance criterion: one publish's trace covers
// freeze -> WAL sync -> swap (and the nested pack), all attributed to a
// single trace id through the thread-current trace.
TEST_F(ServeObservabilityTest, PublishTraceCoversWalFreezePackSwap) {
#if !PITEX_TRACING_ENABLED
  GTEST_SKIP() << "tracing compiled out (-DPITEX_TRACING=OFF)";
#else
  const SocialNetwork n = MakeRunningExample();
  const std::string dir =
      (fs::temp_directory_path() / "pitex_obs_publish_trace").string();
  fs::remove_all(dir);
  ServeOptions options = BaseOptions(ScheduleMode::kWorkStealing);
  options.enable_updates = true;
  options.durability_dir = dir;
  options.checkpoint_every = 1;  // this publish also checkpoints
  {
    PitexService service(&n, options);
    service.Start();

    Tracer::Instance().SetSampleEvery(1);
    Tracer::Instance().Clear();

    std::vector<EdgeInfluenceUpdate> updates{MakeUpdate(n, 0)};
    ASSERT_EQ(service.ApplyUpdates(updates), 2u);

    const std::vector<SpanRecord> spans = Tracer::Instance().CollectAll();
    const SpanRecord* publish = FindSpan(spans, SpanKind::kPublish);
    const SpanRecord* append = FindSpan(spans, SpanKind::kWalAppend);
    const SpanRecord* fsync = FindSpan(spans, SpanKind::kWalFsync);
    const SpanRecord* freeze = FindSpan(spans, SpanKind::kFreeze);
    const SpanRecord* pack = FindSpan(spans, SpanKind::kPack);
    const SpanRecord* swap = FindSpan(spans, SpanKind::kSwap);
    const SpanRecord* checkpoint = FindSpan(spans, SpanKind::kCheckpoint);
    ASSERT_NE(publish, nullptr);
    ASSERT_NE(append, nullptr);
    ASSERT_NE(fsync, nullptr);
    ASSERT_NE(freeze, nullptr);
    ASSERT_NE(pack, nullptr);
    ASSERT_NE(swap, nullptr);
    ASSERT_NE(checkpoint, nullptr);
    for (const SpanRecord* span : {append, fsync, freeze, pack, swap,
                                   checkpoint}) {
      EXPECT_EQ(span->trace_id, publish->trace_id)
          << obs::SpanKindName(span->kind);
      EXPECT_GE(span->end_ns, span->start_ns);
      // Every stage nests inside the whole-publish span.
      EXPECT_GE(span->start_ns, publish->start_ns);
      EXPECT_LE(span->end_ns, publish->end_ns);
    }
    // Pipeline order: durability first (append then the fsync commit
    // point), then the freeze (pack nested inside), then the swap.
    EXPECT_GE(fsync->start_ns, append->end_ns);
    EXPECT_GE(freeze->start_ns, fsync->end_ns);
    EXPECT_GE(pack->start_ns, freeze->start_ns);
    EXPECT_LE(pack->end_ns, freeze->end_ns);
    EXPECT_GE(swap->start_ns, freeze->end_ns);
  }
  fs::remove_all(dir);
#endif
}

// While a freeze is stalled (by a delayed fail point) the batch it
// publishes is applied and durable but not yet served: a scrape from
// another thread sees one batch (and its LSN) of staleness, and every
// staleness gauge settles once the freeze completes.
TEST_F(ServeObservabilityTest, StalenessGaugesRiseWhileAFreezeStalls) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#else
  const SocialNetwork n = MakeRunningExample();
  const std::string dir =
      (fs::temp_directory_path() / "pitex_obs_staleness").string();
  fs::remove_all(dir);
  ServeOptions options = BaseOptions(ScheduleMode::kWorkStealing);
  options.enable_updates = true;
  options.durability_dir = dir;
  {
    PitexService service(&n, options);
    service.Start();
    {
      const obs::MetricsSnapshot snap = service.SnapshotMetrics();
      EXPECT_EQ(snap.GaugeValue("pitex_staleness_batches"), 0);
      EXPECT_EQ(snap.GaugeValue("pitex_staleness_lsns"), 0);
    }

    FailpointConfig config;
    config.mode = FailpointMode::kDelay;
    config.delay_ms = 300;
    config.fires = 1;
    FailpointRegistry::Instance().Enable("serve/publish_freeze", config);
    std::atomic<uint64_t> published{0};
    std::thread publisher([&service, &n, &published] {
      std::vector<EdgeInfluenceUpdate> updates{MakeUpdate(n, 0)};
      published.store(service.ApplyUpdates(updates));
    });

    bool saw_stall = false;
    while (!saw_stall && published.load() == 0) {
      const obs::MetricsSnapshot snap = service.SnapshotMetrics();
      saw_stall = snap.GaugeValue("pitex_publish_in_flight") == 1;
      if (saw_stall) {
        // Readers still serve epoch 1.
        EXPECT_EQ(snap.GaugeValue("pitex_staleness_batches"), 1);
        EXPECT_GT(snap.GaugeValue("pitex_staleness_lsns"), 0);
        EXPECT_GT(snap.GaugeValue("pitex_durable_lsn"),
                  snap.GaugeValue("pitex_published_lsn"));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    publisher.join();
    EXPECT_TRUE(saw_stall);
    EXPECT_EQ(published.load(), 2u);
    {
      const obs::MetricsSnapshot snap = service.SnapshotMetrics();
      EXPECT_EQ(snap.GaugeValue("pitex_staleness_batches"), 0);
      EXPECT_EQ(snap.GaugeValue("pitex_staleness_lsns"), 0);
      EXPECT_EQ(snap.GaugeValue("pitex_durable_lsn"),
                snap.GaugeValue("pitex_published_lsn"));
    }
  }
  fs::remove_all(dir);
#endif
}

// The publish watchdog: while a freeze is stalled (here by a delayed
// fail point) a scrape from another thread sees it in flight with a
// growing age -- without waiting on the publisher lock the stalled
// publish holds -- and both gauges read 0 once it completes.
TEST_F(ServeObservabilityTest, PublishAgeGaugeExposesStalledPublish) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#else
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options = BaseOptions(ScheduleMode::kWorkStealing);
  options.enable_updates = true;
  PitexService service(&n, options);
  service.Start();
  {
    const obs::MetricsSnapshot snap = service.SnapshotMetrics();
    EXPECT_EQ(snap.GaugeValue("pitex_publish_in_flight"), 0);
    EXPECT_EQ(snap.GaugeValue("pitex_publish_age_ms"), 0);
  }

  FailpointConfig config;
  config.mode = FailpointMode::kDelay;
  config.delay_ms = 300;
  config.fires = 1;
  FailpointRegistry::Instance().Enable("serve/publish_freeze", config);
  std::atomic<uint64_t> published{0};
  std::thread publisher([&service, &n, &published] {
    std::vector<EdgeInfluenceUpdate> updates{MakeUpdate(n, 0)};
    published.store(service.ApplyUpdates(updates));
  });

  bool saw_stall = false;
  while (!saw_stall && published.load() == 0) {
    const obs::MetricsSnapshot snap = service.SnapshotMetrics();
    saw_stall = snap.GaugeValue("pitex_publish_in_flight") == 1 &&
                snap.GaugeValue("pitex_publish_age_ms") >= 100;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  publisher.join();
  EXPECT_TRUE(saw_stall);
  EXPECT_EQ(published.load(), 2u);  // a delayed freeze still succeeds

  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.GaugeValue("pitex_publish_in_flight"), 0);
  EXPECT_EQ(snap.GaugeValue("pitex_publish_age_ms"), 0);
#endif
}

TEST_F(ServeObservabilityTest, OverlayGaugeRisesWithPublishesAndClearsAtCheckpoint) {
  // Large enough that a few batches stay far below the overlay's
  // compaction bound (a fraction of theta): only the checkpoint compacts.
  DatasetSpec spec = LastfmSpec(0.3);
  spec.seed = 3;
  const SocialNetwork n = GenerateDataset(spec);
  const std::string dir =
      (fs::temp_directory_path() / "pitex_obs_overlay").string();
  fs::remove_all(dir);
  ServeOptions options = BaseOptions(ScheduleMode::kWorkStealing);
  options.engine.index_theta_per_vertex = 8.0;
  options.enable_updates = true;
  options.durability_dir = dir;
  options.checkpoint_every = 3;
  {
    PitexService service(&n, options);
    service.Start();
    const auto overlay = [&service] {
      return service.SnapshotMetrics().GaugeValue(
          "pitex_index_overlay_sketches");
    };
    const auto compactions = [&service] {
      return service.SnapshotMetrics().CounterValue(
          "pitex_index_compactions_total");
    };
    // The footprint gauge tracks the served snapshot at every publish.
    const auto expect_index_bytes = [&service](const char* when) {
      EXPECT_EQ(service.SnapshotMetrics().GaugeValue("pitex_index_bytes"),
                static_cast<int64_t>(service.SharedIndexSizeBytes()))
          << when;
    };
    EXPECT_EQ(overlay(), 0);
    expect_index_bytes("after Start()");
    EXPECT_GT(service.SnapshotMetrics().GaugeValue("pitex_index_bytes"), 0);

    // Publishes 1 and 2 append their repaired sketches to the overlay:
    // each makes an edge certain, so every sketch that holds its head
    // without it gains it, whatever coins the repairs draw.
    int64_t last = 0;
    for (uint64_t round = 0; round < 2; ++round) {
      std::vector<EdgeInfluenceUpdate> updates{MakeUpdate(n, round)};
      updates[0].entries[0].prob = 1.0;
      ASSERT_NE(service.ApplyUpdates(updates), 0u);
      EXPECT_GT(overlay(), last) << "publish " << round + 1;
      last = overlay();
      expect_index_bytes("after an overlay publish");
    }
    EXPECT_EQ(compactions(), 0u);

    // Publish 3 completes the checkpoint cadence: its freeze compacts.
    std::vector<EdgeInfluenceUpdate> updates{MakeUpdate(n, 2)};
    ASSERT_NE(service.ApplyUpdates(updates), 0u);
    EXPECT_EQ(overlay(), 0);
    EXPECT_EQ(compactions(), 1u);
    expect_index_bytes("after a compacting publish");
    EXPECT_EQ(service.SnapshotMetrics().CounterValue("pitex_checkpoints_total"),
              1u);
  }
  fs::remove_all(dir);
}

TEST_F(ServeObservabilityTest, DelayMatIndexBytesAreThePrototypeFootprint) {
  // A DelayMat service's footprint gauge reports the shared prototype's
  // SizeBytes() (its counters), the same as any index built with the
  // same options.
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options = BaseOptions(ScheduleMode::kWorkStealing);
  options.engine.method = Method::kDelayMat;
  PitexService service(&n, options);
  service.Start();

  DelayMatIndex same(n, IndexOptionsFor(options.engine));
  same.Build();
  EXPECT_EQ(service.SnapshotMetrics().GaugeValue("pitex_index_bytes"),
            static_cast<int64_t>(service.SharedIndexSizeBytes()));
  EXPECT_EQ(service.SharedIndexSizeBytes(), same.SizeBytes());
}

TEST_F(ServeObservabilityTest, SnapshotMetricsConservesEveryQuery) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options = BaseOptions(ScheduleMode::kWorkStealing);
  options.enable_updates = true;
  PitexService service(&n, options);
  service.Start();

  std::vector<PitexQuery> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back({.user = static_cast<VertexId>(i % n.num_vertices()),
                       .k = 2});
  }
  uint64_t hits = 0, steals = 0;
  for (int round = 0; round < 2; ++round) {  // repeats hit the cache
    for (const ServedResult& result : service.ServeAll(queries)) {
      hits += result.cache_hit;
      steals += result.stolen;
    }
  }
  std::vector<EdgeInfluenceUpdate> updates{MakeUpdate(n, 0)};
  ASSERT_EQ(service.ApplyUpdates(updates), 2u);

  const obs::MetricsSnapshot snap = service.SnapshotMetrics();

  // The service is quiescent here, so the registry counts exactly what
  // the answers report.
  EXPECT_EQ(snap.CounterValue("pitex_queries_submitted_total"), 40u);
  EXPECT_EQ(snap.CounterValue("pitex_queries_admitted_total"), 40u);
  EXPECT_EQ(snap.CounterValue("pitex_cache_hits_total"), hits);
  EXPECT_EQ(snap.CounterValue("pitex_steals_total"), steals);
  EXPECT_EQ(snap.CounterValue("pitex_queries_degraded_total"), 0u);
  EXPECT_EQ(snap.CounterValue("pitex_queries_shed_queue_full_total"), 0u);
  EXPECT_EQ(snap.GaugeValue("pitex_current_epoch"), 2);
  EXPECT_EQ(snap.GaugeValue("pitex_epochs_published"), 2);
  // One resident entry per distinct (user, k) of epoch 1; nothing evicted.
  EXPECT_EQ(snap.GaugeValue("pitex_cache_entries"),
            static_cast<int64_t>(n.num_vertices()));
  // No admission controller: no decision was sampled.
  EXPECT_EQ(snap.HistogramCount("pitex_admission_queue_depth"), 0u);

  // Conservation (no admission controller configured, no budgets:
  // nothing sheds, degrades, or expires): every submitted query was
  // admitted, resolved ok, and left exactly one sojourn sample.
  EXPECT_EQ(snap.CounterValue("pitex_queries_ok_total"), 40u);
  EXPECT_EQ(snap.CounterValue("pitex_queries_deadline_expired_total"), 0u);
  EXPECT_EQ(snap.HistogramCount("pitex_query_sojourn_seconds"),
            snap.CounterValue("pitex_queries_ok_total") +
                snap.CounterValue("pitex_queries_degraded_total") +
                snap.CounterValue("pitex_queries_deadline_expired_total"));

  // Cache conservation from one collector pass: insertions are split
  // exactly between resident entries and evictions.
  EXPECT_EQ(snap.GaugeValue("pitex_cache_insertions"),
            snap.GaugeValue("pitex_cache_entries") +
                snap.GaugeValue("pitex_cache_evictions"));

  // Exports render every registered metric.
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("pitex_query_sojourn_seconds"), std::string::npos);
  const std::string prom = snap.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE pitex_query_sojourn_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("pitex_queries_ok_total 40"), std::string::npos);
}

TEST_F(ServeObservabilityTest, JournalRecordsLifecycleEvents) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options = BaseOptions(ScheduleMode::kWorkStealing);
  options.enable_updates = true;
  PitexService service(&n, options);
  service.Start();
  (void)service.ServeAll(std::vector<PitexQuery>{{.user = 0, .k = 2}});
  std::vector<EdgeInfluenceUpdate> updates{MakeUpdate(n, 0)};
  ASSERT_EQ(service.ApplyUpdates(updates), 2u);

  size_t swaps = 0, rebinds = 0;
  for (const obs::Event& event : service.journal().Snapshot()) {
    if (event.kind == obs::EventKind::kEpochSwap) ++swaps;
    if (event.kind == obs::EventKind::kWorkerRebind) ++rebinds;
  }
  // One swap from Start()'s initial publish, one from ApplyUpdates.
  EXPECT_EQ(swaps, 2u);
  // At least the worker that served the query bound an engine.
  EXPECT_GE(rebinds, 1u);
  EXPECT_GE(service.journal().total_recorded(), 3u);
}

// Two services in one process never share registry counts (the
// per-service-instance design the conservation invariants rely on).
TEST_F(ServeObservabilityTest, ServicesDoNotShareMetricCounts) {
  const SocialNetwork n = MakeRunningExample();
  PitexService a(&n, BaseOptions(ScheduleMode::kWorkStealing));
  PitexService b(&n, BaseOptions(ScheduleMode::kWorkStealing));
  a.Start();
  b.Start();
  (void)a.ServeAll(std::vector<PitexQuery>{{.user = 0, .k = 2},
                                           {.user = 1, .k = 2}});
  EXPECT_EQ(a.SnapshotMetrics().CounterValue("pitex_queries_submitted_total"),
            2u);
  EXPECT_EQ(b.SnapshotMetrics().CounterValue("pitex_queries_submitted_total"),
            0u);
}

}  // namespace
}  // namespace pitex
