// Chaos suite for the serving subsystem: queries and updates racing
// while fail points (src/util/failpoint.h) fire in the cache shard
// locks, the pool dispatch, and the index-load path. Nothing may crash;
// epochs stay monotone; answers served to completion stay exactly
// correct for their epoch. This test is a ThreadSanitizer target (CI
// runs it with failpoints armed; see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "running_example.h"
#include "serve_metrics.h"
#include "src/datasets/synthetic.h"
#include "src/serve/pitex_service.h"
#include "src/util/failpoint.h"

namespace pitex {
namespace {

// Every test must leave the process-wide registry clean: armed points
// outlive the test that armed them otherwise.
class ServeUnderFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !PITEX_FAILPOINTS_ENABLED
    GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
    FailpointRegistry::Instance().DisableAll();
  }
  void TearDown() override { FailpointRegistry::Instance().DisableAll(); }

  static ServeOptions BaseOptions() {
    ServeOptions options;
    options.engine.method = Method::kIndexEst;
    options.engine.index_theta_per_vertex = 150.0;
    options.engine.seed = 5;
    options.num_threads = 2;
    options.mode = ScheduleMode::kWorkStealing;
    options.enable_updates = true;
    return options;
  }

  static EdgeInfluenceUpdate MakeUpdate(const SocialNetwork& n,
                                        size_t round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>(round % n.num_edges());
    update.entries = {{static_cast<TopicId>(round % n.topics.num_topics()),
                       0.2 + 0.1 * static_cast<double>(round % 5)}};
    return update;
  }

  /// The metric conservation invariants (docs/observability.md) that
  /// must hold in any drained state, no matter which faults fired:
  /// every submitted query was admitted or shed, every admitted query
  /// resolved exactly one way and left one sojourn sample, and every
  /// cache insertion is either still resident or was evicted.
  static void ExpectConservation(PitexService& service) {
    const obs::MetricsSnapshot snap = service.SnapshotMetrics();
    EXPECT_EQ(snap.CounterValue("pitex_queries_submitted_total"),
              snap.CounterValue("pitex_queries_admitted_total") +
                  snap.CounterValue("pitex_queries_shed_queue_full_total") +
                  snap.CounterValue("pitex_queries_shed_rate_limited_total"));
    EXPECT_EQ(snap.CounterValue("pitex_queries_admitted_total"),
              snap.CounterValue("pitex_queries_ok_total") +
                  snap.CounterValue("pitex_queries_degraded_total") +
                  snap.CounterValue("pitex_queries_deadline_expired_total"));
    EXPECT_EQ(snap.HistogramCount("pitex_query_sojourn_seconds"),
              QueriesServed(snap));
    // Cache gauges come from one collector pass over the shards, so the
    // identity holds even though faults dropped arbitrary inserts.
    EXPECT_EQ(snap.GaugeValue("pitex_cache_insertions"),
              snap.GaugeValue("pitex_cache_entries") +
                  snap.GaugeValue("pitex_cache_evictions"));
    EXPECT_EQ(snap.GaugeValue("pitex_admission_in_flight"), 0);
  }
};

TEST_F(ServeUnderFaultsTest, ServesExactlyThroughFaultStorm) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options = BaseOptions();
  options.num_threads = 4;
  options.cache_capacity = 64;
  PitexService service(&n, options);
  service.Start();

  // Storm: cache shards "fail" on every touch (forced miss, dropped
  // insert) and every pool dispatch eats a small injected delay.
  FailpointConfig cache_fault;
  cache_fault.mode = FailpointMode::kError;
  FailpointRegistry::Instance().Enable("result_cache/shard_lock",
                                       cache_fault);
  FailpointConfig delay_fault;
  delay_fault.mode = FailpointMode::kDelay;
  delay_fault.delay_ms = 1;
  FailpointRegistry::Instance().Enable("thread_pool/dispatch", delay_fault);

  constexpr size_t kUpdateRounds = 4;
  constexpr size_t kProducers = 2;
  std::atomic<bool> updates_done{false};

  std::vector<std::thread> producers;
  std::vector<std::vector<ServedResult>> observed(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &n, &service, &updates_done, &observed] {
      size_t i = 0;
      while (!updates_done.load(std::memory_order_acquire) || i < 8) {
        const PitexQuery query = {
            .user = static_cast<VertexId>((p * 3 + i) % n.num_vertices()),
            .k = 2};
        observed[p].push_back(service.Submit(query).get());
        ++i;
      }
    });
  }

  uint64_t last_epoch = 1;
  for (size_t round = 0; round < kUpdateRounds; ++round) {
    std::vector<EdgeInfluenceUpdate> updates{MakeUpdate(n, round)};
    const uint64_t epoch = service.ApplyUpdates(updates);
    ASSERT_GT(epoch, last_epoch);  // no faults armed on the publish path
    last_epoch = epoch;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  updates_done.store(true, std::memory_order_release);
  for (std::thread& producer : producers) producer.join();

  // Every answer completed despite the storm; per-producer epochs are
  // monotone (publication order respected across steals and delays).
  for (const auto& per_producer : observed) {
    uint64_t last = 0;
    for (const ServedResult& result : per_producer) {
      ASSERT_EQ(result.status, ServeStatus::kOk);
      ASSERT_EQ(result.result.tags.size(), 2u);
      ASSERT_GE(result.epoch, last);
      ASSERT_LE(result.epoch, last_epoch);
      last = result.epoch;
    }
  }

  // The broken cache never served (or retained) anything.
  {
    const obs::MetricsSnapshot snap = service.SnapshotMetrics();
    EXPECT_EQ(snap.CounterValue("pitex_cache_hits_total"), 0u);
    EXPECT_EQ(snap.GaugeValue("pitex_cache_entries"), 0);
  }

  // Heal everything: a fresh query sees the final epoch and the cache
  // works again.
  FailpointRegistry::Instance().DisableAll();
  const PitexQuery probe = {.user = 0, .k = 2};
  const ServedResult first = service.Submit(probe).get();
  EXPECT_EQ(first.epoch, last_epoch);
  const ServedResult second = service.Submit(probe).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.tags, first.result.tags);

  ExpectConservation(service);
}

TEST_F(ServeUnderFaultsTest, DeadlineStormDegradesInsteadOfCollapsing) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options = BaseOptions();
  options.cache_capacity = 64;
  PitexService service(&n, options);
  service.Start();

  constexpr size_t kQueries = 60;
  std::vector<std::future<ServedResult>> futures;
  std::vector<PitexQuery> queries;
  futures.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    PitexQuery query = {.user = static_cast<VertexId>(i % n.num_vertices()),
                        .k = 2};
    switch (i % 3) {
      case 0: query.budget_seconds = 1e-9; break;    // dead on arrival
      case 1: query.budget_seconds = 200e-6; break;  // tight but livable
      default: break;                                // unconstrained
    }
    queries.push_back(query);
    futures.push_back(service.Submit(query));
  }

  size_t expired = 0, degraded = 0, ok = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    const ServedResult result = futures[i].get();
    switch (result.status) {
      case ServeStatus::kDeadlineExpired:
        EXPECT_TRUE(result.ranking.empty());
        EXPECT_TRUE(result.result.degraded);
        ++expired;
        break;
      case ServeStatus::kDegraded:
        EXPECT_TRUE(result.result.degraded);
        EXPECT_FALSE(result.cache_hit);  // degraded is never cached...
        ++degraded;
        break;
      case ServeStatus::kOk:
        EXPECT_FALSE(result.result.degraded);
        EXPECT_EQ(result.result.tags.size(), 2u);
        ++ok;
        break;
      case ServeStatus::kShed:
        FAIL() << "no admission limits were configured";
    }
    if (queries[i].budget_seconds == 0.0) {
      EXPECT_EQ(result.status, ServeStatus::kOk) << "query " << i;
    }
  }
  EXPECT_EQ(expired + degraded + ok, kQueries);
  EXPECT_GT(expired, 0u);       // the 1 ns budgets cannot survive a queue
  EXPECT_GE(ok, kQueries / 3);  // every unconstrained query completed

  {
    const obs::MetricsSnapshot snap = service.SnapshotMetrics();
    EXPECT_EQ(QueriesServed(snap), kQueries);
    EXPECT_EQ(snap.CounterValue("pitex_queries_degraded_total"), degraded);
    EXPECT_EQ(snap.CounterValue("pitex_queries_deadline_expired_total"),
              expired);
  }

  // ...so an unconstrained re-ask of a budgeted user gets the exact
  // answer, not a truncated cached ranking.
  for (VertexId user = 0; user < n.num_vertices(); ++user) {
    const ServedResult full =
        service.Submit({.user = user, .k = 2}).get();
    ASSERT_EQ(full.status, ServeStatus::kOk);
    ASSERT_EQ(full.result.tags.size(), 2u);
  }

  ExpectConservation(service);
}

TEST_F(ServeUnderFaultsTest, AdmissionShedsButPublishesProceed) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options = BaseOptions();
  options.admission.max_queue_depth = 4;
  options.cache_capacity = 0;  // every admitted query costs real work
  PitexService service(&n, options);
  service.Start();

  // Slow the pumps so the bounded queue actually backs up.
  FailpointConfig delay_fault;
  delay_fault.mode = FailpointMode::kDelay;
  delay_fault.delay_ms = 1;
  FailpointRegistry::Instance().Enable("thread_pool/dispatch", delay_fault);

  std::atomic<bool> storm_done{false};
  std::atomic<uint64_t> published{0};
  std::thread updater([&service, &n, &storm_done, &published] {
    for (size_t round = 0; round < 3; ++round) {
      std::vector<EdgeInfluenceUpdate> updates{MakeUpdate(n, round)};
      const uint64_t epoch = service.ApplyUpdates(updates);
      if (epoch != 0) published.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    storm_done.store(true, std::memory_order_release);
  });

  std::vector<PitexQuery> burst;
  for (size_t i = 0; i < 64; ++i) {
    burst.push_back({.user = static_cast<VertexId>(i % n.num_vertices()),
                     .k = 2});
  }
  size_t served = 0, shed = 0;
  size_t batches = 0;
  while (!storm_done.load(std::memory_order_acquire) || batches < 2) {
    const std::vector<ServedResult> results = service.ServeAll(burst);
    ++batches;
    for (const ServedResult& result : results) {
      if (result.status == ServeStatus::kShed) {
        EXPECT_TRUE(result.ranking.empty());
        ++shed;
      } else {
        ASSERT_EQ(result.status, ServeStatus::kOk);
        ASSERT_EQ(result.result.tags.size(), 2u);
        ++served;
      }
    }
  }
  updater.join();

  // Conservation: every burst slot was either served or shed, the
  // bounded queue shed under pressure, and no publish starved.
  EXPECT_EQ(served + shed, batches * burst.size());
  EXPECT_GT(shed, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_EQ(published.load(), 3u);

  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(QueriesServed(snap), served);
  EXPECT_EQ(snap.CounterValue("pitex_queries_shed_queue_full_total"), shed);
  // Everything drained.
  EXPECT_EQ(snap.GaugeValue("pitex_admission_in_flight"), 0);
  // One depth sample per admission decision, shed ones included.
  EXPECT_EQ(snap.HistogramCount("pitex_admission_queue_depth"),
            served + shed);

  ExpectConservation(service);
}

TEST_F(ServeUnderFaultsTest, RateLimitShedsPerUserFloods) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options = BaseOptions();
  options.enable_updates = false;
  options.admission.user_rate_limit = 50.0;
  options.admission.user_burst = 2.0;
  PitexService service(&n, options);
  service.Start();

  // One user floods far faster than 50 qps: the burst allowance admits
  // a couple, the rest shed.
  std::vector<std::future<ServedResult>> futures;
  for (size_t i = 0; i < 40; ++i) {
    futures.push_back(service.Submit({.user = 0, .k = 2}));
  }
  size_t shed = 0;
  for (auto& future : futures) {
    const ServedResult result = future.get();
    if (result.status == ServeStatus::kShed) ++shed;
  }
  EXPECT_GT(shed, 0u);
  EXPECT_LT(shed, 40u);  // the burst allowance admitted at least two
  EXPECT_EQ(service.SnapshotMetrics().CounterValue(
                "pitex_queries_shed_rate_limited_total"),
            shed);
}

// Every answer a worker produced carries the sojourn the histogram
// observed for it -- ok, cache hit, degraded and deadline-expired alike
// -- and a shed answer, which never reached a worker, carries 0.
TEST_F(ServeUnderFaultsTest, SojournIsSetOnEveryAnswerAWorkerProduced) {
  DatasetSpec spec = LastfmSpec(0.5);
  spec.seed = 21;
  const SocialNetwork n = GenerateDataset(spec);
  ServeOptions options = BaseOptions();
  options.enable_updates = false;
  options.engine.method = Method::kLazy;  // sampling-heavy: solves take ms
  options.cache_capacity = 64;
  // One shared token bucket that never refills: exactly kTokens queries
  // are admitted, whoever sends them, and every later one is shed.
  constexpr size_t kTokens = 64;
  options.admission.user_rate_limit = 1e-9;
  options.admission.user_burst = static_cast<double>(kTokens);
  options.admission.user_buckets = 1;
  PitexService service(&n, options);
  service.Start();

  const VertexId hub = SampleUserGroup(n.graph, UserGroup::kHigh, 1, 3)[0];
  std::vector<ServedResult> answers;
  const auto ask = [&service, &answers, hub](double budget) {
    answers.push_back(
        service.Submit({.user = hub, .k = 3, .budget_seconds = budget})
            .get());
    return answers.back();
  };
  // A budget that expires in the queue, then doubling budgets: those
  // shorter than the solve degrade (and are never cached), until one
  // completes and is cached; the next unbudgeted ask hits the cache.
  ask(1e-9);
  for (double budget = 1e-6; answers.back().status != ServeStatus::kOk;
       budget *= 2.0) {
    ASSERT_LT(budget, 60.0);
    ask(budget);
  }
  ask(0.0);
  while (answers.back().status != ServeStatus::kShed) {
    ASSERT_LE(answers.size(), kTokens);
    ask(0.0);
  }

  size_t ok = 0, hits = 0, degraded = 0, expired = 0, shed = 0;
  for (const ServedResult& answer : answers) {
    if (answer.status == ServeStatus::kShed) {
      EXPECT_EQ(answer.sojourn_seconds, 0.0);
      ++shed;
      continue;
    }
    EXPECT_GT(answer.sojourn_seconds, 0.0);
    ok += answer.status == ServeStatus::kOk && !answer.cache_hit;
    hits += answer.cache_hit;
    degraded += answer.status == ServeStatus::kDegraded;
    expired += answer.status == ServeStatus::kDeadlineExpired;
  }
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(hits, kTokens - 1 - degraded - expired);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(expired, 0u);
  EXPECT_EQ(shed, 1u);
  EXPECT_EQ(service.SnapshotMetrics().HistogramCount(
                "pitex_query_sojourn_seconds"),
            kTokens);
  ExpectConservation(service);
}

TEST_F(ServeUnderFaultsTest, WorkerBindReadsNoIndexFile) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kDelayMat;
  options.engine.seed = 5;
  options.num_threads = 2;
  options.mode = ScheduleMode::kWorkStealing;
  PitexService service(&n, options);
  service.Start();

  // Worker binds replicate the snapshot's DelayMat prototype in memory:
  // with index file loads armed to fail, every worker still serves, and
  // no bind reaches index_io at all.
  FailpointConfig config;
  config.mode = FailpointMode::kError;
  config.fires = 2;
  FailpointRegistry::Instance().Enable("index_io/load", config);

  std::vector<PitexQuery> queries;
  for (size_t i = 0; i < 8; ++i) {
    queries.push_back({.user = static_cast<VertexId>(i % n.num_vertices()),
                       .k = 2});
  }
  const std::vector<ServedResult> results = service.ServeAll(queries);
  for (const ServedResult& result : results) {
    ASSERT_EQ(result.status, ServeStatus::kOk);
    ASSERT_EQ(result.result.tags.size(), 2u);
    ASSERT_EQ(result.epoch, 1u);
  }
  EXPECT_EQ(FailpointRegistry::Instance().FireCount("index_io/load"), 0u);
}

}  // namespace
}  // namespace pitex
