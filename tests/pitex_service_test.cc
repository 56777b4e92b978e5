// Tests for the online serving subsystem (src/serve/pitex_service.h):
// deterministic mode must reproduce one PitexEngine per worker
// bit-identically across a method and thread-count sweep, work-stealing
// mode must answer every query validly and keep its counters
// consistent, the result cache must memoize per epoch, and streaming
// Submit must deliver.

#include "src/serve/pitex_service.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "running_example.h"
#include "serve_metrics.h"
#include "src/datasets/synthetic.h"
#include "src/index/delay_mat.h"
#include "src/util/stats.h"

namespace pitex {
namespace {

std::vector<PitexQuery> MakeQueries(const SocialNetwork& n, size_t count,
                                    size_t k = 2) {
  std::vector<PitexQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(
        {.user = static_cast<VertexId>(i % n.num_vertices()), .k = k});
  }
  return queries;
}

// The deterministic contract written out without a thread pool: worker
// w is one PitexEngine seeded seed + w; IndexEst/IndexEst+ workers share
// one RrIndex built from the base seed, DelayMat workers each adopt
// their own DelayMatIndex built from the base seed; query i goes to
// worker i % threads, in order.
class PerWorkerReference {
 public:
  PerWorkerReference(const SocialNetwork& n, const EngineOptions& options,
                     size_t threads) {
    const RrIndexOptions index_options = IndexOptionsFor(options);
    if (options.method == Method::kIndexEst ||
        options.method == Method::kIndexEstPlus) {
      shared_index_ = std::make_unique<RrIndex>(n, index_options);
      shared_index_->Build();
    }
    for (size_t w = 0; w < threads; ++w) {
      EngineOptions worker_options = options;
      worker_options.seed = options.seed + w;
      auto engine = std::make_unique<PitexEngine>(&n, worker_options);
      if (shared_index_ != nullptr) {
        engine->UseSharedRrIndex(shared_index_.get());
      } else if (options.method == Method::kDelayMat) {
        // Not the engine's own BuildIndex(): it would seed the index
        // with seed + w.
        auto index = std::make_unique<DelayMatIndex>(n, index_options);
        index->Build();
        engine->AdoptDelayMatIndex(std::move(index));
      }
      engine->BuildIndex();
      workers_.push_back(std::move(engine));
    }
  }

  std::vector<PitexResult> Answer(const std::vector<PitexQuery>& queries) {
    std::vector<PitexResult> results;
    results.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      results.push_back(workers_[i % workers_.size()]->Explore(queries[i]));
    }
    return results;
  }

 private:
  std::unique_ptr<RrIndex> shared_index_;
  std::vector<std::unique_ptr<PitexEngine>> workers_;
};

// The headline determinism contract: for every method and thread count,
// the deterministic schedule reproduces the per-worker reference exactly
// -- same tags, same influence, same execution counters -- because the
// worker assignment, seed derivation, index build, and per-worker serve
// order are all pinned to it. At one thread the reference is a single
// sequential engine.
class DeterministicSweepTest
    : public ::testing::TestWithParam<std::tuple<Method, size_t>> {};

TEST_P(DeterministicSweepTest, BitIdenticalToPerWorkerEngines) {
  const auto [method, threads] = GetParam();
  const SocialNetwork n = MakeRunningExample();

  EngineOptions engine;
  engine.method = method;
  engine.seed = 9;
  engine.index_theta_per_vertex = 150.0;
  PerWorkerReference reference(n, engine, threads);

  ServeOptions serve_options;
  serve_options.engine = engine;
  serve_options.num_threads = threads;
  serve_options.mode = ScheduleMode::kDeterministic;
  PitexService service(&n, serve_options);

  const auto queries = MakeQueries(n, 13);  // not divisible by threads
  // Two rounds: sampler RNG state must stay in lockstep across batches.
  for (int round = 0; round < 2; ++round) {
    const auto expected = reference.Answer(queries);
    const auto served = service.ServeAll(queries);
    ASSERT_EQ(served.size(), expected.size());
    for (size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].result.tags, expected[i].tags)
          << "round " << round << " query " << i;
      EXPECT_EQ(served[i].result.tags.size(), queries[i].k);
      EXPECT_GE(served[i].result.influence, 1.0);
      EXPECT_DOUBLE_EQ(served[i].result.influence, expected[i].influence);
      EXPECT_EQ(served[i].result.sets_evaluated, expected[i].sets_evaluated);
      EXPECT_EQ(served[i].result.sets_pruned, expected[i].sets_pruned);
      EXPECT_EQ(served[i].result.bounds_evaluated,
                expected[i].bounds_evaluated);
      EXPECT_EQ(served[i].result.total_samples, expected[i].total_samples);
      EXPECT_EQ(served[i].result.edges_visited, expected[i].edges_visited);
      EXPECT_EQ(served[i].worker, i % threads);
      EXPECT_FALSE(served[i].cache_hit);
      EXPECT_FALSE(served[i].stolen);
    }
  }
  // Deterministic mode never steals and never caches.
  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.CounterValue("pitex_steals_total"), 0u);
  EXPECT_EQ(snap.CounterValue("pitex_cache_hits_total"), 0u);
  EXPECT_EQ(QueriesServed(snap), 2u * queries.size());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndThreads, DeterministicSweepTest,
    ::testing::Combine(
        ::testing::Values(Method::kMc, Method::kRr, Method::kLazy,
                          Method::kTim, Method::kIndexEst,
                          Method::kIndexEstPlus, Method::kDelayMat,
                          Method::kLt),
        ::testing::Values(size_t{1}, size_t{2}, size_t{3}, size_t{4})),
    [](const auto& param_info) {
      std::string name = MethodName(std::get<0>(param_info.param));
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name + "_" + std::to_string(std::get<1>(param_info.param)) + "thr";
    });

TEST(PitexServiceTest, DeterministicIndexEstMatchesSequentialEngine) {
  // IndexEst is deterministic given the index, and every worker shares
  // the one built from the base seed, so four workers answer exactly as
  // one sequential engine does.
  const SocialNetwork n = MakeRunningExample();
  EngineOptions engine;
  engine.method = Method::kIndexEst;
  engine.index_theta_per_vertex = 400.0;
  engine.seed = 3;
  PitexEngine sequential(&n, engine);
  sequential.BuildIndex();

  ServeOptions options;
  options.engine = engine;
  options.num_threads = 4;
  options.mode = ScheduleMode::kDeterministic;
  PitexService service(&n, options);

  const auto queries = MakeQueries(n, 14);
  const auto served = service.ServeAll(queries);
  ASSERT_EQ(served.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const PitexResult expected = sequential.Explore(queries[i]);
    EXPECT_EQ(served[i].result.tags, expected.tags) << "query " << i;
    EXPECT_DOUBLE_EQ(served[i].result.influence, expected.influence);
  }
}

TEST(PitexServiceTest, DeterministicServicesAgree) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kLazy;
  options.engine.seed = 9;
  options.num_threads = 3;
  options.mode = ScheduleMode::kDeterministic;

  const auto queries = MakeQueries(n, 12);
  PitexService first(&n, options);
  PitexService second(&n, options);
  const auto a = first.ServeAll(queries);
  const auto b = second.ServeAll(queries);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.tags, b[i].result.tags) << "query " << i;
    EXPECT_DOUBLE_EQ(a[i].result.influence, b[i].result.influence);
  }
}

TEST(PitexServiceTest, WorkStealingAnswersEveryQuery) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kIndexEstPlus;
  options.engine.index_theta_per_vertex = 150.0;
  options.num_threads = 4;
  options.cache_capacity = 0;  // count engine executions exactly
  PitexService service(&n, options);

  const auto queries = MakeQueries(n, 40);
  const auto served = service.ServeAll(queries);
  ASSERT_EQ(served.size(), queries.size());
  uint64_t epoch = 0;
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].result.tags.size(), queries[i].k) << "query " << i;
    EXPECT_GE(served[i].result.influence, 1.0);
    EXPECT_EQ(served[i].ranking.size(), 1u);
    EXPECT_LT(served[i].worker, options.num_threads);
    if (i == 0) epoch = served[i].epoch;
    EXPECT_EQ(served[i].epoch, epoch);  // no updates: one epoch
  }
  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(QueriesServed(snap), queries.size());
  std::vector<uint64_t> per_worker_served(options.num_threads, 0);
  std::vector<double> sojourns;
  for (const ServedResult& result : served) {
    ++per_worker_served[result.worker];
    EXPECT_GT(result.sojourn_seconds, 0.0);
    sojourns.push_back(result.sojourn_seconds);
  }
  uint64_t sum = 0;
  for (const uint64_t served_by_worker : per_worker_served) {
    sum += served_by_worker;
  }
  EXPECT_EQ(sum, queries.size());
  EXPECT_EQ(snap.HistogramCount("pitex_query_sojourn_seconds"),
            queries.size());
  EXPECT_GT(Quantile(sojourns, 0.99) + 1e-12, Quantile(sojourns, 0.50));
  EXPECT_GT(service.SharedIndexSizeBytes(), 0u);
}

TEST(PitexServiceTest, ResultCacheMemoizesRepeats) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.engine.index_theta_per_vertex = 150.0;
  options.num_threads = 2;
  options.cache_capacity = 64;
  PitexService service(&n, options);

  // 30 queries over 3 distinct users: at most 3 engine executions.
  std::vector<PitexQuery> queries;
  for (size_t i = 0; i < 30; ++i) {
    queries.push_back({.user = static_cast<VertexId>(i % 3), .k = 2});
  }
  const auto served = service.ServeAll(queries);
  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(QueriesServed(snap), queries.size());
  // Concurrent queries for the same user may both miss (no request
  // coalescing), so the worst case is one engine execution per (user,
  // worker) pair rather than per user.
  const uint64_t worst_case_misses = 3 * options.num_threads;
  const uint64_t cache_hits = snap.CounterValue("pitex_cache_hits_total");
  EXPECT_GE(cache_hits, queries.size() - worst_case_misses);
  EXPECT_LE(QueriesServed(snap) - cache_hits, worst_case_misses);
  EXPECT_LE(snap.GaugeValue("pitex_cache_entries"), 3);
  uint64_t flagged_hits = 0;
  for (const ServedResult& result : served) flagged_hits += result.cache_hit;
  EXPECT_EQ(flagged_hits, cache_hits);

  // Hits replay the miss's answer verbatim (IndexEst is deterministic,
  // so the engine would produce the same answer anyway — the cache must
  // not change it).
  for (size_t i = 3; i < served.size(); ++i) {
    const size_t first = i % 3;
    EXPECT_EQ(served[i].result.tags, served[first].result.tags);
    EXPECT_DOUBLE_EQ(served[i].result.influence,
                     served[first].result.influence);
    if (served[i].cache_hit) {
      EXPECT_EQ(served[i].result.total_samples, 0u);  // no work done
    }
  }
}

TEST(PitexServiceTest, SubmitDeliversFutures) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kLazy;
  options.num_threads = 3;
  PitexService service(&n, options);

  std::vector<std::future<ServedResult>> futures;
  for (size_t i = 0; i < 12; ++i) {
    futures.push_back(
        service.Submit({.user = static_cast<VertexId>(i % 7), .k = 2}));
  }
  for (auto& future : futures) {
    const ServedResult result = future.get();
    EXPECT_EQ(result.result.tags.size(), 2u);
    EXPECT_GE(result.result.influence, 1.0);
  }
  EXPECT_EQ(QueriesServed(service.SnapshotMetrics()), 12u);
  EXPECT_EQ(service.SharedIndexSizeBytes(), 0u);  // online: no index
}

TEST(PitexServiceTest, TopNRankingsAreOrdered) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.engine.index_theta_per_vertex = 150.0;
  options.num_threads = 2;
  options.top_n = 3;
  PitexService service(&n, options);

  const auto served = service.ServeAll(MakeQueries(n, 7));
  for (const ServedResult& result : served) {
    ASSERT_GE(result.ranking.size(), 1u);
    ASSERT_LE(result.ranking.size(), 3u);
    EXPECT_EQ(result.result.tags, result.ranking[0].tags);
    for (size_t i = 1; i < result.ranking.size(); ++i) {
      EXPECT_GE(result.ranking[i - 1].influence, result.ranking[i].influence);
    }
  }
}

TEST(PitexServiceTest, ApplyUpdatesPublishesNewEpochAndReclaimsOld) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.engine.index_theta_per_vertex = 150.0;
  options.num_threads = 2;
  // Deterministic mode guarantees both workers serve queries after the
  // update (round-robin), so both unpin the old epoch.
  options.mode = ScheduleMode::kDeterministic;
  options.enable_updates = true;
  PitexService service(&n, options);

  const auto queries = MakeQueries(n, 8);
  const auto before = service.ServeAll(queries);
  EXPECT_EQ(service.current_epoch(), 1u);
  for (const ServedResult& result : before) EXPECT_EQ(result.epoch, 1u);

  std::vector<EdgeInfluenceUpdate> updates(1);
  updates[0].edge = 1;
  updates[0].entries = {{1, 0.9}};
  const uint64_t epoch = service.ApplyUpdates(updates);
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(service.current_epoch(), 2u);

  const auto after = service.ServeAll(queries);
  for (const ServedResult& result : after) EXPECT_EQ(result.epoch, 2u);
  // Every worker has rebound to epoch 2: epoch 1 must have reclaimed.
  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.GaugeValue("pitex_snapshots_alive"), 0);
  EXPECT_EQ(snap.GaugeValue("pitex_epochs_published"), 2);
  // Without a durability_dir the whole durability section stays zero.
  EXPECT_EQ(snap.CounterValue("pitex_wal_appends_total"), 0u);
  EXPECT_EQ(snap.CounterValue("pitex_wal_fsyncs_total"), 0u);
  EXPECT_EQ(snap.CounterValue("pitex_wal_append_failures_total"), 0u);
  EXPECT_EQ(snap.CounterValue("pitex_checkpoints_total"), 0u);
  EXPECT_EQ(snap.CounterValue("pitex_checkpoint_failures_total"), 0u);
  EXPECT_EQ(snap.CounterValue("pitex_recovery_replayed_lsns_total"), 0u);
}

TEST(PitexServiceTest, DurabilityRequiresUpdates) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.num_threads = 1;
  options.durability_dir = "/tmp/pitex_service_test_wal";
  EXPECT_DEATH(PitexService(&n, options), "enable_updates");
}

TEST(PitexServiceTest, UpdatesRequireOptIn) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.num_threads = 1;
  PitexService service(&n, options);
  std::vector<EdgeInfluenceUpdate> updates(1);
  updates[0].edge = 0;
  EXPECT_DEATH(service.ApplyUpdates(updates), "enable_updates");
}

TEST(PitexServiceTest, EmptyBatchIsFine) {
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kLazy;
  PitexService service(&n, options);
  EXPECT_TRUE(service.ServeAll({}).empty());
}

TEST(PitexServiceTest, SkewedWorkloadBalancesAcrossWorkers) {
  // A mid-sized synthetic graph with power-law degrees: round-robin
  // assignment would pile the hub queries onto one residue class; the
  // stealing scheduler must spread the *work*. We assert the weaker,
  // deterministic property that every worker served something and the
  // batch completed correctly. The same batch also runs on IndexEst+ in
  // deterministic mode.
  DatasetSpec spec = LastfmSpec(0.5);
  spec.seed = 21;
  const SocialNetwork n = GenerateDataset(spec);
  const auto users = SampleUserGroup(n.graph, UserGroup::kMid, 32, 2);
  std::vector<PitexQuery> queries;
  for (const VertexId user : users) queries.push_back({.user = user, .k = 3});

  for (const ScheduleMode mode :
       {ScheduleMode::kWorkStealing, ScheduleMode::kDeterministic}) {
    ServeOptions options;
    options.engine.method = mode == ScheduleMode::kWorkStealing
                                ? Method::kIndexEst
                                : Method::kIndexEstPlus;
    options.engine.index_theta_per_vertex = 2.0;
    options.num_threads = 4;
    options.mode = mode;
    options.cache_capacity = 0;
    PitexService service(&n, options);

    const auto served = service.ServeAll(queries);
    ASSERT_EQ(served.size(), queries.size());
    std::vector<uint64_t> per_worker_served(options.num_threads, 0);
    for (const ServedResult& result : served) {
      EXPECT_EQ(result.result.tags.size(), 3u);
      EXPECT_GE(result.result.influence, 1.0);
      ASSERT_LT(result.worker, options.num_threads);
      ++per_worker_served[result.worker];
    }
    uint64_t sum = 0;
    for (const uint64_t count : per_worker_served) sum += count;
    EXPECT_EQ(sum, queries.size());
  }
}

}  // namespace
}  // namespace pitex
