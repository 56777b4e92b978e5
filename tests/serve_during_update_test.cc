// Serve-during-update: queries stream through PitexService while
// DynamicRrIndex repairs are published concurrently. Every answer must be
// *exactly* correct for the epoch it reports — computed bit-identically
// by a reference engine bound to that epoch's retained snapshot — and
// the epochs observed must respect publication order. This test is the
// primary ThreadSanitizer target for the serving subsystem (CI runs it
// under TSan; see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "running_example.h"
#include "serve_metrics.h"
#include "src/serve/pitex_service.h"

namespace pitex {
namespace {

struct Observation {
  PitexQuery query;
  ServedResult served;
};

TEST(ServeDuringUpdateTest, EveryAnswerExactForItsEpoch) {
  const SocialNetwork n = MakeRunningExample();

  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.engine.index_theta_per_vertex = 150.0;
  options.engine.seed = 5;
  options.num_threads = 4;
  options.mode = ScheduleMode::kWorkStealing;
  options.cache_capacity = 64;  // cache must stay epoch-correct too
  options.enable_updates = true;
  PitexService service(&n, options);
  service.Start();

  // Retain every published snapshot so answers can be re-derived later.
  std::map<uint64_t, std::shared_ptr<const IndexSnapshot>> snapshots;
  snapshots[service.current_epoch()] = service.CurrentSnapshot();

  constexpr size_t kUpdateRounds = 6;
  constexpr size_t kProducers = 2;
  std::atomic<bool> updates_done{false};

  // Producers stream queries for the whole duration of the update storm.
  std::vector<std::thread> producers;
  std::vector<std::vector<Observation>> observations(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &n, &service, &updates_done, &observations] {
      size_t i = 0;
      while (!updates_done.load(std::memory_order_acquire) || i < 8) {
        const PitexQuery query = {
            .user = static_cast<VertexId>((p * 3 + i) % n.num_vertices()),
            .k = 2};
        ServedResult served = service.Submit(query).get();
        observations[p].push_back({query, std::move(served)});
        ++i;
      }
    });
  }

  // The updater drifts the model and publishes a new epoch per round,
  // while the producers are mid-stream.
  for (size_t round = 0; round < kUpdateRounds; ++round) {
    std::vector<EdgeInfluenceUpdate> updates(1);
    updates[0].edge = static_cast<EdgeId>(round % n.num_edges());
    updates[0].entries = {
        {static_cast<TopicId>(round % n.topics.num_topics()),
         0.2 + 0.1 * static_cast<double>(round % 5)}};
    const uint64_t epoch = service.ApplyUpdates(updates);
    // Single-writer: Current() right after publish is exactly `epoch`.
    snapshots[epoch] = service.CurrentSnapshot();
    ASSERT_EQ(snapshots[epoch]->epoch(), epoch);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  updates_done.store(true, std::memory_order_release);
  for (std::thread& producer : producers) producer.join();

  // A query submitted after the storm must see the final epoch.
  const ServedResult final_result = service.Submit({.user = 0, .k = 2}).get();
  EXPECT_EQ(final_result.epoch, kUpdateRounds + 1);

  // Verify every observation against a reference engine bound to the
  // snapshot of the epoch it was served from. kIndexEst is deterministic
  // given an index, so the answers must match bit-for-bit.
  std::map<uint64_t, std::unique_ptr<PitexEngine>> references;
  std::set<uint64_t> epochs_seen;
  size_t verified = 0;
  for (const auto& per_producer : observations) {
    for (const Observation& observation : per_producer) {
      const uint64_t epoch = observation.served.epoch;
      epochs_seen.insert(epoch);
      ASSERT_TRUE(snapshots.count(epoch)) << "unknown epoch " << epoch;
      auto& reference = references[epoch];
      if (reference == nullptr) {
        const IndexSnapshot& snapshot = *snapshots[epoch];
        ASSERT_NE(snapshot.rr_index(), nullptr);
        reference = std::make_unique<PitexEngine>(&snapshot.network(),
                                                  options.engine);
        reference->UseSharedRrIndex(snapshot.rr_index());
        reference->BuildIndex();
      }
      const PitexResult expected = reference->Explore(observation.query);
      EXPECT_EQ(observation.served.result.tags, expected.tags)
          << "epoch " << epoch << " user " << observation.query.user;
      EXPECT_DOUBLE_EQ(observation.served.result.influence,
                       expected.influence)
          << "epoch " << epoch << " user " << observation.query.user;
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
  // The producers outlive the whole update storm (they keep submitting
  // until it ends), so they must observe at least first and last epochs.
  EXPECT_GE(epochs_seen.size(), 2u);

  // Epochs observed by one producer never go backwards: publication
  // order is respected even across steals and rebinds.
  for (const auto& per_producer : observations) {
    uint64_t last = 0;
    for (const Observation& observation : per_producer) {
      EXPECT_GE(observation.served.epoch, last);
      last = observation.served.epoch;
    }
  }
}

TEST(ServeDuringUpdateTest, ConcurrentBatchesDuringUpdates) {
  // Coarser stress shape: whole ServeAll batches racing ApplyUpdates
  // from another thread, with the cache on. Answers must be well-formed
  // and stamped with a published epoch.
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kIndexEstPlus;
  options.engine.index_theta_per_vertex = 100.0;
  options.num_threads = 3;
  options.enable_updates = true;
  options.cache_capacity = 32;
  PitexService service(&n, options);
  service.Start();

  std::atomic<bool> done{false};
  std::thread updater([&service, &n, &done] {
    for (size_t round = 0; round < 5; ++round) {
      std::vector<EdgeInfluenceUpdate> updates(1);
      updates[0].edge = static_cast<EdgeId>((round * 2 + 1) % n.num_edges());
      updates[0].entries = {{static_cast<TopicId>(round % 3), 0.4}};
      service.ApplyUpdates(updates);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<PitexQuery> queries;
  for (size_t i = 0; i < 10; ++i) {
    queries.push_back({.user = static_cast<VertexId>(i % n.num_vertices()),
                       .k = 2});
  }
  size_t batches = 0;
  while (!done.load(std::memory_order_acquire) || batches < 2) {
    const auto served = service.ServeAll(queries);
    ++batches;
    for (const ServedResult& result : served) {
      ASSERT_EQ(result.result.tags.size(), 2u);
      ASSERT_GE(result.epoch, 1u);
      ASSERT_LE(result.epoch, 6u);
    }
  }
  updater.join();
  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.GaugeValue("pitex_epochs_published"), 6);
  EXPECT_EQ(QueriesServed(snap), batches * queries.size());
  // hits + misses == served, with misses = served - hits: no query was
  // counted as a hit without also being counted as served.
  EXPECT_LE(snap.CounterValue("pitex_cache_hits_total"), QueriesServed(snap));
}

}  // namespace
}  // namespace pitex
