// Tests for epoch-swapped index snapshots (src/serve/snapshot_registry.h):
// publish/swap semantics, refcount reclamation of retired epochs, and the
// DynamicRrIndex freeze path (FromDynamic must estimate identically to
// the master it was frozen from).

#include "src/serve/snapshot_registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "owned_sketch.h"
#include "running_example.h"
#include "src/index/rr_index.h"

namespace pitex {
namespace {

RrIndexOptions DenseOptions() {
  RrIndexOptions options;
  options.theta_override = 4000;
  options.seed = 11;
  return options;
}

TEST(SnapshotRegistryTest, PublishSwapsCurrentAndBumpsEpoch) {
  const SocialNetwork n = MakeRunningExample();
  IndexSnapshotRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.current_epoch(), 0u);

  registry.Publish(IndexSnapshot::Wrap(&n, nullptr, 1));
  EXPECT_EQ(registry.current_epoch(), 1u);
  registry.Publish(IndexSnapshot::Wrap(&n, nullptr, 2));
  EXPECT_EQ(registry.current_epoch(), 2u);
  EXPECT_EQ(registry.epochs_published(), 2u);
  EXPECT_EQ(&registry.Current()->network(), &n);
}

TEST(SnapshotRegistryTest, RetiredEpochLivesWhilePinnedThenReclaims) {
  const SocialNetwork n = MakeRunningExample();
  IndexSnapshotRegistry registry;
  registry.Publish(IndexSnapshot::Wrap(&n, nullptr, 1));

  // An in-flight query pins epoch 1.
  std::shared_ptr<const IndexSnapshot> pinned = registry.Current();
  registry.Publish(IndexSnapshot::Wrap(&n, nullptr, 2));

  // The old epoch is retired but must stay alive for its reader.
  EXPECT_EQ(registry.AliveSnapshots(), 1u);
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(registry.Current()->epoch(), 2u);

  // Reader finishes: epoch 1 reclaims itself.
  pinned.reset();
  EXPECT_EQ(registry.AliveSnapshots(), 0u);
}

TEST(SnapshotRegistryTest, FromDynamicMatchesMasterEstimates) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex master(n, DenseOptions());
  master.Build();

  // Drift the model, then freeze.
  std::vector<EdgeInfluenceUpdate> updates(2);
  updates[0].edge = 2;
  updates[0].entries = {{0, 0.9}};
  updates[1].edge = 4;
  updates[1].entries = {{2, 0.1}};
  master.ApplyUpdates(updates);

  const auto snapshot = IndexSnapshot::FromDynamic(master, 3);
  ASSERT_NE(snapshot->rr_index(), nullptr);
  EXPECT_EQ(snapshot->epoch(), 3u);
  EXPECT_EQ(snapshot->rr_index()->theta(), master.theta());
  EXPECT_EQ(snapshot->rr_index()->num_graphs(), master.num_graphs());
  // The frozen network is a copy carrying the post-update model, not the
  // construction-time network (its storage is shared, not duplicated).
  EXPECT_NE(&snapshot->network(), &n);
  EXPECT_NE(&snapshot->network(), &master.network());

  // The frozen replica must estimate exactly what the master estimates:
  // same sketches, same containing sets, same estimator arithmetic.
  const TagId tags[] = {2, 3};
  const auto posterior = snapshot->network().topics.Posterior(tags);
  const PosteriorProbs probs(snapshot->network().influence, posterior);
  const PosteriorProbs master_probs(master.network().influence, posterior);
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    const Estimate frozen = snapshot->rr_index()->EstimateInfluence(u, probs);
    const Estimate live = master.EstimateInfluence(u, master_probs);
    EXPECT_DOUBLE_EQ(frozen.influence, live.influence) << "user " << u;
    EXPECT_EQ(frozen.samples, live.samples) << "user " << u;
  }

  // Snapshots are independent of the master's continued evolution.
  std::vector<EdgeInfluenceUpdate> more(1);
  more[0].edge = 0;
  master.ApplyUpdates(more);
  const Estimate still_frozen = snapshot->rr_index()->EstimateInfluence(0, probs);
  const Estimate frozen_again = snapshot->rr_index()->EstimateInfluence(0, probs);
  EXPECT_DOUBLE_EQ(still_frozen.influence, frozen_again.influence);
}

TEST(SnapshotRegistryTest, FromPoolRoundTripsSketches) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex master(n, DenseOptions());
  master.Build();
  const auto snapshot = IndexSnapshot::FromDynamic(master, 1);
  // Spot-check sketch-level equality between master and frozen replica.
  ASSERT_EQ(snapshot->rr_index()->num_graphs(), master.num_graphs());
  const IndexViews packed_views(*snapshot->rr_index(), n.num_vertices());
  const IndexViews original_views(master, n.num_vertices());
  for (size_t i = 0; i < master.num_graphs(); i += 97) {
    const RRView packed = packed_views(i);
    const RRView original = original_views(i);
    EXPECT_EQ(packed.root(), original.root());
    ASSERT_EQ(packed.vertices.size(), original.vertices.size());
    EXPECT_EQ(Owned(packed).vertices, Owned(original).vertices);
    EXPECT_EQ(Owned(packed).ranks, Owned(original).ranks);
  }
}

}  // namespace
}  // namespace pitex
