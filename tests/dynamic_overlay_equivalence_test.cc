// Pins the base + overlay DynamicRrIndex (src/index/dynamic_index.h) to
// the owning-RRGraph master it replaced (tests/reference_dynamic_index.h):
// both are driven through the same seeded random update batches --
// probability drops that kill edges, raises that resurrect them and
// expand sketches, and deletions (empty entries) -- across several
// compactions and a checkpoint save / AdoptSketches round trip, and must
// agree on every sketch, every containing list, every estimate, every
// maintenance counter, every saved index byte and every compacted
// base's arrays. A second test checks
// that a durable service's snapshots alias the caller's topology instead
// of copying it. Two more tests drive both masters through batches
// whose updates interact: an expansion through a vertex whose in-edge an
// earlier update of the same batch changed, and an edge repeated within
// a batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "reference_dynamic_index.h"
#include "owned_sketch.h"
#include "pool_image.h"
#include "src/datasets/synthetic.h"
#include "src/index/dynamic_index.h"
#include "src/index/index_io.h"
#include "src/index/rr_index.h"
#include "src/serve/pitex_service.h"

namespace pitex {
namespace {

// A record's threshold is a function of the index's seed, the sketch's
// id and the model, so equal shapes at one id are equal sketches.
bool ViewsEqual(const RRView& a, const RRView& b) {
  const RRGraph ga = Owned(a);
  const RRGraph gb = Owned(b);
  return ga.root == gb.root && ga.vertices == gb.vertices &&
         ga.offsets == gb.offsets && ga.heads == gb.heads &&
         ga.ranks == gb.ranks;
}

SocialNetwork MakeNetwork() {
  DatasetSpec spec = LastfmSpec(0.3);
  spec.seed = 31;
  return GenerateDataset(spec);
}

RrIndexOptions Options() {
  RrIndexOptions options;
  options.theta_override = 3000;
  options.seed = 13;
  return options;
}

enum class BatchKind { kDrop, kRaise, kDelete };

// 1-4 updates of one kind on random edges: drops kill live edges (and
// prune), raises resurrect dead ones (and expand sketches whose root the
// tail newly reaches), deletions zero the edge's influence.
std::vector<EdgeInfluenceUpdate> RandomBatch(const SocialNetwork& n,
                                             BatchKind kind, Rng* rng) {
  std::vector<EdgeInfluenceUpdate> batch(1 + rng->NextBounded(4));
  for (EdgeInfluenceUpdate& update : batch) {
    update.edge = static_cast<EdgeId>(rng->NextBounded(n.num_edges()));
    const auto topic =
        static_cast<TopicId>(rng->NextBounded(n.topics.num_topics()));
    switch (kind) {
      case BatchKind::kDrop:
        update.entries = {{topic, 0.01 * rng->NextDouble()}};
        break;
      case BatchKind::kRaise:
        update.entries = {{topic, 0.7 + 0.3 * rng->NextDouble()}};
        break;
      case BatchKind::kDelete:
        break;
    }
  }
  return batch;
}

void ExpectSameSketches(const DynamicRrIndex& got,
                        const ReferenceDynamicRrIndex& want) {
  ASSERT_EQ(got.theta(), want.theta());
  ASSERT_EQ(got.num_graphs(), want.graphs().size());
  const IndexViews views(got, got.network().num_vertices());
  for (size_t i = 0; i < got.num_graphs(); ++i) {
    ASSERT_TRUE(ViewsEqual(views(i), want.graphs()[i])) << "sketch " << i;
  }
  for (VertexId v = 0; v < got.network().num_vertices(); ++v) {
    ASSERT_EQ(ContainingIds(got, v), want.Containing(v)) << "vertex " << v;
  }
}

void ExpectSameStats(const DynamicRrIndex& got,
                     const ReferenceDynamicRrIndex& want) {
  EXPECT_EQ(got.stats().update_batches, want.stats().update_batches);
  EXPECT_EQ(got.stats().edges_updated, want.stats().edges_updated);
  EXPECT_EQ(got.stats().graphs_examined, want.stats().graphs_examined);
  EXPECT_EQ(got.stats().graphs_changed, want.stats().graphs_changed);
  EXPECT_EQ(got.version(), want.version());
}

void ExpectSameEstimates(DynamicRrIndex& got, ReferenceDynamicRrIndex& want) {
  const TagId tags[] = {0, 1};
  const auto posterior = got.network().topics.Posterior(tags);
  const PosteriorProbs got_probs(got.network().influence, posterior);
  const PosteriorProbs want_probs(want.network().influence, posterior);
  for (VertexId u = 0; u < got.network().num_vertices(); u += 7) {
    const Estimate a = got.EstimateInfluence(u, got_probs);
    const Estimate b = want.EstimateInfluence(u, want_probs);
    ASSERT_EQ(a.influence, b.influence) << "user " << u;
    ASSERT_EQ(a.std_error, b.std_error) << "user " << u;
    ASSERT_EQ(a.samples, b.samples) << "user " << u;
    ASSERT_EQ(a.edges_visited, b.edges_visited) << "user " << u;
  }
}

std::string Saved(const RrIndex& index) {
  std::ostringstream out;
  IndexIoError error;
  EXPECT_TRUE(SaveRrIndex(index, out, &error)) << error.message;
  return std::move(out).str();
}

// `graphs`, sketches of `n`, re-encoded into a pool (PackViews).
RrSketchPool ReferencePool(const SocialNetwork& n,
                           std::span<const RRGraph> graphs) {
  return PackViews(graphs.size(), RrSketchPool(n.graph),
                   [&graphs](size_t i) { return graphs[i].View(); });
}

// The reference's checkpoint bytes: its sketches packed into a pool, as
// the old publish path did.
std::string SavedReference(const ReferenceDynamicRrIndex& ref) {
  const auto index = RrIndex::FromPool(
      ref.network(), Options(), ref.theta(),
      std::make_shared<const RrSketchPool>(
          ReferencePool(ref.network(), ref.graphs())));
  return Saved(*index);
}

uint64_t TotalSketchVertices(const ReferenceDynamicRrIndex& ref) {
  uint64_t total = 0;
  for (const RRGraph& rr : ref.graphs()) total += rr.vertices.size();
  return total;
}

// Per sketch: is it a singleton (one vertex, no edges), the shape the
// pool stores implicitly?
std::vector<bool> Singletons(const ReferenceDynamicRrIndex& ref) {
  std::vector<bool> singletons;
  for (const RRGraph& rr : ref.graphs()) {
    singletons.push_back(rr.vertices.size() == 1 && rr.ranks.empty());
  }
  return singletons;
}

TEST(DynamicOverlayEquivalenceTest, MatchesOwningReferenceThroughCompactions) {
  const SocialNetwork n = MakeNetwork();
  auto got = std::make_unique<DynamicRrIndex>(n, Options());
  auto want = std::make_unique<ReferenceDynamicRrIndex>(n, Options());
  got->Build();
  want->Build();
  ExpectSameSketches(*got, *want);

  Rng rng(2024);
  std::set<EdgeId> touched;
  uint64_t compactions = 0;
  bool grew = false;
  bool shrank = false;
  // Repairs that turn an implicit singleton into an explicit sketch, and
  // back: both directions must cross the overlay and compaction.
  uint64_t singletons_grown = 0;
  uint64_t shrunk_to_singleton = 0;
  // The last frozen replica, its network and its saved bytes.
  std::unique_ptr<SocialNetwork> frozen_network;
  std::unique_ptr<RrIndex> frozen;
  std::string frozen_bytes;
  // Every compaction's base must be, array by array, the reference's
  // sketches at that point re-encoded: the fold copies blocks, and the
  // reference re-encodes each view.
  uint64_t folds_seen = 0;  // the current master's compactions compared
  uint64_t folds_checked = 0;
  const auto check_fold = [&](const RrSketchPool& base,
                              std::span<const RRGraph> graphs) {
    if (got->stats().compactions == folds_seen) return;
    ASSERT_EQ(got->stats().compactions, folds_seen + 1);
    folds_seen = got->stats().compactions;
    ++folds_checked;
    EXPECT_EQ(pool_image::PoolDifference(n, base, ReferencePool(n, graphs)),
              "");
  };
  constexpr int kBatches = 90;
  constexpr int kCheckpointAt = 30;
  for (int b = 0; b < kBatches; ++b) {
    const auto kind = static_cast<BatchKind>(rng.NextBounded(3));
    const std::vector<EdgeInfluenceUpdate> batch =
        RandomBatch(n, kind, &rng);
    for (const EdgeInfluenceUpdate& update : batch) touched.insert(update.edge);
    const uint64_t before = TotalSketchVertices(*want);
    const std::vector<bool> singletons_before = Singletons(*want);
    const std::vector<RRGraph> graphs_before(want->graphs().begin(),
                                             want->graphs().end());
    got->ApplyUpdates(batch);
    want->ApplyUpdates(batch);
    if (got->stats().compactions != folds_seen) {
      // The batch compacted before its repairs: the base holds the
      // sketches as they were before it.
      const auto base = got->Freeze(got->network(), /*compact=*/false);
      check_fold(base->pool(), graphs_before);
    }
    const uint64_t after = TotalSketchVertices(*want);
    grew = grew || after > before;
    shrank = shrank || after < before;
    const std::vector<bool> singletons_after = Singletons(*want);
    for (size_t i = 0; i < singletons_after.size(); ++i) {
      singletons_grown += singletons_before[i] && !singletons_after[i];
      shrunk_to_singleton += !singletons_before[i] && singletons_after[i];
    }
    ExpectSameSketches(*got, *want);
    ExpectSameStats(*got, *want);
    if (b % 10 == 0) ExpectSameEstimates(*got, *want);
    // Replicas frozen earlier are unaffected by later repairs.
    if (frozen != nullptr) {
      ASSERT_EQ(Saved(*frozen), frozen_bytes);
    }

    if (b % 5 == 4) {
      // A frozen replica serves exactly the master's current sketches,
      // overlay included.
      frozen.reset();
      frozen_network = std::make_unique<SocialNetwork>(got->network());
      frozen = got->Freeze(*frozen_network, /*compact=*/false);
      check_fold(frozen->pool(), want->graphs());
      const IndexViews views(*frozen, n.num_vertices());
      for (size_t i = 0; i < frozen->num_graphs(); ++i) {
        ASSERT_TRUE(ViewsEqual(views(i), want->graphs()[i]));
      }
      for (VertexId v = 0; v < n.num_vertices(); ++v) {
        ASSERT_EQ(ContainingIds(*frozen, v), want->Containing(v));
      }
      frozen_bytes = Saved(*frozen);
      EXPECT_EQ(frozen_bytes, SavedReference(*want));
    }

    if (b == kCheckpointAt) {
      // Checkpoint: a compacting freeze, saved; then both masters are
      // restored from the saved bytes the way recovery does it.
      const SocialNetwork checkpoint_network = got->network();
      const auto checkpoint =
          got->Freeze(checkpoint_network, /*compact=*/true);
      EXPECT_EQ(got->overlay_sketches(), 0u);
      check_fold(checkpoint->pool(), want->graphs());
      const std::string bytes = Saved(*checkpoint);
      ASSERT_EQ(bytes, SavedReference(*want));

      std::vector<EdgeInfluenceUpdate> delta;
      for (const EdgeId e : touched) {
        const auto entries = got->network().influence.EdgeTopics(e);
        delta.push_back({e, {entries.begin(), entries.end()}});
      }
      compactions += got->stats().compactions;
      auto got2 = std::make_unique<DynamicRrIndex>(n, Options());
      auto want2 = std::make_unique<ReferenceDynamicRrIndex>(n, Options());
      got2->RestoreModel(delta, got->version());
      want2->RestoreModel(delta, want->version());
      std::istringstream got_in(bytes);
      std::istringstream want_in(bytes);
      IndexIoError error;
      const auto got_loaded = LoadRrIndex(got2->network(), got_in, &error);
      ASSERT_NE(got_loaded, nullptr) << error.message;
      const auto want_loaded = LoadRrIndex(want2->network(), want_in, &error);
      ASSERT_NE(want_loaded, nullptr) << error.message;
      got2->AdoptSketches(*got_loaded);
      want2->AdoptSketches(*want_loaded);
      ExpectSameSketches(*got2, *want);
      got = std::move(got2);
      want = std::move(want2);
      folds_seen = 0;
      ExpectSameSketches(*got, *want);
      ExpectSameEstimates(*got, *want);
    }
  }
  compactions += got->stats().compactions;
  EXPECT_EQ(folds_checked, compactions);
  EXPECT_GE(compactions, 2u) << "overlay never passed its compaction bound";
  EXPECT_TRUE(grew) << "no batch resurrected an edge into an expansion";
  EXPECT_TRUE(shrank) << "no batch killed an edge";
  EXPECT_GT(singletons_grown, 0u) << "no repair grew a singleton";
  EXPECT_GT(shrunk_to_singleton, 0u)
      << "no repair shrank a sketch to a singleton";
  ExpectSameEstimates(*got, *want);
  EXPECT_EQ(Saved(*got->Freeze(got->network(), /*compact=*/false)),
            SavedReference(*want));
}

// Applies each batch to both masters and checks them equal after each.
// Returns how many batches left some reference sketch holding every
// edge of `must_hold(batch)` live.
template <typename MustHold>
int DriveBoth(const SocialNetwork& n,
              const std::vector<std::vector<EdgeInfluenceUpdate>>& batches,
              MustHold must_hold) {
  DynamicRrIndex got(n, Options());
  ReferenceDynamicRrIndex want(n, Options());
  got.Build();
  want.Build();
  int held = 0;
  for (const auto& batch : batches) {
    got.ApplyUpdates(batch);
    want.ApplyUpdates(batch);
    ExpectSameSketches(got, want);
    ExpectSameStats(got, want);
    if (::testing::Test::HasFatalFailure()) return held;
    const std::vector<EdgeId> edges = must_hold(batch);
    std::vector<GlobalEdgeSample> held_edges;
    for (const RRGraph& rr : want.graphs()) {
      DecomposeRRGraphInto(rr, &held_edges);
      if (std::ranges::all_of(edges, [&held_edges](EdgeId e) {
            return std::ranges::any_of(
                held_edges,
                [e](const GlobalEdgeSample& s) { return s.edge == e; });
          })) {
        ++held;
        break;
      }
    }
  }
  ExpectSameEstimates(got, want);
  EXPECT_EQ(Saved(*got.Freeze(got.network(), /*compact=*/false)),
            SavedReference(want));
  return held;
}

TEST(DynamicOverlayEquivalenceTest, ExpansionReadsEarlierUpdateInSameBatch) {
  // Update 1 changes an in-edge (s, t) of vertex t; update 2 raises an
  // edge (t, h), so sketches holding h but not t expand through t and
  // probe (s, t) under the envelope update 1 left. The production master
  // reads it from the model folded per update, the reference from its
  // mirror.
  const SocialNetwork n = MakeNetwork();
  Rng rng(77);
  std::vector<std::vector<EdgeInfluenceUpdate>> batches;
  while (batches.size() < 40) {
    const auto e2 = static_cast<EdgeId>(rng.NextBounded(n.num_edges()));
    const auto in = n.graph.InEdges(n.graph.Tail(e2));
    if (in.empty()) continue;
    const EdgeId e1 = in[rng.NextBounded(in.size())].edge;
    if (e1 == e2) continue;
    const auto topic =
        static_cast<TopicId>(rng.NextBounded(n.topics.num_topics()));
    // Mostly raise the in-edge (so expansions take it), sometimes drop
    // it (so they must not).
    const double p1 = batches.size() % 4 == 3 ? 0.01 * rng.NextDouble()
                                              : 0.9 + 0.1 * rng.NextDouble();
    batches.push_back({{e1, {{topic, p1}}}, {e2, {{topic, 0.95}}}});
  }
  const int held = DriveBoth(n, batches, [](const auto& batch) {
    return std::vector<EdgeId>{batch[0].edge, batch[1].edge};
  });
  EXPECT_GT(held, 0) << "no expansion took an edge raised earlier in its batch";
}

TEST(DynamicOverlayEquivalenceTest, BatchesThatRepeatAnEdge) {
  // The same edge raised, dropped, deleted and raised again within one
  // batch: each update's p_old is the envelope the previous one left.
  const SocialNetwork n = MakeNetwork();
  Rng rng(78);
  std::vector<std::vector<EdgeInfluenceUpdate>> batches;
  for (int b = 0; b < 40; ++b) {
    const auto e = static_cast<EdgeId>(rng.NextBounded(n.num_edges()));
    const auto other = static_cast<EdgeId>(rng.NextBounded(n.num_edges()));
    std::vector<EdgeInfluenceUpdate> batch;
    for (int i = 0; i < 2 + static_cast<int>(rng.NextBounded(4)); ++i) {
      const auto topic =
          static_cast<TopicId>(rng.NextBounded(n.topics.num_topics()));
      EdgeInfluenceUpdate update;
      update.edge = i == 2 ? other : e;
      switch (rng.NextBounded(3)) {
        case 0:
          update.entries = {{topic, 0.7 + 0.3 * rng.NextDouble()}};
          break;
        case 1:
          update.entries = {{topic, 0.01 * rng.NextDouble()}};
          break;
        default:
          break;  // delete
      }
      batch.push_back(std::move(update));
    }
    batches.push_back(std::move(batch));
  }
  DriveBoth(n, batches, [](const auto&) { return std::vector<EdgeId>{}; });
}

TEST(DynamicOverlayEquivalenceTest, DurableSnapshotsShareCallerTopology) {
  const SocialNetwork n = MakeNetwork();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pitex_overlay_sharing")
          .string();
  std::filesystem::remove_all(dir);
  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.engine.index_theta_per_vertex = 4.0;
  options.num_threads = 1;
  options.enable_updates = true;
  options.durability_dir = dir;
  {
    PitexService service(&n, options);
    service.Start();
    VertexId v = 0;
    while (n.graph.InDegree(v) == 0 || n.graph.OutDegree(v) == 0) ++v;
    EdgeId e = 0;
    while (n.influence.EdgeTopics(e).empty()) ++e;

    const auto initial = service.CurrentSnapshot();
    EXPECT_EQ(initial->network().graph.InEdges(v).data(),
              n.graph.InEdges(v).data());
    EXPECT_EQ(initial->network().graph.OutEdges(v).data(),
              n.graph.OutEdges(v).data());
    EXPECT_EQ(initial->network().influence.EdgeTopics(e).data(),
              n.influence.EdgeTopics(e).data());

    std::vector<EdgeInfluenceUpdate> batch{{e, {{0, 0.5}}}};
    ASSERT_NE(service.ApplyUpdates(batch), 0u);
    const auto published = service.CurrentSnapshot();
    ASSERT_NE(published, initial);
    EXPECT_EQ(published->network().graph.InEdges(v).data(),
              n.graph.InEdges(v).data());
    EXPECT_EQ(published->network().graph.OutEdges(v).data(),
              n.graph.OutEdges(v).data());
    // The update gave the model fresh influence storage; the caller's
    // network keeps its own.
    EXPECT_NE(published->network().influence.EdgeTopics(e).data(),
              n.influence.EdgeTopics(e).data());
    EXPECT_EQ(published->network().influence.EdgeTopics(e)[0].prob, 0.5);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pitex
