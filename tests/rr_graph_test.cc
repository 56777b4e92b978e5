// Tests for RR-Graph generation (Def. 2) and tag-aware reachability
// (Def. 3): structural invariants, threshold distributions, and unbiased
// estimation against the exact oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "owned_sketch.h"
#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/graph/generators.h"
#include "src/index/rr_graph.h"
#include "src/index/rr_sketch_pool.h"
#include "src/index/sketch_arena.h"
#include "src/sampling/exact.h"

namespace pitex {
namespace {

TEST(VertexIdsTest, LocalIndexFindsEveryIdAtEveryWidth) {
  // Ids 3j + 1 for j < n, packed from bits 0 and 5 of a padded array at
  // the narrowest width that holds them and at 16, 17 and 32 bits: every
  // id is found at j, every value between or around them is absent, for
  // each window size the search halves through.
  for (uint32_t n = 0; n <= 40; ++n) {
    const uint32_t narrowest = IdBits(3 * n + 2);
    for (const uint32_t bits : {narrowest, 16u, 17u, 32u}) {
      for (const uint32_t first : {0u, 5u}) {
        std::vector<uint8_t> data(PaddedBytes(first + uint64_t{bits} * n + 1),
                                  0);
        BitWriter writer(data.data());
        writer.Put(0, first);
        for (uint32_t j = 0; j < n; ++j) writer.Put(3 * j + 1, bits);
        writer.Finish();
        const VertexIds ids(PackedIds{data.data(), first, bits}, n);
        for (VertexId v = 0; v <= 3 * n + 2; ++v) {
          const std::optional<uint32_t> want =
              v % 3 == 1 && v / 3 < n ? std::optional<uint32_t>(v / 3)
                                      : std::nullopt;
          EXPECT_EQ(ids.LocalIndex(v), want)
              << "n " << n << ", bits " << bits << ", v " << v;
        }
        if (n > 0) {
          EXPECT_EQ(ids.back(), 3 * n - 2);
        }
      }
    }
  }
  // A block never holds an id past its width, even one whose low bits
  // match a stored id.
  std::vector<uint8_t> data(PaddedBytes(16), 0);
  BitWriter writer(data.data());
  writer.Put(1, 16);
  writer.Finish();
  EXPECT_EQ(VertexIds(PackedIds{data.data(), 0, 16}, 1).LocalIndex(65536 + 1),
            std::nullopt);
  // A singleton's vertex is its root, at gap 0 of no stored id.
  const VertexIds singleton(PackedIds{}, 1, 0, 70000);
  EXPECT_EQ(singleton[0], 70000u);
  EXPECT_EQ(singleton.LocalIndex(70000), 0u);
  EXPECT_EQ(singleton.LocalIndex(0), std::nullopt);
}

TEST(RRGraphTest, ParentTreesDecodeTopDown) {
  // Each in-tree the sampler draws is a parent tree: decoded from its
  // root, every vertex's parent comes before it and its edge is its
  // parent's in-edge from it; decoding stops at the vertex asked for,
  // and the tree decodes to the shape the general form would hold.
  const SocialNetwork n = GenerateDataset(LastfmSpec(0.05));
  SketchArena arena;
  RrSketchPool run(n.graph);
  TreeScratch tree;
  Rng rng(7);
  int trees = 0;
  for (int i = 0; i < 400; ++i) {
    const auto root = static_cast<VertexId>(rng.NextBounded(n.num_vertices()));
    run.Clear();
    arena.Generate(n.graph, n.influence, root, &rng, &run);
    const RRView view = run.View(0, root);
    if (!view.IsTree() || view.vertices.size() < 3) continue;
    ++trees;
    const auto size = static_cast<uint32_t>(view.vertices.size());
    ASSERT_EQ(DecodeTree(view, kNoVertex, &tree), size);
    std::vector<VertexId> vertices(tree.vertex_data(),
                                   tree.vertex_data() + size);
    for (uint32_t j = 1; j < size; ++j) {
      ASSERT_LT(tree.parent(j), j);
      const VertexId parent = tree.vertex(tree.parent(j));
      EXPECT_EQ(n.graph.Head(tree.edge(j)), parent);
      EXPECT_EQ(n.graph.Tail(tree.edge(j)), tree.vertex(j));
      EXPECT_EQ(n.graph.InEdges(parent)[tree.rank(j)].edge, tree.edge(j));
    }
    for (uint32_t j = 0; j < size; ++j) {
      EXPECT_EQ(DecodeTree(view, vertices[j], &tree), j);
      EXPECT_EQ(view.LocalIndex(vertices[j]), j);
    }
    std::ranges::sort(vertices);
    EXPECT_EQ(Owned(view).vertices, vertices);
  }
  EXPECT_GT(trees, 10);
}

TEST(RRGraphTest, RootAlwaysPresent) {
  SocialNetwork n = MakeRunningExample();
  Rng rng(1);
  for (VertexId root = 0; root < n.num_vertices(); ++root) {
    const RRGraph rr = GenerateRRGraph(n.graph, n.influence, root, &rng);
    EXPECT_TRUE(rr.LocalIndex(root).has_value());
  }
}

TEST(RRGraphTest, VerticesSortedUnique) {
  SocialNetwork n = MakeRunningExample();
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const RRGraph rr = GenerateRRGraph(n.graph, n.influence, 6, &rng);
    for (size_t j = 1; j < rr.vertices.size(); ++j) {
      EXPECT_LT(rr.vertices[j - 1], rr.vertices[j]);
    }
  }
}

TEST(RRGraphTest, ThresholdsWithinEnvelope) {
  // c(e) = env(e) * H lies in (0, env(e)], env(e) the float envelope
  // the sampler draws e live under.
  SocialNetwork n = MakeRunningExample();
  for (uint64_t id = 0; id < 100; ++id) {
    const SketchThresholds thresholds{&n.influence, ThresholdKey(3, id)};
    for (EdgeId e = 0; e < n.num_edges(); ++e) {
      const double c = thresholds(e);
      EXPECT_GT(c, 0.0);
      EXPECT_LE(c, static_cast<double>(
                       EnvelopeProbability(n.influence.MaxProb(e))));
    }
  }
}

TEST(RRGraphTest, EveryVertexReachesRootUnderEnvelope) {
  // Under the envelope p(e) every stored edge is live, so every vertex in
  // the RR-Graph must reach the root.
  SocialNetwork n = MakeRunningExample();
  const EnvelopeProbs envelope(n.influence);
  Rng rng(4);
  for (uint64_t i = 0; i < 100; ++i) {
    RRGraph rr = GenerateRRGraph(n.graph, n.influence, 6, &rng);
    rr.thresholds = {&n.influence, ThresholdKey(4, i)};
    for (VertexId v : rr.vertices) {
      EXPECT_TRUE(IsReachable(rr, v, envelope, nullptr))
          << "vertex " << v << " cannot reach root";
    }
  }
}

TEST(RRGraphTest, RootTriviallyReachable) {
  SocialNetwork n = MakeRunningExample();
  Rng rng(5);
  RRGraph rr = GenerateRRGraph(n.graph, n.influence, 3, &rng);
  rr.thresholds = {&n.influence, ThresholdKey(5, 0)};
  const TopicPosterior zero(3, 0.0);
  const PosteriorProbs probs(n.influence, zero);
  EXPECT_TRUE(IsReachable(rr, 3, probs, nullptr));  // u == root
}

TEST(RRGraphTest, AbsentVertexNotReachable) {
  SocialNetwork n = MakeRunningExample();
  Rng rng(6);
  RRGraph rr = GenerateRRGraph(n.graph, n.influence, 1, &rng);
  rr.thresholds = {&n.influence, ThresholdKey(6, 0)};
  // u5 (id 4) has no outgoing edges and can never appear in u2's RR-Graph.
  const EnvelopeProbs envelope(n.influence);
  EXPECT_FALSE(IsReachable(rr, 4, envelope, nullptr));
}

TEST(RRGraphTest, MembershipFrequencyMatchesInfluence) {
  // Pr[u in RR-Graph of v] = Pr[u activates v under the envelope]; summing
  // over uniform v gives E[I(u|*)] / |V|. Check u1 on the running example.
  SocialNetwork n = MakeRunningExample();
  const EnvelopeProbs envelope(n.influence);
  const double exact = ExactInfluence(n.graph, envelope, 0);

  Rng rng(7);
  const int trials = 40000;
  int containing = 0;
  for (int i = 0; i < trials; ++i) {
    const auto root = static_cast<VertexId>(rng.NextBounded(7));
    const RRGraph rr = GenerateRRGraph(n.graph, n.influence, root, &rng);
    containing += rr.LocalIndex(0).has_value();
  }
  const double estimated =
      static_cast<double>(containing) / trials * 7.0;
  EXPECT_NEAR(estimated, exact, 0.05 * exact);
}

// The first sketch key (ThresholdKey(0, id), id = 0, 1, ...) whose
// thresholds satisfy `holds`.
template <typename Holds>
SketchThresholds FirstThresholdsWhere(const InfluenceGraph& model,
                                      Holds&& holds) {
  for (uint64_t id = 0;; ++id) {
    const SketchThresholds thresholds{&model, ThresholdKey(0, id)};
    if (holds(thresholds)) return thresholds;
  }
}

TEST(RRGraphTest, TagAwareReachabilityMatchesExample5) {
  // Example 5's rule, live iff p(e|W) >= c(e), at thresholds on each
  // side of p(e|W): a large c(u1->u2) blocks {w3,w4} (p = 0.13), while
  // the path u1->u3->u6 is live when its thresholds are small. The
  // thresholds are a function of the sketch's key, so each case takes
  // the first key whose thresholds fall where the case needs them.
  SocialNetwork n = MakeRunningExample();
  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);

  // G_RR(u2): single edge u1->u2 (e0) with c above 0.13.
  {
    const GlobalEdgeSample edges[] = {{0, 1, 0}};
    RRGraph rr = AssembleRRGraph(n.graph, 1, {0, 1}, edges);
    rr.thresholds = FirstThresholdsWhere(
        n.influence, [](const SketchThresholds& c) { return c(0) > 0.3; });
    EXPECT_FALSE(IsReachable(rr, 0, probs, nullptr));
  }
  // p(u1->u3 | {w3,w4}) = 0.5, p(u3->u6) = 4.5/13 ~= 0.346: live when the
  // thresholds are small.
  const GlobalEdgeSample path[] = {
      {0, 2, 1},  // u1 -> u3 (e1)
      {2, 5, 3},  // u3 -> u6 (e3)
  };
  RRGraph rr = AssembleRRGraph(n.graph, 5, {0, 2, 5}, path);
  rr.thresholds = FirstThresholdsWhere(
      n.influence,
      [](const SketchThresholds& c) { return c(1) < 0.2 && c(3) < 0.2; });
  EXPECT_TRUE(IsReachable(rr, 0, probs, nullptr));
  // Same graph with a threshold above 0.346 on u3->u6: dead.
  rr.thresholds = FirstThresholdsWhere(
      n.influence,
      [](const SketchThresholds& c) { return c(1) < 0.2 && c(3) > 0.4; });
  EXPECT_FALSE(IsReachable(rr, 0, probs, nullptr));
}

TEST(RRGraphTest, AssembleDropsEdgesOutsideVertexSet) {
  const SocialNetwork n = MakeRunningExample();
  const GlobalEdgeSample edges[] = {
      {0, 1, 0},
      {2, 1, 1},  // tail 2 not in vertex set
  };
  const RRGraph rr = AssembleRRGraph(n.graph, 1, {0, 1}, edges);
  EXPECT_EQ(rr.ranks.size(), 1u);
}

TEST(RRGraphTest, EdgeVisitCounterAccumulates) {
  SocialNetwork n = MakeRunningExample();
  Rng rng(9);
  const EnvelopeProbs envelope(n.influence);
  uint64_t visits = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    RRGraph rr = GenerateRRGraph(n.graph, n.influence, 6, &rng);
    rr.thresholds = {&n.influence, ThresholdKey(9, i)};
    IsReachable(rr, 0, envelope, &visits);
  }
  // At least some probing must have happened over 10 graphs.
  EXPECT_GT(visits, 0u);
}

}  // namespace
}  // namespace pitex
