#include "src/model/influence_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <span>
#include <vector>

#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/util/random.h"

namespace pitex {
namespace {

TEST(InfluenceGraphTest, EdgeTopicsStoredSortedAndZeroDropped) {
  InfluenceGraphBuilder b(1);
  const EdgeTopicEntry entries[] = {{2, 0.3}, {0, 0.5}, {1, 0.0}};
  b.SetEdgeTopics(0, entries);
  InfluenceGraph g = b.Build();
  const auto topics = g.EdgeTopics(0);
  ASSERT_EQ(topics.size(), 2u);
  EXPECT_EQ(topics[0].topic, 0u);
  EXPECT_EQ(topics[1].topic, 2u);
}

TEST(InfluenceGraphTest, UnsetEdgeIsEmpty) {
  InfluenceGraphBuilder b(2);
  const EdgeTopicEntry entries[] = {{0, 0.4}};
  b.SetEdgeTopics(1, entries);
  InfluenceGraph g = b.Build();
  EXPECT_TRUE(g.EdgeTopics(0).empty());
  EXPECT_EQ(g.MaxProb(0), 0.0);
  EXPECT_EQ(g.MaxProb(1), 0.4);
}

TEST(InfluenceGraphTest, EdgeTopicProbLookup) {
  SocialNetwork n = MakeRunningExample();
  EXPECT_DOUBLE_EQ(n.influence.EdgeTopicProb(0, 0), 0.4);
  EXPECT_DOUBLE_EQ(n.influence.EdgeTopicProb(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(n.influence.EdgeTopicProb(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(n.influence.EdgeTopicProb(1, 2), 0.5);
}

// Example 1: p((u1,u2) | {w1, w2}) = 0.2.
TEST(InfluenceGraphTest, RunningExampleEdgeProbability) {
  SocialNetwork n = MakeRunningExample();
  const TagId tags[] = {0, 1};
  const auto post = n.topics.Posterior(tags);
  EXPECT_NEAR(n.influence.EdgeProb(0, post), 0.2, 1e-12);
}

TEST(InfluenceGraphTest, MaxProbIsEnvelope) {
  SocialNetwork n = MakeRunningExample();
  // For every edge and every tag set, p(e|W) <= p(e).
  for (TagId a = 0; a < 4; ++a) {
    for (TagId b = a + 1; b < 4; ++b) {
      const TagId tags[] = {a, b};
      const auto post = n.topics.Posterior(tags);
      for (EdgeId e = 0; e < n.num_edges(); ++e) {
        EXPECT_LE(n.influence.EdgeProb(e, post),
                  n.influence.MaxProb(e) + 1e-12);
      }
    }
  }
}

// The smallest float >= p as the libm form computes it.
float NextAfterEnvelope(double p) {
  auto f = static_cast<float>(p);
  if (static_cast<double>(f) < p) f = std::nextafterf(f, 2.0f);
  return f;
}

TEST(InfluenceGraphTest, EnvelopeProbabilityMatchesNextAfter) {
  // EnvelopeProbability steps a float rounded below p up by one ulp with
  // a bit increment: the same float as nextafterf towards 2, over 10^7
  // uniform doubles in [0, 1], and over the edges of the range: 0, the
  // subnormal doubles and floats, 1, and 1 - 2^-53, which rounds to 1.
  std::vector<double> edges = {0.0,
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<float>::denorm_min(),
                               std::numeric_limits<float>::denorm_min() / 3,
                               std::numeric_limits<float>::min(),
                               std::numeric_limits<float>::min() * 0.75,
                               1.0,
                               1.0 - std::ldexp(1.0, -53),
                               0.5,
                               0.1};
  for (const double p : edges) {
    EXPECT_EQ(std::bit_cast<uint32_t>(EnvelopeProbability(p)),
              std::bit_cast<uint32_t>(NextAfterEnvelope(p)))
        << std::hexfloat << p;
    EXPECT_GE(static_cast<double>(EnvelopeProbability(p)), p);
  }
  Rng rng(2024);
  uint64_t mismatches = 0;
  for (int i = 0; i < 10000000; ++i) {
    const double p = rng.NextDouble();
    mismatches += std::bit_cast<uint32_t>(EnvelopeProbability(p)) !=
                  std::bit_cast<uint32_t>(NextAfterEnvelope(p));
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(InfluenceGraphTest, ZeroPosteriorZeroesEveryEdge) {
  SocialNetwork n = MakeRunningExample();
  const TopicPosterior zero(3, 0.0);
  for (EdgeId e = 0; e < n.num_edges(); ++e) {
    EXPECT_EQ(n.influence.EdgeProb(e, zero), 0.0);
  }
}

// Deterministic sparse topic vectors: 0-2 entries per edge, so chunks
// hold uneven entry counts.
std::vector<EdgeTopicEntry> EntriesFor(EdgeId e) {
  std::vector<EdgeTopicEntry> entries;
  for (uint32_t k = 0; k < e % 3; ++k) {
    entries.push_back({static_cast<TopicId>((e + 2 * k) % 5),
                       0.05 * static_cast<double>(1 + (e + k) % 19)});
  }
  return entries;
}

// The model EntriesFor describes, with `replaced` edges overridden.
InfluenceGraph BuildModel(
    size_t num_edges, std::span<const EdgeTopicsReplacement> replaced = {}) {
  InfluenceGraphBuilder b(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) {
    const auto it = std::find_if(
        replaced.begin(), replaced.end(),
        [e](const EdgeTopicsReplacement& r) { return r.edge == e; });
    if (it != replaced.end()) {
      b.SetEdgeTopics(e, it->entries);
    } else {
      b.SetEdgeTopics(e, EntriesFor(e));
    }
  }
  return b.Build();
}

void ExpectSameModel(const InfluenceGraph& got, const InfluenceGraph& want) {
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (EdgeId e = 0; e < want.num_edges(); ++e) {
    const auto a = got.EdgeTopics(e);
    const auto b = want.EdgeTopics(e);
    ASSERT_EQ(a.size(), b.size()) << "edge " << e;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].topic, b[i].topic) << "edge " << e;
      ASSERT_EQ(a[i].prob, b[i].prob) << "edge " << e;
    }
    ASSERT_EQ(got.MaxProb(e), want.MaxProb(e)) << "edge " << e;
  }
}

constexpr size_t kChunk = InfluenceGraph::kChunkEdges;
// Three chunks, the last one partial.
constexpr size_t kChunkedEdges = 2 * kChunk + 100;

TEST(ChunkedInfluenceGraphTest, ReplaceMatchesRebuildAtChunkBoundaries) {
  const InfluenceGraph before = BuildModel(kChunkedEdges);
  const InfluenceGraph pristine = BuildModel(kChunkedEdges);
  const std::vector<EdgeTopicEntry> raised = {{4, 0.9}, {0, 0.25}};
  const std::vector<EdgeTopicEntry> with_zero = {{2, 0.0}, {3, 0.6}};
  const std::vector<EdgeTopicEntry> none;
  // First and last slot of chunk 0, and the first and last edge of the
  // partial chunk 2; chunk 1 is untouched.
  const EdgeTopicsReplacement replaced[] = {
      {static_cast<EdgeId>(kChunk - 1), raised},
      {0, with_zero},
      {static_cast<EdgeId>(2 * kChunk), none},
      {static_cast<EdgeId>(kChunkedEdges - 1), raised},
  };
  const InfluenceGraph after = ReplaceEdgeTopics(before, replaced);
  ExpectSameModel(after, BuildModel(kChunkedEdges, replaced));
  EXPECT_EQ(after.MaxProb(0), 0.6);
  EXPECT_EQ(after.MaxProb(static_cast<EdgeId>(2 * kChunk)), 0.0);
  // The pre-replacement value is unchanged.
  ExpectSameModel(before, pristine);

  // Chunk 1 is shared; the touched chunks are fresh copies.
  for (const EdgeId e : {static_cast<EdgeId>(kChunk + 1),
                         static_cast<EdgeId>(2 * kChunk - 1)}) {
    ASSERT_FALSE(before.EdgeTopics(e).empty());
    EXPECT_EQ(after.EdgeTopics(e).data(), before.EdgeTopics(e).data());
  }
  for (const EdgeId e :
       {EdgeId{1}, static_cast<EdgeId>(2 * kChunk + 2)}) {
    ASSERT_FALSE(before.EdgeTopics(e).empty());
    EXPECT_NE(after.EdgeTopics(e).data(), before.EdgeTopics(e).data());
  }
}

TEST(ChunkedInfluenceGraphTest, ChainedReplacementsMatchRebuild) {
  // One edge at a time, the way DynamicRrIndex folds updates: every
  // intermediate value stays intact.
  const InfluenceGraph base = BuildModel(kChunkedEdges);
  const std::vector<EdgeTopicEntry> first = {{1, 0.4}};
  const std::vector<EdgeTopicEntry> second = {{3, 0.7}, {1, 0.1}};
  const EdgeId e = static_cast<EdgeId>(kChunk + 7);
  const EdgeTopicsReplacement r1{e, first};
  const EdgeTopicsReplacement r2{e, second};
  const InfluenceGraph mid = ReplaceEdgeTopics(base, std::span(&r1, 1));
  const InfluenceGraph last = ReplaceEdgeTopics(mid, std::span(&r2, 1));
  ExpectSameModel(mid, BuildModel(kChunkedEdges, std::span(&r1, 1)));
  ExpectSameModel(last, BuildModel(kChunkedEdges, std::span(&r2, 1)));
  ExpectSameModel(base, BuildModel(kChunkedEdges));
}

TEST(ChunkedInfluenceGraphTest, ReplacingNoEdgesSharesEveryChunk) {
  const InfluenceGraph before = BuildModel(kChunkedEdges);
  const InfluenceGraph after = ReplaceEdgeTopics(before, {});
  ExpectSameModel(after, before);
  for (EdgeId e = 0; e < kChunkedEdges; e += kChunk / 2) {
    EXPECT_EQ(after.EdgeTopics(e).data(), before.EdgeTopics(e).data());
  }
  // A model without edges has no chunks.
  const InfluenceGraph empty = ReplaceEdgeTopics(BuildModel(0), {});
  EXPECT_EQ(empty.num_edges(), 0u);
}

TEST(ReachableSetTest, FullReachabilityUnderEnvelope) {
  SocialNetwork n = MakeRunningExample();
  const auto r = ComputeMaxReachableSet(n.graph, n.influence, 0);
  // u1 reaches everyone except u5 (id 4) in the running example.
  EXPECT_EQ(r.vertices.size(), 6u);
  EXPECT_EQ(r.num_internal_edges, 7u);
}

TEST(ReachableSetTest, TagSetRestrictsReachability) {
  SocialNetwork n = MakeRunningExample();
  const TagId tags[] = {0, 1};  // {w1, w2}: z3-only edges vanish
  const auto post = n.topics.Posterior(tags);
  const auto r = ComputeReachableSet(n.graph, n.influence, post, 0);
  // Reachable: u1, u2, u3, u4 (z3 edges e3..e6 are dead).
  EXPECT_EQ(r.vertices.size(), 4u);
  EXPECT_EQ(r.num_internal_edges, 3u);
}

TEST(ReachableSetTest, IsolatedSource) {
  SocialNetwork n = MakeRunningExample();
  const auto r = ComputeMaxReachableSet(n.graph, n.influence, 4);  // u5
  EXPECT_EQ(r.vertices.size(), 1u);
  EXPECT_EQ(r.num_internal_edges, 0u);
}

TEST(InfluenceGraphDeathTest, RejectsSettingEdgeTwice) {
  InfluenceGraphBuilder b(1);
  const EdgeTopicEntry entries[] = {{0, 0.4}};
  b.SetEdgeTopics(0, entries);
  EXPECT_DEATH(b.SetEdgeTopics(0, entries), "twice");
}

TEST(InfluenceGraphDeathTest, RejectsDuplicateTopic) {
  InfluenceGraphBuilder b(1);
  const EdgeTopicEntry entries[] = {{0, 0.4}, {0, 0.5}};
  EXPECT_DEATH(b.SetEdgeTopics(0, entries), "duplicate");
}

TEST(InfluenceGraphDeathTest, ReplaceRejectsEdgeTwice) {
  const InfluenceGraph g = BuildModel(8);
  const EdgeTopicEntry entries[] = {{0, 0.4}};
  const EdgeTopicsReplacement twice[] = {{3, entries}, {3, entries}};
  EXPECT_DEATH(ReplaceEdgeTopics(g, twice), "twice");
}

}  // namespace
}  // namespace pitex
