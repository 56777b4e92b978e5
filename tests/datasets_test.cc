// Tests for the Table-2 analog generators: sizes, densities, degree
// skew, and user-group sampling.

#include <gtest/gtest.h>

#include <vector>

#include "src/datasets/synthetic.h"
#include "src/graph/graph.h"

namespace pitex {
namespace {

TEST(DatasetSpecsTest, MatchTable2Shapes) {
  const DatasetSpec lastfm = LastfmSpec();
  EXPECT_EQ(lastfm.num_vertices, 1300u);
  EXPECT_EQ(lastfm.num_topics, 20u);
  EXPECT_EQ(lastfm.num_tags, 50u);

  const DatasetSpec diggs = DiggsSpec();
  EXPECT_EQ(diggs.num_vertices, 15000u);
  EXPECT_EQ(diggs.num_topics, 20u);

  const DatasetSpec dblp = DblpSpec(1.0);
  EXPECT_EQ(dblp.num_vertices, 500000u);
  EXPECT_EQ(dblp.num_topics, 9u);
  EXPECT_EQ(dblp.num_tags, 276u);

  const DatasetSpec twitter = TwitterSpec(1.0);
  EXPECT_EQ(twitter.num_vertices, 10000000u);
  EXPECT_EQ(twitter.num_topics, 50u);
  EXPECT_EQ(twitter.num_tags, 250u);
}

TEST(GenerateDatasetTest, EdgeCountNearTarget) {
  const DatasetSpec spec = LastfmSpec();
  const SocialNetwork n = GenerateDataset(spec);
  EXPECT_EQ(n.num_vertices(), spec.num_vertices);
  const double target =
      spec.avg_out_degree * static_cast<double>(spec.num_vertices);
  EXPECT_NEAR(static_cast<double>(n.num_edges()), target, 0.1 * target);
}

TEST(GenerateDatasetTest, DensityNearTarget) {
  for (const DatasetSpec& spec :
       {LastfmSpec(0.2), DiggsSpec(0.05), DblpSpec(0.01)}) {
    const SocialNetwork n = GenerateDataset(spec);
    EXPECT_NEAR(n.topics.Density(), spec.tag_topic_density,
                0.05 + 0.2 * spec.tag_topic_density)
        << spec.name;
  }
}

TEST(GenerateDatasetTest, EveryEdgeHasTopicsInRange) {
  const SocialNetwork n = GenerateDataset(LastfmSpec(0.2));
  for (EdgeId e = 0; e < n.num_edges(); ++e) {
    const auto topics = n.influence.EdgeTopics(e);
    ASSERT_FALSE(topics.empty());
    for (const auto& [z, p] : topics) {
      EXPECT_LT(z, n.topics.num_topics());
      EXPECT_GT(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(GenerateDatasetTest, TwitterAnalogIsSparse) {
  const SocialNetwork n = GenerateDataset(TwitterSpec(0.002));
  EXPECT_LT(n.graph.AverageDegree(), 2.0);
}

TEST(GenerateDatasetTest, InDegreesSkewed) {
  const SocialNetwork n = GenerateDataset(DiggsSpec(0.1));
  size_t max_in = 0;
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    max_in = std::max(max_in, n.graph.InDegree(v));
  }
  EXPECT_GT(static_cast<double>(max_in), 8.0 * n.graph.AverageDegree());
}

TEST(GenerateDatasetTest, DeterministicUnderSeed) {
  const SocialNetwork a = GenerateDataset(LastfmSpec(0.1));
  const SocialNetwork b = GenerateDataset(LastfmSpec(0.1));
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.graph.Tail(e), b.graph.Tail(e));
    EXPECT_DOUBLE_EQ(a.influence.MaxProb(e), b.influence.MaxProb(e));
  }
}

TEST(GenerateDatasetTest, TagNamesInterned) {
  const SocialNetwork n = GenerateDataset(LastfmSpec(0.1));
  EXPECT_EQ(n.tags.size(), 50u);
  EXPECT_TRUE(n.tags.Find("lastfm_tag_0").has_value());
}

TEST(UserGroupTest, GroupsAreDisjointAndOrderedByDegree) {
  const SocialNetwork n = GenerateDataset(DiggsSpec(0.1));
  const auto high = SampleUserGroup(n.graph, UserGroup::kHigh, 20, 1);
  const auto mid = SampleUserGroup(n.graph, UserGroup::kMid, 20, 1);
  const auto low = SampleUserGroup(n.graph, UserGroup::kLow, 20, 1);
  ASSERT_FALSE(high.empty());
  ASSERT_FALSE(mid.empty());
  ASSERT_FALSE(low.empty());

  auto min_degree = [&](const std::vector<VertexId>& users) {
    size_t m = SIZE_MAX;
    for (VertexId u : users) m = std::min(m, n.graph.OutDegree(u));
    return m;
  };
  auto max_degree = [&](const std::vector<VertexId>& users) {
    size_t m = 0;
    for (VertexId u : users) m = std::max(m, n.graph.OutDegree(u));
    return m;
  };
  EXPECT_GE(min_degree(high), max_degree(mid));
  EXPECT_GE(min_degree(mid), max_degree(low));
}

TEST(UserGroupTest, AllSampledUsersHaveOutEdges) {
  const SocialNetwork n = GenerateDataset(TwitterSpec(0.002));
  for (UserGroup g : {UserGroup::kHigh, UserGroup::kMid, UserGroup::kLow}) {
    for (VertexId u : SampleUserGroup(n.graph, g, 50, 2)) {
      EXPECT_GT(n.graph.OutDegree(u), 0u);
    }
  }
}

TEST(UserGroupTest, SamplingIsDeterministic) {
  const SocialNetwork n = GenerateDataset(LastfmSpec(0.2));
  const auto a = SampleUserGroup(n.graph, UserGroup::kMid, 10, 7);
  const auto b = SampleUserGroup(n.graph, UserGroup::kMid, 10, 7);
  EXPECT_EQ(a, b);
}

// Four vertices of which exactly the first `n` have an out-edge; user
// u < n has out-degree n - u, so the degree ranking is 0, 1, ..., n - 1.
Graph GraphWithOutEdgeUsers(size_t n) {
  GraphBuilder builder(4);
  for (VertexId u = 0; u < n; ++u) {
    for (size_t e = u; e < n; ++e) builder.AddEdge(u, 3);
  }
  return builder.Build();
}

// With so few ranked users the percentile cut points pass n; every group
// must still sample from inside the ranking (possibly nothing).
TEST(UserGroupTest, NoUserWithOutEdge) {
  const Graph g = GraphWithOutEdgeUsers(0);
  EXPECT_TRUE(SampleUserGroup(g, UserGroup::kHigh, 5, 1).empty());
  EXPECT_TRUE(SampleUserGroup(g, UserGroup::kMid, 5, 1).empty());
  EXPECT_TRUE(SampleUserGroup(g, UserGroup::kLow, 5, 1).empty());
}

TEST(UserGroupTest, OneUserWithOutEdge) {
  const Graph g = GraphWithOutEdgeUsers(1);
  EXPECT_EQ(SampleUserGroup(g, UserGroup::kHigh, 5, 1),
            std::vector<VertexId>{0});
  EXPECT_TRUE(SampleUserGroup(g, UserGroup::kMid, 5, 1).empty());
  EXPECT_TRUE(SampleUserGroup(g, UserGroup::kLow, 5, 1).empty());
}

TEST(UserGroupTest, TwoUsersWithOutEdge) {
  const Graph g = GraphWithOutEdgeUsers(2);
  EXPECT_EQ(SampleUserGroup(g, UserGroup::kHigh, 5, 1),
            std::vector<VertexId>{0});
  EXPECT_EQ(SampleUserGroup(g, UserGroup::kMid, 5, 1),
            std::vector<VertexId>{1});
  EXPECT_TRUE(SampleUserGroup(g, UserGroup::kLow, 5, 1).empty());
}

TEST(UserGroupTest, NamesStable) {
  EXPECT_STREQ(UserGroupName(UserGroup::kHigh), "high");
  EXPECT_STREQ(UserGroupName(UserGroup::kMid), "mid");
  EXPECT_STREQ(UserGroupName(UserGroup::kLow), "low");
}

}  // namespace
}  // namespace pitex
