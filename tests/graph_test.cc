#include "src/graph/graph.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace pitex {
namespace {

Graph Diamond() {
  // 0 -> {1, 2} -> 3
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  return b.Build();
}

TEST(GraphTest, EmptyGraph) {
  GraphBuilder b(3);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.OutEdges(0).empty());
  EXPECT_TRUE(g.InEdges(2).empty());
}

TEST(GraphTest, SizesAndDegrees) {
  Graph g = Diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(3), 2u);
  EXPECT_EQ(g.InDegree(0), 0u);
}

TEST(GraphTest, EdgeIdsAreInsertionOrder) {
  Graph g = Diamond();
  EXPECT_EQ(g.Tail(0), 0u);
  EXPECT_EQ(g.Head(0), 1u);
  EXPECT_EQ(g.Tail(3), 2u);
  EXPECT_EQ(g.Head(3), 3u);
}

TEST(GraphTest, OutAdjacencyMatchesEdges) {
  Graph g = Diamond();
  std::set<VertexId> heads;
  for (const auto& [v, e] : g.OutEdges(0)) {
    heads.insert(v);
    EXPECT_EQ(g.Tail(e), 0u);
    EXPECT_EQ(g.Head(e), v);
  }
  EXPECT_EQ(heads, (std::set<VertexId>{1, 2}));
}

TEST(GraphTest, InAdjacencyMatchesEdges) {
  Graph g = Diamond();
  std::set<VertexId> tails;
  for (const auto& [v, e] : g.InEdges(3)) {
    tails.insert(v);
    EXPECT_EQ(g.Head(e), 3u);
    EXPECT_EQ(g.Tail(e), v);
  }
  EXPECT_EQ(tails, (std::set<VertexId>{1, 2}));
}

TEST(GraphTest, InOutEdgeIdsAgree) {
  Graph g = Diamond();
  // Every edge id appearing in out-adjacency appears exactly once in the
  // in-adjacency of its head.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const auto& [w, e] : g.OutEdges(v)) {
      int found = 0;
      for (const auto& [t, e2] : g.InEdges(w)) found += (e2 == e);
      EXPECT_EQ(found, 1);
    }
  }
}

TEST(GraphTest, ParallelEdgesKept) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(1), 2u);
}

TEST(GraphTest, AverageDegree) {
  Graph g = Diamond();
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.0);
}

// Edges added out of tail and head order, with a parallel pair.
Graph Scrambled() {
  GraphBuilder b(4);
  b.AddEdge(2, 0);
  b.AddEdge(0, 3);
  b.AddEdge(2, 3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 3);
  b.AddEdge(2, 0);
  b.AddEdge(0, 3);
  return b.Build();
}

TEST(GraphTest, AdjacencyListsAscendByEdgeId) {
  const Graph g = Scrambled();
  const auto by_id = [](const AdjEntry& a, const AdjEntry& b) {
    return a.edge < b.edge;
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::is_sorted(g.OutEdges(v), by_id)) << v;
    EXPECT_TRUE(std::ranges::is_sorted(g.InEdges(v), by_id)) << v;
  }
}

TEST(GraphTest, OutRankIsThePlaceInTheTailsOutList) {
  const Graph g = Scrambled();
  EXPECT_EQ(g.MaxOutDegree(), 3u);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto out = g.OutEdges(u);
    for (uint32_t r = 0; r < out.size(); ++r) {
      EXPECT_EQ(g.OutRank(u, out[r].edge), r);
    }
  }
}

TEST(GraphTest, InRankIsThePlaceInTheHeadsInList) {
  const Graph g = Scrambled();
  EXPECT_EQ(g.InDegree(3), 4u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto in = g.InEdges(v);
    for (uint32_t r = 0; r < in.size(); ++r) {
      EXPECT_EQ(g.InRank(v, in[r].edge), r);
    }
  }
}

TEST(GraphBuilderTest, ReturnsSequentialEdgeIds) {
  GraphBuilder b(3);
  EXPECT_EQ(b.AddEdge(0, 1), 0u);
  EXPECT_EQ(b.AddEdge(1, 2), 1u);
  EXPECT_EQ(b.AddEdge(2, 0), 2u);
}

}  // namespace
}  // namespace pitex
