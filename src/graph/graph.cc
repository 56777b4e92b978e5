#include "src/graph/graph.h"

#include <algorithm>

#include "src/util/check.h"

namespace pitex {

Graph::Graph(std::shared_ptr<const Storage> storage)
    : storage_(std::move(storage)),
      num_vertices_(storage_->out_offsets.size() - 1),
      num_edges_(storage_->heads.size()),
      out_offsets_(storage_->out_offsets.data()),
      out_adj_(storage_->out_adj.data()),
      in_offsets_(storage_->in_offsets.data()),
      in_adj_(storage_->in_adj.data()),
      tails_(storage_->tails.data()),
      heads_(storage_->heads.data()) {}

double Graph::AverageDegree() const {
  if (num_vertices() == 0) return 0.0;
  return static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices());
}

size_t Graph::MaxOutDegree() const {
  size_t degree = 0;
  for (VertexId u = 0; u < num_vertices_; ++u) {
    degree = std::max(degree, OutDegree(u));
  }
  return degree;
}

namespace {

// Place of edge e in `list`, which ascends by EdgeId, or list.size().
uint32_t RankIn(std::span<const AdjEntry> list, EdgeId e) {
  const auto it = std::lower_bound(
      list.begin(), list.end(), e,
      [](const AdjEntry& a, EdgeId id) { return a.edge < id; });
  return it != list.end() && it->edge == e
             ? static_cast<uint32_t>(it - list.begin())
             : static_cast<uint32_t>(list.size());
}

}  // namespace

uint32_t Graph::OutRank(VertexId tail, EdgeId e) const {
  const uint32_t rank = RankIn(OutEdges(tail), e);
  PITEX_CHECK_MSG(rank < OutDegree(tail),
                  "edge does not leave the given tail");
  return rank;
}

uint32_t Graph::InRank(VertexId head, EdgeId e) const {
  const uint32_t rank = RankIn(InEdges(head), e);
  PITEX_CHECK_MSG(rank < InDegree(head), "edge does not enter the given head");
  return rank;
}

GraphBuilder::GraphBuilder(size_t num_vertices)
    : num_vertices_(num_vertices) {}

EdgeId GraphBuilder::AddEdge(VertexId u, VertexId v) {
  PITEX_CHECK(u < num_vertices_ && v < num_vertices_);
  edges_.emplace_back(u, v);
  return static_cast<EdgeId>(edges_.size() - 1);
}

Graph GraphBuilder::Build() {
  auto g = std::make_shared<Graph::Storage>();
  const size_t n = num_vertices_;
  const size_t m = edges_.size();
  g->tails.resize(m);
  g->heads.resize(m);

  // Counting sort into CSR for both directions.
  g->out_offsets.assign(n + 1, 0);
  g->in_offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g->out_offsets[u + 1];
    ++g->in_offsets[v + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    g->out_offsets[i + 1] += g->out_offsets[i];
    g->in_offsets[i + 1] += g->in_offsets[i];
  }
  g->out_adj.resize(m);
  g->in_adj.resize(m);
  std::vector<uint64_t> out_pos(g->out_offsets.begin(),
                                g->out_offsets.end() - 1);
  std::vector<uint64_t> in_pos(g->in_offsets.begin(), g->in_offsets.end() - 1);
  for (size_t e = 0; e < m; ++e) {
    const auto [u, v] = edges_[e];
    const auto id = static_cast<EdgeId>(e);
    g->tails[e] = u;
    g->heads[e] = v;
    g->out_adj[out_pos[u]++] = AdjEntry{v, id};
    g->in_adj[in_pos[v]++] = AdjEntry{u, id};
  }
  edges_.clear();
  return Graph(std::move(g));
}

}  // namespace pitex
