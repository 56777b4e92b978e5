// Directed social graph in compressed-sparse-row form.
//
// The graph stores both out-adjacency (forward propagation: MC / Lazy
// sampling) and in-adjacency (reverse sampling: RR / RR-Graph index). Each
// directed edge has a stable EdgeId so that per-edge influence
// probabilities (p(e|z), src/model/influence_graph.h) can live in parallel
// arrays. Out- and in-adjacency reference the same EdgeIds.
//
// The arrays are immutable once built and live behind a refcount, so
// copying a Graph is O(1) and aliases the storage: the serving tier's
// master index and every published snapshot share one topology.

#ifndef PITEX_SRC_GRAPH_GRAPH_H_
#define PITEX_SRC_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace pitex {

using VertexId = uint32_t;
using EdgeId = uint32_t;

/// A directed edge endpoint paired with the EdgeId of the edge it belongs
/// to. In the out-adjacency of u, `vertex` is the head; in the
/// in-adjacency of v, `vertex` is the tail.
struct AdjEntry {
  VertexId vertex;
  EdgeId edge;
};

/// Immutable CSR digraph with shared storage. Build with GraphBuilder.
class Graph {
 public:
  Graph() = default;

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return num_edges_; }

  /// Out-neighbors of u with their EdgeIds, in ascending EdgeId order
  /// (GraphBuilder::Build's counting sort is stable); OutRank relies on
  /// it.
  std::span<const AdjEntry> OutEdges(VertexId u) const {
    return {out_adj_ + out_offsets_[u], out_adj_ + out_offsets_[u + 1]};
  }

  /// In-neighbors of v with their EdgeIds, in ascending EdgeId order;
  /// InRank relies on it.
  std::span<const AdjEntry> InEdges(VertexId v) const {
    return {in_adj_ + in_offsets_[v], in_adj_ + in_offsets_[v + 1]};
  }

  /// Position of v's first in-edge in the global in-adjacency array:
  /// InEdges(v)[j] corresponds to in-adjacency slot InEdgeOffset(v) + j.
  /// Lets per-in-edge side tables (e.g. the dense envelope table of
  /// src/model/influence_graph.h) lie in traversal order.
  uint64_t InEdgeOffset(VertexId v) const { return in_offsets_[v]; }

  size_t OutDegree(VertexId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  /// The longest out-list's length: 0 without edges.
  size_t MaxOutDegree() const;
  /// Place of edge e in the out-list of its tail `tail`: the j with
  /// OutEdges(tail)[j].edge == e, found by binary search of that list
  /// (O(log out-degree)). e must leave `tail`.
  uint32_t OutRank(VertexId tail, EdgeId e) const;
  /// Place of edge e in the in-list of its head `head`: the j with
  /// InEdges(head)[j].edge == e, found by binary search of that list
  /// (O(log in-degree)). e must enter `head`.
  uint32_t InRank(VertexId head, EdgeId e) const;
  size_t InDegree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Tail of edge e.
  VertexId Tail(EdgeId e) const { return tails_[e]; }
  /// Head of edge e.
  VertexId Head(EdgeId e) const { return heads_[e]; }

  /// Average out-degree |E| / |V|.
  double AverageDegree() const;

  /// True when both graphs alias one storage: the same topology, told
  /// in O(1).
  bool SharesStorage(const Graph& other) const {
    return storage_ == other.storage_;
  }

 private:
  friend class GraphBuilder;

  struct Storage {
    std::vector<uint64_t> out_offsets;
    std::vector<AdjEntry> out_adj;
    std::vector<uint64_t> in_offsets;
    std::vector<AdjEntry> in_adj;
    std::vector<VertexId> tails;
    std::vector<VertexId> heads;
  };
  static constexpr uint64_t kNoOffsets[1] = {0};

  explicit Graph(std::shared_ptr<const Storage> storage);

  // The accessors read through raw pointers cached from storage_ (the
  // same single indirection a vector member costs); storage_ keeps them
  // valid for every copy.
  std::shared_ptr<const Storage> storage_;
  size_t num_vertices_ = 0;
  size_t num_edges_ = 0;
  const uint64_t* out_offsets_ = kNoOffsets;
  const AdjEntry* out_adj_ = nullptr;
  const uint64_t* in_offsets_ = kNoOffsets;
  const AdjEntry* in_adj_ = nullptr;
  const VertexId* tails_ = nullptr;
  const VertexId* heads_ = nullptr;
};

/// Accumulates edges and produces an immutable Graph. EdgeIds are assigned
/// in insertion order. Self-loops are allowed (they never matter for
/// influence: a source is already active); parallel edges are allowed and
/// behave as independent activation chances.
class GraphBuilder {
 public:
  /// `num_vertices` fixes the vertex universe [0, num_vertices).
  explicit GraphBuilder(size_t num_vertices);

  /// Adds a directed edge u -> v and returns its EdgeId.
  EdgeId AddEdge(VertexId u, VertexId v);

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }

  /// Finalizes into a Graph. The builder is left empty.
  Graph Build();

 private:
  size_t num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace pitex

#endif  // PITEX_SRC_GRAPH_GRAPH_H_
