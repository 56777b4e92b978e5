// Per-edge topic-wise influence probabilities p(e|z) and the tag-set
// activation probability p(e|W) of Eq. (1).
//
// Learned propagation models are sparse (Sec 5.1): most edges carry
// probability mass on only a few topics. We therefore store each edge's
// topic vector in CSR form over (topic, probability) pairs. Computing
// p(e|W) is then a sparse dot product with the topic posterior p(z|W).
//
// The SocialNetwork aggregate bundles the graph topology, the topic model
// and the influence probabilities — the triple every PITEX algorithm
// consumes.

#ifndef PITEX_SRC_MODEL_INFLUENCE_GRAPH_H_
#define PITEX_SRC_MODEL_INFLUENCE_GRAPH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/model/topic_model.h"
#include "src/util/check.h"

namespace pitex {

/// One (topic, probability) entry of an edge's sparse topic vector.
struct EdgeTopicEntry {
  TopicId topic;
  double prob;
};

/// One edge's replacement topic vector for ReplaceEdgeTopics (empty
/// entries delete the edge's influence entirely).
struct EdgeTopicsReplacement {
  EdgeId edge = 0;
  std::span<const EdgeTopicEntry> entries;
};

/// Immutable per-edge p(e|z) table. Build with InfluenceGraphBuilder.
///
/// The CSR is stored as fixed chunks of kChunkEdges consecutive edges
/// behind a refcounted chunk directory. Copies are O(1) and alias one
/// directory; ReplaceEdgeTopics copies the directory and only the chunks
/// it touches, so the pre- and post-update values share every untouched
/// chunk. A lookup is `chunk = e >> kChunkShift`, then a local index:
/// one extra dependent load over a flat CSR, and no branch.
class InfluenceGraph {
 public:
  /// log2 of the edges per storage chunk, chosen by measurement
  /// (docs/perf.md, "Chunk size"): larger chunks make every one-edge
  /// fold copy more; smaller ones saved nothing measurable.
  static constexpr unsigned kChunkShift = 12;
  static constexpr size_t kChunkEdges = size_t{1} << kChunkShift;

  InfluenceGraph() = default;

  size_t num_edges() const { return num_edges_; }

  /// Sparse topic vector of edge e.
  std::span<const EdgeTopicEntry> EdgeTopics(EdgeId e) const {
    const Chunk& c = chunks_[e >> kChunkShift];
    const size_t i = e & (kChunkEdges - 1);
    return {c.entries + c.offsets[i], c.entries + c.offsets[i + 1]};
  }

  /// p(e|z); 0 when the edge carries no mass on z.
  double EdgeTopicProb(EdgeId e, TopicId z) const;

  /// p(e|W) = sum_z p(e|z) * posterior[z] (Eq. 1).
  double EdgeProb(EdgeId e, const TopicPosterior& posterior) const;

  /// p(e) = max_z p(e|z) — the "any topic" envelope used by the RR-Graph
  /// index (Def. 2): p(e) >= p(e|W) for every W.
  double MaxProb(EdgeId e) const {
    return chunks_[e >> kChunkShift].max_prob[e & (kChunkEdges - 1)];
  }

 private:
  friend class InfluenceGraphBuilder;
  friend InfluenceGraph ReplaceEdgeTopics(
      const InfluenceGraph& influence,
      std::span<const EdgeTopicsReplacement> replacements);

  // One chunk's CSR over its (up to kChunkEdges) edges; offsets are
  // chunk-local.
  struct ChunkStorage {
    std::vector<uint32_t> offsets;
    std::vector<EdgeTopicEntry> entries;
    std::vector<double> max_prob;
  };
  // Directory entry: the chunk's arrays, inline so a lookup does not
  // chase the owning pointer.
  struct Chunk {
    const uint32_t* offsets;
    const EdgeTopicEntry* entries;
    const double* max_prob;
  };
  struct Directory {
    std::vector<Chunk> chunks;
    std::vector<std::shared_ptr<const ChunkStorage>> owners;

    void Set(size_t c, std::shared_ptr<const ChunkStorage> storage);
  };

  InfluenceGraph(std::shared_ptr<const Directory> directory,
                 size_t num_edges);
  // Chunk over edges [begin, end): entries_of(e), called once per edge
  // in order, gives each edge's validated entries; nnz is a capacity
  // hint.
  template <typename EntriesOf>
  static std::shared_ptr<const ChunkStorage> MakeChunk(size_t begin,
                                                       size_t end, size_t nnz,
                                                       EntriesOf entries_of);

  std::shared_ptr<const Directory> directory_;
  size_t num_edges_ = 0;
  const Chunk* chunks_ = nullptr;
};

/// Accumulates edge topic vectors in EdgeId order.
class InfluenceGraphBuilder {
 public:
  explicit InfluenceGraphBuilder(size_t num_edges);

  /// Sets the topic vector of edge e. May be called in any order; each edge
  /// at most once. Probabilities must be in [0, 1]; zero entries are
  /// dropped.
  void SetEdgeTopics(EdgeId e, std::span<const EdgeTopicEntry> entries);

  InfluenceGraph Build();

 private:
  size_t num_edges_;
  std::vector<std::vector<EdgeTopicEntry>> staged_;
};

/// `influence` with the listed edges' topic vectors replaced — the
/// update primitive of DynamicRrIndex::ApplyUpdates and RestoreModel.
/// Copy-on-write: the result gets a copy of the chunk directory and a
/// fresh copy of each chunk holding a replaced edge; every other chunk
/// is shared with `influence`, which is left unchanged. A call costs
/// O(|E| / kChunkEdges + touched chunks * kChunkEdges + nnz), not
/// O(|E|). Entry validation matches InfluenceGraphBuilder
/// (probabilities in [0, 1], zero entries dropped, sorted by topic,
/// duplicate topics rejected). Each edge may appear at most once in
/// `replacements`.
InfluenceGraph ReplaceEdgeTopics(
    const InfluenceGraph& influence,
    std::span<const EdgeTopicsReplacement> replacements);

/// Smallest float >= p. The RR-Graph build consumes envelope
/// probabilities through a dense float table (half the bytes of the
/// double array, so the reverse-BFS inner loop streams twice the edges
/// per cache line); rounding *up* preserves the Definition-2 envelope
/// invariant p(e) >= p(e|W) for every tag set W that the double value
/// guaranteed. Requires p in [0, 1]. Inline and without a libm call: the
/// envelope table, every repair's slice (InEnvelopeSlice) and every
/// update's transition take it once per edge.
inline float EnvelopeProbability(double p) {
  PITEX_DCHECK(p >= 0.0 && p <= 1.0);
  auto f = static_cast<float>(p);  // round-to-nearest
  // Rounded below p, so f is a float in [+0, 1): the float one ulp up,
  // the next float's bits (a subnormal's, from +0), is the smallest
  // float >= p.
  if (static_cast<double>(f) < p) {
    f = std::bit_cast<float>(std::bit_cast<uint32_t>(f) + 1);
  }
  return f;
}

/// Dense envelope table for index construction: p(e) = max_z p(e|z) as
/// floats laid out in *in-adjacency order* (entry Graph::InEdgeOffset(v)
/// + j belongs to InEdges(v)[j]), plus the per-vertex maximum over
/// in-edges. The reverse-BFS probe loop of RR-Graph generation reads the
/// per-vertex slice sequentially — no virtual MaxProb call, no sparse
/// indirection — and the per-vertex maximum drives the geometric-skip
/// decision (see SampleLiveInEdges in src/index/sketch_arena.h).
/// Build-only: materialized once per sampling pass (O(|E|)) and dropped
/// after it. Repairs read the same floats table-free from the current
/// model (InEnvelopeSlice in src/index/sketch_arena.h).
class EnvelopeTable {
 public:
  EnvelopeTable() = default;
  EnvelopeTable(const Graph& graph, const InfluenceGraph& influence);

  /// Envelope slice aligned with graph.InEdges(v).
  std::span<const float> InEnvelopes(const Graph& graph, VertexId v) const {
    return {in_env_.data() + graph.InEdgeOffset(v), graph.InDegree(v)};
  }
  /// max over InEnvelopes(v); 0 for in-degree-0 vertices.
  float VertexMax(VertexId v) const { return vertex_max_[v]; }

 private:
  std::vector<float> in_env_;      // in-adjacency order
  std::vector<float> vertex_max_;  // per-vertex max over in-edges
};

/// The full PITEX input: topology + tag/topic model + p(e|z).
struct SocialNetwork {
  Graph graph;
  TopicModel topics{1, 0};
  InfluenceGraph influence;
  TagCatalog tags;

  size_t num_vertices() const { return graph.num_vertices(); }
  size_t num_edges() const { return graph.num_edges(); }
};

/// Result of a forward reachability sweep restricted to edges with
/// p(e|W) > 0: the set R_W(u) and the count |E_W(u)| of edges with both
/// endpoints inside it (Table 1 of the paper).
struct ReachableSet {
  std::vector<VertexId> vertices;
  size_t num_internal_edges = 0;
};

/// Computes R_W(u) / E_W(u) by BFS over edges with positive p(e|W).
ReachableSet ComputeReachableSet(const Graph& graph,
                                 const InfluenceGraph& influence,
                                 const TopicPosterior& posterior, VertexId u);

/// Computes the reachable set when every edge with p(e) > 0 is kept —
/// R(u) under the index envelope probabilities.
ReachableSet ComputeMaxReachableSet(const Graph& graph,
                                    const InfluenceGraph& influence,
                                    VertexId u);

}  // namespace pitex

#endif  // PITEX_SRC_MODEL_INFLUENCE_GRAPH_H_
