// Allocation-free RR-Graph generation (the build-side counterpart of the
// pooled read-side store in src/index/rr_sketch_pool.h).
//
// A SketchArena is traversal and assembly scratch only: Generate runs
// the reverse walk of Definition 2 over epoch-stamped marks (no O(|V|)
// clearing between sketches), numbering each vertex as it first meets
// it. An in-tree (nearly every sketch) is written as it was walked, as
// a parent tree (RrSketchPool::AppendTree): each vertex's parent and its
// edge's rank in the parent's in-list, with no sort. Any other sketch
// sorts its vertices in a reused buffer and counting-sorts its staged
// live edges into CSR order in another (AppendSketch). Either way the
// block goes into a *run* — an RrSketchPool written in pool layout — so
// the sketch is copied once more only when RrSketchPool::FromRuns
// finishes the runs into the served pool. A root with no live in-edge is
// an implicit singleton and skips assembly.
// Once its buffers and the run have grown to their high-water marks,
// generation performs zero heap allocations.
//
// In-edge probing uses SampleLiveInEdges below: one uniform draw per
// probed edge, the Bernoulli coin, and geometric skips across
// low-probability in-edge runs (vertex max envelope <
// kGeometricSkipMax): the skip selects each edge as a candidate with
// probability q = vmax, and the candidate's uniform thins it to its own
// envelope p <= q, so each edge is live with exactly the probability p
// of Definition 2 while the RNG consumes ~q*d + |live| draws instead of
// d. The draw decides the sketch's shape and nothing else: a live
// edge's threshold is not drawn here but computed where the record is
// probed (SketchThresholds in src/index/rr_graph.h), from a uniform no
// shape decision reads.
// The draw *sequence* differs from the pre-arena generator, which is
// pinned by tests/index_build_equivalence_test.cc (fixed-seed golden +
// chi-squared spread-distribution agreement with a verbatim reference).

#ifndef PITEX_SRC_INDEX_SKETCH_ARENA_H_
#define PITEX_SRC_INDEX_SKETCH_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/index/rr_sketch_pool.h"
#include "src/model/influence_graph.h"
#include "src/util/random.h"
#include "src/util/thread_annotations.h"

namespace pitex {

/// Per-vertex envelope maxima below this use geometric-skip probing; at
/// or above it, a plain per-edge loop is cheaper (a skip draw costs a
/// log; it pays off once it jumps ~16 edges on average).
inline constexpr float kGeometricSkipMax = 1.0f / 16.0f;

/// Probes one vertex's in-edge run under float envelope probabilities
/// `env` (aligned with the InEdges span it was built from; `vmax` must
/// be max(env)). Invokes sink(j) for every live in-edge index j, each
/// live with probability env[j]. The per-edge law is identical across
/// both regimes (see file comment); only the RNG draw sequence depends
/// on the regime.
template <typename Sink>
PITEX_NOALLOC inline void SampleLiveInEdges(std::span<const float> env,
                                            float vmax, Rng* rng,
                                            Sink&& sink) {
  const size_t d = env.size();
  if (d == 0 || vmax <= 0.0f) return;
  if (vmax < kGeometricSkipMax) {
    const auto q = static_cast<double>(vmax);
    size_t j = 0;
    while (j < d) {
      const uint64_t skip = rng->NextGeometric(q);  // 1-based candidate
      if (skip > d - j) break;  // next candidate lies beyond the run
      j += static_cast<size_t>(skip) - 1;
      // Thinning: candidate (selected w.p. q) survives w.p. env[j]/q,
      // so it is live w.p. env[j].
      if (rng->NextDouble() * q < static_cast<double>(env[j])) sink(j);
      ++j;
    }
  } else {
    for (size_t j = 0; j < d; ++j) {
      const auto p = static_cast<double>(env[j]);
      if (p <= 0.0) continue;  // dead for every W, no draw
      if (rng->NextDouble() < p) sink(j);
    }
  }
}

/// Table-free envelope slice of v's in-edges: EnvelopeProbability(
/// influence.MaxProb(e)) for each e of graph.InEdges(v), written into
/// *scratch (grown as needed) and returned with its maximum. These are
/// exactly the floats and maximum an EnvelopeTable over (graph,
/// influence) holds for v, read from the model as it is now -- the
/// slice SketchArena's table-free Generate and DynamicRrIndex's repair
/// expansions probe.
PITEX_NOALLOC inline std::pair<std::span<const float>, float> InEnvelopeSlice(
    const Graph& graph, const InfluenceGraph& influence, VertexId v,
    std::vector<float>* scratch) {
  const auto in = graph.InEdges(v);
  if (scratch->size() < in.size()) scratch->resize(in.size());
  float* const env = scratch->data();
  float vmax = 0.0f;
  for (size_t j = 0; j < in.size(); ++j) {
    const float p = EnvelopeProbability(influence.MaxProb(in[j].edge));
    env[j] = p;
    vmax = std::max(vmax, p);
  }
  return {std::span<const float>(env, in.size()), vmax};
}

/// Reusable traversal and assembly scratch for sketch generation,
/// repair and recovery. Not thread-safe: parallel builds use one arena
/// per ParallelForSlots slot. Capacity is retained, so repeated calls
/// stop allocating once warmed up.
class SketchArena {
 public:
  SketchArena() = default;

  /// Samples one RR-Graph rooted at `root` (Definition 2) and appends it
  /// to `run`, reading envelopes from the dense table. A sketch that is
  /// not an in-tree finds each live edge's rank in its tail's out-list
  /// by binary search of that list (Graph::OutRank).
  PITEX_NOALLOC void Generate(const Graph& graph,
                              const EnvelopeTable& envelope, VertexId root,
                              Rng* rng, RrSketchPool* run);
  /// Table-free overload for one-off callers (the query planner's
  /// probes, tests): envelope floats are materialized per visited vertex
  /// by InEnvelopeSlice into arena scratch, producing bit-identical
  /// draws and blocks to the table path at ~2x the in-edge memory
  /// traffic.
  PITEX_NOALLOC void Generate(const Graph& graph,
                              const InfluenceGraph& influence, VertexId root,
                              Rng* rng, RrSketchPool* run);

  /// Re-closes a sketch from its root and live edges (tail -> head):
  /// keeps exactly the vertices reaching `root` through `edges`, drops
  /// edges with a dropped endpoint, and appends the result to `run`
  /// (RrSketchPool::AppendSketch, which puts an in-tree in the tree's
  /// order) with per-tail edges in input order,
  /// each edge's rank found by binary search of its tail's out-list in
  /// the run's topology, which every edge must belong to. A root no edge
  /// reaches is an implicit singleton. It serves both DynamicRrIndex
  /// repair (a sketch whose live edges an update changed) and DelayMat
  /// recovery (Algorithm 4's step 2: the vertices of a forward live
  /// sample that reach the chosen root).
  PITEX_NOALLOC void RebuildRepairedSketch(
      VertexId root, std::span<const GlobalEdgeSample> edges,
      RrSketchPool* run);

 private:
  /// Starts a new traversal over `num_vertices` global ids; returns the
  /// epoch stamp marking "touched in this traversal".
  uint32_t BeginTraversal(size_t num_vertices);

  /// A staged live edge of Generate: its global endpoints and its rank
  /// in the head's in-list.
  struct StagedEdge {
    VertexId tail;
    VertexId head;
    uint32_t in_rank;
  };
  /// One edge in CSR order: its local head and its rank.
  struct SortedEdge {
    uint32_t head;
    uint32_t rank;
  };

  /// env_of(v) is v's in-edges' envelope slice and its maximum.
  template <typename EnvOf>
  PITEX_NOALLOC void GenerateImpl(const Graph& graph, const EnvOf& env_of,
                                  VertexId root, Rng* rng, RrSketchPool* run);

  /// Puts the `edges` (each with global tail and head) for which
  /// kept(edge) holds into `out` as a block's heads, then its ranks,
  /// rank_of(edge), in CSR order: counting-sorted
  /// by local tail through counts_, which must hold each tail's first
  /// place (and then holds the next tail's), stably, so per-tail order
  /// is input order.
  template <typename Edge, typename Kept, typename RankOf>
  PITEX_NOALLOC void PutSortedEdges(std::span<const Edge> edges,
                                    const Kept& kept, const RankOf& rank_of,
                                    BlockWriter* out);

  // The vertices of the sketch Generate or RebuildRepairedSketch
  // assembles: in the order met, then, unless Generate met an in-tree,
  // sorted ascending before its block is written.
  std::vector<VertexId> vertices_;

  // Traversal / assembly scratch (epoch-stamped over global vertex ids:
  // no O(|V|) clearing between sketches).
  std::vector<uint32_t> mark_;
  std::vector<uint32_t> local_index_;  // valid where mark_ == epoch_
  uint32_t epoch_ = 0;
  std::vector<VertexId> stack_;
  std::vector<StagedEdge> staged_;  // one sketch's live edges
  std::vector<uint32_t> counts_;      // counting-sort cursors
  std::vector<SortedEdge> sorted_;    // the edges in CSR order
  std::vector<float> env_scratch_;    // table-free envelope slice
  // RebuildRepairedSketch scratch (local-id space of one sketch).
  std::vector<VertexId> cand_;
  std::vector<uint32_t> adj_;
  std::vector<uint8_t> reach_;
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_SKETCH_ARENA_H_
