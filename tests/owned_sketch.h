// Test-only owning sketch and reference assembler.
//
// src/ stores every sketch in pool layout (src/index/rr_sketch_pool.h).
// Tests want a value they can build by hand, keep in a vector and
// compare field by field, so this header keeps an owning copy: its
// fields are plain 32-bit vectors whatever width a view stores them at,
// so offsets and heads compare as vectors. Its view is the one a pool
// gives: the graph packs itself into a one-sketch run at 31-bit
// vertices and 32-bit edge ids each time it is viewed. AssembleRRGraph is the
// reference assembler that SketchArena's generation and repair assembly
// are checked against. PackViews is the reference re-encoder that the
// block copies finishing every pool (FromRuns, RrSketchOverlay::Fold)
// are checked against.

#ifndef PITEX_TESTS_OWNED_SKETCH_H_
#define PITEX_TESTS_OWNED_SKETCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/index/rr_graph.h"
#include "src/index/rr_sketch_pool.h"
#include "src/index/sketch_arena.h"
#include "src/model/influence_graph.h"
#include "src/util/random.h"

namespace pitex {

/// One storage-owning sketch with 32-bit fields.
struct RRGraph {
  VertexId root = 0;
  std::vector<VertexId> vertices;  // sorted ascending
  std::vector<uint32_t> offsets;   // CSR over local tails
  std::vector<uint32_t> heads;     // local head of each edge
  std::vector<RRLocalEdge> edges;
  mutable RrSketchPool packed = {};  // View()'s one-sketch run

  /// View of this graph packed into `packed` (valid while the graph is
  /// alive and neither modified nor viewed again). Implicit so every
  /// RRView consumer accepts an RRGraph.
  RRView View() const {
    const auto root_local = static_cast<uint32_t>(
        std::lower_bound(vertices.begin(), vertices.end(), root) -
        vertices.begin());
    const size_t n = vertices.size();
    const bool in_tree = IsInTree(n, root_local,
                                  [this](size_t j) { return offsets[j]; });
    packed.Clear();
    packed.AppendSketch(root_local, vertices, edges.size(), in_tree,
                        [&](BlockWriter& out) {
                          if (!in_tree) {
                            for (const uint32_t offset : offsets) {
                              out.PutOffset(offset);
                            }
                          }
                          for (const uint32_t head : heads) out.PutHead(head);
                          for (const RRLocalEdge edge : edges) {
                            out.PutEdge(edge);
                          }
                        });
    return packed.View(0);
  }
  operator RRView() const { return View(); }  // NOLINT(runtime/explicit)

  /// Copies `view` into this graph, reusing its vectors' capacity.
  void Assign(const RRView& view) {
    root = view.root();
    vertices.assign(view.vertices.begin(), view.vertices.end());
    const size_t n = view.vertices.size();
    const size_t m = view.edges.size();
    offsets.resize(n + 1);
    heads.resize(m);
    view.VisitCsr([&](const auto& csr) {
      for (size_t j = 0; j <= n; ++j) offsets[j] = csr.offset(j);
      for (size_t k = 0; k < m; ++k) heads[k] = csr.head(k);
    });
    edges.assign(view.edges.begin(), view.edges.end());
  }

  /// Local index of global vertex v, or nullopt if absent.
  std::optional<uint32_t> LocalIndex(VertexId v) const {
    const auto at = std::lower_bound(vertices.begin(), vertices.end(), v);
    if (at == vertices.end() || *at != v) return std::nullopt;
    return static_cast<uint32_t>(at - vertices.begin());
  }
};

inline RRGraph Owned(const RRView& view) {
  RRGraph graph;
  graph.Assign(view);
  return graph;
}

/// Sketches view_of(0), ..., view_of(num_sketches - 1) of a network with
/// `num_vertices` vertices and `num_edges` edges, re-encoded field by
/// field from their views into a run (Append), which FromRuns then
/// finishes into exact-size arrays. Every sketch vertex and edge must
/// lie inside the network.
template <typename ViewOf>
RrSketchPool PackViews(size_t num_sketches, size_t num_vertices,
                       size_t num_edges, ViewOf&& view_of) {
  RrSketchPool run(num_vertices, num_edges);
  for (size_t i = 0; i < num_sketches; ++i) run.Append(view_of(i));
  const RrSketchPool::Segment all{0, &run, 0,
                                  static_cast<uint32_t>(num_sketches)};
  return RrSketchPool::FromRuns(std::span(&all, 1), num_sketches,
                                num_vertices, num_edges);
}

/// Samples one RR-Graph rooted at `root` (Definition 2) through the
/// table-free SketchArena::Generate, into a one-sketch run, and returns
/// an owning copy. Draws are bit-identical to the table-backed build.
inline RRGraph GenerateRRGraph(const Graph& graph,
                               const InfluenceGraph& influence,
                               VertexId root, Rng* rng) {
  SketchArena arena;
  RrSketchPool run;
  arena.Generate(graph, influence, root, rng, &run);
  return Owned(run.View(0));
}

/// Reference assembly: sorts and dedups `vertices`, drops edges with an
/// endpoint outside them, and counting-sorts the rest by local tail
/// (stable, so per-tail edge order is input order).
inline RRGraph AssembleRRGraph(VertexId root, std::vector<VertexId> vertices,
                               std::span<const GlobalEdgeSample> edges) {
  RRGraph rr;
  rr.root = root;
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  rr.vertices = std::move(vertices);
  const size_t n = rr.vertices.size();

  struct Staged {
    uint32_t tail, head;
    RRLocalEdge edge;
  };
  std::vector<Staged> staged;
  staged.reserve(edges.size());
  for (const auto& e : edges) {
    const auto tail = rr.LocalIndex(e.tail);
    const auto head = rr.LocalIndex(e.head);
    if (!tail || !head) continue;
    staged.push_back({*tail, *head, RRLocalEdge{e.edge, e.threshold}});
  }
  rr.offsets.assign(n + 1, 0);
  for (const Staged& s : staged) ++rr.offsets[s.tail + 1];
  for (size_t i = 0; i < n; ++i) rr.offsets[i + 1] += rr.offsets[i];
  rr.heads.resize(staged.size());
  rr.edges.resize(staged.size());
  std::vector<uint32_t> pos(rr.offsets.begin(), rr.offsets.end() - 1);
  for (const Staged& s : staged) {
    const uint32_t k = pos[s.tail]++;
    rr.heads[k] = s.head;
    rr.edges[k] = s.edge;
  }
  return rr;
}

}  // namespace pitex

#endif  // PITEX_TESTS_OWNED_SKETCH_H_
