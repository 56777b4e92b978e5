// Test-only owning sketch and reference assembler.
//
// src/ stores every sketch in pool layout (src/index/rr_sketch_pool.h).
// Tests want a value they can build by hand, keep in a vector and
// compare field by field, so this header keeps an owning copy: its
// fields are plain 32-bit vectors whatever width a view stores them at,
// so offsets and heads compare as vectors. Its records hold ranks in
// their tails' out-lists of its topology, a graph that may be empty for
// a sketch made by hand to test layout alone. Its view is the one a
// pool gives: the graph packs itself into a one-sketch run of its
// topology (or, with none, at 31-bit vertices and 32-bit ranks) each
// time it is viewed. AssembleRRGraph is the reference assembler that
// SketchArena's generation and repair assembly are checked against.
// PackViews is the reference re-encoder that the block copies finishing
// every pool (FromRuns, RrSketchOverlay::Fold) are checked against: it
// puts the sketches in root order itself and gives FromRuns their root
// starts (RootStartsOf).
// NetworkOf and Rerank give hand-made sketches a network that holds
// their edges, so they can be walked and loaded from an index file.

#ifndef PITEX_TESTS_OWNED_SKETCH_H_
#define PITEX_TESTS_OWNED_SKETCH_H_

#include <algorithm>
#include <bit>
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
  std::vector<uint32_t> ranks;     // each edge's rank in its tail's out-list
  Graph topology = {};               // what the ranks index; may be empty
  mutable RrSketchPool packed = {};  // View()'s one-sketch run
  SketchThresholds thresholds = {};  // its view's; unset by default

  /// View of this graph packed into `packed` (valid while the graph is
  /// alive and neither modified nor viewed again). Implicit so every
  /// RRView consumer accepts an RRGraph.
  RRView View() const {
    if (!packed.topology().SharesStorage(topology)) {
      packed = topology.num_vertices() == 0 ? RrSketchPool()
                                            : RrSketchPool(topology);
    }
    const auto root_local = static_cast<uint32_t>(
        std::lower_bound(vertices.begin(), vertices.end(), root) -
        vertices.begin());
    const size_t n = vertices.size();
    const bool in_tree = IsInTree(n, root_local,
                                  [this](size_t j) { return offsets[j]; });
    packed.Clear();
    packed.AppendSketch(root_local, vertices, ranks.size(), in_tree,
                        [&](BlockWriter& out) {
                          if (!in_tree) {
                            for (const uint32_t offset : offsets) {
                              out.PutOffset(offset);
                            }
                          }
                          for (const uint32_t head : heads) out.PutHead(head);
                          for (const uint32_t rank : ranks) out.PutRank(rank);
                        });
    RRView view = packed.View(0, root);
    view.thresholds = thresholds;
    return view;
  }
  operator RRView() const { return View(); }  // NOLINT(runtime/explicit)

  /// Copies `view` into this graph (decoded to the general form's
  /// arrays, src/index/rr_graph.h's Decode), reusing its vectors'
  /// capacity.
  void Assign(const RRView& view) {
    topology = *view.topology;
    thresholds = view.thresholds;
    DecodedSketch decoded;
    Decode(view, &decoded);
    root = decoded.root;
    ranks = std::move(decoded.ranks);
    if (view.IsTree()) {
      // A parent tree's edges, ranked in their tails' out-lists.
      ranks.resize(decoded.heads.size());
      for (uint32_t tail = 0; tail + 1 < decoded.offsets.size(); ++tail) {
        for (uint32_t k = decoded.offsets[tail];
             k < decoded.offsets[tail + 1]; ++k) {
          ranks[k] = topology.OutRank(decoded.vertices[tail],
                                      decoded.edges[k]);
        }
      }
    }
    vertices = std::move(decoded.vertices);
    offsets = std::move(decoded.offsets);
    heads = std::move(decoded.heads);
  }

  /// The global id of record k, whose tail is local vertex `tail`.
  EdgeId Edge(uint32_t tail, uint32_t k) const {
    return topology.OutEdges(vertices[tail])[ranks[k]].edge;
  }

  /// Local index of global vertex v, or nullopt if absent.
  std::optional<uint32_t> LocalIndex(VertexId v) const {
    const auto at = std::lower_bound(vertices.begin(), vertices.end(), v);
    if (at == vertices.end() || *at != v) return std::nullopt;
    return static_cast<uint32_t>(at - vertices.begin());
  }

  /// Calls fn(tail, head, k) with the global tail and head of each
  /// record k, in CSR order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (size_t j = 0; j + 1 < offsets.size(); ++j) {
      for (uint32_t k = offsets[j]; k < offsets[j + 1]; ++k) {
        fn(vertices[j], vertices[heads[k]], k);
      }
    }
  }
};

inline RRGraph Owned(const RRView& view) {
  RRGraph graph;
  graph.Assign(view);
  return graph;
}

/// Every sketch of `pool`, a run or a finished pool, viewed as
/// View(i, u) views it: a singleton's u is its root (RootOf); a block's
/// view reads its vertices from its block, and its u is 0.
class PoolViews {
 public:
  explicit PoolViews(const RrSketchPool& pool) : pool_(&pool) {
    member_.reserve(pool.num_sketches());
    for (size_t i = 0; i < pool.num_sketches(); ++i) {
      member_.push_back(pool.IsSingleton(i) ? pool.RootOf(i) : 0);
    }
  }
  RRView operator()(size_t i) const { return pool_->View(i, member_[i]); }

 private:
  const RrSketchPool* pool_;
  std::vector<VertexId> member_;
};

/// Every sketch of `index`, an RrIndex or a DynamicRrIndex over
/// `num_vertices` vertices, viewed as graph(i, u) views it: u is the
/// vertex whose root range holds sketch i, its root.
template <typename Index>
class IndexViews {
 public:
  IndexViews(const Index& index, size_t num_vertices)
      : index_(&index), member_(index.num_graphs(), 0) {
    for (VertexId v = 0; v < num_vertices; ++v) {
      for (const uint32_t id : index.RootRange(v)) member_[id] = v;
    }
  }
  RRView operator()(size_t i) const { return index_->graph(i, member_[i]); }

 private:
  const Index* index_;
  std::vector<VertexId> member_;
};

/// Ids of every sketch of `index` (a finished RrSketchPool, an RrIndex or
/// a DynamicRrIndex) that contains v, ascending: v's root range merged
/// with its containing list, which holds the rest.
template <typename Index>
std::vector<uint32_t> ContainingIds(const Index& index, VertexId v) {
  const auto rooted = index.RootRange(v);
  std::vector<uint32_t> ids(rooted.begin(), rooted.end());
  const size_t roots = ids.size();
  for (const uint32_t id : index.NonRootContaining(v)) ids.push_back(id);
  std::inplace_merge(ids.begin(),
                     ids.begin() + static_cast<std::ptrdiff_t>(roots),
                     ids.end());
  return ids;
}

/// The ids of `list`, ascending, each with the root its iterator names.
inline std::vector<RootedId> RootedIds(const ContainingList& list) {
  std::vector<RootedId> ids;
  AppendRooted(list, &ids);
  return ids;
}

/// `graphs` in root order, as a finished pool numbers its sketches: by
/// root, and among sketches with the same root in their given order. A
/// hand-made sketch set a test compares with a pool by index is given
/// this way.
inline std::vector<RRGraph> InRootOrder(std::vector<RRGraph> graphs) {
  std::ranges::stable_sort(graphs, {}, &RRGraph::root);
  return graphs;
}

/// `hash` folded, as 64-bit FNV-1a, over the `bytes` bytes at `data`.
inline uint64_t Fnv1aBytes(uint64_t hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Field-wise content hash of every sketch of `index`, an RrIndex:
/// vertices and local ids enter as 32-bit values whatever width the
/// pool stores them at, and each record as its global edge id
/// (RRView::Edge) and its threshold as the index computes it
/// (SketchThresholds), so the hash is independent of the layout (and
/// struct padding never enters).
template <typename Index>
uint64_t IndexContentHash(const Index& index) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const IndexViews views(index, index.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    const RRView rr = views(i);
    const VertexId root = rr.root();
    hash = Fnv1aBytes(hash, &root, sizeof(root));
    const RRGraph owned = Owned(rr);
    hash = Fnv1aBytes(hash, owned.vertices.data(),
                      owned.vertices.size() * sizeof(VertexId));
    hash = Fnv1aBytes(hash, owned.offsets.data(),
                      owned.offsets.size() * sizeof(uint32_t));
    for (uint32_t tail = 0; tail < owned.vertices.size(); ++tail) {
      for (uint32_t j = owned.offsets[tail]; j < owned.offsets[tail + 1];
           ++j) {
        const EdgeId edge = owned.Edge(tail, j);
        const double threshold = rr.thresholds(edge);
        hash = Fnv1aBytes(hash, &owned.heads[j], sizeof(uint32_t));
        hash = Fnv1aBytes(hash, &edge, sizeof(edge));
        hash = Fnv1aBytes(hash, &threshold, sizeof(threshold));
      }
    }
  }
  return hash;
}

/// Hash of every sketch's shape in `index` (an RrIndex or a
/// DynamicRrIndex over `num_vertices` vertices), leaving thresholds out:
/// each sketch's root, vertices, CSR offsets, heads and ranks, in id
/// order, then each vertex's root range and containing list. Equal
/// hashes mean the same sketches, lists and root starts under any
/// threshold scheme.
template <typename Index>
uint64_t ShapeHash(const Index& index, size_t num_vertices) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const IndexViews views(index, num_vertices);
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    const RRView rr = views(i);
    const VertexId root = rr.root();
    hash = Fnv1aBytes(hash, &root, sizeof(root));
    const RRGraph owned = Owned(rr);
    hash = Fnv1aBytes(hash, owned.vertices.data(),
                      owned.vertices.size() * sizeof(VertexId));
    hash = Fnv1aBytes(hash, owned.offsets.data(),
                      owned.offsets.size() * sizeof(uint32_t));
    hash = Fnv1aBytes(hash, owned.heads.data(),
                      owned.heads.size() * sizeof(uint32_t));
    for (const uint32_t rank : owned.ranks) {
      hash = Fnv1aBytes(hash, &rank, sizeof(rank));
    }
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    const auto rooted = index.RootRange(v);
    const uint32_t range[2] = {*rooted.begin(), *rooted.end()};
    hash = Fnv1aBytes(hash, range, sizeof(range));
    for (const uint32_t id : index.NonRootContaining(v)) {
      hash = Fnv1aBytes(hash, &id, sizeof(id));
    }
  }
  return hash;
}

/// The root starts of sketches whose roots, in id order, are `roots`
/// (ascending) over `num_vertices` vertices: each vertex's first id,
/// then the sketch count, as FromRuns takes them.
inline std::vector<uint32_t> RootStartsOf(size_t num_vertices,
                                          std::span<const VertexId> roots) {
  std::vector<uint32_t> starts(num_vertices + 1, 0);
  for (const VertexId root : roots) ++starts[root + 1];
  for (size_t v = 0; v < num_vertices; ++v) starts[v + 1] += starts[v];
  return starts;
}

/// The root starts of `run`'s sketches, its recorded roots ascending,
/// over its network's vertices.
inline std::vector<uint32_t> RootStartsOf(const RrSketchPool& run) {
  std::vector<VertexId> roots(run.num_sketches());
  for (size_t i = 0; i < roots.size(); ++i) roots[i] = run.RootOf(i);
  return RootStartsOf(run.num_network_vertices(), roots);
}

/// Sketches view_of(0), ..., view_of(num_sketches - 1) of `network`'s
/// network (a pool of it: its widths and topology), in root order (by
/// root, and among one root's in their given order), re-encoded field
/// by field from their views into a run (Append), which FromRuns then
/// finishes into exact-size arrays. Every sketch vertex and rank must
/// lie inside the network.
template <typename ViewOf>
RrSketchPool PackViews(size_t num_sketches, const RrSketchPool& network,
                       ViewOf&& view_of) {
  std::vector<std::pair<VertexId, size_t>> order;
  for (size_t i = 0; i < num_sketches; ++i) {
    order.emplace_back(view_of(i).root(), i);
  }
  std::ranges::stable_sort(order, {}, &std::pair<VertexId, size_t>::first);
  RrSketchPool run = network.EmptyLike();
  for (const auto& [root, i] : order) run.Append(view_of(i));
  const RrSketchPool::Segment all{0, &run, 0,
                                  static_cast<uint32_t>(num_sketches)};
  return RrSketchPool::FromRuns(std::span(&all, 1), RootStartsOf(run),
                                network);
}

/// Samples one RR-Graph rooted at `root` (Definition 2) through the
/// table-free SketchArena::Generate, into a one-sketch run, and returns
/// an owning copy. Draws are bit-identical to the table-backed build.
inline RRGraph GenerateRRGraph(const Graph& graph,
                               const InfluenceGraph& influence,
                               VertexId root, Rng* rng) {
  SketchArena arena;
  RrSketchPool run(graph);
  arena.Generate(graph, influence, root, rng, &run);
  return Owned(run.View(0, root));
}

/// Reference assembly: sorts and dedups `vertices`, drops edges with an
/// endpoint outside them, and counting-sorts the rest by local tail
/// (stable, so per-tail edge order is input order). Each record's rank
/// is its edge's place in its tail's out-list of `topology`, which
/// becomes the sketch's; with an empty topology, a sketch made by hand
/// for layout checks, each sample's id is stored as its rank.
inline RRGraph AssembleRRGraph(const Graph& topology, VertexId root,
                               std::vector<VertexId> vertices,
                               std::span<const GlobalEdgeSample> edges) {
  RRGraph rr;
  rr.topology = topology;
  rr.root = root;
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  rr.vertices = std::move(vertices);
  const size_t n = rr.vertices.size();

  struct Staged {
    uint32_t tail, head, rank;
  };
  std::vector<Staged> staged;
  staged.reserve(edges.size());
  for (const auto& e : edges) {
    const auto tail = rr.LocalIndex(e.tail);
    const auto head = rr.LocalIndex(e.head);
    if (!tail || !head) continue;
    staged.push_back({*tail, *head,
                      topology.num_vertices() == 0
                          ? e.edge
                          : topology.OutRank(e.tail, e.edge)});
  }
  rr.offsets.assign(n + 1, 0);
  for (const Staged& s : staged) ++rr.offsets[s.tail + 1];
  for (size_t i = 0; i < n; ++i) rr.offsets[i + 1] += rr.offsets[i];
  rr.heads.resize(staged.size());
  rr.ranks.resize(staged.size());
  std::vector<uint32_t> pos(rr.offsets.begin(), rr.offsets.end() - 1);
  for (const Staged& s : staged) {
    const uint32_t k = pos[s.tail]++;
    rr.heads[k] = s.head;
    rr.ranks[k] = s.rank;
  }
  return rr;
}

/// A network of `num_vertices` users whose edges are the distinct
/// (tail, head) pairs of `graphs`' records, ascending, then self-loops
/// on vertex 0 until it has `min_out_degree` out-edges, each certain
/// under the one topic, so hand-made sketches over it can be walked and
/// saved and loaded as an index of it.
inline SocialNetwork NetworkOf(size_t num_vertices,
                               const std::vector<RRGraph>& graphs,
                               size_t min_out_degree = 0) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (const RRGraph& g : graphs) {
    g.ForEachEdge([&pairs](VertexId tail, VertexId head, uint32_t) {
      pairs.emplace_back(tail, head);
    });
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  const auto from_zero = static_cast<size_t>(std::ranges::count_if(
      pairs, [](const auto& pair) { return pair.first == 0; }));
  for (size_t d = from_zero; d < min_out_degree; ++d) pairs.emplace_back(0, 0);
  SocialNetwork network;
  GraphBuilder builder(num_vertices);
  for (const auto& [tail, head] : pairs) builder.AddEdge(tail, head);
  network.graph = builder.Build();
  network.topics = TopicModel(1, 1);
  network.topics.SetTagTopic(0, 0, 1.0);
  InfluenceGraphBuilder influence(network.graph.num_edges());
  const EdgeTopicEntry certain{0, 1.0};
  for (EdgeId e = 0; e < network.graph.num_edges(); ++e) {
    influence.SetEdgeTopics(e, std::span(&certain, 1));
  }
  network.influence = influence.Build();
  network.tags.Intern("w");
  return network;
}

/// Makes `graph` the topology of each of `graphs`, each record's rank
/// the place of the first out-edge of its tail to its head there.
inline void Rerank(const Graph& graph, std::vector<RRGraph>* graphs) {
  for (RRGraph& g : *graphs) {
    g.topology = graph;
    g.ForEachEdge([&](VertexId tail, VertexId head, uint32_t k) {
      const auto out = graph.OutEdges(tail);
      const auto at = std::find_if(out.begin(), out.end(),
                                   [head](const AdjEntry& a) {
                                     return a.vertex == head;
                                   });
      g.ranks[k] = static_cast<uint32_t>(at - out.begin());
    });
  }
}

}  // namespace pitex

#endif  // PITEX_TESTS_OWNED_SKETCH_H_
