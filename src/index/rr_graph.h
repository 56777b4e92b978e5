// RR-Graph: the reverse-reachable sample graph of Definition 2, plus the
// tag-aware reachability check of Definition 3.
//
// An RR-Graph for root v is a reverse IC sample drawn under the envelope
// probabilities p(e) = max_z p(e|z). Every kept edge has a threshold
// c(e); conditioned on the edge being live, c(e) is uniform on (0,
// p(e)]. At query time the edge is live for tag set W iff p(e|W) >=
// c(e) — so one offline sample serves every query user and every tag
// set, and the spread is never underestimated (p(e) >= p(e|W)). No
// threshold is stored: c(e) = p(e) * H(key, e), H a counter-based
// uniform keyed by the index's seed and the sketch's id, is computed
// where a record is probed (SketchThresholds), and the draw that made
// the edge live is spent on its shape alone.
//
// Sketches have one representation: the pooled layout of
// src/index/rr_sketch_pool.h, where a sketch's root is the vertex whose
// root range holds its id, a single-vertex sketch has no block, and
// every other sketch is one block of bit-granular fields in one of two
// forms. An in-tree sketch, whose root has no out-edge and every other
// vertex exactly one (to its *parent*), is a *parent tree*: its root is
// local 0, its vertices follow in the order the sampler discovers them
// (every parent before its children), and each vertex but the root
// stores its parent's local id and the rank of its edge in its parent's
// in-list (Graph::InEdges), which names both the vertex and the edge. A
// reader decodes it top-down from the root, which the caller passes
// (TreeScratch, DecodeTree). Any other sketch keeps the general form:
// its vertices but the root, sorted, at the width the network's vertex
// count calls for, its local ids (its root's among them) at the width
// its own vertex count calls for, its CSR offsets, and its edge
// records, each the edge's rank in its tail's out-list (Graph::OutEdges)
// at the width the network's longest out-list calls for: RRView::Edge
// turns it back into the global EdgeId against the pool's topology.
// SketchArena (src/index/sketch_arena.h) assembles every sketch straight
// into a pool run: the offline build, DynamicRrIndex repair, DelayMat
// recovery and the query planner's probes. RRView is the non-owning
// view of one pooled sketch that every reader takes; the cold readers
// decode it to plain arrays (DecodedSketch).
// Reachability on a parent tree decodes the tree until it meets the
// query user, then chases parent pointers; on any other sketch it is a
// DFS. Both keep their scratch in a reusable EstimateScratch, so
// repeated IsReachable calls allocate nothing once the scratch has
// grown to the largest sketch.

#ifndef PITEX_SRC_INDEX_RR_GRAPH_H_
#define PITEX_SRC_INDEX_RR_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "src/sampling/influence_estimator.h"
#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/thread_annotations.h"

namespace pitex {

/// Entries of `bits` bits each (at most 32), packed from bit `first` of
/// `data`: entry j is one shifted 8-byte load and a mask. A pool block's
/// fields take fewer than 2^32 bits, so every entry's bit fits 32 bits.
struct PackedIds {
  const uint8_t* data = nullptr;
  uint32_t first = 0;
  uint32_t bits = 0;

  uint32_t operator[](size_t j) const {
    return static_cast<uint32_t>(
               LoadBits(data, first + bits * static_cast<uint32_t>(j))) &
           static_cast<uint32_t>(LowMask(bits));
  }
};

/// One sketch's local CSR (n + 1 offsets, m edge heads) as stored: what
/// a walk instantiated per form reads.
struct LocalCsr {
  PackedIds offsets;
  PackedIds heads;

  uint32_t offset(size_t j) const { return offsets[j]; }
  uint32_t head(size_t k) const { return heads[k]; }
};

/// Local CSR offset j of an in-tree sketch rooted at local id
/// `root_local`: the root has no out-edge and every other vertex
/// exactly one, so tail j's edge is edge j, less one past the root.
inline uint32_t InTreeOffset(size_t j, uint32_t root_local) {
  return static_cast<uint32_t>(j - (j > root_local));
}

/// True when offsets offset(0), ..., offset(n) of a local CSR over n
/// vertices are an in-tree's (InTreeOffset): the shape a pool block
/// stores without offsets.
template <typename OffsetOf>
bool IsInTree(size_t n, uint32_t root_local, OffsetOf&& offset) {
  for (size_t j = 0; j <= n; ++j) {
    if (offset(j) != InTreeOffset(j, root_local)) return false;
  }
  return true;
}

/// Bits of the counter-based uniform H a threshold is drawn from
/// (ThresholdUniform): a float's precision, so c(e) = env(e) * H, the
/// product of two 24-bit significands, is exact in a double.
inline constexpr uint32_t kThresholdUniformBits = 24;

/// The murmur3 finalizer: a bijective mix of 64 bits, every output bit
/// depending on every input bit. Its constants are not SplitMix64's, so
/// no threshold key or draw repeats a sample stream's state
/// (SampleStream).
inline uint64_t ThresholdMix(uint64_t z) {
  z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
  z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return z ^ (z >> 33);
}

/// The key of sketch `id`'s thresholds in an index sampled with `seed`:
/// a function of the two alone, so a repair, a compaction or a load
/// keeps every threshold key.
inline uint64_t ThresholdKey(uint64_t seed, uint64_t id) {
  return ThresholdMix((seed ^ 0x5851f42d4c957f2dULL) +
                      0x9e3779b97f4a7c15ULL * (id + 1));
}

/// H(key, e): a counter-based uniform (Salmon et al., "Parallel Random
/// Numbers: As Easy as 1, 2, 3", SC'11), the keyed mix of counter e, on
/// the 2^24 points k * 2^-24, k in [1, 2^24]: uniform on (0, 1] to
/// 2^-24, so a threshold is never 0 and an edge with p(e|W) = 0 is
/// never live.
inline double ThresholdUniform(uint64_t key, EdgeId e) {
  const uint64_t bits =
      ThresholdMix(key ^ 0xda942042e4dd58b5ULL * (uint64_t{e} + 1)) >>
      (64 - kThresholdUniformBits);
  return static_cast<double>(bits + 1) * 0x1.0p-24;
}

/// The thresholds of one sketch's records, as a function (Definition 2
/// with nothing stored): a live edge e has c(e) = env(e) * H(key, e),
/// env(e) = EnvelopeProbability(model.MaxProb(e)), the float the
/// sampler drew e live under, read from the model as it is now. No
/// shape decision reads H (the sampler's coins, the repairs' keep, drop
/// and resurrect coins and their expansions draw from their own
/// streams), so given a sketch's shape its thresholds are independent
/// and c(e) is uniform on (0, env(e)] to 2^-24 after any repair
/// history, compaction or load.
struct SketchThresholds {
  const InfluenceGraph* model = nullptr;
  uint64_t key = 0;

  double operator()(EdgeId e) const {
    PITEX_DCHECK(model != nullptr);
    return static_cast<double>(EnvelopeProbability(model->MaxProb(e))) *
           ThresholdUniform(key, e);
  }
  /// Definition 3's test, p >= c(e), for e probed under probability p.
  /// Every c(e) is above 0, so an edge with p = 0 is dead without one.
  bool Live(EdgeId e, double p) const { return p > 0.0 && p >= (*this)(e); }
};

/// A sketch's sorted vertex ids: the id at local index `gap` is `root`
/// and the others, in order, are the entries of a PackedIds (a
/// general-form block stores every vertex but its root, at its pool's
/// vertex width), or, with no gap, every id is an entry. A parent
/// tree's view holds its size and its root, at gap 0, alone. A
/// read-only range with random access by operator[].
class VertexIds {
 public:
  class Iterator;

  VertexIds() = default;
  /// `size` ids, each an entry of `ids`.
  VertexIds(PackedIds ids, size_t size)
      : ids_(ids), size_(static_cast<uint32_t>(size)) {}
  /// `size` ids, `root` at local index `gap` (below `size`) and the
  /// entries of `ids` at the others.
  VertexIds(PackedIds ids, size_t size, uint32_t gap, VertexId root)
      : ids_(ids), size_(static_cast<uint32_t>(size)), gap_(gap), root_(root) {}

  size_t size() const { return size_; }
  VertexId operator[](size_t j) const {
    const auto i = static_cast<uint32_t>(j);
    return i == gap_ ? root_ : ids_[i - (i > gap_)];
  }
  VertexId back() const { return (*this)[size_ - 1]; }
  Iterator begin() const;
  Iterator end() const;
  /// The stored ids.
  const PackedIds& ids() const { return ids_; }

  /// Calls fn(id) for each id in order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t j = 0; j < size_; ++j) fn((*this)[j]);
  }

  /// Position of v, or nullopt if absent: the first stored entry not
  /// below v, found by a scan in a sketch of at most kScanIds entries
  /// (nearly every sketch), whose loads wait on no compare, else by a
  /// binary search; then the gap's id.
  std::optional<uint32_t> LocalIndex(VertexId v) const {
    const bool has_gap = gap_ < size_;
    const uint32_t stored = size_ - (has_gap ? 1 : 0);
    uint32_t lo = 0;
    if (stored <= kScanIds) {
      while (lo < stored && ids_[lo] < v) ++lo;
    } else {
      for (uint32_t len = stored; len > 0;) {
        const uint32_t half = len / 2;
        if (ids_[lo + half] < v) {
          lo += half + 1;
          len -= half + 1;
        } else {
          len = half;
        }
      }
    }
    if (lo < stored && ids_[lo] == v) return lo + (lo >= gap_);
    if (has_gap && v == root_) return gap_;
    return std::nullopt;
  }

 private:
  static constexpr uint32_t kScanIds = 16;

  PackedIds ids_;
  uint32_t size_ = 0;
  uint32_t gap_ = UINT32_MAX;  // none
  VertexId root_ = 0;
};

class VertexIds::Iterator {
 public:
  using iterator_concept = std::forward_iterator_tag;
  using iterator_category = std::input_iterator_tag;
  using value_type = VertexId;
  using difference_type = std::ptrdiff_t;
  using reference = VertexId;
  using pointer = void;

  Iterator() = default;
  VertexId operator*() const { return ids_[at_]; }
  Iterator& operator++() {
    ++at_;
    return *this;
  }
  Iterator operator++(int) {
    Iterator old = *this;
    ++at_;
    return old;
  }
  bool operator==(const Iterator& other) const { return at_ == other.at_; }

 private:
  friend class VertexIds;
  Iterator(const VertexIds& ids, size_t at) : ids_(ids), at_(at) {}

  // A copy, so an iterator outlives its range.
  VertexIds ids_;
  size_t at_ = 0;
};

inline VertexIds::Iterator VertexIds::begin() const { return {*this, 0}; }
inline VertexIds::Iterator VertexIds::end() const { return {*this, size_}; }

/// Non-owning view of one reverse-reachable sample graph, in either of
/// its block's forms (see src/index/rr_sketch_pool.h). Its root is the
/// vertex at local id root_local, which the view always knows: the
/// reader passes it (from a root range or a containing list's entry).
///
/// A *parent tree* (IsTree(); every in-tree sketch a pool with a
/// topology holds, and every singleton) has its root at local 0 and
/// `tree` pointing at its fields: for each vertex j = 1 .. n - 1 in
/// order, its parent's local id (below j) at bit_width(n - 2) bits, then
/// the rank of its edge in its parent's in-list at bit_width(d - 1)
/// bits, d the parent's in-degree. Its `vertices` hold the size and the
/// root alone: the other vertices and the edges are decoded top-down
/// (DecodeTree), and its offsets, heads and ranks are unset.
///
/// Any other view is the *general form*: vertices sorted, a local CSR
/// out-adjacency, so tag-aware reachability is a forward DFS from the
/// query user towards the root, and each record the rank of its edge in
/// its tail's out-list. Every field is read at the width its block
/// stores it at: the heads at bit_width(n - 1) bits, the offsets at
/// bit_width(m), the vertices and ranks at their pool's widths. A
/// record's threshold is a function of the edge (SketchThresholds),
/// which a view of an index carries (RrIndex::graph and the like) and a
/// pool's view leaves unset.
/// `topology` is the graph of the pool the view reads, whose lists the
/// ranks index; a pool that holds no topology gives an empty graph,
/// holds no parent tree, and its views' ranks are read but not decoded.
struct RRView {
  uint32_t root_local = 0;  // local index of the root
  VertexIds vertices;       // general form: sorted ascending
  PackedIds offsets;        // general form: CSR over local tails, n + 1
  PackedIds heads;          // general form: local head of each edge, m
  PackedIds ranks;          // general form: each edge's out-list rank, m
  const Graph* topology = nullptr;
  SketchThresholds thresholds;  // unset in a pool's own views
  const uint8_t* tree = nullptr;  // a parent tree's fields, from bit 0

  /// True for a parent tree, false for the general form.
  bool IsTree() const { return tree != nullptr; }

  /// The global id of the edge at `rank` in the out-list of local
  /// vertex `tail` of a general-form view, the id of a record in tail's
  /// CSR range: OutEdges(vertices[tail])[rank].edge.
  EdgeId Edge(uint32_t tail, uint32_t rank) const {
    PITEX_DCHECK(!IsTree());
    return topology->OutEdges(vertices[tail])[rank].edge;
  }

  /// Calls fn(csr), csr the LocalCsr of a general-form view, and returns
  /// its result. Every reader of the offsets and heads goes through
  /// here.
  template <typename Fn>
  decltype(auto) VisitCsr(Fn&& fn) const {
    PITEX_DCHECK(!IsTree());
    return fn(LocalCsr{offsets, heads});
  }

  /// m: a parent tree's n - 1, else the last offset.
  size_t num_edges() const {
    return IsTree() ? vertices.size() - 1 : offsets[vertices.size()];
  }

  /// True when the sketch is an in-tree (IsInTree): every parent tree,
  /// and a general-form view whose offsets are an in-tree's.
  bool InTree() const {
    return IsTree() || IsInTree(vertices.size(), root_local,
                                [this](size_t j) { return offsets[j]; });
  }

  /// The root's global vertex id.
  VertexId root() const { return vertices[root_local]; }

  /// Local index of global vertex v, or nullopt if absent: in a
  /// general-form view a search of the sorted ids; in a parent tree a
  /// decode into per-thread scratch (for the cold paths and tests).
  std::optional<uint32_t> LocalIndex(VertexId v) const {
    if (IsTree()) return TreeLocalIndex(v);
    return vertices.LocalIndex(v);
  }

 private:
  std::optional<uint32_t> TreeLocalIndex(VertexId v) const;
};

/// A vertex id no sketch holds (vertex ids stay below 2^31): the stop
/// that makes DecodeTree decode every vertex.
inline constexpr VertexId kNoVertex = UINT32_MAX;

class TreeScratch;
inline uint32_t DecodeTree(const RRView& rr, VertexId stop,
                           TreeScratch* out);

/// A parent tree decoded top-down (DecodeTree): for each local id j in
/// the tree's order, its vertex, its parent's local id, the global id
/// of its edge to that parent and the edge's rank in the parent's
/// in-list (entry 0 is the root's, which has no parent and no edge).
/// Grows to the largest tree it has decoded, then stays allocation-free.
class TreeScratch {
 public:
  /// Pre-sizes the arrays for trees of up to `max_vertices` vertices.
  void Reserve(size_t max_vertices) {
    if (vertices_.size() < max_vertices) {
      vertices_.resize(max_vertices);
      parents_.resize(max_vertices);
      edges_.resize(max_vertices);
      ranks_.resize(max_vertices);
    }
  }
  VertexId vertex(uint32_t j) const { return vertices_[j]; }
  const VertexId* vertex_data() const { return vertices_.data(); }
  uint32_t parent(uint32_t j) const { return parents_[j]; }
  EdgeId edge(uint32_t j) const { return edges_[j]; }
  uint32_t rank(uint32_t j) const { return ranks_[j]; }

 private:
  friend uint32_t DecodeTree(const RRView&, VertexId, TreeScratch*);

  std::vector<VertexId> vertices_;
  std::vector<uint32_t> parents_;
  std::vector<EdgeId> edges_;
  std::vector<uint32_t> ranks_;
};

/// Decodes parent tree `rr` top-down into `out`, vertex by vertex, and
/// stops at the first vertex equal to `stop`: returns its local id, or n
/// once every vertex is decoded and none is `stop`. Local ids below the
/// one returned are decoded. Each vertex's parent is decoded before it,
/// so its in-list (and the width of its rank field) is known; the
/// fields were checked when the block was written or loaded.
PITEX_NOALLOC inline uint32_t DecodeTree(const RRView& rr, VertexId stop,
                                         TreeScratch* out) {
  PITEX_DCHECK(rr.IsTree());
  const auto n = static_cast<uint32_t>(rr.vertices.size());
  out->Reserve(n);
  VertexId* const vertices = out->vertices_.data();
  uint32_t* const parents = out->parents_.data();
  EdgeId* const edges = out->edges_.data();
  uint32_t* const ranks = out->ranks_.data();
  vertices[0] = rr.root();
  if (vertices[0] == stop) return 0;
  const Graph& graph = *rr.topology;
  const uint32_t parent_bits = IdBits(n - 1);
  const auto parent_mask = static_cast<uint32_t>(LowMask(parent_bits));
  uint64_t at = 0;
  for (uint32_t j = 1; j < n; ++j) {
    // Loads start at a field's first bit, so they stay inside the
    // block's bits and the body's padding: a 2-vertex tree's parent
    // takes 0 bits, and its rank may too.
    uint64_t window = parent_bits == 0 ? 0 : LoadBits(rr.tree, at);
    const uint32_t parent = static_cast<uint32_t>(window) & parent_mask;
    PITEX_DCHECK(parent < j);
    const auto in = graph.InEdges(vertices[parent]);
    const uint32_t rank_bits = IdBits(in.size());
    // Both fields fit one load unless the rank is wider than 57 bits
    // less the parent's.
    if (parent_bits == 0 ? rank_bits != 0
                         : parent_bits + rank_bits > kBitWindow) {
      window = LoadBits(rr.tree, at + parent_bits);
    } else {
      window >>= parent_bits;
    }
    const auto rank = static_cast<uint32_t>(window & LowMask(rank_bits));
    PITEX_DCHECK(rank < in.size());
    at += parent_bits + rank_bits;
    const AdjEntry entry = in[rank];
    vertices[j] = entry.vertex;
    parents[j] = parent;
    edges[j] = entry.edge;
    ranks[j] = rank;
    if (entry.vertex == stop) return j;
  }
  return n;
}

/// Reusable traversal scratch for IsReachable: the decoded parent tree,
/// and for a general-form sketch an epoch-stamped visited array (no
/// clearing between calls) plus the DFS stack. Grows to the largest
/// sketch it has seen, then stays allocation-free. Not thread-safe; use
/// one instance per thread.
class EstimateScratch {
 public:
  /// Pre-sizes the arrays for sketches of up to `max_vertices` local
  /// vertices (optional; the scratch also grows on demand).
  void Reserve(size_t max_vertices);

 private:
  friend bool IsReachable(const RRView&, VertexId, const EdgeProbFn&,
                          uint64_t*, EstimateScratch*);

  TreeScratch tree_;
  std::vector<uint32_t> visited_;  // visited_[i] == epoch_ <=> visited
  std::vector<uint32_t> stack_;
  uint32_t epoch_ = 0;
};

/// Definition 3: true iff `u` reaches the root of `rr` along edges with
/// probs.Prob(e) >= c(e), each c(e) computed as the edge is probed
/// (rr.thresholds). Adds probed-edge counts to `edges_visited` when
/// non-null. On a parent tree it decodes the tree until it meets u, then
/// follows u's parents to the root or to the first dead edge; on any
/// other sketch it runs a DFS that uses `scratch` for the visited stamps
/// and stack: zero allocations once the scratch has warmed up. Both
/// probe the edges a DFS would, in the same order.
PITEX_NOALLOC bool IsReachable(const RRView& rr, VertexId u,
                               const EdgeProbFn& probs,
                               uint64_t* edges_visited,
                               EstimateScratch* scratch);

/// Convenience overload with call-local scratch (tests, one-off checks).
bool IsReachable(const RRView& rr, VertexId u, const EdgeProbFn& probs,
                 uint64_t* edges_visited);

/// A sketch decoded to the general form's plain arrays, whichever form
/// its view reads: its root, its vertices sorted ascending, the root's
/// local id among them, the CSR offsets over them, and per edge, in CSR
/// order, its local head and its global id (left empty for a view
/// without a topology); for a general-form view, also each record's
/// rank in its tail's out-list (a parent tree's edges name theirs,
/// Graph::OutRank, and are not searched for them). A parent tree's
/// vertices each have one edge, so its edges come in the order of their
/// tails' ids. The cold readers (repairs, IndexEst+'s filters, tests)
/// read sketches this way.
struct DecodedSketch {
  VertexId root = 0;
  uint32_t root_local = 0;
  std::vector<VertexId> vertices;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> heads;
  std::vector<uint32_t> ranks;
  std::vector<EdgeId> edges;

  /// Local index of global vertex v, or nullopt if absent.
  std::optional<uint32_t> LocalIndex(VertexId v) const;
};

/// Decodes `rr` into `out`, reusing its vectors' capacity.
void Decode(const RRView& rr, DecodedSketch* out);

/// A sampled live edge in global vertex coordinates and its global id,
/// before local CSR assembly: what repairs edit and recovery samples.
struct GlobalEdgeSample {
  VertexId tail;
  VertexId head;
  EdgeId edge;
};

/// Inverse of SketchArena::RebuildRepairedSketch: clears `*edges` and
/// fills it with the sketch's live edges in global vertex coordinates,
/// by tail id and per tail in CSR order, reusing capacity (incremental
/// index repair decomposes one sketch per affected graph).
void DecomposeRRGraphInto(const DecodedSketch& sketch,
                          std::vector<GlobalEdgeSample>* edges);
/// The same for a view, decoded into per-thread scratch.
void DecomposeRRGraphInto(const RRView& rr,
                          std::vector<GlobalEdgeSample>* edges);

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_RR_GRAPH_H_
