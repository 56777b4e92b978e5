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
// every other sketch is one block of bit-granular fields: its vertices
// but the root at the width the network's vertex count calls for, its
// local ids (its root's among them) at the width its own vertex count
// calls for, and its edge records, each the edge's rank in its tail's
// out-list (Graph::OutEdges) at the width the network's longest
// out-list calls for. A record's edge always leaves its own tail, so
// the rank names it: RRView::Edge turns it back into the global EdgeId
// against the pool's topology. An in-tree sketch, whose root has no
// out-edge and every other vertex exactly one, stores no CSR offsets:
// they follow from the root's local id (TreeCsr).
// SketchArena (src/index/sketch_arena.h) assembles every sketch straight
// into a pool run: the offline build, DynamicRrIndex repair, DelayMat
// recovery and the query planner's probes. RRView is the non-owning
// view of one pooled sketch that every reader takes.
// Reachability on an in-tree chases parent pointers and needs no
// scratch; on any other sketch it is a DFS whose scratch (visited stamps
// + stack) lives in a reusable EstimateScratch, so repeated IsReachable
// calls allocate nothing once the scratch has grown to the largest
// sketch.

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

/// The local CSR of an in-tree sketch: its offsets follow from the
/// root's local id, and only its m = n - 1 edge heads are stored.
/// Readers take it as they take a LocalCsr.
struct TreeCsr {
  uint32_t root_local;
  PackedIds heads;

  uint32_t offset(size_t j) const { return InTreeOffset(j, root_local); }
  uint32_t head(size_t k) const { return heads[k]; }
};

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

/// The root vertex of a view whose reader never reads it
/// (RrSketchPool::WalkView): no vertex has this id.
inline constexpr VertexId kUnresolvedRoot = UINT32_MAX;

/// A sketch's sorted vertex ids. Either every id is `base` plus an entry
/// of a PackedIds (an implicit singleton's one vertex is its base, at
/// width 0), or the id at local index `gap` is `root` and the others, in
/// order, are the entries: a pool block stores every vertex but its
/// root, at its pool's vertex width. A read-only range with random
/// access by operator[].
class VertexIds {
 public:
  class Iterator;

  VertexIds() = default;
  /// `size` ids, each `base` plus an entry of `ids`.
  VertexIds(PackedIds ids, size_t size, VertexId base)
      : ids_(ids), size_(static_cast<uint32_t>(size)), base_(base) {}
  /// `size` ids, `root` at local index `gap` (below `size`) and the
  /// entries of `ids` at the others.
  VertexIds(PackedIds ids, size_t size, uint32_t gap, VertexId root)
      : ids_(ids), size_(static_cast<uint32_t>(size)), gap_(gap), root_(root) {}

  size_t size() const { return size_; }
  VertexId operator[](size_t j) const {
    const auto i = static_cast<uint32_t>(j);
    return i == gap_ ? root_ : base_ + ids_[i - (i > gap_)];
  }
  VertexId back() const { return (*this)[size_ - 1]; }
  Iterator begin() const;
  Iterator end() const;
  /// The stored ids, which base() adds to.
  const PackedIds& ids() const { return ids_; }
  VertexId base() const { return base_; }

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
      while (lo < stored && base_ + ids_[lo] < v) ++lo;
    } else {
      for (uint32_t len = stored; len > 0;) {
        const uint32_t half = len / 2;
        if (base_ + ids_[lo + half] < v) {
          lo += half + 1;
          len -= half + 1;
        } else {
          len = half;
        }
      }
    }
    if (lo < stored && base_ + ids_[lo] == v) return lo + (lo >= gap_);
    if (has_gap && v == root_) return gap_;
    return std::nullopt;
  }

 private:
  static constexpr uint32_t kScanIds = 16;

  PackedIds ids_;
  uint32_t size_ = 0;
  VertexId base_ = 0;
  uint32_t gap_ = UINT32_MAX;  // none
  VertexId root_ = kUnresolvedRoot;
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

/// Non-owning view of one reverse-reachable sample graph. Vertices are
/// sorted; edges are a local CSR out-adjacency so tag-aware reachability
/// is a forward BFS from the query user towards the root. The root is
/// held as its local id, so the walk knows its target without a search,
/// and a block's root vertex is the gap of its VertexIds: the estimate
/// walks' view leaves it kUnresolvedRoot (RrSketchPool::WalkView).
/// Every field is read at the width its block stores it at (see
/// src/index/rr_sketch_pool.h): the heads at bit_width(n - 1) bits, any
/// offsets at bit_width(m), the vertices and ranks at their pool's
/// widths. A record is its rank alone: its threshold is a function of
/// the edge (SketchThresholds), which a view of an index carries
/// (RrIndex::graph and the like) and a pool's view leaves unset. A
/// view of an in-tree sketch
/// (the root has no out-edge, every other vertex exactly one; nearly
/// every pooled sketch) has no stored offsets: its offsets' data is null
/// and its readers take a TreeCsr.
/// `topology` is the graph of the pool the view reads, whose out-lists
/// the ranks index; a pool that holds no topology gives an empty graph,
/// and its views' ranks are read but not decoded.
struct RRView {
  uint32_t root_local = 0;  // local index of the root
  VertexIds vertices;       // sorted ascending
  PackedIds offsets;        // CSR over local tails, n + 1; no data for an
                            // in-tree sketch
  PackedIds heads;          // local head of each edge, m
  PackedIds ranks;          // each edge's rank in its tail's out-list, m
  const Graph* topology = nullptr;
  SketchThresholds thresholds;  // unset in a pool's own views

  /// The global id of the edge at `rank` in the out-list of local
  /// vertex `tail`, the id of a record in tail's CSR range:
  /// OutEdges(vertices[tail])[rank].edge. Every reader that needs an
  /// edge's id decodes it here.
  EdgeId Edge(uint32_t tail, uint32_t rank) const {
    return topology->OutEdges(vertices[tail])[rank].edge;
  }

  /// Calls fn(csr) with csr a TreeCsr for an in-tree sketch, else a
  /// LocalCsr, and returns its result: one dispatch per sketch, so fn's
  /// loops are form-specific. Every reader of the offsets and heads
  /// goes through here.
  template <typename Fn>
  decltype(auto) VisitCsr(Fn&& fn) const {
    if (offsets.data == nullptr) return fn(TreeCsr{root_local, heads});
    return fn(LocalCsr{offsets, heads});
  }

  /// m: an in-tree's n - 1, else the last offset.
  size_t num_edges() const {
    return offsets.data == nullptr ? vertices.size() - 1
                                   : offsets[vertices.size()];
  }

  /// True when the sketch is an in-tree (IsInTree), whether or not its
  /// offsets are stored.
  bool InTree() const {
    return offsets.data == nullptr ||
           IsInTree(vertices.size(), root_local,
                    [this](size_t j) { return offsets[j]; });
  }

  /// The root's global vertex id (kUnresolvedRoot in a walk's view).
  VertexId root() const { return vertices[root_local]; }

  /// Local index of global vertex v, or nullopt if absent.
  std::optional<uint32_t> LocalIndex(VertexId v) const {
    return vertices.LocalIndex(v);
  }
};

/// Reusable traversal scratch for IsReachable's DFS over a sketch that
/// is not an in-tree: an epoch-stamped visited array (no clearing
/// between calls) plus the stack. Grows to the largest sketch it has
/// seen, then stays allocation-free. Not thread-safe; use one instance
/// per thread.
class EstimateScratch {
 public:
  /// Pre-sizes the visited array for sketches of up to `max_vertices`
  /// local vertices (optional; the scratch also grows on demand).
  void Reserve(size_t max_vertices);

 private:
  friend bool IsReachable(const RRView&, VertexId, const EdgeProbFn&,
                          uint64_t*, EstimateScratch*);

  std::vector<uint32_t> visited_;  // visited_[i] == epoch_ <=> visited
  std::vector<uint32_t> stack_;
  uint32_t epoch_ = 0;
};

/// Definition 3: true iff `u` reaches the root of `rr` along edges with
/// probs.Prob(e) >= c(e), each c(e) computed as the edge is probed
/// (rr.thresholds). Adds probed-edge counts to `edges_visited` when
/// non-null. On an in-tree it follows u's parents to the root or to the
/// first dead edge, with no scratch; on any other sketch it runs a DFS
/// that uses `scratch` for the visited stamps and stack: zero
/// allocations once the scratch has warmed up. Both probe the edges a
/// DFS would, in the same order.
PITEX_NOALLOC bool IsReachable(const RRView& rr, VertexId u,
                               const EdgeProbFn& probs,
                               uint64_t* edges_visited,
                               EstimateScratch* scratch);

/// Convenience overload with call-local scratch (tests, one-off checks).
bool IsReachable(const RRView& rr, VertexId u, const EdgeProbFn& probs,
                 uint64_t* edges_visited);

/// True when following each vertex's one out-edge (its parent) in
/// in-tree sketch `rr` (RRView::InTree, heads below n) leads every
/// vertex to the root: no parent pointers form a cycle, a vertex its
/// own parent included. One O(n) pass: each vertex is marked once by
/// the chase that first meets it and once more when that chase ends.
/// `marks` is scratch, resized to n.
bool ParentsReachRoot(const RRView& rr, std::vector<uint8_t>* marks);
/// Overload with per-thread scratch, which stops allocating once it
/// has grown to the largest sketch: the pool writers' debug check, on a
/// generation path that must not allocate in steady state.
bool ParentsReachRoot(const RRView& rr);

/// A sampled live edge in global vertex coordinates and its global id,
/// before local CSR assembly: what repairs edit and recovery samples.
struct GlobalEdgeSample {
  VertexId tail;
  VertexId head;
  EdgeId edge;
};

/// Inverse of SketchArena::RebuildRepairedSketch: clears `*edges` and
/// fills it with the sketch's live edges back in global vertex
/// coordinates, their ranks decoded to ids (RRView::Edge), in per-tail
/// order, reusing capacity (incremental index repair decomposes one
/// sketch per affected graph).
void DecomposeRRGraphInto(const RRView& rr,
                          std::vector<GlobalEdgeSample>* edges);

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_RR_GRAPH_H_
