// RR-Graph: the reverse-reachable sample graph of Definition 2, plus the
// tag-aware reachability check of Definition 3.
//
// An RR-Graph for root v is a reverse IC sample drawn under the envelope
// probabilities p(e) = max_z p(e|z). Every kept edge carries the threshold
// c(e) it was sampled with; conditioned on the edge being live, c(e) is
// uniform on [0, p(e)). At query time the edge is live for tag set W iff
// p(e|W) >= c(e) — so one offline sample serves every query user and
// every tag set, and the spread is never underestimated (p(e) >= p(e|W)).
//
// Sketches have one representation: the pooled layout of
// src/index/rr_sketch_pool.h, where a sketch's root is the vertex whose
// root range holds its id, a single-vertex sketch has no block, and
// every other sketch is one block of bit-granular fields: its vertices
// but the root at the width the network's vertex count calls for, its
// local ids (its root's among them) at the width its own
// vertex count calls for, and its edge records, each the edge's rank in
// its tail's out-list (Graph::OutEdges) at the width the network's
// longest out-list calls for and its threshold, 1.0f's bits less the
// threshold's at the width its block's smallest threshold calls for
// (StoredThreshold, ThresholdWidth). A record's edge always leaves its
// own tail, so the rank names it: RRView::Edge turns it back into the
// global EdgeId against the pool's topology. An
// in-tree sketch, whose root has no out-edge and every other vertex
// exactly one, stores no CSR offsets: they follow from the root's local
// id (TreeCsr).
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

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <vector>

#include "src/sampling/influence_estimator.h"
#include "src/util/bits.h"
#include "src/util/thread_annotations.h"

namespace pitex {

/// One edge of a sketch's local CSR out-adjacency, as stored. Its head
/// (a local vertex index) is stored apart, in the sketch's heads, and
/// its tail is the local vertex whose CSR range holds it. A pool block
/// stores each record as the rank at its pool's rank width, then the
/// threshold as StoredThreshold at kThresholdBits + w bits, w the
/// block's threshold width (EdgeRecords, BlockWriter).
struct RRLocalEdge {
  uint32_t rank;    // place in the tail's out-list (RRView::Edge)
  float threshold;  // c(e)
};

/// A threshold c(e) lies in [+0, 1], so its f32 bits are at most 1.0f's,
/// kMaxThresholdBits, and a record stores that less its bits
/// (StoredThreshold): 0 for 1.0f, below 2^23 for every c(e) in
/// (0.5, 1], and kMaxThresholdBits for +0.0f. A block stores its
/// records' values at kThresholdBits + w bits, w in [0,
/// kMaxThresholdWidth] the fewest its largest value needs
/// (ThresholdWidth), and a reader gets the bits back with one subtract.
/// Every float in [+0, 1], subnormals included, round-trips exactly.
inline constexpr uint32_t kThresholdBits = 23;
inline constexpr uint32_t kMaxThresholdWidth = 7;
inline constexpr uint32_t kMaxThresholdBits = 0x3F800000;  // 1.0f

/// What a record stores for threshold c: 1.0f's bits less c's.
inline uint32_t StoredThreshold(float c) {
  return kMaxThresholdBits - std::bit_cast<uint32_t>(c);
}

/// The threshold width w of a block whose largest stored threshold is
/// `largest` (at most kMaxThresholdBits): the bits it needs beyond
/// kThresholdBits, 0 when it fits those.
inline uint32_t ThresholdWidth(uint32_t largest) {
  const auto bits = static_cast<uint32_t>(std::bit_width(largest));
  return bits > kThresholdBits ? bits - kThresholdBits : 0;
}

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

/// A sketch's m edge records, packed from bit `first` of `data`: each
/// the rank at the rank width and then its stored threshold
/// (StoredThreshold) at kThresholdBits + the block's threshold width. A
/// read-only range that decodes each record by value.
class EdgeRecords {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = RRLocalEdge;
    using difference_type = std::ptrdiff_t;
    using reference = RRLocalEdge;
    using pointer = void;

    Iterator() = default;
    RRLocalEdge operator*() const { return records_[at_]; }
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
    friend class EdgeRecords;
    Iterator(const EdgeRecords& records, size_t at)
        : records_{records.data_, records.first_, records.threshold_mask_,
                   records.rank_bits_, records.stride_},
          at_(at) {}

    // The records' fields, copied, so an iterator outlives its range.
    struct Fields {
      const uint8_t* data = nullptr;
      uint32_t first = 0;
      uint32_t threshold_mask = 0;
      uint8_t rank_bits = 0;
      uint8_t stride = 0;
      RRLocalEdge operator[](size_t k) const {
        return Load(data, first, rank_bits, stride, threshold_mask, k);
      }
    } records_;
    size_t at_ = 0;
  };

  EdgeRecords() = default;
  /// `at.bits` is the rank width; `threshold_width` the block's w.
  EdgeRecords(PackedIds at, size_t size, uint32_t threshold_width)
      : data_(at.data),
        first_(at.first),
        size_(static_cast<uint32_t>(size)),
        threshold_mask_(
            static_cast<uint32_t>(LowMask(kThresholdBits + threshold_width))),
        rank_bits_(static_cast<uint8_t>(at.bits)),
        stride_(static_cast<uint8_t>(at.bits + kThresholdBits +
                                     threshold_width)) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  RRLocalEdge operator[](size_t k) const {
    return Load(data_, first_, rank_bits_, stride_, threshold_mask_, k);
  }
  Iterator begin() const { return {*this, 0}; }
  Iterator end() const { return {*this, size_}; }
  /// Bits per rank.
  uint32_t rank_bits() const { return rank_bits_; }
  /// The block's threshold width w: each threshold takes
  /// kThresholdBits + w bits.
  uint32_t threshold_width() const {
    return static_cast<uint32_t>(stride_) - rank_bits_ - kThresholdBits;
  }
  /// Where the records end: the byte after their last bit's.
  const uint8_t* end_byte() const {
    return data_ + (first_ + uint64_t{stride_} * size_ + 7) / 8;
  }

 private:
  // The stride and the threshold's mask are set once per view, so a
  // record's decode is a load, two shifts, two masks and a subtract.
  static RRLocalEdge Load(const uint8_t* data, uint32_t first,
                          uint32_t rank_bits, uint32_t stride,
                          uint32_t threshold_mask, size_t k) {
    const uint32_t pos = first + stride * static_cast<uint32_t>(k);
    const uint64_t word = LoadBits(data, pos);
    // One load holds the whole record while it fits the window: up to
    // 27-bit ranks at any threshold width.
    const uint64_t threshold = stride <= kBitWindow
                                   ? word >> rank_bits
                                   : LoadBits(data, pos + rank_bits);
    RRLocalEdge edge;
    edge.rank = static_cast<uint32_t>(word & LowMask(rank_bits));
    const uint32_t bits =
        kMaxThresholdBits - (static_cast<uint32_t>(threshold) & threshold_mask);
    std::memcpy(&edge.threshold, &bits, sizeof(bits));
    return edge;
  }

  const uint8_t* data_ = nullptr;
  uint32_t first_ = 0;
  uint32_t size_ = 0;
  uint32_t threshold_mask_ = static_cast<uint32_t>(LowMask(kThresholdBits));
  uint8_t rank_bits_ = 0;  // at most 32
  uint8_t stride_ = kThresholdBits;  // rank_bits_ + kThresholdBits + w
};

/// The threshold width the records' thresholds need (ThresholdWidth of
/// their largest StoredThreshold): the width a writer stores them at.
inline uint32_t NeededThresholdWidth(const EdgeRecords& records) {
  uint32_t largest = 0;
  for (const RRLocalEdge edge : records) {
    largest = std::max(largest, StoredThreshold(edge.threshold));
  }
  return ThresholdWidth(largest);
}

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
/// widths, the thresholds at their block's. A view of an in-tree sketch
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
  EdgeRecords edges;        // m
  const Graph* topology = nullptr;

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
/// probs.Prob(e) >= c(e). Adds probed-edge counts to `edges_visited` when
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
  float threshold;  // c(e)
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
