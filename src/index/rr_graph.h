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
// Sketches have one representation: the pooled CSR-of-CSRs layout of
// src/index/rr_sketch_pool.h, where a single-vertex sketch is its root
// in the directory and every other sketch's vertices are packed at 2 or
// 4 bytes, its local ids (its root's among them) at 1 or 4 and its edge
// ids at 3 or 4. An in-tree sketch, whose root has no out-edge and
// every other vertex exactly one, stores no CSR offsets: they follow
// from the root's local id (TreeCsr).
// SketchArena (src/index/sketch_arena.h) assembles every sketch straight
// into a pool run: the offline build, DynamicRrIndex repair, DelayMat
// recovery and the query planner's probes. RRView is the non-owning
// view of one pooled sketch that every reader takes.
// Reachability scratch (visited stamps + DFS stack) lives in a reusable
// EstimateScratch so repeated IsReachable calls allocate nothing once the
// scratch has grown to the largest sketch.

#ifndef PITEX_SRC_INDEX_RR_GRAPH_H_
#define PITEX_SRC_INDEX_RR_GRAPH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "src/sampling/influence_estimator.h"
#include "src/util/thread_annotations.h"

namespace pitex {

/// One edge of a sketch's local CSR out-adjacency. Its head (a local
/// vertex index) is stored apart, in the sketch's packed id array. A
/// pool block stores each record as the edge id at its block's edge
/// width (3 or 4 bytes), then the threshold's bits, which only memcpy
/// reads and writes (EdgeRecords, LocalCsrOut::set_edge).
struct RRLocalEdge {
  EdgeId edge;      // global EdgeId (for p(e|W) lookups)
  float threshold;  // c(e)
};
static_assert(sizeof(RRLocalEdge) == 8,
              "an RRLocalEdge array is an array of width-4 records");

/// Entry j of a packed array of T (uint8_t, uint16_t or uint32_t)
/// starting at `data`. memcpy keeps the access defined whatever storage
/// the bytes live in; it compiles to one narrow load.
template <typename T>
inline uint32_t LoadId(const std::byte* data, size_t j) {
  T id;
  std::memcpy(&id, data + j * sizeof(T), sizeof(T));
  return id;
}

/// One sketch's local CSR (n + 1 offsets, m edge heads) read at a fixed
/// id width T: what a walk instantiated per width reads, with no
/// per-edge width branch.
template <typename T>
struct LocalCsr {
  const std::byte* offsets;
  const std::byte* heads;

  uint32_t offset(size_t j) const { return LoadId<T>(offsets, j); }
  uint32_t head(size_t k) const { return LoadId<T>(heads, k); }
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
/// root's local id, and only its m = n - 1 edge heads are stored, at id
/// width T. Readers take it as they take a LocalCsr.
template <typename T>
struct TreeCsr {
  uint32_t root_local;
  const std::byte* heads;

  uint32_t offset(size_t j) const { return InTreeOffset(j, root_local); }
  uint32_t head(size_t k) const { return LoadId<T>(heads, k); }
};

/// A sketch's m edge records from `data`, each the edge id at `width`
/// (3 or 4) bytes and then the threshold's f32 bits: a read-only range
/// that copies each record out by value, so no RRLocalEdge lvalue
/// aliases the bytes of a pool block. An RRLocalEdge array is the
/// width-4 case.
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
    RRLocalEdge operator*() const { return Load(at_, width_); }
    Iterator& operator++() {
      at_ += width_ + sizeof(float);
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const { return at_ == other.at_; }

   private:
    friend class EdgeRecords;
    Iterator(const std::byte* at, uint32_t width) : at_(at), width_(width) {}

    const std::byte* at_ = nullptr;
    uint32_t width_ = sizeof(EdgeId);
  };

  EdgeRecords() = default;
  EdgeRecords(std::span<const RRLocalEdge> edges)  // NOLINT(runtime/explicit)
      : EdgeRecords(reinterpret_cast<const std::byte*>(edges.data()),
                    edges.size(), sizeof(EdgeId)) {}
  EdgeRecords(const std::byte* data, size_t size, uint32_t width)
      : data_(data), size_(size), width_(width) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  RRLocalEdge operator[](size_t k) const {
    return Load(data_ + k * (width_ + sizeof(float)), width_);
  }
  Iterator begin() const { return {data_, width_}; }
  Iterator end() const {
    return {data_ + size_ * (width_ + sizeof(float)), width_};
  }
  /// Bytes per edge id: 3 or 4.
  uint32_t width() const { return width_; }
  /// The first record's first byte.
  const std::byte* data() const { return data_; }

  /// Writes `edge` as the record at `at`, its id at `width` bytes: the
  /// inverse of a read. The id's 4-byte store spills into the
  /// threshold's first byte at width 3, which the threshold then
  /// overwrites, so both stores stay fixed-size.
  static void Store(std::byte* at, uint32_t width, RRLocalEdge edge) {
    const uint32_t raw = std::endian::native == std::endian::little
                             ? edge.edge
                             : edge.edge << (32 - 8 * width);
    std::memcpy(at, &raw, sizeof(raw));
    std::memcpy(at + width, &edge.threshold, sizeof(edge.threshold));
  }

 private:
  /// The record at `at`: a 4-byte load covers the id (and, at width 3,
  /// the threshold's first byte, which the shift or mask drops).
  static RRLocalEdge Load(const std::byte* at, uint32_t width) {
    uint32_t raw;
    std::memcpy(&raw, at, sizeof(raw));
    RRLocalEdge edge;
    edge.edge = std::endian::native == std::endian::little
                    ? raw & (UINT32_MAX >> (32 - 8 * width))
                    : raw >> (32 - 8 * width);
    std::memcpy(&edge.threshold, at + width, sizeof(edge.threshold));
    return edge;
  }

  const std::byte* data_ = nullptr;
  size_t size_ = 0;
  uint32_t width_ = sizeof(EdgeId);
};

/// A sketch's sorted vertex ids, `width` (2 or 4) bytes each from
/// `data`: a read-only range with random access by operator[] that
/// loads each id by value, so no VertexId lvalue aliases the bytes of a
/// pool block. A span of VertexId is the width-4 case.
class VertexIds {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = VertexId;
    using difference_type = std::ptrdiff_t;
    using reference = VertexId;
    using pointer = void;

    Iterator() = default;
    VertexId operator*() const { return Load(data_, width_, at_); }
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
    Iterator(const std::byte* data, uint32_t width, size_t at)
        : data_(data), at_(at), width_(width) {}

    const std::byte* data_ = nullptr;
    size_t at_ = 0;
    uint32_t width_ = sizeof(VertexId);
  };

  VertexIds() = default;
  VertexIds(std::span<const VertexId> ids)  // NOLINT(runtime/explicit)
      : VertexIds(reinterpret_cast<const std::byte*>(ids.data()), ids.size(),
                  sizeof(VertexId)) {}
  VertexIds(const std::byte* data, size_t size, uint32_t width)
      : data_(data), size_(static_cast<uint32_t>(size)), width_(width) {}

  size_t size() const { return size_; }
  VertexId operator[](size_t j) const { return Load(data_, width_, j); }
  VertexId back() const { return Load(data_, width_, size_ - 1); }
  Iterator begin() const { return {data_, width_, 0}; }
  Iterator end() const { return {data_, width_, size_}; }
  /// Bytes per id: 2 or 4.
  uint32_t width() const { return width_; }
  /// The first id's first byte.
  const std::byte* data() const { return data_; }

  /// Calls fn(id) for each id in order: one width dispatch, then a loop
  /// at that width.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (width_ == 2) {
      for (uint32_t j = 0; j < size_; ++j) fn(LoadId<uint16_t>(data_, j));
    } else {
      for (uint32_t j = 0; j < size_; ++j) fn(LoadId<uint32_t>(data_, j));
    }
  }

  /// Position of v, or nullopt if absent: one width dispatch, then a
  /// binary search at that width.
  std::optional<uint32_t> LocalIndex(VertexId v) const {
    return width_ == 2 ? Find<uint16_t>(v) : Find<uint32_t>(v);
  }

 private:
  static VertexId Load(const std::byte* data, uint32_t width, size_t j) {
    return width == 2 ? LoadId<uint16_t>(data, j) : LoadId<uint32_t>(data, j);
  }

  template <typename T>
  std::optional<uint32_t> Find(VertexId v) const {
    uint32_t lo = 0;
    for (uint32_t len = size_; len > 0;) {
      const uint32_t half = len / 2;
      if (LoadId<T>(data_, lo + half) < v) {
        lo += half + 1;
        len -= half + 1;
      } else {
        len = half;
      }
    }
    if (lo == size_ || LoadId<T>(data_, lo) != v) return std::nullopt;
    return lo;
  }

  const std::byte* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t width_ = sizeof(VertexId);
};

/// Non-owning view of one reverse-reachable sample graph. Vertices are
/// sorted; edges are a local CSR out-adjacency so tag-aware reachability
/// is a forward BFS from the query user towards the root. The root is
/// held as its local id, so the walk knows its target without a search.
/// The local ids (offsets and heads) share one width: the narrowest, 1
/// or 4 bytes, that holds the sketch's size (RrSketchPool::IdWidth).
/// The vertices have a width of their own, 2 or 4 bytes
/// (RrSketchPool::VertexWidth), and so do the edge records' ids, 3 or 4
/// bytes (RrSketchPool::EdgeWidth). A view of an in-tree sketch (the
/// root has no out-edge, every other vertex exactly one; nearly every
/// pooled sketch) has no stored offsets: its offset_ids is null and
/// its readers take a TreeCsr.
struct RRView {
  uint32_t root_local = 0;                // local index of the root
  uint32_t id_width = 4;                  // bytes per local id: 1 or 4
  VertexIds vertices;                     // sorted ascending
  const std::byte* offset_ids = nullptr;  // CSR over local tails, n + 1;
                                          // null for an in-tree sketch
  const std::byte* head_ids = nullptr;    // local head of each edge, m
  EdgeRecords edges;                      // m

  /// Calls fn(csr) with csr a TreeCsr<T> for an in-tree sketch, else a
  /// LocalCsr<T>, T the view's id width, and returns its result: one
  /// dispatch per sketch, so fn's loops are form- and width-specific.
  /// Every reader of the offsets and heads goes through here.
  template <typename Fn>
  decltype(auto) VisitCsr(Fn&& fn) const {
    if (offset_ids == nullptr) {
      if (id_width == 1) return fn(TreeCsr<uint8_t>{root_local, head_ids});
      return fn(TreeCsr<uint32_t>{root_local, head_ids});
    }
    if (id_width == 1) return fn(LocalCsr<uint8_t>{offset_ids, head_ids});
    return fn(LocalCsr<uint32_t>{offset_ids, head_ids});
  }

  /// True when the sketch is an in-tree (IsInTree), whether or not its
  /// offsets are stored.
  bool InTree() const {
    return offset_ids == nullptr || VisitCsr([this](const auto& csr) {
             return IsInTree(vertices.size(), root_local,
                             [&csr](size_t j) { return csr.offset(j); });
           });
  }

  /// The root's global vertex id.
  VertexId root() const { return vertices[root_local]; }

  /// Local index of global vertex v, or nullopt if absent.
  std::optional<uint32_t> LocalIndex(VertexId v) const {
    return vertices.LocalIndex(v);
  }
};

/// Reusable traversal scratch for IsReachable: an epoch-stamped visited
/// array (no clearing between calls) plus the DFS stack. Grows to the
/// largest sketch it has seen, then stays allocation-free. Not
/// thread-safe; use one instance per thread.
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
/// non-null. Uses `scratch` for the visited stamps and stack: zero
/// allocations once the scratch has warmed up.
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

/// A sampled live edge in global vertex coordinates, before local CSR
/// assembly.
struct GlobalEdgeSample {
  VertexId tail;
  VertexId head;
  EdgeId edge;
  float threshold;  // c(e)
};

/// Inverse of SketchArena::RebuildRepairedSketch: clears `*edges` and
/// fills it with the sketch's live edges back in global vertex
/// coordinates, in per-tail order, reusing capacity (incremental index
/// repair decomposes one sketch per affected graph).
void DecomposeRRGraphInto(const RRView& rr,
                          std::vector<GlobalEdgeSample>* edges);

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_RR_GRAPH_H_
