// Pooled storage for the offline RR-Graph index (Sec. 6.1): all theta
// sketches flattened into a few contiguous arrays (a CSR of per-sketch
// CSRs), plus a CSR-flattened inverted "containing" index.
//
// The IndexEst estimate path walks theta(u) tiny sketches per query; with
// one heap object per sketch (three vectors each) those walks chase
// pointers all over the heap and the allocator dominates build time. The
// pool keeps every sketch's data adjacent, hands out non-owning RRViews,
// and answers Containing(u) from one flat array — no per-sketch or
// per-vertex heap objects at all, and SizeBytes() is O(1).
//
// Layout for sketch i (n_i vertices, m_i edges); every array is 32-bit
// wide, directories included, and packing checks that every total fits:
//   roots_[i]                                   root vertex
//   body_[body_starts_[i] .. body_starts_[i+1]) n_i sorted vertex ids,
//                                               then the n_i + 1 local CSR
//                                               offsets (starting at 0)
//   edges_[edge_starts_[i] .. edge_starts_[i+1]) local out-edges
// An *implicit singleton* — one vertex (necessarily the root) and no
// edges; 57% of the sketches on pitexbench's network — has an empty body
// block: View() serves its vertex from roots_[i] and its offsets from a
// static {0, 0}, so the estimate walk over it reads only the root.
//
// The pool is immutable after Pack(). DynamicRrIndex, which repairs
// individual sketches, never mutates it: it shares one pool as its
// *base* with every snapshot it publishes and records repairs in an
// RrSketchOverlay (below) until compaction packs base + overlay into a
// new pool.

#ifndef PITEX_SRC_INDEX_RR_SKETCH_POOL_H_
#define PITEX_SRC_INDEX_RR_SKETCH_POOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/index/sketch_arena.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace pitex {

class RrSketchPool {
 public:
  RrSketchPool() = default;

  /// Flattens sketches view_of(0), ..., view_of(num_sketches - 1) into
  /// one pool and builds the inverted containing index with a counting
  /// pass (exact-size allocation, no push_back growth). `num_vertices`
  /// is the global vertex universe; every sketch vertex must lie inside
  /// it, and a one-vertex sketch's vertex must be its root. DynamicRrIndex
  /// compaction and the index loader pack this way.
  template <typename ViewOf>
  static RrSketchPool Pack(size_t num_sketches, size_t num_vertices,
                           ViewOf&& view_of);
  /// True when sketches view_of(0), ..., view_of(num_sketches - 1) fit
  /// the pool's 32-bit arrays. Pack aborts on sketches that do not, so a
  /// caller packing untrusted input (the index loader) checks first.
  template <typename ViewOf>
  static bool Fits(size_t num_sketches, ViewOf&& view_of);

  /// Two-pass pack straight from build arenas, replacing the old
  /// copy-of-a-copy (owning staging RRGraphs, then Pack): pass one sizes
  /// every pooled array exactly from per-arena counters; pass two copies
  /// each sketch's segments once — in parallel when `pool` is non-null.
  /// The arenas' recorded sample indices must cover [0, num_sketches)
  /// exactly once; sketch i of the pool is the arena sketch with sample
  /// index i, so the result is bit-identical for any arena count /
  /// claim interleaving.
  static RrSketchPool PackFrom(std::span<const SketchArena> arenas,
                               uint64_t num_sketches, size_t num_vertices,
                               ThreadPool* pool = nullptr);

  size_t num_sketches() const { return roots_.size(); }
  bool empty() const { return roots_.empty(); }

  /// Non-owning view of sketch i (valid while the pool is alive).
  RRView View(size_t i) const {
    const std::span<const VertexId> vertices = Vertices(i);
    const size_t n = vertices.size();
    // An explicit block's offsets follow its vertices.
    const uint32_t* offsets = body_starts_[i] == body_starts_[i + 1]
                                  ? kSingletonOffsets
                                  : vertices.data() + n;
    const uint32_t eb = edge_starts_[i];
    return RRView{roots_[i],
                  vertices,
                  {offsets, n + 1},
                  {edges_.data() + eb, edge_starts_[i + 1] - eb}};
  }

  VertexId root(size_t i) const { return roots_[i]; }

  /// Ids (sketch positions) of the sketches containing u, ascending.
  std::span<const uint32_t> Containing(VertexId u) const {
    return {containing_.data() + containing_starts_[u],
            containing_.data() + containing_starts_[u + 1]};
  }
  /// theta(u): how many sketches contain u (Sec. 6.3 notation).
  size_t CountContaining(VertexId u) const {
    return containing_starts_[u + 1] - containing_starts_[u];
  }
  /// Number of vertices the containing index covers.
  size_t num_universe_vertices() const {
    return containing_starts_.empty() ? 0 : containing_starts_.size() - 1;
  }

  /// Totals across all sketches. The vertex total is the containing
  /// index's size, so it counts packed pools only (not an overlay store).
  uint64_t total_vertices() const { return containing_.size(); }
  uint64_t total_edges() const { return edges_.size(); }
  /// Largest per-sketch vertex count (scratch pre-sizing).
  size_t max_sketch_vertices() const { return max_sketch_vertices_; }

  /// Exact footprint of the pooled arrays, computed in O(1).
  size_t SizeBytes() const;

 private:
  friend class RrSketchOverlay;  // appends repaired sketches (Append)

  /// The offsets of every implicit singleton.
  static constexpr uint32_t kSingletonOffsets[2] = {0, 0};

  /// Root and sizes of one sketch: what pass one of a pack needs.
  struct Shape {
    VertexId root;
    uint64_t vertices;
    uint64_t edges;
  };

  /// body_ entries of a sketch with n vertices and m edges: none for an
  /// implicit singleton, else n vertices plus n + 1 offsets.
  static uint64_t BodyLength(uint64_t n, uint64_t m) {
    // Branch-free for the same reason as Vertices().
    return uint64_t{n != 1 || m != 0} * (2 * n + 1);
  }

  /// Sketch i's sorted vertices: its body block's head, or its root
  /// for an implicit singleton.
  std::span<const VertexId> Vertices(size_t i) const {
    const uint32_t b = body_starts_[i];
    const uint32_t len = body_starts_[i + 1] - b;
    // Selects, not a branch: the packing passes meet singletons and
    // explicit blocks interleaved at random.
    const bool singleton = len == 0;
    return {singleton ? &roots_[i] : body_.data() + b,
            singleton ? 1 : (len - 1) / 2};
  }

  /// Pass one of a pack: records roots and directories for sketches
  /// shape_of(0), ..., shape_of(num_sketches - 1) and sizes body_ and
  /// edges_ exactly.
  template <typename ShapeOf>
  void Layout(size_t num_sketches, ShapeOf&& shape_of);
  /// Pass two: copies sketch i's arrays into the slot Layout gave it.
  void CopySketch(size_t i, const RRView& rr);

  /// Appends one sketch in the pooled layout without touching the
  /// containing index — the overlay's sketch store. `sketch` must not
  /// view this pool.
  void Append(const RRView& sketch);

  /// Rebuilds containing_starts_/containing_ from the packed sketches
  /// (counting pass + prefix sum + fill in ascending sketch-id order).
  /// Also recomputes max_sketch_vertices_. With a pool, count and fill
  /// run over sketch ranges balanced by vertex volume, with per-range
  /// histograms turned into deterministic per-range cursors — the fill
  /// order per vertex is still ascending sketch id.
  void BuildContaining(size_t num_vertices, ThreadPool* pool = nullptr);

  std::vector<VertexId> roots_;         // one per sketch
  std::vector<uint32_t> body_starts_;   // num_sketches + 1
  std::vector<uint32_t> body_;          // vertices + offsets blocks
  std::vector<uint32_t> edge_starts_;   // num_sketches + 1
  std::vector<RRLocalEdge> edges_;      // all sketch edge arrays
  std::vector<uint32_t> containing_starts_;  // num_vertices + 1
  std::vector<uint32_t> containing_;         // sketch ids, CSR by vertex
  size_t max_sketch_vertices_ = 0;
};

// The view-function templates are defined here so that a caller's view
// function inlines into the per-sketch loops.

template <typename ShapeOf>
void RrSketchPool::Layout(size_t num_sketches, ShapeOf&& shape_of) {
  const size_t s = num_sketches;
  // Sketch ids are u32 (containing_) and a directory has s + 1 entries.
  PITEX_CHECK_MSG(s < UINT32_MAX, "sketch pool exceeds 32-bit ids");
  roots_.resize(s);
  body_starts_.assign(s + 1, 0);
  edge_starts_.assign(s + 1, 0);
  uint64_t body = 0;
  uint64_t edges = 0;
  for (size_t i = 0; i < s; ++i) {
    const Shape shape = shape_of(i);
    roots_[i] = shape.root;
    body += BodyLength(shape.vertices, shape.edges);
    edges += shape.edges;
    body_starts_[i + 1] = static_cast<uint32_t>(body);
    edge_starts_[i + 1] = static_cast<uint32_t>(edges);
  }
  // The totals only grow, so checking them once covers every entry.
  PITEX_CHECK_MSG(body <= UINT32_MAX && edges <= UINT32_MAX,
                  "sketch pool exceeds 32-bit directories");
  body_.resize(body);
  edges_.resize(edges);
}

template <typename ViewOf>
RrSketchPool RrSketchPool::Pack(size_t num_sketches, size_t num_vertices,
                                ViewOf&& view_of) {
  RrSketchPool out;
  out.Layout(num_sketches, [&](size_t i) {
    const RRView rr = view_of(i);
    return Shape{rr.root, rr.vertices.size(), rr.edges.size()};
  });
  for (size_t i = 0; i < num_sketches; ++i) out.CopySketch(i, view_of(i));
  out.BuildContaining(num_vertices);
  return out;
}

template <typename ViewOf>
bool RrSketchPool::Fits(size_t num_sketches, ViewOf&& view_of) {
  uint64_t body = 0;
  uint64_t vertices = 0;
  uint64_t edges = 0;
  for (size_t i = 0; i < num_sketches; ++i) {
    const RRView rr = view_of(i);
    body += BodyLength(rr.vertices.size(), rr.edges.size());
    vertices += rr.vertices.size();
    edges += rr.edges.size();
  }
  return num_sketches < UINT32_MAX && body <= UINT32_MAX &&
         vertices <= UINT32_MAX && edges <= UINT32_MAX;
}

/// The repairs a DynamicRrIndex has made since its base pool was packed,
/// as a copyable value: the master edits its own overlay, and each
/// published snapshot serves an immutable copy beside the shared base
/// (RrIndex::FromPool). It holds
///   * repaired sketches, appended as segments to a pooled store (a
///     sketch repaired twice keeps its superseded copy until compaction);
///   * a sketch-id redirect to each repaired sketch's current copy;
///   * replacement containing lists for the vertices whose membership
///     changed.
class RrSketchOverlay {
 public:
  static constexpr uint32_t kNotRepaired = UINT32_MAX;

  /// Sketch copies stored, superseded ones included: the size
  /// compaction bounds.
  size_t num_stored() const { return store_.num_sketches(); }
  bool empty() const { return num_stored() == 0; }

  /// Store slot of sketch `id`'s current copy, or kNotRepaired.
  uint32_t SlotOf(uint32_t id) const {
    // The bitmap answers the common case (never repaired) without
    // hashing; the map holds the slot of the few repaired ids.
    const size_t word = id >> 6;
    if (word >= repaired_bits_.size() ||
        ((repaired_bits_[word] >> (id & 63)) & 1) == 0) {
      return kNotRepaired;
    }
    return slot_of_.find(id)->second;
  }
  RRView View(uint32_t slot) const { return store_.View(slot); }

  /// u's replacement containing list (ascending ids), or nullptr while
  /// u's membership is still the base's.
  const std::vector<uint32_t>* Containing(VertexId u) const {
    const auto it = containing_.find(u);
    return it == containing_.end() ? nullptr : &it->second;
  }

  size_t max_sketch_vertices() const { return store_.max_sketch_vertices(); }
  /// Approximate footprint.
  size_t SizeBytes() const;

  /// Appends `sketch` as sketch `id`'s current copy. `sketch` must not
  /// view this overlay.
  void Put(uint32_t id, const RRView& sketch);
  /// u's containing list for editing, seeded from `base` (u's list in
  /// the base pool) on first use.
  std::vector<uint32_t>& MutableContaining(VertexId u,
                                           std::span<const uint32_t> base);

 private:
  RrSketchPool store_;
  std::vector<uint64_t> repaired_bits_;  // bit id set <=> id in slot_of_
  std::unordered_map<uint32_t, uint32_t> slot_of_;
  std::unordered_map<VertexId, std::vector<uint32_t>> containing_;
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_RR_SKETCH_POOL_H_
