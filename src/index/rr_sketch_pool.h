// Pooled storage for the offline RR-Graph index (Sec. 6.1): all theta
// sketches flattened into one contiguous vertex array, one edge array and
// one offsets array (a CSR of per-sketch CSRs), plus a CSR-flattened
// inverted "containing" index.
//
// The IndexEst estimate path walks theta(u) tiny sketches per query; with
// one heap object per sketch (three vectors each) those walks chase
// pointers all over the heap and the allocator dominates build time. The
// pool keeps every sketch's data adjacent, hands out non-owning RRViews,
// and answers Containing(u) from one flat array — no per-sketch or
// per-vertex heap objects at all, and SizeBytes() is O(1).
//
// Layout for sketch i (n_i vertices, m_i edges):
//   roots_[i]                                     root vertex
//   vertices_[vertex_starts_[i] .. vertex_starts_[i+1])   sorted vertex ids
//   offsets_[vertex_starts_[i] + i ..  + n_i + 1)  local CSR (starts at 0)
//   edges_[edge_starts_[i] .. edge_starts_[i+1])   local out-edges
// The offsets position is derived: sketch i's offsets block starts at
// vertex_starts_[i] + i because every earlier sketch contributed n_j + 1
// entries.
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
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/index/sketch_arena.h"
#include "src/util/thread_pool.h"

namespace pitex {

class RrSketchPool {
 public:
  RrSketchPool() = default;

  /// Flattens sketches view_of(0), ..., view_of(num_sketches - 1) into
  /// one pool and builds the inverted containing index with a counting
  /// pass (exact-size allocation, no push_back growth). `num_vertices`
  /// is the global vertex universe; every sketch vertex must lie inside
  /// it. DynamicRrIndex compaction packs its base + overlay this way.
  static RrSketchPool Pack(size_t num_sketches, size_t num_vertices,
                           const std::function<RRView(size_t)>& view_of);
  /// Pack over owning graphs.
  static RrSketchPool Pack(std::span<const RRGraph> graphs,
                           size_t num_vertices);

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
    const uint64_t vb = vertex_starts_[i];
    const uint64_t n = vertex_starts_[i + 1] - vb;
    const uint64_t eb = edge_starts_[i];
    return RRView{
        roots_[i],
        {vertices_.data() + vb, n},
        {offsets_.data() + vb + i, n + 1},
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

  /// Totals across all sketches.
  uint64_t total_vertices() const { return vertices_.size(); }
  uint64_t total_edges() const { return edges_.size(); }
  /// Largest per-sketch vertex count (scratch pre-sizing).
  size_t max_sketch_vertices() const { return max_sketch_vertices_; }

  /// Exact footprint of the pooled arrays, computed in O(1).
  size_t SizeBytes() const;

 private:
  friend class IndexIo;  // persistence reads/writes the raw arrays
  friend class RrSketchOverlay;  // appends repaired sketches (Append)

  /// Appends one sketch in the pooled layout without touching the
  /// containing index — the overlay's sketch store. `sketch` must not
  /// view this pool.
  void Append(const RRView& sketch);

  /// Rebuilds containing_starts_/containing_ from the packed vertex
  /// arrays (counting pass + prefix sum + fill in ascending sketch-id
  /// order). Also recomputes max_sketch_vertices_. With a pool, count
  /// and fill run over sketch ranges balanced by vertex volume, with
  /// per-range histograms turned into deterministic per-range cursors —
  /// the fill order per vertex is still ascending sketch id.
  void BuildContaining(size_t num_vertices, ThreadPool* pool = nullptr);

  std::vector<VertexId> roots_;          // one per sketch
  std::vector<uint64_t> vertex_starts_;  // num_sketches + 1
  std::vector<VertexId> vertices_;       // all sketch vertex arrays
  std::vector<uint32_t> offsets_;        // all local CSRs; n_i + 1 each
  std::vector<uint64_t> edge_starts_;    // num_sketches + 1
  std::vector<RRLocalEdge> edges_;       // all sketch edge arrays
  std::vector<uint64_t> containing_starts_;  // num_vertices + 1
  std::vector<uint32_t> containing_;         // sketch ids, CSR by vertex
  size_t max_sketch_vertices_ = 0;
};

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
