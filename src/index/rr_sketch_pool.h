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
// wide, the directory included, and every total is checked to fit:
//   roots_[i]                                   root vertex
//   body_[body_starts_[i] .. body_starts_[i+1]) a header holding the
//                                               sketch's first index in
//                                               edges_, then n_i sorted
//                                               vertex ids, then the
//                                               n_i + 1 local CSR offsets
//                                               (starting at 0, ending
//                                               at m_i): 2 n_i + 2 entries
//   edges_[header .. header + m_i)              local out-edges
// An *implicit singleton* — one vertex (necessarily the root) and no
// edges; 57% of the sketches on pitexbench's network — has an empty body
// block: View() serves its vertex from roots_[i] and its header and
// offsets from a static {0, 0, 0}, so the estimate walk over it reads
// only the root.
//
// Every pool is written one way: sketches are appended in this layout
// (Append) into exact-size arrays, then the containing index is built
// once. The build's generator appends to *runs* — pools without a
// containing index, one per worker slot — and FromRuns copies their
// segments, in sample order, into the finished pool. Pack (compaction,
// the index loader) sizes its arrays in one pass over its views and
// appends straight into them. An overlay's sketch store is a run that
// is never finished.
//
// A finished pool is immutable. DynamicRrIndex, which repairs
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
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace pitex {

class RrSketchPool {
 public:
  /// Samples [sample, sample + count) stored in order as sketches
  /// [first, first + count) of run `run`: what FromRuns copies.
  struct Segment {
    uint64_t sample = 0;
    uint32_t run = 0;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  RrSketchPool() = default;

  /// Packs sketches view_of(0), ..., view_of(num_sketches - 1): sizes
  /// every array exactly, appends each view, then builds the containing
  /// index. `num_vertices` is the global vertex universe; every sketch
  /// vertex must lie inside it, and a one-vertex sketch's vertex must be
  /// its root. DynamicRrIndex compaction and the index loader pack this
  /// way.
  template <typename ViewOf>
  static RrSketchPool Pack(size_t num_sketches, size_t num_vertices,
                           ViewOf&& view_of);
  /// True when sketches view_of(0), ..., view_of(num_sketches - 1) fit
  /// the pool's 32-bit arrays. Pack aborts on sketches that do not, so a
  /// caller packing untrusted input (the index loader) checks first.
  template <typename ViewOf>
  static bool Fits(size_t num_sketches, ViewOf&& view_of);

  /// Finishes a pool from runs: copies every segment, in sample order,
  /// into exact-size arrays (rebasing the directory and each block's edge
  /// header), then builds the containing index — in parallel when `pool`
  /// is non-null. The segments must cover samples [0, num_sketches)
  /// exactly once, so sketch i of the result is sample i whatever the
  /// runs and segments were: the pool is identical for any thread count
  /// and claim interleaving.
  static RrSketchPool FromRuns(std::span<const RrSketchPool> runs,
                               std::span<const Segment> segments,
                               uint64_t num_sketches, size_t num_vertices,
                               ThreadPool* pool = nullptr);

  /// Appends one sketch in the pooled layout without touching the
  /// containing index: a pool appended to is a run, which only FromRuns
  /// reads besides View(). `sketch` must not view this pool.
  void Append(const RRView& sketch);
  /// Drops every sketch, keeping every array's capacity: a cleared run
  /// takes appends without allocating up to its high-water mark.
  void Clear();

  size_t num_sketches() const { return roots_.size(); }
  bool empty() const { return roots_.empty(); }

  /// Non-owning view of sketch i (valid while the pool is alive).
  RRView View(size_t i) const {
    const std::span<const VertexId> vertices = Vertices(i);
    const size_t n = vertices.size();
    // An explicit block's header precedes its vertices and its offsets
    // follow them. A singleton reads the static header instead: a
    // trailing one's block starts at body_.size(), past the array.
    const bool singleton = body_starts_[i] == body_starts_[i + 1];
    const uint32_t* header =
        singleton ? kSingletonHeader : vertices.data() - 1;
    const uint32_t* offsets =
        singleton ? kSingletonHeader + 1 : vertices.data() + n;
    return RRView{roots_[i],
                  vertices,
                  {offsets, n + 1},
                  {edges_.data() + header[0], offsets[n]}};
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
  /// index's size, so it counts finished pools only (not a run).
  uint64_t total_vertices() const { return containing_.size(); }
  uint64_t total_edges() const { return edges_.size(); }
  /// Largest per-sketch vertex count (scratch pre-sizing).
  size_t max_sketch_vertices() const { return max_sketch_vertices_; }

  /// Exact footprint of the pooled arrays, computed in O(1).
  size_t SizeBytes() const;

 private:
  /// The header (edge start 0) and offsets of every implicit singleton.
  static constexpr uint32_t kSingletonHeader[3] = {0, 0, 0};

  /// Entries a list of sketches needs in each array: one sizing pass
  /// shared by Fits and Pack.
  struct Totals {
    uint64_t body = 0;
    uint64_t vertices = 0;
    uint64_t edges = 0;
    /// True when `num_sketches` sketches with these totals fit the
    /// 32-bit directories and ids.
    bool Fit(uint64_t num_sketches) const {
      return num_sketches < UINT32_MAX && body <= UINT32_MAX &&
             vertices <= UINT32_MAX && edges <= UINT32_MAX;
    }
  };
  template <typename ViewOf>
  static Totals Measure(size_t num_sketches, ViewOf&& view_of);

  /// body_ entries of a sketch with n vertices and m edges: none for an
  /// implicit singleton, else a header, n vertices and n + 1 offsets.
  static uint64_t BodyLength(uint64_t n, uint64_t m) {
    // Branch-free for the same reason as Vertices().
    return uint64_t{n != 1 || m != 0} * (2 * n + 2);
  }

  /// Sketch i's sorted vertices: its body block after the header, or
  /// its root for an implicit singleton.
  std::span<const VertexId> Vertices(size_t i) const {
    const uint32_t b = body_starts_[i];
    const uint32_t len = body_starts_[i + 1] - b;
    // Selects, not a branch: the packing passes meet singletons and
    // explicit blocks interleaved at random.
    const bool singleton = len == 0;
    return {singleton ? &roots_[i] : body_.data() + b + 1,
            singleton ? 1 : (len - 2) / 2};
  }

  /// Where sketch i's edges start in edges_: the header of the first
  /// explicit block at or after i, or the end of edges_.
  uint64_t EdgeStart(size_t i) const;

  /// Rebuilds containing_starts_/containing_ from the packed sketches
  /// (counting pass + prefix sum + fill in ascending sketch-id order).
  /// Also recomputes max_sketch_vertices_. With a pool, count and fill
  /// run over sketch ranges balanced by vertex volume, with per-range
  /// histograms turned into deterministic per-range cursors — the fill
  /// order per vertex is still ascending sketch id.
  void BuildContaining(size_t num_vertices, ThreadPool* pool = nullptr);

  std::vector<VertexId> roots_;         // one per sketch
  std::vector<uint32_t> body_starts_;   // num_sketches + 1
  std::vector<uint32_t> body_;          // header + vertices + offsets
  std::vector<RRLocalEdge> edges_;      // all sketch edge arrays
  std::vector<uint32_t> containing_starts_;  // num_vertices + 1
  std::vector<uint32_t> containing_;         // sketch ids, CSR by vertex
  size_t max_sketch_vertices_ = 0;
};

// The view-function templates are defined here so that a caller's view
// function inlines into the per-sketch loops.

template <typename ViewOf>
RrSketchPool::Totals RrSketchPool::Measure(size_t num_sketches,
                                           ViewOf&& view_of) {
  Totals totals;
  for (size_t i = 0; i < num_sketches; ++i) {
    const RRView rr = view_of(i);
    totals.body += BodyLength(rr.vertices.size(), rr.edges.size());
    totals.vertices += rr.vertices.size();
    totals.edges += rr.edges.size();
  }
  return totals;
}

template <typename ViewOf>
RrSketchPool RrSketchPool::Pack(size_t num_sketches, size_t num_vertices,
                                ViewOf&& view_of) {
  // Exact-size arrays up front, so the appends never regrow them.
  const Totals totals = Measure(num_sketches, view_of);
  PITEX_CHECK_MSG(totals.Fit(num_sketches),
                  "sketch pool exceeds 32-bit directories");
  RrSketchPool pool;
  pool.roots_.reserve(num_sketches);
  pool.body_starts_.reserve(num_sketches + 1);
  pool.body_.reserve(totals.body);
  pool.edges_.reserve(totals.edges);
  pool.body_starts_.push_back(0);
  for (size_t i = 0; i < num_sketches; ++i) pool.Append(view_of(i));
  pool.BuildContaining(num_vertices);
  return pool;
}

template <typename ViewOf>
bool RrSketchPool::Fits(size_t num_sketches, ViewOf&& view_of) {
  return Measure(num_sketches, view_of).Fit(num_sketches);
}

/// The repairs a DynamicRrIndex has made since its base pool was packed,
/// as a copyable value: the master edits its own overlay, and each
/// published snapshot serves an immutable copy beside the shared base
/// (RrIndex::FromPool). It holds
///   * repaired sketches, appended to a run in pool layout (a sketch
///     repaired twice keeps its superseded copy until compaction);
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
