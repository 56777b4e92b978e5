// RR-Graph index: offline sampling + online estimation (Sec. 6.1,
// Algorithm 3) — the paper's "IndexEst".
//
// Offline, theta RR-Graphs are sampled for uniformly random roots and
// flattened into a pooled CSR store (src/index/rr_sketch_pool.h): the
// estimate path walks contiguous memory and a reusable EstimateScratch,
// so a query performs zero heap allocations after warmup. Online,
// E[I(u|W)] is estimated as |V| * (reachable fraction) over the RR-Graphs
// that contain u. Eq. (7) gives the theta needed for the full
// (1-eps)/(1+eps) guarantee; since it is proportional to |V| * Lambda it
// is far beyond laptop budgets for large graphs, so the default
// configuration uses theta = theta_per_vertex * |V| (capped) and exposes
// the theoretical value through TheoreticalTheta() — the same
// accuracy/space trade-off the paper's Table 3 makes implicitly.

#ifndef PITEX_SRC_INDEX_RR_INDEX_H_
#define PITEX_SRC_INDEX_RR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ranges>
#include <span>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/index/rr_sketch_pool.h"
#include "src/sampling/influence_estimator.h"
#include "src/util/random.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace pitex {

struct RrIndexOptions {
  double eps = 0.7;
  double delta = 1000.0;
  /// Upper bound K on query k (footnote 2: K = 10 in the paper's setup).
  int64_t cap_k = 10;
  /// RR-Graphs sampled per vertex (theta = theta_per_vertex * |V|).
  double theta_per_vertex = 1.0;
  /// Hard cap on theta.
  uint64_t max_theta = 4'000'000;
  /// If non-zero, overrides the theta computation entirely.
  uint64_t theta_override = 0;
  uint64_t seed = 42;
  /// Build threads when Build() is not handed an external pool. Each
  /// RR-Graph derives its RNG stream from (seed, sample index), so the
  /// built index is bit-identical for any thread count.
  size_t num_build_threads = 1;
};

class RrIndex final : public InfluenceOracle {
 public:
  /// Eq. (7): the theoretically prescribed offline sample size.
  static double TheoreticalTheta(const RrIndexOptions& options,
                                 size_t num_vertices, size_t num_tags);

  /// Offline sample size, for RrIndex and DelayMatIndex alike:
  /// theta_override, else theta_per_vertex * |V| within [64, max_theta].
  static uint64_t ThetaFor(size_t num_vertices, const RrIndexOptions& options);

  RrIndex(const SocialNetwork& network, const RrIndexOptions& options);

  /// Snapshot hook (src/serve): a built index serving the shared `base`
  /// pool with `overlay`'s repaired sketches and containing lists in
  /// place of the base's — how a DynamicRrIndex master is frozen into a
  /// serving replica without copying its sketches. `network` must be
  /// the network whose EdgeIds the sketches reference and must outlive
  /// the index; `theta` is the ensemble size the estimator normalizes
  /// by, and must be `base`'s sketch count. Null or empty `overlay`
  /// serves the base alone.
  static std::unique_ptr<RrIndex> FromPool(
      const SocialNetwork& network, const RrIndexOptions& options,
      uint64_t theta, std::shared_ptr<const RrSketchPool> base,
      std::shared_ptr<const RrSketchOverlay> overlay = nullptr);

  /// Samples the RR-Graphs and packs them into the pool. Must be called
  /// once before estimation. When `pool` is non-null its workers run the
  /// sampling pass (PitexService reuses its pump pool this way);
  /// otherwise an internal pool of options.num_build_threads workers is
  /// used. The result is bit-identical for any thread count.
  void Build(ThreadPool* pool = nullptr);

  Estimate EstimateInfluence(VertexId u, const EdgeProbFn& probs) override;
  /// Scratch-explicit variant: const, thread-safe for concurrent callers
  /// with distinct scratches, and allocation-free after scratch warmup.
  PITEX_NOALLOC Estimate EstimateInfluence(VertexId u,
                                           const EdgeProbFn& probs,
                                           EstimateScratch* scratch) const;
  const char* Name() const override { return "INDEXEST"; }

  uint64_t theta() const { return theta_; }
  size_t num_vertices() const { return network_.num_vertices(); }
  size_t num_graphs() const { return pool_->num_sketches(); }
  /// Non-owning view of RR-Graph i (valid while the index is alive), `u`
  /// a vertex it contains (RrSketchPool::View), with its thresholds
  /// (Thresholds): a reader walking RootRange(u) or NonRootContaining(u)
  /// passes u. A block's root comes from the id's range, by a search of
  /// the root starts: the estimate walks take RootedGraph.
  RRView graph(size_t i, VertexId u) const {
    const uint32_t slot = RepairSlot(i);
    RRView rr = slot == RrSketchOverlay::kNotRepaired
                    ? pool_->View(i, u)
                    : overlay_->View(slot, u);
    rr.thresholds = Thresholds(i);
    return rr;
  }
  /// The view of RR-Graph i rooted at `root` (RrSketchPool::RootedView):
  /// a reader that knows the root, from a root range or a list entry
  /// (ContainingList::Iterator::root), takes it without a search.
  RRView RootedGraph(size_t i, VertexId root) const {
    const uint32_t slot = RepairSlot(i);
    RRView rr = slot == RrSketchOverlay::kNotRepaired
                    ? pool_->RootedView(i, root)
                    : overlay_->View(slot, root);
    rr.thresholds = Thresholds(i);
    return rr;
  }
  /// RR-Graph i's thresholds: c(e) = env(e) * H(ThresholdKey(seed, i),
  /// e), env(e) from this index's model (src/index/rr_graph.h). A
  /// repair keeps the id, so its copy in the overlay keeps the key.
  SketchThresholds Thresholds(size_t i) const {
    return {&network_.influence, ThresholdKey(options_.seed, i)};
  }
  /// Ids (sketch positions) of the RR-Graphs rooted at u: one range of
  /// the base pool, as a repair never changes a root.
  std::ranges::iota_view<uint32_t, uint32_t> RootRange(VertexId u) const {
    return pool_->RootRange(u);
  }
  /// Ids of the RR-Graphs containing u that u does not root, ascending.
  ContainingList NonRootContaining(VertexId u) const {
    if (const RrSketchOverlay* overlay = repairs()) {
      if (const auto list = overlay->NonRootContaining(u)) return *list;
    }
    return pool_->NonRootContaining(u);
  }
  /// theta(u): how many RR-Graphs contain u (Sec. 6.3 notation).
  size_t CountContaining(VertexId u) const {
    return RootRange(u).size() + NonRootContaining(u).count();
  }
  /// The base pool: every sketch as of the last compaction, without the
  /// overlay's repairs.
  const RrSketchPool& pool() const { return *pool_; }
  /// Largest sketch served, base and overlay (scratch pre-sizing).
  size_t max_sketch_vertices() const;

  /// Approximate index footprint (Table 3 metric), O(1) without repairs.
  size_t SizeBytes() const;
  double build_seconds() const { return build_seconds_; }

 private:
  friend class IndexIo;         // persistence (src/index/index_io.h)
  friend class DynamicRrIndex;  // adopts a loaded checkpoint's base

  /// The overlay when it holds repairs, else null.
  const RrSketchOverlay* repairs() const {
    return overlay_ != nullptr && !overlay_->empty() ? overlay_.get()
                                                     : nullptr;
  }
  /// Sketch i's slot in the overlay, or kNotRepaired.
  uint32_t RepairSlot(size_t i) const {
    const RrSketchOverlay* overlay = repairs();
    return overlay == nullptr ? RrSketchOverlay::kNotRepaired
                              : overlay->SlotOf(static_cast<uint32_t>(i));
  }

  const SocialNetwork& network_;
  RrIndexOptions options_;
  uint64_t theta_ = 0;
  std::shared_ptr<const RrSketchPool> pool_;
  std::shared_ptr<const RrSketchOverlay> overlay_;
  bool built_ = false;
  double build_seconds_ = 0.0;
};

/// Samples sketches 0..theta-1 (root and RNG stream derived from
/// (seed, sample index)) against `envelope` and packs them — the shared
/// sampling pass of RrIndex::Build and DynamicRrIndex::Build. Runs on
/// `pool` when non-null, else on `num_threads` local workers; the
/// result is bit-identical for any thread count.
RrSketchPool SampleSketchPool(const Graph& graph,
                              const EnvelopeTable& envelope, uint64_t theta,
                              uint64_t seed, size_t num_threads,
                              ThreadPool* pool);

/// The RNG stream of sample i. Version 0 is the stream SampleSketchPool
/// draws sample i from; DynamicRrIndex salts its repairs with its update
/// version so each repair re-draws fresh coins.
Rng SampleStream(uint64_t seed, uint64_t i, uint64_t version = 0);

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_RR_INDEX_H_
