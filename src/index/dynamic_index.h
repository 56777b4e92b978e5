// Incremental maintenance of the RR-Graph index under influence-model
// updates.
//
// The paper's Sec. 2 observes that reliability-query indexes assume a
// *fixed* input graph, and its own index (Sec. 6) is built offline once.
// In deployments the influence model is re-learned continually (new
// cascades arrive, p(e|z) drifts), and rebuilding theta RR-Graphs per
// refresh is the dominant cost (Table 3 build times). DynamicRrIndex
// repairs the index instead of rebuilding it.
//
// Repair rule (coin coupling). Model each edge's sampling randomness as
// a latent uniform U(e): the edge is live in a world iff U(e) < p(e). A
// live edge's threshold is not part of that world and is not stored:
// c(e) = p(e) * H(seed, i, e) is computed from the current envelope
// where the record is probed (SketchThresholds, src/index/rr_graph.h),
// and H is a uniform no repair reads. An RR-Graph probed edge e = (t, v)
// iff it contains v, so:
//
//   * graphs without v never examined U(e) — untouched, distribution
//     unchanged (they probed only edges whose probabilities are
//     unchanged);
//   * e live in the graph (U < p_old): stays live with probability
//     min(1, p_new / p_old) — the exact conditional P[U < p_new | U <
//     p_old] — by a coin of the repair stream, drawn only when the
//     envelope falls; its threshold, which scales with the envelope, is
//     uniform on (0, p_new] either way; on death the graph is pruned
//     back to the vertices still reaching the root;
//   * e dead (v present, e absent; latent U uniform on [p_old, 1)):
//     resurrects with probability (p_new - p_old)/(1 - p_old), with no
//     threshold to draw; if the tail t was outside the graph the reverse
//     sampling *expands* from t, flipping the in-edge coins of every
//     newly reached vertex for the first time.
//
// No branch reads H, so given any sketch's shape its thresholds are
// independent and uniform on (0, p(e)] under the current model after
// any update history, compaction or load, and a sketch needs no repair
// version to key them: its id and the index seed do.
// Every branch is the exact conditional law of the new model given the
// old world, so after any update history the ensemble is distributed as
// a freshly built index on the current model — same estimator, same
// guarantees. Cost per update is proportional to the affected graphs
// (theta(v) of the edge's head, small on average by the power-law
// argument of Lemma 9), not to theta. bench/ablation_dynamic.cc
// quantifies repair vs. rebuild.
//
// Each update is folded into the owned influence model as it is
// applied. The model is chunked copy-on-write storage
// (src/model/influence_graph.h), so a fold copies one chunk and the
// chunk directory, not the CSR, and repairs read envelopes from the
// model itself: a batch costs O(touched chunks) plus work proportional
// to the affected graphs, with no O(|E|) term.
//
// Storage: base + overlay. The sketches live in an immutable, refcounted
// RrSketchPool *base* (sampled by the same pass as RrIndex::Build, or
// adopted from a loaded checkpoint) that every published snapshot
// shares. A repair never touches the base: the repaired sketch is
// appended to an RrSketchOverlay with a sketch-id redirect, and the
// containing lists of the vertices whose membership changed are
// replaced there. Freeze() hands snapshots an immutable copy of the
// overlay, so a publish costs the overlay, not theta sketches. Compact()
// folds base + overlay into a new base (RrSketchOverlay::Fold copies
// each current sketch's block, in id order, so the pool is bit-identical
// to re-encoding every current sketch).

#ifndef PITEX_SRC_INDEX_DYNAMIC_INDEX_H_
#define PITEX_SRC_INDEX_DYNAMIC_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ranges>
#include <span>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/index/rr_index.h"
#include "src/index/sketch_arena.h"

namespace pitex {

/// One influence-model change: edge e's sparse topic vector is replaced
/// by `entries` (empty entries delete the edge's influence entirely).
struct EdgeInfluenceUpdate {
  EdgeId edge = 0;
  std::vector<EdgeTopicEntry> entries;
};

/// Why `update` cannot be applied to a model over `network`, or nullptr
/// when it can. An applicable update names an edge in range, and each
/// entry has a finite probability in [0, 1] and a topic below
/// num_topics(); no topic appears twice among the positive entries
/// (zero entries are dropped, as InfluenceGraphBuilder drops them).
/// ApplyUpdates aborts on anything else, so a durable caller checks
/// every update with this before it logs or replays it.
const char* InvalidUpdateReason(const EdgeInfluenceUpdate& update,
                                const SocialNetwork& network);

/// Overlay size, as a fraction of theta, past which the overlay is
/// folded into a new base (Compact) by the next Freeze() or
/// ApplyUpdates(). Checkpoints compact as well, so between checkpoints
/// the overlay stays a few batches' repairs.
inline constexpr double kOverlayCompactFraction = 1.0 / 16.0;

class DynamicRrIndex final : public InfluenceOracle {
 public:
  /// Aliases `network` (an O(1) copy: topology and influence storage are
  /// shared); updates give the index's influence model copies of the
  /// chunks they touch, so the caller's network stays at the
  /// construction-time state.
  DynamicRrIndex(const SocialNetwork& network, const RrIndexOptions& options);

  // view_ refers to network_ and overlay_ by address.
  DynamicRrIndex(const DynamicRrIndex&) = delete;
  DynamicRrIndex& operator=(const DynamicRrIndex&) = delete;

  /// Samples the initial theta RR-Graphs into the base, against a
  /// temporary EnvelopeTable. With equal options and seed the initial
  /// state is bit-identical to a freshly built RrIndex.
  void Build();

  /// Applies model updates in order: each replaces one edge's topic
  /// vector in the model (a copy-on-write fold of one chunk) and repairs
  /// every affected RR-Graph (those containing the edge's head) by the
  /// coin-coupling rule above. Every update must pass
  /// InvalidUpdateReason; an edge may repeat within a batch.
  void ApplyUpdates(std::span<const EdgeInfluenceUpdate> updates);

  /// Convenience single-edge form.
  void UpdateEdgeTopics(EdgeId edge, std::span<const EdgeTopicEntry> entries);

  /// Recovery hook (src/serve/recovery.h), called instead of -- and
  /// before any stand-in for -- Build() on a freshly constructed index:
  /// folds `replacements` (the current topic vector of every edge that
  /// has diverged from the base network) into the owned influence model
  /// and restores the repair-RNG version counter, reproducing the model
  /// state a checkpoint was taken at. The fold is the same
  /// ReplaceEdgeTopics ApplyUpdates applies per update, so only each
  /// edge's *final* entries matter -- not the update history.
  void RestoreModel(std::span<const EdgeInfluenceUpdate> replacements,
                    uint64_t version);

  /// Recovery hook, the stand-in for Build(): adopts the pool of a
  /// loaded checkpoint index as this index's base (shared, not copied;
  /// its containing lists are in ascending sketch id, exactly as Build()
  /// leaves them). The checkpoint must have been saved against a model
  /// equal to the restored one; LoadRrIndex's fingerprint check proves
  /// exactly that. It must carry no overlay (loaded indexes never do).
  void AdoptSketches(const RrIndex& checkpoint);

  /// Edge updates applied over this index's lifetime; salts the repair
  /// RNG (SampleStream), so checkpoints persist it and recovery restores it
  /// before replay -- replayed repairs then re-draw the same coins.
  uint64_t version() const { return version_; }

  /// Snapshot hook (src/serve/snapshot_registry.h): an immutable RrIndex
  /// over `network` serving the current sketches -- the shared base plus
  /// a frozen copy of the overlay. With `compact`, or once the overlay
  /// passes kOverlayCompactFraction of theta, the overlay is first
  /// folded into a new base (Compact), and the returned index then has
  /// no repairs.
  std::unique_ptr<RrIndex> Freeze(const SocialNetwork& network,
                                  bool compact);

  /// Folds base + overlay into a new base (RrSketchOverlay::Fold) and
  /// empties the overlay; a no-op while the overlay is empty.
  void Compact();

  Estimate EstimateInfluence(VertexId u, const EdgeProbFn& probs) override;
  const char* Name() const override { return "DYN-INDEXEST"; }

  /// The current (post-update) network. Posterior probabilities for
  /// queries must be computed against this copy, not the construction
  /// argument.
  const SocialNetwork& network() const { return network_; }

  uint64_t theta() const { return theta_; }
  /// The sketch accessors below read the index once Build() or
  /// AdoptSketches() has run.
  size_t num_graphs() const { return view_->num_graphs(); }
  /// Current version of sketch i (valid until the next update), `u` a
  /// vertex it contains (RrIndex::graph).
  RRView graph(size_t i, VertexId u) const { return view_->graph(i, u); }
  const RrIndexOptions& options() const { return options_; }
  /// Ids of the sketches rooted at u (RrIndex::RootRange).
  std::ranges::iota_view<uint32_t, uint32_t> RootRange(VertexId u) const {
    return view_->RootRange(u);
  }
  /// Ids of the sketches containing u that u does not root, ascending
  /// (valid until the next update).
  ContainingList NonRootContaining(VertexId u) const {
    return view_->NonRootContaining(u);
  }
  /// Sketch copies in the overlay (superseded ones included).
  size_t overlay_sketches() const { return overlay_->num_stored(); }

  /// Maintenance counters (ablation metrics).
  struct Stats {
    uint64_t update_batches = 0;
    uint64_t edges_updated = 0;
    /// Affected graphs examined (containing the updated edge's head).
    uint64_t graphs_examined = 0;
    /// Graphs whose structure actually changed (edge died, resurrected,
    /// or membership shifted).
    uint64_t graphs_changed = 0;
    /// Overlay folds into a new base (Compact calls that folded).
    uint64_t compactions = 0;
  };
  const Stats& stats() const { return stats_; }

  /// The master's own bytes: the base pool and the overlay. The
  /// influence model and topology are shared with the caller's network
  /// and are not counted.
  size_t SizeBytes() const;

 private:
  // Repairs `sketch`, graph sketch.id rooted at sketch.root, for edge
  // `e` transitioning envelope p_old -> p_new. Precondition: the graph
  // contains head(e).
  void RepairGraph(RootedId sketch, EdgeId e, double p_old, double p_new,
                   Rng* rng);
  // Makes `base` the base under an empty overlay.
  void ResetBase(std::shared_ptr<const RrSketchPool> base);
  bool OverlayFull() const;

  SocialNetwork network_;
  RrIndexOptions options_;
  uint64_t theta_ = 0;
  uint64_t version_ = 0;  // bumped per update; salts the repair RNG
  std::shared_ptr<const RrSketchPool> base_;
  std::shared_ptr<RrSketchOverlay> overlay_;
  // Read path over base_ + overlay_ (graph, the root ranges and lists,
  // estimates);
  // private, never handed to a snapshot, since overlay_ mutates. Null
  // until Build() or AdoptSketches().
  std::unique_ptr<RrIndex> view_;
  Stats stats_;
  // Per-instance reachability scratch (a DynamicRrIndex is single-owner
  // mutable state, never shared across threads).
  EstimateScratch scratch_;
  // Repair scratch: the arena re-closes each repaired sketch into
  // repaired_, a one-sketch run cleared before each repair, so
  // steady-state repairs reuse flat buffers instead of per-repair hash
  // sets and staging vectors.
  SketchArena arena_;
  RrSketchPool repaired_;
  std::vector<RootedId> affected_;
  std::vector<RootedId> splice_ids_;  // one containing list, decoded
  std::vector<GlobalEdgeSample> repair_edges_;
  DecodedSketch before_;  // the sketch being repaired, decoded
  DecodedSketch after_;   // and its repaired copy
  std::vector<VertexId> repair_stack_;
  // Expansion envelope slice (InEnvelopeSlice): the floats an
  // EnvelopeTable of the current model holds, so repair coins are drawn
  // against exactly the envelope the sketches were (or would have been)
  // sampled with.
  std::vector<float> env_scratch_;
  std::vector<uint32_t> present_mark_;  // expansion membership stamps
  uint32_t present_epoch_ = 0;
  bool built_ = false;
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_DYNAMIC_INDEX_H_
