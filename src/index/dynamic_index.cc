#include "src/index/dynamic_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/check.h"

namespace pitex {

const char* InvalidUpdateReason(const EdgeInfluenceUpdate& update,
                                const SocialNetwork& network) {
  if (update.edge >= network.num_edges()) return "unknown edge";
  const auto& entries = update.entries;
  for (size_t i = 0; i < entries.size(); ++i) {
    const EdgeTopicEntry& entry = entries[i];
    if (!std::isfinite(entry.prob) || entry.prob < 0.0 || entry.prob > 1.0) {
      return "probability out of [0, 1]";
    }
    if (entry.topic >= network.topics.num_topics()) return "unknown topic";
    if (entry.prob == 0.0) continue;
    for (size_t j = 0; j < i; ++j) {
      if (entries[j].topic == entry.topic && entries[j].prob > 0.0) {
        return "duplicate topic";
      }
    }
  }
  return nullptr;
}

DynamicRrIndex::DynamicRrIndex(const SocialNetwork& network,
                               const RrIndexOptions& options)
    : network_(network),
      options_(options),
      theta_(RrIndex::ThetaFor(network.num_vertices(), options)),
      repaired_(network.graph) {
  // No view until Build() or AdoptSketches() gives the base its theta
  // sketches.
  base_ = std::make_shared<const RrSketchPool>();
  overlay_ = std::make_shared<RrSketchOverlay>();
}

void DynamicRrIndex::ResetBase(std::shared_ptr<const RrSketchPool> base) {
  base_ = std::move(base);
  overlay_ = std::make_shared<RrSketchOverlay>(*base_);
  view_ = RrIndex::FromPool(network_, options_, theta_, base_, overlay_);
}

void DynamicRrIndex::Build() {
  PITEX_CHECK_MSG(!built_, "Build() called twice");
  built_ = true;
  // The static build's own sampling pass over a temporary envelope
  // table, so the initial state is bit-identical to RrIndex::Build with
  // equal options and seed.
  const EnvelopeTable envelope(network_.graph, network_.influence);
  ResetBase(std::make_shared<const RrSketchPool>(
      SampleSketchPool(network_.graph, envelope, theta_, options_.seed,
                       options_.num_build_threads, nullptr)));
}

bool DynamicRrIndex::OverlayFull() const {
  return static_cast<double>(overlay_->num_stored()) >
         kOverlayCompactFraction * static_cast<double>(theta_);
}

void DynamicRrIndex::ApplyUpdates(
    std::span<const EdgeInfluenceUpdate> updates) {
  PITEX_CHECK_MSG(built_, "call Build() before ApplyUpdates()");
  if (updates.empty()) return;
  // Bounds the overlay for callers that never Freeze (recovery replay).
  if (OverlayFull()) Compact();
  ++stats_.update_batches;

  for (const EdgeInfluenceUpdate& update : updates) {
    const EdgeId e = update.edge;
    PITEX_CHECK(e < network_.num_edges());
    ++version_;
    ++stats_.edges_updated;

    // Transitions are taken in the float-quantized envelope space the
    // sketches were sampled in and their thresholds scale with
    // (EnvelopeProbability), so the conditionals below are exact. The
    // fold makes the model current before the repairs, so expansions
    // probe every update applied so far, this one included.
    const auto p_old = static_cast<double>(
        EnvelopeProbability(network_.influence.MaxProb(e)));
    const EdgeTopicsReplacement replacement{e, update.entries};
    network_.influence =
        ReplaceEdgeTopics(network_.influence, std::span(&replacement, 1));
    const auto p_new = static_cast<double>(
        EnvelopeProbability(network_.influence.MaxProb(e)));

    // Only graphs containing head(e) ever probed e: those it roots and
    // those its list names, each with its root. Snapshot the list:
    // repairs splice containment as membership changes.
    const VertexId head = network_.graph.Head(e);
    affected_.clear();
    for (const uint32_t id : RootRange(head)) affected_.push_back({head, id});
    AppendRooted(NonRootContaining(head), &affected_);
    for (const RootedId& sketch : affected_) {
      ++stats_.graphs_examined;
      Rng rng = SampleStream(options_.seed, sketch.id, version_);
      RepairGraph(sketch, e, p_old, p_new, &rng);
    }
  }
}

void DynamicRrIndex::UpdateEdgeTopics(EdgeId edge,
                                      std::span<const EdgeTopicEntry> entries) {
  EdgeInfluenceUpdate update;
  update.edge = edge;
  update.entries.assign(entries.begin(), entries.end());
  ApplyUpdates(std::span(&update, 1));
}

void DynamicRrIndex::RestoreModel(
    std::span<const EdgeInfluenceUpdate> replacements, uint64_t version) {
  PITEX_CHECK_MSG(!built_, "RestoreModel() must precede Build()/Adopt");
  std::vector<EdgeTopicsReplacement> folded;
  folded.reserve(replacements.size());
  for (const EdgeInfluenceUpdate& r : replacements) {
    folded.push_back(EdgeTopicsReplacement{r.edge, r.entries});
  }
  network_.influence = ReplaceEdgeTopics(network_.influence, folded);
  version_ = version;
}

void DynamicRrIndex::AdoptSketches(const RrIndex& checkpoint) {
  PITEX_CHECK_MSG(!built_, "AdoptSketches() on an already built index");
  PITEX_CHECK_MSG(checkpoint.repairs() == nullptr,
                  "AdoptSketches() needs an index without an overlay");
  built_ = true;
  theta_ = checkpoint.theta();
  ResetBase(checkpoint.pool_);
}

std::unique_ptr<RrIndex> DynamicRrIndex::Freeze(const SocialNetwork& network,
                                                bool compact) {
  PITEX_CHECK_MSG(built_, "call Build() before Freeze()");
  if (compact || OverlayFull()) Compact();
  return RrIndex::FromPool(
      network, options_, theta_, base_,
      overlay_->empty() ? nullptr
                        : std::make_shared<const RrSketchOverlay>(*overlay_));
}

void DynamicRrIndex::Compact() {
  if (overlay_->empty()) return;
  ++stats_.compactions;
  ResetBase(std::make_shared<const RrSketchPool>(overlay_->Fold(*base_)));
}

void DynamicRrIndex::RepairGraph(RootedId sketch, EdgeId e, double p_old,
                                 double p_new, Rng* rng) {
  // The sketch may sit in the overlay's store: it is decoded before Put
  // appends.
  const uint32_t id = sketch.id;
  const VertexId root = sketch.root;
  Decode(view_->RootedGraph(id, root), &before_);
  auto& edges = repair_edges_;
  DecomposeRRGraphInto(before_, &edges);
  const auto it =
      std::find_if(edges.begin(), edges.end(),
                   [e](const GlobalEdgeSample& s) { return s.edge == e; });

  bool changed = false;
  if (it != edges.end()) {
    // Live under the old model, where P[live] = p_old: it stays live
    // with probability p_new / p_old, by a coin of the repair stream
    // (always when the envelope did not fall), and its threshold, a
    // function of the envelope, is uniform on (0, p_new] either way.
    if (p_new < p_old && rng->NextDouble() * p_old >= p_new) {
      edges.erase(it);
      changed = true;  // prune below: some vertices may lose the root
    }
  } else if (p_new > p_old && p_old < 1.0) {
    // Dead under the old model: latent U(e) uniform on [p_old, 1).
    if (rng->NextDouble() < (p_new - p_old) / (1.0 - p_old)) {
      const VertexId tail = network_.graph.Tail(e);
      const VertexId head = network_.graph.Head(e);
      edges.push_back(GlobalEdgeSample{tail, head, e});
      changed = true;

      // If the tail newly reaches the root, reverse sampling expands:
      // every vertex entering the graph flips its in-edge coins for the
      // first time, through the same combined-draw + geometric-skip
      // probe the bulk build uses (SampleLiveInEdges) against the
      // current model's envelope slice.
      if (!before_.LocalIndex(tail).has_value()) {
        if (present_mark_.size() < network_.num_vertices()) {
          present_mark_.resize(network_.num_vertices(), 0);
        }
        if (++present_epoch_ == 0) {
          std::fill(present_mark_.begin(), present_mark_.end(), 0);
          present_epoch_ = 1;
        }
        const uint32_t epoch = present_epoch_;
        for (const VertexId v : before_.vertices) present_mark_[v] = epoch;
        present_mark_[tail] = epoch;
        std::vector<VertexId>& stack = repair_stack_;
        stack.assign(1, tail);
        while (!stack.empty()) {
          const VertexId x = stack.back();
          stack.pop_back();
          const auto in = network_.graph.InEdges(x);
          const auto [env, vmax] = InEnvelopeSlice(
              network_.graph, network_.influence, x, &env_scratch_);
          SampleLiveInEdges(env, vmax, rng, [&](size_t j) {
                              const auto& [y, in_edge] = in[j];
                              edges.push_back(GlobalEdgeSample{y, x, in_edge});
                              if (present_mark_[y] != epoch) {
                                present_mark_[y] = epoch;
                                stack.push_back(y);
                              }
                            });
        }
      }
    }
  }
  if (!changed) return;
  ++stats_.graphs_changed;

  // Re-close the sketch (keep exactly the vertices still reaching the
  // root — an edge death can orphan a subtree; an expansion adds one),
  // then splice containment for the vertices whose membership changed
  // (a merge over the two sorted vertex sets), and append the new
  // version to the overlay. A splice decodes the vertex's current list
  // (the overlay's, else the base's) once, with each id's root, adds or
  // removes `id` (rooted at `root`: a repair keeps its root), and
  // re-codes the list into the overlay. The root stays in the sketch,
  // so its list, which does not name the sketch, is never spliced.
  repaired_.Clear();
  arena_.RebuildRepairedSketch(root, edges, &repaired_);
  const auto splice = [&](VertexId v, bool insert) {
    PITEX_DCHECK(v != root);
    const ContainingList current = overlay_->NonRootContaining(v).value_or(
        base_->NonRootContaining(v));
    std::vector<RootedId>& ids = splice_ids_;
    ids.clear();
    AppendRooted(current, &ids);
    const auto at = std::ranges::lower_bound(ids, id, {}, &RootedId::id);
    if (insert) {
      ids.insert(at, {root, id});
    } else {
      PITEX_DCHECK(at != ids.end() && (*at == RootedId{root, id}));
      ids.erase(at);
    }
    overlay_->SetContaining(v, ids);
  };
  Decode(repaired_.View(0, root), &after_);
  const std::vector<VertexId>& before = before_.vertices;
  const std::vector<VertexId>& after = after_.vertices;
  size_t i = 0;
  size_t j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() || (i < before.size() && before[i] < after[j])) {
      splice(before[i], /*insert=*/false);
      ++i;
    } else if (i == before.size() || after[j] < before[i]) {
      splice(after[j], /*insert=*/true);
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  overlay_->Put(id, repaired_.View(0, root));
}

Estimate DynamicRrIndex::EstimateInfluence(VertexId u,
                                           const EdgeProbFn& probs) {
  PITEX_CHECK_MSG(built_, "call Build() first");
  return view_->EstimateInfluence(u, probs, &scratch_);
}

size_t DynamicRrIndex::SizeBytes() const {
  return sizeof(DynamicRrIndex) + base_->SizeBytes() + overlay_->SizeBytes();
}

}  // namespace pitex
