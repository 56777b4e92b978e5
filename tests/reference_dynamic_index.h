// Reference implementation for tests/dynamic_overlay_equivalence_test.cc:
// the DynamicRrIndex master as it stood before its sketches moved to a
// shared base pool plus overlay, and before its model was folded per
// update. It keeps theta owning RRGraphs and a per-vertex containing
// vector, repairs sketches in place, unpacks a checkpoint's pool on
// adoption, reads envelopes from an O(1)-updatable mirror of the model
// (EnvelopeMirror below) and folds the influence model once per batch.
// Build, ApplyUpdates, RestoreModel, RepairGraph and AdoptSketches are
// kept verbatim (only the class names differ, Build samples against a
// temporary EnvelopeTable beside the mirror and numbers its sketches in
// the pool's root order, and RepairGraph copies each re-closed sketch
// out of a one-sketch run), so any divergence of the
// production master from this one is a behaviour change, not a
// representation change.

#ifndef PITEX_TESTS_REFERENCE_DYNAMIC_INDEX_H_
#define PITEX_TESTS_REFERENCE_DYNAMIC_INDEX_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "owned_sketch.h"
#include "src/index/dynamic_index.h"
#include "src/index/rr_graph.h"
#include "src/index/rr_index.h"
#include "src/index/rr_sketch_pool.h"
#include "src/index/sketch_arena.h"
#include "src/util/check.h"

namespace pitex {

// The envelope table as the production master used to keep it: the
// build table's floats plus an EdgeId -> slot map, so one edge's
// envelope can be read and replaced in O(1) between batch folds.
class EnvelopeMirror {
 public:
  EnvelopeMirror() = default;
  EnvelopeMirror(const Graph& graph, const InfluenceGraph& influence) {
    in_env_.resize(graph.num_edges());
    in_pos_.resize(graph.num_edges());
    vertex_max_.resize(graph.num_vertices());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      const uint64_t base = graph.InEdgeOffset(v);
      const auto in = graph.InEdges(v);
      float vmax = 0.0f;
      for (size_t j = 0; j < in.size(); ++j) {
        const float p = EnvelopeProbability(influence.MaxProb(in[j].edge));
        in_env_[base + j] = p;
        in_pos_[in[j].edge] = static_cast<uint32_t>(base + j);
        vmax = std::max(vmax, p);
      }
      vertex_max_[v] = vmax;
    }
  }

  std::span<const float> InEnvelopes(const Graph& graph, VertexId v) const {
    return {in_env_.data() + graph.InEdgeOffset(v), graph.InDegree(v)};
  }
  float VertexMax(VertexId v) const { return vertex_max_[v]; }
  float Prob(EdgeId e) const { return in_env_[in_pos_[e]]; }

  // Replaces edge e's envelope with EnvelopeProbability(max_prob) and
  // rescans the head's per-vertex maximum.
  void Update(const Graph& graph, EdgeId e, double max_prob) {
    in_env_[in_pos_[e]] = EnvelopeProbability(max_prob);
    const VertexId head = graph.Head(e);
    float vmax = 0.0f;
    for (const float p : InEnvelopes(graph, head)) vmax = std::max(vmax, p);
    vertex_max_[head] = vmax;
  }

 private:
  std::vector<float> in_env_;      // in-adjacency order
  std::vector<uint32_t> in_pos_;   // EdgeId -> slot in in_env_
  std::vector<float> vertex_max_;  // per-vertex max over in-edges
};

class ReferenceDynamicRrIndex {
 public:
  ReferenceDynamicRrIndex(const SocialNetwork& network,
                          const RrIndexOptions& options)
      : network_(network), options_(options), repaired_(network.graph) {
    if (options_.theta_override > 0) {
      theta_ = options_.theta_override;
    } else {
      const double theta = options_.theta_per_vertex *
                           static_cast<double>(network_.num_vertices());
      theta_ = std::min<uint64_t>(
          options_.max_theta,
          std::max<uint64_t>(64, static_cast<uint64_t>(std::llround(theta))));
    }
  }

  void Build() {
    PITEX_CHECK_MSG(!built_, "Build() called twice");
    built_ = true;
    graphs_.resize(theta_);
    roots_.resize(theta_);
    containing_.assign(network_.num_vertices(), {});
    envelope_ = EnvelopeMirror(network_.graph, network_.influence);
    // The build's generator against the table the static build
    // materializes, so the initial state is bit-identical to
    // RrIndex::Build with equal options and seed. Each sketch passes
    // through a one-sketch run into its owning graph.
    const EnvelopeTable table(network_.graph, network_.influence);
    RrSketchPool run(network_.graph);
    for (uint64_t i = 0; i < theta_; ++i) {
      Rng rng = StreamFor(options_.seed, i, /*version=*/0);
      roots_[i] =
          static_cast<VertexId>(rng.NextBounded(network_.num_vertices()));
      run.Clear();
      arena_.Generate(network_.graph, table, roots_[i], &rng, &run);
      graphs_[i].Assign(run.View(0, roots_[i]));
    }
    // The built pool numbers its sketches in root order: the mirror
    // takes the same ids, so its repairs draw from the same streams.
    graphs_ = InRootOrder(std::move(graphs_));
    for (uint64_t i = 0; i < theta_; ++i) roots_[i] = graphs_[i].root;
    for (uint32_t id = 0; id < graphs_.size(); ++id) {
      for (VertexId v : graphs_[id].vertices) containing_[v].push_back(id);
    }
  }

  void ApplyUpdates(std::span<const EdgeInfluenceUpdate> updates) {
    PITEX_CHECK_MSG(built_, "call Build() before ApplyUpdates()");
    if (updates.empty()) return;
    ++stats_.update_batches;

    // Updates apply sequentially; the CSR fold below keeps the *last*
    // entries per edge, matching the sequential envelope transitions.
    std::unordered_map<EdgeId, std::span<const EdgeTopicEntry>> pending;
    for (const EdgeInfluenceUpdate& update : updates) {
      const EdgeId e = update.edge;
      PITEX_CHECK(e < network_.num_edges());
      ++version_;
      ++stats_.edges_updated;

      // Transitions are taken in the float-quantized envelope space the
      // sketches were sampled in and their thresholds scale with
      // (EnvelopeProbability), so the conditionals below are exact.
      const auto p_old = static_cast<double>(envelope_.Prob(e));
      double p_new_raw = 0.0;
      for (const EdgeTopicEntry& entry : update.entries) {
        PITEX_CHECK_MSG(entry.prob >= 0.0 && entry.prob <= 1.0,
                        "edge probability out of [0, 1]");
        p_new_raw = std::max(p_new_raw, entry.prob);
      }
      const auto p_new =
          static_cast<double>(EnvelopeProbability(p_new_raw));
      envelope_.Update(network_.graph, e, p_new_raw);
      pending[e] = update.entries;

      // Only graphs containing head(e) ever probed e. Snapshot the list:
      // repairs splice containment as membership changes.
      const VertexId head = network_.graph.Head(e);
      const std::vector<uint32_t> affected = containing_[head];
      for (const uint32_t id : affected) {
        ++stats_.graphs_examined;
        Rng rng = StreamFor(options_.seed, id, version_);
        RepairGraph(id, e, p_old, p_new, &rng);
      }
    }

    // Fold the batch into the influence CSR once: a single exact-size
    // splice pass (O(|E| + nnz), three allocations) instead of re-staging
    // every edge through InfluenceGraphBuilder's per-edge vectors.
    std::vector<EdgeTopicsReplacement> replacements;
    replacements.reserve(pending.size());
    for (const auto& [e, entries] : pending) {
      replacements.push_back(EdgeTopicsReplacement{e, entries});
    }
    network_.influence = ReplaceEdgeTopics(network_.influence, replacements);
  }

  void RestoreModel(std::span<const EdgeInfluenceUpdate> replacements,
                    uint64_t version) {
    PITEX_CHECK_MSG(!built_, "RestoreModel() must precede Build()/Adopt");
    if (!replacements.empty()) {
      std::vector<EdgeTopicsReplacement> folded;
      folded.reserve(replacements.size());
      for (const EdgeInfluenceUpdate& r : replacements) {
        PITEX_CHECK(r.edge < network_.num_edges());
        folded.push_back(EdgeTopicsReplacement{r.edge, r.entries});
      }
      network_.influence = ReplaceEdgeTopics(network_.influence, folded);
    }
    version_ = version;
  }

  void AdoptSketches(const RrIndex& checkpoint) {
    PITEX_CHECK_MSG(!built_, "AdoptSketches() on an already built index");
    built_ = true;
    theta_ = checkpoint.theta();
    const RrSketchPool& pool = checkpoint.pool();
    const size_t n = pool.num_sketches();
    graphs_.resize(n);
    roots_.resize(n);
    const PoolViews views(pool);
    for (size_t i = 0; i < n; ++i) {
      const RRView view = views(i);
      graphs_[i].Assign(view);
      roots_[i] = view.root();
    }
    containing_.assign(network_.num_vertices(), {});
    for (uint32_t id = 0; id < graphs_.size(); ++id) {
      for (VertexId v : graphs_[id].vertices) containing_[v].push_back(id);
    }
    envelope_ = EnvelopeMirror(network_.graph, network_.influence);
  }

  Estimate EstimateInfluence(VertexId u, const EdgeProbFn& probs) {
    PITEX_CHECK_MSG(built_, "call Build() first");
    Estimate result;
    uint64_t hits = 0;
    for (const uint32_t id : containing_[u]) {
      ++result.samples;
      RRView rr = graphs_[id].View();
      rr.thresholds = {&network_.influence, ThresholdKey(options_.seed, id)};
      if (IsReachable(rr, u, probs, &result.edges_visited, &scratch_)) {
        ++hits;
      }
    }
    result.influence = static_cast<double>(hits) /
                       static_cast<double>(theta_) *
                       static_cast<double>(network_.num_vertices());
    result.influence = std::max(result.influence, 1.0);
    const auto scale = static_cast<double>(network_.num_vertices());
    result.std_error = SampleMeanStdError(
        static_cast<double>(hits) * scale,
        static_cast<double>(hits) * scale * scale, theta_);
    return result;
  }

  const SocialNetwork& network() const { return network_; }
  uint64_t theta() const { return theta_; }
  uint64_t version() const { return version_; }
  std::span<const RRGraph> graphs() const { return graphs_; }
  const std::vector<uint32_t>& Containing(VertexId u) const {
    return containing_[u];
  }

  struct Stats {
    uint64_t update_batches = 0;
    uint64_t edges_updated = 0;
    uint64_t graphs_examined = 0;
    uint64_t graphs_changed = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // RNG stream for sample i at repair version `version` (the production
  // master's StreamFor, which lives in its translation unit).
  static Rng StreamFor(uint64_t seed, uint64_t i, uint64_t version) {
    uint64_t mix = seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    if (version > 0) mix ^= 0xbf58476d1ce4e5b9ULL * version;
    return Rng(SplitMix64(&mix));
  }

  void RepairGraph(uint32_t id, EdgeId e, double p_old, double p_new,
                   Rng* rng) {
    RRGraph& rr = graphs_[id];
    auto& edges = repair_edges_;
    DecomposeRRGraphInto(rr, &edges);
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
        // envelope mirror, which reflects all updates applied so far.
        if (!rr.LocalIndex(tail).has_value()) {
          if (present_mark_.size() < network_.num_vertices()) {
            present_mark_.resize(network_.num_vertices(), 0);
          }
          if (++present_epoch_ == 0) {
            std::fill(present_mark_.begin(), present_mark_.end(), 0);
            present_epoch_ = 1;
          }
          const uint32_t epoch = present_epoch_;
          for (const VertexId v : rr.vertices) present_mark_[v] = epoch;
          present_mark_[tail] = epoch;
          std::vector<VertexId>& stack = repair_stack_;
          stack.assign(1, tail);
          while (!stack.empty()) {
            const VertexId x = stack.back();
            stack.pop_back();
            const auto in = network_.graph.InEdges(x);
            SampleLiveInEdges(envelope_.InEnvelopes(network_.graph, x),
                              envelope_.VertexMax(x), rng,
                              [&](size_t j) {
                                const auto& [y, in_edge] = in[j];
                                edges.push_back(
                                    GlobalEdgeSample{y, x, in_edge});
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

    // Splice containment: detach old membership, re-close the sketch (keep
    // exactly the vertices still reaching the root — an edge death can
    // orphan a subtree; an expansion adds one) and attach the new
    // membership. The arena re-closes the sketch into a one-sketch run,
    // which rr then copies, reusing its own capacity.
    for (const VertexId v : rr.vertices) {
      auto& list = containing_[v];
      list.erase(std::find(list.begin(), list.end(), id));
    }
    repaired_.Clear();
    arena_.RebuildRepairedSketch(roots_[id], edges, &repaired_);
    rr.Assign(repaired_.View(0, roots_[id]));
    for (const VertexId v : rr.vertices) {
      auto& list = containing_[v];
      list.insert(std::lower_bound(list.begin(), list.end(), id), id);
    }
  }

  SocialNetwork network_;
  RrIndexOptions options_;
  uint64_t theta_ = 0;
  uint64_t version_ = 0;
  std::vector<RRGraph> graphs_;
  std::vector<VertexId> roots_;
  std::vector<std::vector<uint32_t>> containing_;
  EnvelopeMirror envelope_;
  Stats stats_;
  EstimateScratch scratch_;
  SketchArena arena_;
  RrSketchPool repaired_;  // one-sketch run for each re-closed sketch
  std::vector<GlobalEdgeSample> repair_edges_;
  std::vector<VertexId> repair_stack_;
  std::vector<uint32_t> present_mark_;
  uint32_t present_epoch_ = 0;
  bool built_ = false;
};

}  // namespace pitex

#endif  // PITEX_TESTS_REFERENCE_DYNAMIC_INDEX_H_
