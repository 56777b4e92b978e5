#include "triggering_sampler.h"

#include <algorithm>

namespace pitex {

void IcTriggering::SampleTriggeringSet(const Graph& graph, VertexId v,
                                       std::span<const double> edge_probs,
                                       Rng* rng,
                                       std::vector<EdgeId>* live) const {
  for (const auto& [tail, e] : graph.InEdges(v)) {
    const double p = edge_probs[e];
    if (p > 0.0 && rng->NextBernoulli(p)) live->push_back(e);
  }
}

void LtTriggering::SampleTriggeringSet(const Graph& graph, VertexId v,
                                       std::span<const double> edge_probs,
                                       Rng* rng,
                                       std::vector<EdgeId>* live) const {
  double total = 0.0;
  for (const auto& [tail, e] : graph.InEdges(v)) total += edge_probs[e];
  if (total <= 0.0) return;
  // With sum <= 1 the leftover mass selects nobody; with sum > 1 the
  // draw is renormalized (every in-weight profile is still a valid
  // categorical distribution).
  const double scale = std::max(total, 1.0);
  double pick = rng->NextDouble() * scale;
  for (const auto& [tail, e] : graph.InEdges(v)) {
    pick -= edge_probs[e];
    if (pick < 0.0) {
      live->push_back(e);
      return;
    }
  }
  // pick landed in the [total, 1) leftover: empty triggering set.
}

TriggeringSampler::TriggeringSampler(const Graph& graph,
                                     const TriggeringDistribution* distribution,
                                     SampleSizePolicy policy, uint64_t seed)
    : graph_(graph),
      distribution_(distribution),
      policy_(policy),
      threshold_(policy.StoppingThreshold()),
      rng_(seed),
      decided_epoch_(graph.num_vertices(), 0),
      live_epoch_(graph.num_edges(), 0),
      active_epoch_(graph.num_vertices(), 0) {}

Estimate TriggeringSampler::EstimateInfluence(VertexId u,
                                              const EdgeProbFn& probs) {
  // One sparse-dot lookup per edge per call; triggering draws then read
  // the dense table. The cache is filled by the reachability sweep and,
  // for in-edges whose tails leave R_W(u), validated on demand below.
  cache_.Begin(probs, graph_.num_edges());
  const auto prob = [this](EdgeId e) { return cache_.Prob(e); };
  const std::span<const double> table = cache_.Table(graph_.num_edges());

  ComputeReachableInto(graph_, prob, u, &reach_);
  const auto rw = static_cast<double>(reach_.vertices.size());
  const double stop = threshold_;
  const uint64_t cap =
      policy_.SampleCapFor(threshold_, reach_.vertices.size());

  Estimate result;
  uint64_t total_activated = 0;
  double sum_squares = 0.0;
  for (uint64_t i = 0; i < cap; ++i) {
    if (++epoch_ == 0) {  // wrapped: drop all stale stamps
      std::fill(decided_epoch_.begin(), decided_epoch_.end(), 0);
      std::fill(live_epoch_.begin(), live_epoch_.end(), 0);
      std::fill(active_epoch_.begin(), active_epoch_.end(), 0);
      epoch_ = 1;
    }
    const uint64_t before = total_activated;
    frontier_.assign(1, u);
    active_epoch_[u] = epoch_;
    while (!frontier_.empty()) {
      const VertexId x = frontier_.back();
      frontier_.pop_back();
      ++total_activated;
      for (const auto& [v, e] : graph_.OutEdges(x)) {
        if (active_epoch_[v] == epoch_) continue;
        // Draw T_v lazily on first probe; the draw is independent of the
        // probing order, so deferring it preserves the distribution.
        if (decided_epoch_[v] != epoch_) {
          decided_epoch_[v] = epoch_;
          // Validate v's in-edge table entries (tails may lie outside
          // R_W(u); at most one sparse dot per edge per estimation).
          if (!cache_.has_dense()) {
            for (const auto& [tail, in_edge] : graph_.InEdges(v)) {
              cache_.Prob(in_edge);
            }
          }
          scratch_live_.clear();
          distribution_->SampleTriggeringSet(graph_, v, table, &rng_,
                                             &scratch_live_);
          result.edges_visited += graph_.InDegree(v);
          for (const EdgeId live : scratch_live_) live_epoch_[live] = epoch_;
        }
        if (live_epoch_[e] == epoch_) {
          active_epoch_[v] = epoch_;
          frontier_.push_back(v);
        }
      }
    }
    ++result.samples;
    const auto instance_spread = static_cast<double>(total_activated - before);
    sum_squares += instance_spread * instance_spread;
    if (result.samples >= policy_.min_samples && rw > 0.0 &&
        static_cast<double>(total_activated) / rw >= stop) {
      break;
    }
  }
  result.influence = static_cast<double>(total_activated) /
                     static_cast<double>(std::max<uint64_t>(result.samples, 1));
  result.std_error = SampleMeanStdError(static_cast<double>(total_activated),
                                        sum_squares, result.samples);
  return result;
}

}  // namespace pitex
