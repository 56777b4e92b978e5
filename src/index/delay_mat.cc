#include "src/index/delay_mat.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/util/check.h"
#include "src/util/timer.h"

namespace pitex {

DelayMatIndex::DelayMatIndex(const SocialNetwork& network,
                             const RrIndexOptions& options)
    : network_(network),
      options_(options),
      theta_(RrIndex::ThetaFor(network.num_vertices(), options)),
      query_rng_(options.seed ^ 0xd1b54a32d192ed03ULL),
      cached_graphs_(network.graph) {}

void DelayMatIndex::Build() {
  PITEX_CHECK_MSG(counts_ == nullptr, "Build() called twice");
  // A root drawn from no vertices is undefined: fail before the first
  // draw.
  PITEX_CHECK_MSG(theta_ == 0 || network_.num_vertices() > 0,
                  "cannot sample RR-Graphs of a network with no vertices");
  Timer timer;
  Rng rng(options_.seed);
  // Counting pass: sample theta RR-Graphs, remember only membership
  // counts. The traversal mirrors SketchArena::Generate but skips edge
  // storage and CSR assembly, which is what makes the build cheaper
  // (Table 3).
  std::vector<uint32_t> counts(network_.num_vertices(), 0);
  std::unordered_set<VertexId> visited;
  std::vector<VertexId> stack;
  for (uint64_t i = 0; i < theta_; ++i) {
    const auto root =
        static_cast<VertexId>(rng.NextBounded(network_.num_vertices()));
    visited.clear();
    visited.insert(root);
    stack.assign(1, root);
    ++counts[root];
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const auto& [w, e] : network_.graph.InEdges(v)) {
        const double p = network_.influence.MaxProb(e);
        if (p <= 0.0 || !rng.NextBernoulli(p)) continue;
        if (visited.insert(w).second) {
          ++counts[w];
          stack.push_back(w);
        }
      }
    }
  }
  auto packed = std::make_shared<Counts>();
  if (std::ranges::all_of(counts, [](uint32_t c) { return c <= UINT16_MAX; })) {
    packed->narrow.assign(counts.begin(), counts.end());
  } else {
    packed->wide = std::move(counts);
  }
  counts_ = std::move(packed);
  build_seconds_ = timer.Seconds();
}

std::unique_ptr<DelayMatIndex> DelayMatIndex::Replica() const {
  PITEX_CHECK_MSG(counts_ != nullptr, "index not built");
  // The constructor seeds query_rng_ from options_.seed, as it seeds a
  // fresh build's.
  auto replica = std::make_unique<DelayMatIndex>(network_, options_);
  replica->counts_ = counts_;
  replica->build_seconds_ = build_seconds_;
  return replica;
}

void DelayMatIndex::RecoverRRGraph(VertexId u) {
  // Step 1: forward live sample G' = (V', E') from u under p(e), the
  // float envelope its thresholds scale with.
  std::vector<VertexId> live_vertices{u};
  std::vector<GlobalEdgeSample> live_edges;
  std::unordered_set<VertexId> visited{u};
  std::vector<VertexId> stack{u};
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (const auto& [w, e] : network_.graph.OutEdges(v)) {
      const auto p = static_cast<double>(
          EnvelopeProbability(network_.influence.MaxProb(e)));
      if (!query_rng_.NextBernoulli(p)) continue;
      live_edges.push_back(GlobalEdgeSample{v, w, e});
      if (visited.insert(w).second) {
        live_vertices.push_back(w);
        stack.push_back(w);
      }
    }
  }

  // Step 2: uniform root v' from V'; keep the vertices of V' that reach v'
  // inside the live edge set, and the live edges between them.
  const VertexId root =
      live_vertices[query_rng_.NextBounded(live_vertices.size())];
  arena_.RebuildRepairedSketch(root, live_edges, &cached_graphs_);
  cached_weights_.push_back(live_vertices.size());
  // Step 3: c(e) ~ U(0, p(e)] for the surviving edges, a function of
  // this recovery's key (SketchThresholds), drawn from the query stream.
  cached_keys_.push_back(query_rng_.NextU64());
}

void DelayMatIndex::RecoverFor(VertexId u) {
  if (has_cached_user_ && cached_user_ == u) return;
  cached_graphs_.Clear();
  cached_weights_.clear();
  cached_keys_.clear();
  const uint32_t count = (*counts_)[u];
  for (uint32_t i = 0; i < count; ++i) RecoverRRGraph(u);
  has_cached_user_ = true;
  cached_user_ = u;
}

Estimate DelayMatIndex::EstimateInfluence(VertexId u, const EdgeProbFn& probs) {
  PITEX_CHECK_MSG(counts_ != nullptr, "index not built");
  Estimate result;
  // Importance-corrected estimator (see header): average of
  // |R_g(u)| * 1[u ~>_W root].
  double weighted_hits = 0.0;
  double sum_squares = 0.0;
  RecoverFor(u);
  // Every recovered graph contains u, which reaches its root.
  for (size_t i = 0; i < cached_graphs_.num_sketches(); ++i) {
    ++result.samples;
    RRView rr = cached_graphs_.View(i, u);
    rr.thresholds = {&network_.influence, cached_keys_[i]};
    if (IsReachable(rr, u, probs, &result.edges_visited, &scratch_)) {
      const auto weight = static_cast<double>(cached_weights_[i]);
      weighted_hits += weight;
      sum_squares += weight * weight;
    }
  }
  result.influence =
      result.samples == 0
          ? 1.0
          : weighted_hits / static_cast<double>(result.samples);
  result.influence = std::max(result.influence, 1.0);
  result.std_error =
      SampleMeanStdError(weighted_hits, sum_squares, result.samples);
  return result;
}

size_t DelayMatIndex::SizeBytes() const {
  if (counts_ == nullptr) return sizeof(DelayMatIndex);
  return sizeof(DelayMatIndex) +
         counts_->narrow.capacity() * sizeof(uint16_t) +
         counts_->wide.capacity() * sizeof(uint32_t);
}

}  // namespace pitex
