#include "src/sampling/sketch_oracle.h"

#include <algorithm>
#include <limits>

#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/timer.h"

namespace pitex {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Merges sorted `other` into sorted `dst`, keeping the k smallest.
// Returns true when dst changed.
bool MergeBottomK(std::vector<float>* dst, const std::vector<float>& other,
                  size_t k, std::vector<float>* scratch) {
  if (other.empty()) return false;
  scratch->clear();
  std::merge(dst->begin(), dst->end(), other.begin(), other.end(),
             std::back_inserter(*scratch));
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
  if (scratch->size() > k) scratch->resize(k);
  if (*scratch == *dst) return false;
  dst->swap(*scratch);
  return true;
}

}  // namespace

SketchOracle::SketchOracle(const SocialNetwork* network,
                           const SketchOptions& options)
    : network_(network), options_(options) {
  PITEX_CHECK(network != nullptr);
  options_.sketch_size = std::max<size_t>(2, options_.sketch_size);
  options_.num_worlds = std::max<size_t>(1, options_.num_worlds);
}

void SketchOracle::Build() {
  PITEX_CHECK_MSG(!built_, "Build() called twice");
  built_ = true;
  Timer timer;

  const size_t n = network_->num_vertices();
  const size_t k = options_.sketch_size;
  const Graph& graph = network_->graph;
  const InfluenceGraph& influence = network_->influence;

  // Global accumulating sketches.
  std::vector<std::vector<float>> global(n);

  Rng rng(options_.seed);
  std::vector<uint8_t> live(network_->num_edges());
  std::vector<std::vector<float>> world(n);
  std::vector<float> scratch;

  for (size_t w = 0; w < options_.num_worlds; ++w) {
    // One envelope possible world: edge e is live with p(e).
    for (EdgeId e = 0; e < network_->num_edges(); ++e) {
      live[e] = rng.NextBernoulli(influence.MaxProb(e)) ? 1 : 0;
    }
    // Fresh per-vertex ranks; world sketches start as singletons.
    for (VertexId v = 0; v < n; ++v) {
      world[v].assign(1, static_cast<float>(rng.NextDouble()));
    }
    // Backward fix point: R(u) includes R(v) through every live edge
    // u -> v, so u's bottom-k absorbs v's. Converges within the longest
    // live path; each pass is O(|E| * k).
    bool changed = true;
    size_t passes = 0;
    while (changed && passes < n + 1) {
      changed = false;
      ++passes;
      for (VertexId u = 0; u < n; ++u) {
        for (const auto& [v, e] : graph.OutEdges(u)) {
          if (!live[e]) continue;
          changed |= MergeBottomK(&world[u], world[v], k, &scratch);
        }
      }
    }
    // Fold the world into the running global sketches. Ranks from
    // different worlds collide with probability 0, so the union is a
    // disjoint-element bottom-k merge.
    for (VertexId v = 0; v < n; ++v) {
      MergeBottomK(&global[v], world[v], k, &scratch);
    }
  }

  sketches_.assign(n * k, kInf);
  sketch_counts_.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    sketch_counts_[v] = static_cast<uint32_t>(global[v].size());
    std::copy(global[v].begin(), global[v].end(),
              sketches_.begin() + static_cast<ptrdiff_t>(v * k));
  }
  build_seconds_ = timer.Seconds();
}

double SketchOracle::EnvelopeInfluence(VertexId u) const {
  PITEX_CHECK_MSG(built_, "call Build() first");
  const size_t k = options_.sketch_size;
  const uint32_t count = sketch_counts_[u];
  double total;  // estimated |{(i, v) : v in R_i(u)}|
  if (count < k) {
    // The sketch saw every element: exact count.
    total = static_cast<double>(count);
  } else {
    const double tau = sketches_[u * k + (k - 1)];
    total = (static_cast<double>(k) - 1.0) / tau;
  }
  return std::max(1.0, total / static_cast<double>(options_.num_worlds));
}

std::vector<std::pair<VertexId, double>> SketchOracle::TopInfluencers(
    size_t count) const {
  PITEX_CHECK_MSG(built_, "call Build() first");
  std::vector<std::pair<VertexId, double>> all;
  all.reserve(network_->num_vertices());
  for (VertexId v = 0; v < network_->num_vertices(); ++v) {
    all.emplace_back(v, EnvelopeInfluence(v));
  }
  // The comparator is a strict total order (ties broken by vertex id), so
  // partial_sort of the leading `count` entries returns exactly what a
  // full stable sort + truncate would — in O(n log count) instead of
  // O(n log n), the usual screening case being count << n.
  const auto better = [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (count < all.size()) {
    std::partial_sort(all.begin(),
                      all.begin() + static_cast<ptrdiff_t>(count), all.end(),
                      better);
    all.resize(count);
  } else {
    std::sort(all.begin(), all.end(), better);
  }
  return all;
}

size_t SketchOracle::SizeBytes() const {
  return sketches_.capacity() * sizeof(float) +
         sketch_counts_.capacity() * sizeof(uint32_t) + sizeof(SketchOracle);
}

}  // namespace pitex
