#include "src/index/edge_cut.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace pitex {

PrunedRrIndex::PrunedRrIndex(const RrIndex* base,
                             const InfluenceGraph* influence,
                             CutPolicy policy)
    : base_(base), influence_(influence), policy_(policy) {
  scratch_.Reserve(base->max_sketch_vertices());
}

const PrunedRrIndex::UserFilter& PrunedRrIndex::FilterFor(VertexId u) {
  auto it = cache_.find(u);
  if (it != cache_.end()) return it->second;

  UserFilter filter;
  filter.trivial = base_->RootRange(u).size();
  filter.num_graphs = filter.trivial;
  // edge -> list index, local to this filter.
  std::unordered_map<EdgeId, size_t> list_of;

  const ContainingList containing = base_->NonRootContaining(u);
  for (auto sketch = containing.begin(); sketch != containing.end();
       ++sketch) {
    const uint32_t id = *sketch;
    ++filter.num_graphs;
    const RRView rr = base_->RootedGraph(id, sketch.root());
    DecodedSketch& decoded = decoded_;
    Decode(rr, &decoded);
    const auto u_local = decoded.LocalIndex(u);
    PITEX_DCHECK(u_local.has_value() && *u_local != decoded.root_local);

    // Candidate cut 1: u's out-edges inside the RR-Graph.
    // Candidate cut 2: the root's in-edges inside the RR-Graph.
    // Pruning probability of a cut = prod_e Pr[p(e|W) < c(e)] under the
    // uniform heuristic = prod_e c(e)/p(e); pick the larger (Example 7).
    // Each cut edge's threshold is computed as it is taken
    // (rr.thresholds).
    std::vector<std::pair<EdgeId, double>> cut1;
    double log_prune1 = 0.0;
    std::vector<std::pair<EdgeId, double>> cut2;
    double log_prune2 = 0.0;
    const auto add = [&](uint32_t k,
                         std::vector<std::pair<EdgeId, double>>* cut,
                         double* log_prune) {
      const EdgeId edge = decoded.edges[k];
      const double threshold = rr.thresholds(edge);
      cut->emplace_back(edge, threshold);
      const double p = influence_->MaxProb(edge);
      *log_prune += std::log(std::max(1e-12, threshold / p));
    };
    for (uint32_t k = decoded.offsets[*u_local];
         k < decoded.offsets[*u_local + 1]; ++k) {
      add(k, &cut1, &log_prune1);
    }
    // The decoded edges are tail by tail, so one pass over them meets
    // the root's in-edges in ascending tail id.
    for (uint32_t k = 0; k < decoded.heads.size(); ++k) {
      if (decoded.heads[k] == decoded.root_local) add(k, &cut2, &log_prune2);
    }
    // An empty cut means the side is disconnected: always prunable (both
    // candidate cuts are sound filters, so a forced policy stays correct).
    const auto& cut = [&]() -> const std::vector<std::pair<EdgeId, double>>& {
      if (cut1.empty() || cut2.empty()) return cut1.empty() ? cut1 : cut2;
      switch (policy_) {
        case CutPolicy::kOutEdges: return cut1;
        case CutPolicy::kRootInEdges: return cut2;
        case CutPolicy::kBestOfTwo: break;
      }
      return log_prune1 >= log_prune2 ? cut1 : cut2;
    }();
    for (const auto& [edge, threshold] : cut) {
      auto [entry, inserted] = list_of.try_emplace(edge, filter.lists.size());
      if (inserted) {
        filter.cut_edges.push_back(edge);
        filter.lists.emplace_back();
      }
      filter.lists[entry->second].push_back(
          InvertedEntry{threshold, id, sketch.root()});
    }
  }
  for (auto& list : filter.lists) {
    std::sort(list.begin(), list.end(),
              [](const InvertedEntry& a, const InvertedEntry& b) {
                return a.threshold < b.threshold;
              });
  }
  return cache_.emplace(u, std::move(filter)).first->second;
}

Estimate PrunedRrIndex::EstimateInfluence(VertexId u, const EdgeProbFn& probs) {
  const UserFilter& filter = FilterFor(u);
  Estimate result;
  result.samples = filter.num_graphs;

  uint64_t hits = filter.trivial;
  // Filter step: scan each cut edge's inverted list while c(e) <= p(e|W).
  std::vector<RootedId>& candidates = candidates_;
  candidates.clear();
  for (size_t i = 0; i < filter.cut_edges.size(); ++i) {
    const double p = probs.Prob(filter.cut_edges[i]);
    if (p <= 0.0) continue;
    for (const auto& entry : filter.lists[i]) {
      if (entry.threshold > p) break;
      candidates.push_back({entry.root, entry.graph_id});
    }
  }
  // By id; an id has one root, so equal ids are equal entries.
  std::ranges::sort(candidates, {}, &RootedId::id);
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Verification step.
  for (const RootedId& candidate : candidates) {
    if (IsReachable(base_->RootedGraph(candidate.id, candidate.root), u,
                    probs, &result.edges_visited, &scratch_)) {
      ++hits;
    }
  }
  last_stats_.candidates = candidates.size();
  last_stats_.pruned =
      filter.num_graphs - filter.trivial - candidates.size();

  result.influence = static_cast<double>(hits) /
                     static_cast<double>(base_->theta()) *
                     static_cast<double>(base_->num_vertices());
  result.influence = std::max(result.influence, 1.0);
  return result;
}

}  // namespace pitex
