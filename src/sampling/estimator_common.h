// Shared estimator machinery for the online samplers: materialized edge
// probabilities and reusable reachability scratch.
//
// EdgeProbFn::Prob is a virtual call, and both the Eq.-1 posterior
// probabilities and the Lemma-8 bound probabilities perform a sparse dot
// product per call. The online samplers probe edges many times per
// estimation (every instance in MC, every initialization/re-arm in Lazy,
// plus the reachability BFS), so once a tag set or bound is fixed the
// probabilities are materialized into a flat reusable table the inner
// loops index directly — branch-free array loads, no virtual dispatch.
// Two flavors:
//
//  * the samplers self-materialize during their reachability sweep
//    (ReachScratch::edge_prob): the sweep already probes exactly the
//    edges the simulation can ever touch, so the table covers the
//    relevant subgraph in one pass at zero extra probes. Materializing
//    ALL |E| edges up front instead would invert the economics — on
//    small-reach queries the eager pass costs more than the whole
//    estimate (measured ~60x slower end-to-end on BM_BestEffortQuery);
//  * MaterializedProbs eagerly evaluates every edge once, for callers
//    that genuinely reuse the full table many times (the exact
//    possible-world oracle probes each edge 2^m times) or want to hand a
//    precomputed table to samplers via EdgeProbFn::DenseTable().
//
// Both tables store doubles, not floats: best-effort results are pinned
// bit-identical against the pre-materialization reference implementation
// (tests/best_effort_equivalence_test.cc), and a float round-trip would
// perturb the Bernoulli/geometric draws that consume the probabilities.

#ifndef PITEX_SRC_SAMPLING_ESTIMATOR_COMMON_H_
#define PITEX_SRC_SAMPLING_ESTIMATOR_COMMON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sampling/influence_estimator.h"
#include "src/util/thread_annotations.h"

namespace pitex {

/// A dense edge-probability table. Assign() is the single pass that
/// evaluates the source function; afterwards Prob is an array load and
/// DenseTable() lets hot loops skip the virtual call entirely.
class MaterializedProbs final : public EdgeProbFn {
 public:
  MaterializedProbs() = default;

  /// Fills the table with source.Prob(e) for every e in [0, num_edges).
  /// Reuses the table's capacity: zero allocations after the first call
  /// with the largest edge count.
  void Assign(const EdgeProbFn& source, size_t num_edges);

  double Prob(EdgeId e) const override { return table_[e]; }
  const double* DenseTable() const override { return table_.data(); }
  size_t size() const { return table_.size(); }

 private:
  std::vector<double> table_;
};

/// Epoch-validated lazy dense probability cache for samplers whose
/// probes can leave R_W(u) (the RR reverse BFS, triggering-set draws on
/// in-edges): each source edge is evaluated through the virtual Prob at
/// most once per Begin, later probes are array loads, and stale entries
/// from earlier calls cost nothing to discard. A caller-provided
/// DenseTable bypasses the fill entirely. Reused across calls; zero
/// allocations after the first Begin with the largest edge count.
class LazyEdgeProbCache {
 public:
  /// Starts a new estimation against `probs`.
  void Begin(const EdgeProbFn& probs, size_t num_edges) {
    source_ = &probs;
    dense_ = probs.DenseTable();
    if (dense_ != nullptr) return;
    if (table_.size() < num_edges) {
      table_.resize(num_edges);
      epoch_of_.assign(num_edges, 0);
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // epoch wrapped: drop all stale entries
      std::fill(epoch_of_.begin(), epoch_of_.end(), 0);
      epoch_ = 1;
    }
  }

  /// probs.Prob(e), cached. Valid until the next Begin.
  double Prob(EdgeId e) {
    if (dense_ != nullptr) return dense_[e];
    if (epoch_of_[e] != epoch_) {
      epoch_of_[e] = epoch_;
      table_[e] = source_->Prob(e);
    }
    return table_[e];
  }

  /// True when the source supplied a full DenseTable (no on-demand
  /// validation needed before bulk reads).
  bool has_dense() const { return dense_ != nullptr; }

  /// Raw dense view for bulk readers, such as the reference triggering
  /// sampler the tests keep (tests/triggering_sampler.h): entries are
  /// valid only where Prob was called since the last Begin (everywhere
  /// for a DenseTable source).
  std::span<const double> Table(size_t num_edges) const {
    return dense_ != nullptr
               ? std::span<const double>(dense_, num_edges)
               : std::span<const double>(table_.data(), table_.size());
  }

 private:
  const EdgeProbFn* source_ = nullptr;
  const double* dense_ = nullptr;
  std::vector<double> table_;
  std::vector<uint32_t> epoch_of_;
  uint32_t epoch_ = 0;
};

/// Reusable state for allocation-free reachability sweeps: epoch-stamped
/// visited marks (bumping the epoch invalidates all marks without touching
/// memory) plus the BFS stack and the output vertex list. `edge_prob` is
/// the samplers' self-materialized probability table: the sweep's lookup
/// writes every probed edge's probability into it, and since the sweep
/// probes every out-edge of every reachable vertex, all entries a
/// subsequent simulation from u can read are valid for the current call
/// (stale entries belong to edges the simulation cannot reach).
struct ReachScratch {
  std::vector<uint32_t> visit_epoch;
  uint32_t epoch = 0;
  std::vector<VertexId> stack;
  std::vector<VertexId> vertices;  // R_W(u), in discovery order
  std::vector<double> edge_prob;   // dense [EdgeId] -> p, see above
};

/// ComputeReachable without the allocations and without the internal-edge
/// counting pass (the samplers only consume |R_W(u)|). Fills
/// scratch->vertices in the same discovery order as ComputeReachable.
/// `prob` is any callable EdgeId -> double (a dense table lookup or a
/// virtual Prob call).
template <typename Lookup>
PITEX_NOALLOC void ComputeReachableInto(const Graph& graph, const Lookup& prob, VertexId u,
                          ReachScratch* scratch) {
  if (scratch->visit_epoch.size() < graph.num_vertices()) {
    scratch->visit_epoch.assign(graph.num_vertices(), 0);
    scratch->epoch = 0;
  }
  if (++scratch->epoch == 0) {  // epoch wrapped: drop all stale marks
    std::fill(scratch->visit_epoch.begin(), scratch->visit_epoch.end(), 0);
    scratch->epoch = 1;
  }
  const uint32_t epoch = scratch->epoch;
  scratch->stack.clear();
  scratch->vertices.clear();
  scratch->stack.push_back(u);
  scratch->visit_epoch[u] = epoch;
  scratch->vertices.push_back(u);
  while (!scratch->stack.empty()) {
    const VertexId v = scratch->stack.back();
    scratch->stack.pop_back();
    for (const auto& [w, e] : graph.OutEdges(v)) {
      if (prob(e) <= 0.0) continue;
      if (scratch->visit_epoch[w] != epoch) {
        scratch->visit_epoch[w] = epoch;
        scratch->vertices.push_back(w);
        scratch->stack.push_back(w);
      }
    }
  }
}

/// Runs the reachability sweep for `probs` from `u`, self-materializing
/// every probed edge's probability into scratch->edge_prob — unless the
/// caller already holds a dense table (EdgeProbFn::DenseTable), which is
/// used as-is. Returns the table the estimation loops should read; valid
/// until the next sweep on the same scratch.
PITEX_NOALLOC inline const double* SweepAndMaterialize(const Graph& graph,
                                         const EdgeProbFn& probs, VertexId u,
                                         ReachScratch* scratch) {
  if (const double* table = probs.DenseTable()) {
    ComputeReachableInto(
        graph, [table](EdgeId e) { return table[e]; }, u, scratch);
    return table;
  }
  scratch->edge_prob.resize(graph.num_edges());
  double* cache = scratch->edge_prob.data();
  ComputeReachableInto(
      graph,
      [&probs, cache](EdgeId e) {
        const double p = probs.Prob(e);
        cache[e] = p;
        return p;
      },
      u, scratch);
  return cache;
}

}  // namespace pitex

#endif  // PITEX_SRC_SAMPLING_ESTIMATOR_COMMON_H_
