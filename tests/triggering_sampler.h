// The general triggering model of Kempe et al. [19] — the paper's
// footnote 1 notes every PITEX technique carries over to it.
//
// In the triggering model each vertex v independently draws a random
// *triggering set* T_v of its in-neighbors; v activates one step after
// any member of T_v activates. The model subsumes both cascades used in
// this library:
//
//   * IC: each in-neighbor joins T_v independently with probability
//     p(e|W) — edges flip independent coins;
//   * LT: T_v holds at most one in-neighbor, picked with probability
//     proportional to p(e|W) (empty with the leftover mass) — the
//     classic live-edge construction for Linear Threshold.
//
// TriggeringSampler is a forward Monte-Carlo estimator parameterized by a
// TriggeringDistribution. Because the triggering set of v is a property
// of v (not of individual edges), the sampler lazily materializes T_v the
// first time any active in-neighbor probes v in an instance and caches
// the draw for the rest of that instance — exactly the deferred-decision
// principle of Sec. 5.1, lifted from edges to vertices.
//
// Hot path (the PR-3/PR-4 dense-table treatment): distributions read a
// dense EdgeId-indexed probability table instead of calling the virtual
// sparse-dot Prob(e) per probe — the sampler validates the in-edge
// entries of v (at most one sparse dot per edge per estimation, cached
// by epoch stamp) before drawing T_v, so a triggering-set draw costs one
// virtual call total, not one per in-edge. Results are pinned
// bit-identical to the pre-treatment implementation by
// tests/samplers_test.cc.
//
// McSampler / LtSampler are the estimators the system runs for these
// models; this sampler is the general, model-agnostic reference they are
// checked against (tests/triggering_test.cc,
// tests/extension_properties_test.cc), so it lives with the tests and
// is built only into the suites that use it.

#ifndef PITEX_TESTS_TRIGGERING_SAMPLER_H_
#define PITEX_TESTS_TRIGGERING_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sampling/estimator_common.h"
#include "src/sampling/influence_estimator.h"
#include "src/sampling/sample_size.h"
#include "src/util/random.h"

namespace pitex {

/// Samples triggering sets. Implementations must be stateless across
/// calls (all randomness comes from the provided Rng), so one instance
/// can serve any number of samplers and threads.
class TriggeringDistribution {
 public:
  virtual ~TriggeringDistribution() = default;

  /// Appends to `live` the EdgeIds of v's in-edges whose tails belong to
  /// the freshly drawn T_v. `edge_probs` is a dense EdgeId-indexed table
  /// of the tag-set-dependent probabilities p(e|W); the caller
  /// guarantees the entries of v's in-edges are valid (other entries may
  /// be stale — implementations must only read v's in-edges).
  virtual void SampleTriggeringSet(const Graph& graph, VertexId v,
                                   std::span<const double> edge_probs,
                                   Rng* rng,
                                   std::vector<EdgeId>* live) const = 0;

  virtual const char* Name() const = 0;
};

/// Independent cascade as a triggering distribution: every in-edge joins
/// the triggering set independently with probability p(e|W).
class IcTriggering final : public TriggeringDistribution {
 public:
  void SampleTriggeringSet(const Graph& graph, VertexId v,
                           std::span<const double> edge_probs, Rng* rng,
                           std::vector<EdgeId>* live) const override;
  const char* Name() const override { return "TRIG-IC"; }
};

/// Linear threshold as a triggering distribution: at most one in-edge is
/// selected, edge e with probability p(e|W); none with the remaining
/// mass. In-weights summing past 1 are renormalized (the standard LT
/// requirement sum <= 1 is enforced degenerately, matching LtSampler).
class LtTriggering final : public TriggeringDistribution {
 public:
  void SampleTriggeringSet(const Graph& graph, VertexId v,
                           std::span<const double> edge_probs, Rng* rng,
                           std::vector<EdgeId>* live) const override;
  const char* Name() const override { return "TRIG-LT"; }
};

/// Forward Monte-Carlo influence estimation under an arbitrary triggering
/// distribution, with the same stopping rule as the IC samplers so it
/// plugs into the solvers and engine unchanged.
class TriggeringSampler final : public InfluenceOracle {
 public:
  /// `distribution` must outlive the sampler.
  TriggeringSampler(const Graph& graph,
                    const TriggeringDistribution* distribution,
                    SampleSizePolicy policy, uint64_t seed);

  Estimate EstimateInfluence(VertexId u, const EdgeProbFn& probs) override;
  const char* Name() const override { return distribution_->Name(); }

 private:
  const Graph& graph_;
  const TriggeringDistribution* distribution_;
  SampleSizePolicy policy_;
  const double threshold_;  // StoppingThreshold() is lgamma-heavy
  Rng rng_;

  // Forward reachability sweep scratch (allocation-free after warmup).
  ReachScratch reach_;
  // Lazily validated dense probability table; triggering draws probe
  // the in-edges of out-neighbors, whose tails can lie outside R_W(u),
  // so stragglers are validated on demand.
  LazyEdgeProbCache cache_;
  // Per-instance scratch, epoch-stamped to avoid O(|V|) clears.
  std::vector<uint32_t> decided_epoch_;  // T_v drawn this instance?
  std::vector<uint32_t> live_epoch_;     // per-edge: e in T_head(e)?
  std::vector<uint32_t> active_epoch_;   // vertex active this instance?
  uint32_t epoch_ = 0;
  std::vector<EdgeId> scratch_live_;
  std::vector<VertexId> frontier_;
};

}  // namespace pitex

#endif  // PITEX_TESTS_TRIGGERING_SAMPLER_H_
