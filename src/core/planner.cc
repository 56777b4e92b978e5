#include "src/core/planner.h"

#include <algorithm>
#include <cmath>

#include "src/index/rr_graph.h"
#include "src/index/rr_sketch_pool.h"
#include "src/index/sketch_arena.h"
#include "src/sampling/estimator_common.h"
#include "src/sampling/sample_size.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace pitex {

QueryPlanner::QueryPlanner(const SocialNetwork* network, size_t probe_samples,
                           uint64_t seed)
    : network_(network) {
  PITEX_CHECK(network != nullptr);
  probe_samples = std::max<size_t>(4, probe_samples);
  Rng rng(seed);

  // Forward probe: average envelope reach |R(u)| over random users
  // (the per-estimation cost driver of Lemma 7). One shared scratch keeps
  // the sweep allocation-free across probes.
  const InfluenceGraph& influence = network_->influence;
  ReachScratch reach;
  double reach_sum = 0.0;
  for (size_t i = 0; i < probe_samples; ++i) {
    const auto u =
        static_cast<VertexId>(rng.NextBounded(network_->num_vertices()));
    ComputeReachableInto(
        network_->graph, [&influence](EdgeId e) { return influence.MaxProb(e); },
        u, &reach);
    reach_sum += static_cast<double>(reach.vertices.size());
  }
  profile_.avg_envelope_reach = reach_sum / static_cast<double>(probe_samples);

  // Reverse probe: average RR-Graph footprint and the chance a random
  // user lands in a random RR-Graph (theta(u)/theta, Sec. 6.3 notation).
  SketchArena arena;
  RrSketchPool run(network_->graph);
  double size_sum = 0.0;
  double containment_sum = 0.0;
  for (size_t i = 0; i < probe_samples; ++i) {
    const auto root =
        static_cast<VertexId>(rng.NextBounded(network_->num_vertices()));
    run.Clear();
    arena.Generate(network_->graph, network_->influence, root, &rng, &run);
    const RRView rr = run.View(0, root);
    size_sum += static_cast<double>(rr.vertices.size() + rr.num_edges());
    containment_sum += static_cast<double>(rr.vertices.size()) /
                       static_cast<double>(network_->num_vertices());
  }
  profile_.avg_rr_graph_size = size_sum / static_cast<double>(probe_samples);
  profile_.avg_theta_u_fraction =
      containment_sum / static_cast<double>(probe_samples);

  // Tag-topic density (Sec. 7.3 footnote 7): drives best-effort pruning.
  const TopicModel& topics = network_->topics;
  size_t nnz = 0;
  for (TagId w = 0; w < topics.num_tags(); ++w) {
    for (TopicId z = 0; z < topics.num_topics(); ++z) {
      nnz += (topics.TagTopic(w, z) > 0.0);
    }
  }
  const size_t cells = topics.num_tags() * topics.num_topics();
  profile_.tag_topic_density =
      cells == 0 ? 0.0
                 : static_cast<double>(nnz) / static_cast<double>(cells);
}

double QueryPlanner::ExpectedSetsPerQuery(size_t k) const {
  const auto num_tags = static_cast<double>(network_->topics.num_tags());
  const auto num_topics = static_cast<double>(network_->topics.num_topics());
  if (num_tags <= 0.0 || k == 0) return 1.0;

  // log C(|Omega|, k), clamped so the cost stays finite.
  double log_choose = 0.0;
  for (size_t i = 0; i < k; ++i) {
    log_choose += std::log(num_tags - static_cast<double>(i)) -
                  std::log(static_cast<double>(i + 1));
  }
  // Best-effort prunes any set whose tags share no topic: with density d,
  // a fixed topic supports all k tags with probability d^k, so roughly
  // |Z| * d^k of the candidate mass survives (Sec. 7.3's explanation of
  // why runtime does not explode with k).
  const double d = std::max(profile_.tag_topic_density, 1e-6);
  const double survive =
      std::min(1.0, num_topics * std::pow(d, static_cast<double>(k)));
  const double log_sets = log_choose + std::log(survive);
  // Partial sets are always explored at least once per tag.
  const double floor_sets = num_tags;
  return std::max(floor_sets, std::exp(std::min(log_sets, 60.0)));
}

PlanDecision QueryPlanner::Plan(const PlannerInputs& inputs) const {
  PlanDecision decision;
  const auto queries = static_cast<double>(
      std::max<uint64_t>(1, inputs.expected_queries));
  const double sets = ExpectedSetsPerQuery(inputs.k);

  SampleSizePolicy policy;
  policy.eps = inputs.eps;
  policy.delta = inputs.delta;
  policy.num_tags = static_cast<int64_t>(network_->topics.num_tags());
  policy.k = static_cast<int64_t>(inputs.k);
  policy.use_phi = true;
  const double lambda = policy.StoppingThreshold();

  // Lazy propagation: Lambda * |R_W(u)| expected probes per estimation
  // (Lemma 7), per candidate set, per query.
  decision.online_cost = queries * sets * lambda * profile_.avg_envelope_reach;

  // Index build: theta RR-Graphs at avg_rr_graph_size probes each —
  // theta matching the engine's default policy (theta_per_vertex = 1).
  EngineOptions defaults;
  const double theta = std::min<double>(
      static_cast<double>(RrIndexOptions{}.max_theta),
      std::max(64.0, defaults.index_theta_per_vertex *
                         static_cast<double>(network_->num_vertices())));
  decision.index_build_cost =
      inputs.index_available ? 0.0 : theta * profile_.avg_rr_graph_size;

  // Index serving: theta(u) graphs checked per estimation, each a BFS
  // bounded by the graph footprint (edge-cut pruning only helps).
  const double theta_u = theta * profile_.avg_theta_u_fraction;
  decision.index_query_cost =
      queries * sets * std::max(1.0, theta_u) * profile_.avg_rr_graph_size;

  const double index_total =
      decision.index_build_cost + decision.index_query_cost;
  if (index_total <= decision.online_cost) {
    decision.method = inputs.memory_constrained ? Method::kDelayMat
                                                : Method::kIndexEstPlus;
    decision.rationale =
        std::string("index amortizes: build+serve ") +
        std::to_string(index_total) + " < online " +
        std::to_string(decision.online_cost) + " expected probes" +
        (inputs.memory_constrained ? " (DelayMat: memory-constrained)" : "");
  } else {
    decision.method = Method::kLazy;
    decision.rationale =
        std::string("online sampling wins: ") +
        std::to_string(decision.online_cost) + " < index " +
        std::to_string(index_total) + " expected probes";
  }
  return decision;
}

}  // namespace pitex
