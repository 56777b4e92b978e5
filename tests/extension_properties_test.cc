// Parameterized property sweeps for the extension modules (triggering
// sampler, sketch oracle, dynamic index, engine index adoption) across
// random graph topologies: Erdos-Renyi, preferential attachment, and the
// paper's adversarial star / celebrity shapes (Fig. 3).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "src/core/engine.h"
#include "src/graph/generators.h"
#include "src/index/dynamic_index.h"
#include "src/index/index_io.h"
#include "src/sampling/exact.h"
#include "src/sampling/lazy_sampler.h"
#include "src/sampling/sketch_oracle.h"
#include "triggering_sampler.h"

namespace pitex {
namespace {

enum class Family { kErdosRenyi, kPreferential, kStar, kCelebrity };

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kErdosRenyi: return "ErdosRenyi";
    case Family::kPreferential: return "Preferential";
    case Family::kStar: return "Star";
    case Family::kCelebrity: return "Celebrity";
  }
  return "?";
}

// A small two-topic network over the given topology, exact-oracle
// friendly (<= kMaxExactEdges probabilistic edges). Every edge carries
// edge_prob on topic 0 and 2 * edge_prob on topic 1; tag 0 selects topic
// 0 and tag 1 topic 1, so the envelope (2 * edge_prob) strictly
// dominates the influence of tag set {0}.
SocialNetwork MakeNetwork(Family family, uint64_t seed, double edge_prob) {
  Rng rng(seed);
  SocialNetwork n;
  switch (family) {
    case Family::kErdosRenyi:
      n.graph = ErdosRenyi(9, 18, &rng);  // <= kMaxExactEdges random edges
      break;
    case Family::kPreferential:
      n.graph = PreferentialAttachment(10, 2, &rng);
      break;
    case Family::kStar:
      n.graph = Star(12);
      break;
    case Family::kCelebrity:
      n.graph = Celebrity(5);  // 11 vertices
      break;
  }
  n.topics = TopicModel(2, 2);
  n.topics.SetTagTopic(0, 0, 1.0);
  n.topics.SetTagTopic(1, 1, 1.0);
  InfluenceGraphBuilder influence(n.graph.num_edges());
  for (EdgeId e = 0; e < n.graph.num_edges(); ++e) {
    const EdgeTopicEntry entries[] = {{0, edge_prob},
                                      {1, std::min(1.0, 2.0 * edge_prob)}};
    influence.SetEdgeTopics(e, entries);
  }
  n.influence = influence.Build();
  n.tags.Intern("a");
  n.tags.Intern("b");
  return n;
}

class FamilySweepTest
    : public ::testing::TestWithParam<std::tuple<Family, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Topologies, FamilySweepTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi,
                                         Family::kPreferential, Family::kStar,
                                         Family::kCelebrity),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& param_info) {
      return std::string(FamilyName(std::get<0>(param_info.param))) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST_P(FamilySweepTest, TriggeringIcMatchesExact) {
  const auto [family, seed] = GetParam();
  const SocialNetwork n = MakeNetwork(family, seed, 0.35);
  const TagId tags[] = {0};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);

  SampleSizePolicy policy;
  policy.min_samples = 30000;
  policy.max_samples = 30000;
  const IcTriggering ic;
  TriggeringSampler sampler(n.graph, &ic, policy, seed + 100);
  const double exact = ExactInfluence(n.graph, probs, 0);
  const double estimated = sampler.EstimateInfluence(0, probs).influence;
  EXPECT_NEAR(estimated, exact, 0.05 * exact + 0.05);
}

TEST_P(FamilySweepTest, LtSpreadNeverExceedsIcOnSharedWorlds) {
  // Under equal edge probabilities, LT selects at most one live in-edge
  // per vertex while IC keeps all — so IC's live-edge graphs dominate
  // and E[I_LT] <= E[I_IC] (+ noise).
  const auto [family, seed] = GetParam();
  const SocialNetwork n = MakeNetwork(family, seed, 0.35);
  const TagId tags[] = {0};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);

  SampleSizePolicy policy;
  policy.min_samples = 20000;
  policy.max_samples = 20000;
  const IcTriggering ic;
  const LtTriggering lt;
  TriggeringSampler ic_sampler(n.graph, &ic, policy, seed + 7);
  TriggeringSampler lt_sampler(n.graph, &lt, policy, seed + 8);
  const double ic_spread = ic_sampler.EstimateInfluence(0, probs).influence;
  const double lt_spread = lt_sampler.EstimateInfluence(0, probs).influence;
  EXPECT_LE(lt_spread, ic_spread * 1.03 + 0.05);
}

TEST_P(FamilySweepTest, SketchEnvelopeDominatesTagInfluence) {
  const auto [family, seed] = GetParam();
  const SocialNetwork n = MakeNetwork(family, seed, 0.35);

  SketchOptions options;
  options.sketch_size = 256;
  options.num_worlds = 256;
  options.seed = seed;
  SketchOracle oracle(&n, options);
  oracle.Build();

  const TagId tags[] = {0};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    const double exact = ExactInfluence(n.graph, probs, u);
    EXPECT_GE(1.15 * oracle.EnvelopeInfluence(u), exact) << "user " << u;
  }
}

TEST_P(FamilySweepTest, DynamicIndexSurvivesUpdateStorm) {
  const auto [family, seed] = GetParam();
  const SocialNetwork n = MakeNetwork(family, seed, 0.35);
  RrIndexOptions options;
  options.theta_override = 30000;
  options.seed = seed;
  DynamicRrIndex index(n, options);
  index.Build();

  // Randomly rewrite half the edges, several rounds (raises and cuts).
  Rng rng(seed + 55);
  for (int round = 0; round < 3; ++round) {
    std::vector<EdgeInfluenceUpdate> updates;
    for (EdgeId e = 0; e < n.num_edges(); e += 2) {
      EdgeInfluenceUpdate update;
      update.edge = e;
      update.entries = {{0, 0.1 + 0.6 * rng.NextDouble()}};
      updates.push_back(std::move(update));
    }
    index.ApplyUpdates(updates);
  }

  const TagId tags[] = {0};
  const auto post = index.network().topics.Posterior(tags);
  const PosteriorProbs probs(index.network().influence, post);
  for (VertexId u = 0; u < std::min<size_t>(4, n.num_vertices()); ++u) {
    const double exact = ExactInfluence(index.network().graph, probs, u);
    const double estimated = index.EstimateInfluence(u, probs).influence;
    EXPECT_NEAR(estimated, exact, 0.08 * exact + 0.1) << "user " << u;
  }
}

TEST_P(FamilySweepTest, QueueReuseIsBehaviorNeutral) {
  // The Appendix-D queue-reuse optimization only changes allocation
  // behaviour: with a fixed seed, reuse on/off must produce the same
  // estimates bit for bit across repeated estimations.
  const auto [family, seed] = GetParam();
  const SocialNetwork n = MakeNetwork(family, seed, 0.35);
  const TagId tags[] = {0};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);

  SampleSizePolicy policy;
  policy.min_samples = 500;
  policy.max_samples = 500;
  LazySampler reusing(n.graph, policy, seed + 1, /*reuse_queues=*/true);
  LazySampler fresh(n.graph, policy, seed + 1, /*reuse_queues=*/false);
  for (int call = 0; call < 3; ++call) {
    const Estimate a = reusing.EstimateInfluence(0, probs);
    const Estimate b = fresh.EstimateInfluence(0, probs);
    EXPECT_DOUBLE_EQ(a.influence, b.influence) << "call " << call;
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.edges_visited, b.edges_visited);
  }
}

TEST_P(FamilySweepTest, EngineServesLoadedIndex) {
  const auto [family, seed] = GetParam();
  const SocialNetwork n = MakeNetwork(family, seed, 0.35);

  // Build + save with one engine...
  EngineOptions options;
  options.method = Method::kIndexEst;
  options.index_theta_per_vertex = 2000.0;
  options.seed = seed;
  PitexEngine builder(&n, options);
  builder.BuildIndex();

  RrIndexOptions index_options;
  index_options.theta_per_vertex = 2000.0;
  index_options.seed = seed;
  RrIndex index(n, index_options);
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));

  // ...and serve from a second engine that shares the loaded replica
  // (`loaded` is declared first, so it outlives `server`).
  auto loaded = LoadRrIndex(n, file);
  ASSERT_NE(loaded, nullptr);
  PitexEngine server(&n, options);
  server.UseSharedRrIndex(loaded.get());
  server.BuildIndex();  // attaches the shared index, builds nothing

  const PitexResult from_builder = builder.Explore({.user = 0, .k = 1});
  const PitexResult from_server = server.Explore({.user = 0, .k = 1});
  EXPECT_EQ(from_server.tags, from_builder.tags);
  EXPECT_DOUBLE_EQ(from_server.influence, from_builder.influence);
}

}  // namespace
}  // namespace pitex
