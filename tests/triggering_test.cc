// Tests for the general triggering model (tests/triggering_sampler.h):
// the IC instantiation must agree with the dedicated IC machinery (exact
// oracle, McSampler), the LT instantiation with LtSampler, and on
// in-trees the two models must coincide (every vertex has one in-edge, so
// "independent coin" and "pick one in-neighbor" are the same draw).


#include <gtest/gtest.h>

#include <cmath>

#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/graph/generators.h"
#include "src/sampling/exact.h"
#include "src/sampling/lt_sampler.h"
#include "src/sampling/mc_sampler.h"
#include "triggering_sampler.h"

namespace pitex {
namespace {

// A fixed activation probability for every edge, for tests that do not
// need the tag machinery.
class ConstProbs final : public EdgeProbFn {
 public:
  explicit ConstProbs(double p) : p_(p) {}
  double Prob(EdgeId) const override { return p_; }

 private:
  double p_;
};

SampleSizePolicy TightPolicy() {
  SampleSizePolicy policy;
  policy.eps = 0.1;
  policy.min_samples = 20000;
  policy.max_samples = 60000;
  return policy;
}

// Dense EdgeId-indexed table for direct SampleTriggeringSet calls (the
// sampler-provided table in production).
std::vector<double> DenseProbs(const Graph& graph, const EdgeProbFn& probs) {
  std::vector<double> table(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) table[e] = probs.Prob(e);
  return table;
}

TEST(TriggeringDistributionTest, IcFrequenciesMatchEdgeProbs) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  const Graph graph = builder.Build();
  const ConstProbs probs(0.3);

  Rng rng(7);
  IcTriggering ic;
  const std::vector<double> table = DenseProbs(graph, probs);
  int hits[2] = {0, 0};
  int both = 0;
  const int kTrials = 40000;
  std::vector<EdgeId> live;
  for (int i = 0; i < kTrials; ++i) {
    live.clear();
    ic.SampleTriggeringSet(graph, 2, table, &rng, &live);
    for (const EdgeId e : live) ++hits[e];
    if (live.size() == 2) ++both;
  }
  EXPECT_NEAR(hits[0] / static_cast<double>(kTrials), 0.3, 0.02);
  EXPECT_NEAR(hits[1] / static_cast<double>(kTrials), 0.3, 0.02);
  // Independence: both live with probability p^2.
  EXPECT_NEAR(both / static_cast<double>(kTrials), 0.09, 0.02);
}

TEST(TriggeringDistributionTest, LtPicksAtMostOneEdge) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 3);
  builder.AddEdge(1, 3);
  builder.AddEdge(2, 3);
  const Graph graph = builder.Build();
  const ConstProbs probs(0.25);

  Rng rng(9);
  LtTriggering lt;
  const std::vector<double> table = DenseProbs(graph, probs);
  int hits[3] = {0, 0, 0};
  int empty = 0;
  const int kTrials = 40000;
  std::vector<EdgeId> live;
  for (int i = 0; i < kTrials; ++i) {
    live.clear();
    lt.SampleTriggeringSet(graph, 3, table, &rng, &live);
    ASSERT_LE(live.size(), 1u);
    if (live.empty()) {
      ++empty;
    } else {
      ++hits[live[0]];
    }
  }
  // Each edge selected with probability 0.25; empty with the leftover.
  for (int e = 0; e < 3; ++e) {
    EXPECT_NEAR(hits[e] / static_cast<double>(kTrials), 0.25, 0.02);
  }
  EXPECT_NEAR(empty / static_cast<double>(kTrials), 0.25, 0.02);
}

TEST(TriggeringDistributionTest, LtRenormalizesOverflowingWeights) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  const Graph graph = builder.Build();
  const ConstProbs probs(0.8);  // in-weights sum to 1.6

  Rng rng(11);
  LtTriggering lt;
  const std::vector<double> table = DenseProbs(graph, probs);
  int selections = 0;
  const int kTrials = 20000;
  std::vector<EdgeId> live;
  for (int i = 0; i < kTrials; ++i) {
    live.clear();
    lt.SampleTriggeringSet(graph, 2, table, &rng, &live);
    ASSERT_LE(live.size(), 1u);
    selections += !live.empty();
  }
  // Renormalized: somebody is always selected.
  EXPECT_EQ(selections, kTrials);
}

TEST(TriggeringSamplerTest, SingleEdgeSpreadIsOnePlusP) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  const Graph graph = builder.Build();
  const ConstProbs probs(0.4);

  const IcTriggering ic;
  const LtTriggering lt;
  TriggeringSampler ic_sampler(graph, &ic, TightPolicy(), 3);
  TriggeringSampler lt_sampler(graph, &lt, TightPolicy(), 4);
  EXPECT_NEAR(ic_sampler.EstimateInfluence(0, probs).influence, 1.4, 0.02);
  EXPECT_NEAR(lt_sampler.EstimateInfluence(0, probs).influence, 1.4, 0.02);
}

TEST(TriggeringSamplerTest, DeterministicChainFullyActivates) {
  GraphBuilder builder(5);
  for (VertexId v = 0; v + 1 < 5; ++v) builder.AddEdge(v, v + 1);
  const Graph graph = builder.Build();
  const ConstProbs probs(1.0);

  const IcTriggering ic;
  const LtTriggering lt;
  TriggeringSampler ic_sampler(graph, &ic, TightPolicy(), 3);
  TriggeringSampler lt_sampler(graph, &lt, TightPolicy(), 4);
  EXPECT_DOUBLE_EQ(ic_sampler.EstimateInfluence(0, probs).influence, 5.0);
  EXPECT_DOUBLE_EQ(lt_sampler.EstimateInfluence(0, probs).influence, 5.0);
}

TEST(TriggeringSamplerTest, IcConvergenceDiamondGraph) {
  // Diamond: 0 -> {1,2} -> 3. Under IC with p everywhere:
  //   E[I] = 1 + 2p + P(3 active), P(3) = p*(1-(1-p)^2) for each parent
  //   path... computed exactly via the oracle instead.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(2, 3);
  const Graph graph = builder.Build();
  const ConstProbs probs(0.5);
  const double exact = ExactInfluence(graph, probs, 0);

  const IcTriggering ic;
  TriggeringSampler sampler(graph, &ic, TightPolicy(), 17);
  EXPECT_NEAR(sampler.EstimateInfluence(0, probs).influence, exact, 0.05);
}

TEST(TriggeringSamplerTest, LtDiamondDiffersFromIcAsTheoryPredicts) {
  // In the diamond with p = 0.5 the models disagree on vertex 3:
  //   IC: both parent edges flip coins; LT: vertex 3 picks one parent.
  // LT: P(3) = 0.5*P(1) + 0.5*P(2) = 0.5 * 0.5 + 0.5 * 0.5 = 0.5.
  // IC: P(3) = 1 - (1 - 0.5*0.5)^2 = 0.4375.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(2, 3);
  const Graph graph = builder.Build();
  const ConstProbs probs(0.5);

  const LtTriggering lt;
  TriggeringSampler sampler(graph, &lt, TightPolicy(), 21);
  EXPECT_NEAR(sampler.EstimateInfluence(0, probs).influence, 1.0 + 1.0 + 0.5,
              0.04);
}

TEST(TriggeringSamplerTest, IcInstantiationMatchesMcSampler) {
  const SocialNetwork n = MakeRunningExample();
  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);

  const IcTriggering ic;
  TriggeringSampler triggering(n.graph, &ic, TightPolicy(), 5);
  McSampler mc(n.graph, TightPolicy(), 6);
  const double trig = triggering.EstimateInfluence(0, probs).influence;
  const double plain = mc.EstimateInfluence(0, probs).influence;
  EXPECT_NEAR(trig, plain, 0.05 * plain);
}

TEST(TriggeringSamplerTest, LtInstantiationMatchesLtSampler) {
  // Keep per-vertex in-weight sums <= 1 so threshold-LT and
  // triggering-LT semantics provably coincide.
  const SocialNetwork n = MakeRunningExample();
  const ConstProbs probs(0.2);

  const LtTriggering lt;
  TriggeringSampler triggering(n.graph, &lt, TightPolicy(), 5);
  LtSampler direct(n.graph, TightPolicy(), 6);
  const double trig = triggering.EstimateInfluence(0, probs).influence;
  const double plain = direct.EstimateInfluence(0, probs).influence;
  EXPECT_NEAR(trig, plain, 0.05 * plain);
}

TEST(TriggeringSamplerTest, ModelsCoincideOnInTrees) {
  // On a tree every vertex has exactly one in-edge, so IC and LT define
  // the same live-edge distribution.
  GraphBuilder builder(7);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(1, 4);
  builder.AddEdge(2, 5);
  builder.AddEdge(2, 6);
  const Graph graph = builder.Build();
  const ConstProbs probs(0.6);

  const IcTriggering ic;
  const LtTriggering lt;
  TriggeringSampler ic_sampler(graph, &ic, TightPolicy(), 8);
  TriggeringSampler lt_sampler(graph, &lt, TightPolicy(), 9);
  const double a = ic_sampler.EstimateInfluence(0, probs).influence;
  const double b = lt_sampler.EstimateInfluence(0, probs).influence;
  EXPECT_NEAR(a, b, 0.04 * a);
  // Exact tree spread: 1 + 2*0.6 + 4*0.36.
  EXPECT_NEAR(a, 1.0 + 1.2 + 1.44, 0.06);
}

TEST(TriggeringSamplerTest, CountsEdgeProbes) {
  const SocialNetwork n = MakeRunningExample();
  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);

  const IcTriggering ic;
  SampleSizePolicy policy;
  policy.min_samples = 8;
  policy.max_samples = 8;
  TriggeringSampler sampler(n.graph, &ic, policy, 5);
  const Estimate est = sampler.EstimateInfluence(0, probs);
  EXPECT_GT(est.edges_visited, 0u);
  EXPECT_EQ(est.samples, 8u);
}

TEST(TriggeringSamplerTest, IsolatedUserHasUnitSpread) {
  GraphBuilder builder(3);
  builder.AddEdge(1, 2);
  const Graph graph = builder.Build();
  const ConstProbs probs(0.9);
  const IcTriggering ic;
  TriggeringSampler sampler(graph, &ic, TightPolicy(), 2);
  EXPECT_DOUBLE_EQ(sampler.EstimateInfluence(0, probs).influence, 1.0);
}

}  // namespace
}  // namespace pitex
