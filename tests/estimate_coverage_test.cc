// Coverage of the (eps, delta) guarantee on graphs small enough to
// enumerate: for each (graph, tag set), N independent seeds each build
// an estimator and estimate the spread of a fixed user, and the number
// of estimates that miss the exact spread (src/sampling/exact.h) by more
// than eps * exact is tested against the promised miss rate 1/delta.
//
// The estimators: IndexEst (RrIndex at Eq. 7's theta), IndexEst+ (the
// same index read through its per-user edge-cut filter), the online RR
// sampler (its own Eq. 2 stopping rule), DelayMat (its counters from
// Eq. 7's theta), and a DynamicRrIndex after a fixed update history,
// against the exact spread on the updated model.
//
// The test is a one-sided binomial test: with X misses out of N, it
// fails when P[Bin(N, 1/delta) >= X] < kAlpha, that is when the miss
// rate is significantly above what the guarantee allows. kAlpha, eps,
// delta, the graphs, the tag sets, the update histories and the seeds
// were fixed before the first run and are not to be re-picked.
//
// Every trial is a function of (estimator, graph, tag set, seed). A
// failing test prints each missing seed; PITEX_COVERAGE_SEED=<seed> runs
// only that seed and prints every estimate it makes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "running_example.h"
#include "src/index/delay_mat.h"
#include "src/index/dynamic_index.h"
#include "src/index/edge_cut.h"
#include "src/index/rr_index.h"
#include "src/sampling/exact.h"
#include "src/sampling/rr_sampler.h"

namespace pitex {
namespace {

// The significance level of the binomial test, written down before the
// first run.
constexpr double kAlpha = 1e-3;
// The accuracy the estimators are configured for: |est - exact| <=
// kEps * exact with probability at least 1 - 1 / kDelta.
constexpr double kEps = 0.3;
constexpr double kDelta = 10.0;
constexpr int64_t kCapK = 2;
// Index and sampler seeds 1 .. kSeeds.
constexpr uint64_t kSeeds = 100;

// P[Bin(n, p) >= x].
double BinomialUpperTail(uint64_t n, double p, uint64_t x) {
  double tail = 0.0;
  for (uint64_t i = x; i <= n; ++i) {
    const auto k = static_cast<double>(i);
    const auto total = static_cast<double>(n);
    tail += std::exp(std::lgamma(total + 1) - std::lgamma(k + 1) -
                     std::lgamma(total - k + 1) + k * std::log(p) +
                     (total - k) * std::log1p(-p));
  }
  return tail;
}

// Nine users, two topics, three tags, sixteen edges with a cycle back to
// the source: 2^16 worlds.
SocialNetwork MakeDiamondChain() {
  SocialNetwork network;
  struct Edge {
    VertexId tail;
    VertexId head;
    std::vector<EdgeTopicEntry> entries;
  };
  const std::vector<Edge> edges = {
      {0, 1, {{0, 0.6}}},           {0, 2, {{1, 0.5}}},
      {0, 3, {{0, 0.3}, {1, 0.3}}}, {1, 4, {{0, 0.7}}},
      {2, 4, {{1, 0.4}}},           {2, 5, {{1, 0.6}}},
      {3, 5, {{0, 0.5}}},           {3, 6, {{1, 0.5}}},
      {4, 7, {{0, 0.5}, {1, 0.2}}}, {5, 7, {{1, 0.5}}},
      {5, 8, {{0, 0.4}}},           {6, 8, {{1, 0.7}}},
      {7, 8, {{0, 0.3}}},           {8, 0, {{1, 0.2}}},
      {1, 2, {{0, 0.2}}},           {4, 5, {{1, 0.3}}},
  };
  GraphBuilder graph(9);
  for (const Edge& edge : edges) graph.AddEdge(edge.tail, edge.head);
  network.graph = graph.Build();
  network.topics = TopicModel(2, 3);
  const double table[3][2] = {{0.8, 0.2}, {0.2, 0.8}, {0.5, 0.5}};
  for (TagId w = 0; w < 3; ++w) {
    for (TopicId z = 0; z < 2; ++z) network.topics.SetTagTopic(w, z, table[w][z]);
  }
  InfluenceGraphBuilder influence(network.graph.num_edges());
  for (EdgeId e = 0; e < edges.size(); ++e) {
    influence.SetEdgeTopics(e, edges[e].entries);
  }
  network.influence = influence.Build();
  network.tags.Intern("w0");
  network.tags.Intern("w1");
  network.tags.Intern("w2");
  return network;
}

struct Case {
  const char* name;
  SocialNetwork network;
  VertexId user;
  std::vector<std::vector<TagId>> tag_sets;
  // Applied in order to the DynamicRrIndex: raises, lowers and deletes.
  std::vector<EdgeInfluenceUpdate> history;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  cases.push_back({"running_example",
                   MakeRunningExample(),
                   0,
                   {{0, 1}, {2, 3}},
                   {{4, {{2, 0.3}}},
                    {0, {{0, 0.9}}},
                    {6, {}},
                    {2, {{0, 0.5}, {1, 0.6}}},
                    {1, {{1, 0.2}}}}});
  cases.push_back({"diamond_chain",
                   MakeDiamondChain(),
                   0,
                   {{0, 2}, {1}},
                   {{3, {{0, 0.2}}},
                    {2, {{0, 0.9}, {1, 0.4}}},
                    {9, {}},
                    {13, {{1, 0.6}}},
                    {5, {{1, 0.3}}}}});
  return cases;
}

RrIndexOptions IndexOptions(const SocialNetwork& network, uint64_t seed) {
  RrIndexOptions options;
  options.eps = kEps;
  options.delta = kDelta;
  options.cap_k = kCapK;
  options.seed = seed;
  options.theta_override = static_cast<uint64_t>(std::ceil(
      RrIndex::TheoreticalTheta(options, network.num_vertices(),
                                network.topics.num_tags())));
  return options;
}

// estimate(network, seed, tags) for each tag set of each case, against
// the exact spread on `truth_of(case)`'s model.
using EstimateFn = std::function<double(const Case&, uint64_t seed,
                                        std::span<const TagId> tags)>;
using TruthFn = std::function<const SocialNetwork&(const Case&)>;

void CheckCoverage(const char* estimator, const EstimateFn& estimate,
                   const TruthFn& truth_of) {
  const char* replay = std::getenv("PITEX_COVERAGE_SEED");
  const uint64_t first = replay != nullptr ? std::strtoull(replay, nullptr, 10)
                                           : 1;
  const uint64_t last = replay != nullptr ? first : kSeeds;
  for (const Case& c : Cases()) {
    const SocialNetwork& truth = truth_of(c);
    for (const std::vector<TagId>& tags : c.tag_sets) {
      const double exact = ExactInfluenceForTags(truth, tags, c.user);
      uint64_t misses = 0;
      std::ostringstream missed;
      for (uint64_t seed = first; seed <= last; ++seed) {
        const double got = estimate(c, seed, tags);
        const bool miss = std::abs(got - exact) > kEps * exact;
        if (replay != nullptr) {
          std::cout << estimator << " " << c.name << " seed " << seed
                    << ": estimate " << got << ", exact " << exact
                    << (miss ? " (miss)" : "") << "\n";
        }
        if (miss) {
          ++misses;
          missed << " " << seed << " (" << got << ")";
        }
      }
      if (replay != nullptr) continue;
      const double p = BinomialUpperTail(kSeeds, 1.0 / kDelta, misses);
      std::cout << estimator << " " << c.name << " tags " << tags[0]
                << (tags.size() > 1 ? "+" : "") << ": " << misses << "/"
                << kSeeds << " misses, P[Bin >= misses] = " << p << "\n";
      EXPECT_GE(p, kAlpha)
          << estimator << " on " << c.name << ", tag set of "
          << tags.size() << " starting " << tags[0] << ": " << misses
          << " of " << kSeeds << " estimates miss exact " << exact
          << " by more than eps = " << kEps << "; seeds (estimates):"
          << missed.str()
          << "\nReplay one with PITEX_COVERAGE_SEED=<seed>.";
    }
  }
}

const SocialNetwork& BaseModel(const Case& c) { return c.network; }

TEST(EstimateCoverageTest, BinomialTailIsExact) {
  EXPECT_NEAR(BinomialUpperTail(4, 0.5, 0), 1.0, 1e-12);
  EXPECT_NEAR(BinomialUpperTail(4, 0.5, 3), 5.0 / 16.0, 1e-12);
  EXPECT_NEAR(BinomialUpperTail(4, 0.5, 4), 1.0 / 16.0, 1e-12);
}

TEST(EstimateCoverageTest, IndexEstMeetsEpsDelta) {
  CheckCoverage(
      "IndexEst",
      [](const Case& c, uint64_t seed, std::span<const TagId> tags) {
        RrIndex index(c.network, IndexOptions(c.network, seed));
        index.Build();
        const TopicPosterior posterior = c.network.topics.Posterior(tags);
        const PosteriorProbs probs(c.network.influence, posterior);
        return index.EstimateInfluence(c.user, probs).influence;
      },
      BaseModel);
}

TEST(EstimateCoverageTest, IndexEstPlusMeetsEpsDelta) {
  CheckCoverage(
      "IndexEst+",
      [](const Case& c, uint64_t seed, std::span<const TagId> tags) {
        RrIndex index(c.network, IndexOptions(c.network, seed));
        index.Build();
        PrunedRrIndex pruned(&index, &c.network.influence);
        const TopicPosterior posterior = c.network.topics.Posterior(tags);
        const PosteriorProbs probs(c.network.influence, posterior);
        return pruned.EstimateInfluence(c.user, probs).influence;
      },
      BaseModel);
}

TEST(EstimateCoverageTest, OnlineRrMeetsEpsDelta) {
  CheckCoverage(
      "RR",
      [](const Case& c, uint64_t seed, std::span<const TagId> tags) {
        SampleSizePolicy policy;
        policy.eps = kEps;
        policy.delta = kDelta;
        policy.num_tags = static_cast<int64_t>(c.network.topics.num_tags());
        policy.k = kCapK;
        RrSampler sampler(c.network.graph, policy, seed);
        const TopicPosterior posterior = c.network.topics.Posterior(tags);
        const PosteriorProbs probs(c.network.influence, posterior);
        return sampler.EstimateInfluence(c.user, probs).influence;
      },
      BaseModel);
}

TEST(EstimateCoverageTest, DelayMatMeetsEpsDelta) {
  CheckCoverage(
      "DelayMat",
      [](const Case& c, uint64_t seed, std::span<const TagId> tags) {
        DelayMatIndex index(c.network, IndexOptions(c.network, seed));
        index.Build();
        const TopicPosterior posterior = c.network.topics.Posterior(tags);
        const PosteriorProbs probs(c.network.influence, posterior);
        return index.EstimateInfluence(c.user, probs).influence;
      },
      BaseModel);
}

// The index is built on the case's model, then repaired through its
// update history one update at a time; the truth is the updated model.
TEST(EstimateCoverageTest, DynamicIndexAfterUpdatesMeetsEpsDelta) {
  std::vector<SocialNetwork> updated;
  for (const Case& c : Cases()) {
    DynamicRrIndex probe(c.network, IndexOptions(c.network, 1));
    probe.Build();
    probe.ApplyUpdates(c.history);
    updated.push_back(probe.network());
  }
  CheckCoverage(
      "DynamicRrIndex",
      [](const Case& c, uint64_t seed, std::span<const TagId> tags) {
        DynamicRrIndex index(c.network, IndexOptions(c.network, seed));
        index.Build();
        for (const EdgeInfluenceUpdate& update : c.history) {
          index.ApplyUpdates(std::span(&update, 1));
        }
        const SocialNetwork& now = index.network();
        const TopicPosterior posterior = now.topics.Posterior(tags);
        const PosteriorProbs probs(now.influence, posterior);
        return index.EstimateInfluence(c.user, probs).influence;
      },
      [&updated](const Case& c) -> const SocialNetwork& {
        return std::string(c.name) == "running_example" ? updated[0]
                                                        : updated[1];
      });
}

}  // namespace
}  // namespace pitex
