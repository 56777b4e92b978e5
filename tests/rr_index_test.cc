// Tests for IndexEst (Algo 3), IndexEst+ (edge-cut pruning) and DelayMat
// (Algo 4): estimation accuracy against the exact oracle, agreement
// between the three index variants, pruning soundness, and Table-3 style
// size relationships.

#include <gtest/gtest.h>

#include "owned_sketch.h"
#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/index/delay_mat.h"
#include "src/index/edge_cut.h"
#include "src/index/rr_index.h"
#include "src/sampling/exact.h"
#include "src/util/serialize.h"

namespace pitex {

// Reads PrunedRrIndex's per-user filters (befriended in edge_cut.h).
struct PrunedRrIndexPeer {
  // FNV-1a over every user's filter under every cut policy: the sketch
  // count, the trivial sketch ids, the cut edges, and each inverted
  // list's (threshold, sketch id) entries in order.
  static uint64_t FilterHash(const RrIndex& base, const SocialNetwork& n) {
    Fnv1a hash;
    const auto fold = [&hash](const auto& value) {
      hash.Update(&value, sizeof(value));
    };
    for (const CutPolicy policy : {CutPolicy::kBestOfTwo, CutPolicy::kOutEdges,
                                   CutPolicy::kRootInEdges}) {
      PrunedRrIndex pruned(&base, &n.influence, policy);
      for (VertexId u = 0; u < n.num_vertices(); ++u) {
        const PrunedRrIndex::UserFilter& filter = pruned.FilterFor(u);
        fold(filter.num_graphs);
        fold(filter.trivial.size());
        for (const uint32_t id : filter.trivial) fold(id);
        fold(filter.cut_edges.size());
        for (size_t i = 0; i < filter.cut_edges.size(); ++i) {
          fold(filter.cut_edges[i]);
          fold(filter.lists[i].size());
          for (const auto& entry : filter.lists[i]) {
            fold(entry.threshold);
            fold(entry.graph_id);
          }
        }
      }
    }
    return hash.digest();
  }
};

namespace {

RrIndexOptions DenseOptions() {
  RrIndexOptions options;
  options.theta_override = 60000;
  options.seed = 5;
  return options;
}

TEST(RrIndexTest, TheoreticalThetaMatchesEq7) {
  RrIndexOptions options;
  options.eps = 0.7;
  options.delta = 1000;
  options.cap_k = 10;
  const double theta = RrIndex::TheoreticalTheta(options, 1000, 50);
  EXPECT_GT(theta, 1000.0);  // far more than |V|
  // Monotone in |V| and cap_k.
  EXPECT_LT(theta, RrIndex::TheoreticalTheta(options, 2000, 50));
  RrIndexOptions bigger_k = options;
  bigger_k.cap_k = 20;
  EXPECT_LT(theta, RrIndex::TheoreticalTheta(bigger_k, 1000, 50));
}

TEST(RrIndexTest, EstimatesMatchExactOnRunningExample) {
  SocialNetwork n = MakeRunningExample();
  RrIndex index(n, DenseOptions());
  index.Build();
  for (TagId a = 0; a < 4; ++a) {
    for (TagId b = a + 1; b < 4; ++b) {
      const TagId tags[] = {a, b};
      const auto post = n.topics.Posterior(tags);
      const PosteriorProbs probs(n.influence, post);
      const double exact = ExactInfluence(n.graph, probs, 0);
      const Estimate est = index.EstimateInfluence(0, probs);
      EXPECT_NEAR(est.influence, exact, 0.06 * exact)
          << "pair " << a << "," << b;
    }
  }
}

TEST(RrIndexTest, ContainingListsConsistent) {
  SocialNetwork n = MakeRunningExample();
  RrIndex index(n, DenseOptions());
  index.Build();
  size_t total = 0;
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    for (uint32_t id : index.Containing(v)) {
      EXPECT_TRUE(index.graph(id, v).LocalIndex(v).has_value());
    }
    total += index.CountContaining(v);
  }
  size_t expected = 0;
  const IndexViews views(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    expected += views(i).vertices.size();
  }
  EXPECT_EQ(total, expected);
}

TEST(RrIndexTest, SizeBytesGrowsWithTheta) {
  SocialNetwork n = MakeRunningExample();
  RrIndexOptions small = DenseOptions();
  small.theta_override = 100;
  RrIndexOptions large = DenseOptions();
  large.theta_override = 1000;
  RrIndex a(n, small), b(n, large);
  a.Build();
  b.Build();
  EXPECT_LT(a.SizeBytes(), b.SizeBytes());
}

TEST(PrunedRrIndexTest, AgreesExactlyWithBaseIndex) {
  // IndexEst+ must return the *same* estimate as IndexEst: pruning is
  // lossless (only RR-Graphs whose cut is fully dead are skipped, and
  // those are unreachable anyway).
  SocialNetwork n = MakeRunningExample();
  RrIndex base(n, DenseOptions());
  base.Build();
  PrunedRrIndex pruned(&base, &n.influence);
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    for (TagId a = 0; a < 4; ++a) {
      for (TagId b = a + 1; b < 4; ++b) {
        const TagId tags[] = {a, b};
        const auto post = n.topics.Posterior(tags);
        const PosteriorProbs probs(n.influence, post);
        const Estimate base_est = base.EstimateInfluence(u, probs);
        const Estimate pruned_est = pruned.EstimateInfluence(u, probs);
        EXPECT_DOUBLE_EQ(base_est.influence, pruned_est.influence)
            << "user " << u << " pair " << a << "," << b;
      }
    }
  }
}

TEST(PrunedRrIndexTest, ActuallyPrunes) {
  SocialNetwork n = MakeRunningExample();
  RrIndex base(n, DenseOptions());
  base.Build();
  PrunedRrIndex pruned(&base, &n.influence);
  // {w1, w2} kills all z3-only edges; many RR-Graphs should be pruned.
  const TagId tags[] = {0, 1};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);
  const Estimate base_est = base.EstimateInfluence(0, probs);
  const Estimate pruned_est = pruned.EstimateInfluence(0, probs);
  EXPECT_GT(pruned.last_stats().pruned, 0u);
  EXPECT_LT(pruned_est.edges_visited, base_est.edges_visited);
}

TEST(PrunedRrIndexTest, AgreesOnSyntheticDataset) {
  SocialNetwork n = GenerateDataset(LastfmSpec(0.15));
  RrIndexOptions options;
  options.theta_override = 5000;
  RrIndex base(n, options);
  base.Build();
  PrunedRrIndex pruned(&base, &n.influence);
  const auto users = SampleUserGroup(n.graph, UserGroup::kHigh, 3, 9);
  Rng rng(11);
  for (VertexId u : users) {
    for (int trial = 0; trial < 5; ++trial) {
      const TagId tags[] = {
          static_cast<TagId>(rng.NextBounded(n.topics.num_tags())),
      };
      const auto post = n.topics.Posterior(tags);
      const PosteriorProbs probs(n.influence, post);
      EXPECT_DOUBLE_EQ(base.EstimateInfluence(u, probs).influence,
                       pruned.EstimateInfluence(u, probs).influence);
    }
  }
}

TEST(PrunedRrIndexTest, AllCutPoliciesAgreeOnEstimates) {
  // Every cut policy is a sound filter: the estimate must be identical for
  // all three; only the amount of pruning differs.
  SocialNetwork n = MakeRunningExample();
  RrIndexOptions options = DenseOptions();
  options.theta_override = 5000;
  RrIndex base(n, options);
  base.Build();
  PrunedRrIndex best(&base, &n.influence, CutPolicy::kBestOfTwo);
  PrunedRrIndex out(&base, &n.influence, CutPolicy::kOutEdges);
  PrunedRrIndex root_in(&base, &n.influence, CutPolicy::kRootInEdges);
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    for (TagId a = 0; a < 4; ++a) {
      for (TagId b = a + 1; b < 4; ++b) {
        const TagId tags[] = {a, b};
        const auto post = n.topics.Posterior(tags);
        const PosteriorProbs probs(n.influence, post);
        const double expected = best.EstimateInfluence(u, probs).influence;
        EXPECT_DOUBLE_EQ(out.EstimateInfluence(u, probs).influence, expected);
        EXPECT_DOUBLE_EQ(root_in.EstimateInfluence(u, probs).influence,
                         expected);
      }
    }
  }
}

TEST(PrunedRrIndexTest, FiltersGoldenHash) {
  // Every user's filter, pinned: trivial sketches, cut choice and list
  // order must not depend on how the pool stores a sketch's root.
  const SocialNetwork example = MakeRunningExample();
  RrIndexOptions options = DenseOptions();
  options.theta_override = 5000;
  RrIndex example_index(example, options);
  example_index.Build();
  EXPECT_EQ(PrunedRrIndexPeer::FilterHash(example_index, example),
            0x741e27c740469126ULL)
      << std::hex << PrunedRrIndexPeer::FilterHash(example_index, example);

  const SocialNetwork lastfm = GenerateDataset(LastfmSpec(0.1));
  options.theta_override = 20000;
  RrIndex lastfm_index(lastfm, options);
  lastfm_index.Build();
  EXPECT_EQ(PrunedRrIndexPeer::FilterHash(lastfm_index, lastfm),
            0xb61e87bf28a36d14ULL)
      << std::hex << PrunedRrIndexPeer::FilterHash(lastfm_index, lastfm);
}

TEST(DelayMatTest, CountsMatchDedicatedIndexDistribution) {
  // theta(u) under DelayMat should match the RR index's counts in
  // expectation (same generation process).
  SocialNetwork n = MakeRunningExample();
  RrIndexOptions options = DenseOptions();
  RrIndex full(n, options);
  full.Build();
  DelayMatIndex delay(n, options);
  delay.Build();
  EXPECT_EQ(full.theta(), delay.theta());
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    const auto a = static_cast<double>(full.CountContaining(v));
    const auto b = static_cast<double>(delay.CountContaining(v));
    EXPECT_NEAR(a, b, 0.05 * std::max(100.0, std::max(a, b)))
        << "vertex " << v;
  }
}

TEST(DelayMatTest, EstimatesMatchExact) {
  SocialNetwork n = MakeRunningExample();
  RrIndexOptions options = DenseOptions();
  options.theta_override = 40000;
  DelayMatIndex delay(n, options);
  delay.Build();
  for (TagId a = 0; a < 4; ++a) {
    for (TagId b = a + 1; b < 4; ++b) {
      const TagId tags[] = {a, b};
      const auto post = n.topics.Posterior(tags);
      const PosteriorProbs probs(n.influence, post);
      const double exact = ExactInfluence(n.graph, probs, 0);
      const Estimate est = delay.EstimateInfluence(0, probs);
      EXPECT_NEAR(est.influence, exact, 0.08 * exact)
          << "pair " << a << "," << b;
    }
  }
}

TEST(DelayMatTest, BuildIsDeterministic) {
  // The counters are a function of the network and the options: two
  // builds with equal options agree on every counter, and another seed
  // draws other RR-Graphs.
  SocialNetwork n = MakeRunningExample();
  RrIndexOptions options = DenseOptions();
  options.theta_override = 4000;
  DelayMatIndex first(n, options);
  first.Build();
  DelayMatIndex second(n, options);
  second.Build();
  EXPECT_EQ(first.theta(), second.theta());
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    EXPECT_EQ(first.CountContaining(v), second.CountContaining(v))
        << "vertex " << v;
  }

  options.seed += 1;
  DelayMatIndex reseeded(n, options);
  reseeded.Build();
  bool differs = false;
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    differs |= reseeded.CountContaining(v) != first.CountContaining(v);
  }
  EXPECT_TRUE(differs);
}

TEST(DelayMatTest, ReplicaServesLikeAFreshBuild) {
  // A replica starts from the recovery state a fresh build starts from
  // (empty cache, query RNG at its seeded start), whatever its prototype
  // has already served: their estimates agree bit for bit.
  SocialNetwork n = MakeRunningExample();
  RrIndexOptions options = DenseOptions();
  options.theta_override = 4000;
  DelayMatIndex prototype(n, options);
  prototype.Build();
  const auto posterior_for = [&n](TagId a, TagId b) {
    const TagId tags[] = {a, b};
    return n.topics.Posterior(tags);
  };
  for (const VertexId user : {0, 2}) {
    const auto post = posterior_for(0, 1);
    prototype.EstimateInfluence(user, PosteriorProbs(n.influence, post));
  }

  DelayMatIndex fresh(n, options);
  fresh.Build();
  const auto replica = prototype.Replica();
  // User 3 twice in a row: the second query is served from the cache.
  const struct {
    VertexId user;
    TagId a, b;
  } queries[] = {{0, 0, 1}, {3, 0, 2}, {3, 2, 3}, {2, 1, 3}};
  for (const auto& query : queries) {
    const auto post = posterior_for(query.a, query.b);
    const PosteriorProbs probs(n.influence, post);
    const Estimate want = fresh.EstimateInfluence(query.user, probs);
    const Estimate got = replica->EstimateInfluence(query.user, probs);
    EXPECT_EQ(got.influence, want.influence) << "user " << query.user;
    EXPECT_EQ(got.std_error, want.std_error) << "user " << query.user;
    EXPECT_EQ(got.samples, want.samples) << "user " << query.user;
    EXPECT_EQ(got.edges_visited, want.edges_visited) << "user " << query.user;
  }
}

TEST(DelayMatTest, IndexFarSmallerThanRRGraphs) {
  // Table 3's key relationship.
  SocialNetwork n = GenerateDataset(LastfmSpec(0.3));
  RrIndexOptions options;
  options.theta_override = 2000;
  RrIndex full(n, options);
  full.Build();
  DelayMatIndex delay(n, options);
  delay.Build();
  EXPECT_LT(delay.SizeBytes() * 10, full.SizeBytes());
}

// A network with no vertices: a sampler has no root to draw.
SocialNetwork EmptyNetwork() {
  SocialNetwork network;
  network.graph = GraphBuilder(0).Build();
  network.topics = TopicModel(1, 1);
  network.influence = InfluenceGraphBuilder(0).Build();
  return network;
}

TEST(RrIndexDeathTest, BuildOverNoVerticesDies) {
  const SocialNetwork n = EmptyNetwork();
  RrIndex index(n, DenseOptions());
  EXPECT_DEATH(index.Build(), "network with no vertices");
}

TEST(DelayMatDeathTest, BuildOverNoVerticesDies) {
  const SocialNetwork n = EmptyNetwork();
  DelayMatIndex delay(n, DenseOptions());
  EXPECT_DEATH(delay.Build(), "network with no vertices");
}

TEST(DelayMatDeathTest, EstimateBeforeBuildDies) {
  SocialNetwork n = MakeRunningExample();
  DelayMatIndex delay(n, DenseOptions());
  const TopicPosterior post(3, 0.0);
  const PosteriorProbs probs(n.influence, post);
  EXPECT_DEATH(delay.EstimateInfluence(0, probs), "not built");
}

}  // namespace
}  // namespace pitex
