// Tests for IndexEst (Algo 3), IndexEst+ (edge-cut pruning) and DelayMat
// (Algo 4): estimation accuracy against the exact oracle, agreement
// between the three index variants, pruning soundness, and Table-3 style
// size relationships.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

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
  // count, the trivial sketches' count and ids (the user's root range),
  // the cut edges, and each inverted list's (threshold, sketch id)
  // entries in order.
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
        fold(filter.trivial);
        for (const uint32_t id : base.RootRange(u)) fold(id);
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
    for (uint32_t id : ContainingIds(index, v)) {
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

// The index's theta samples generated standalone (GenerateRRGraph from
// each sample's stream, as IndexBuildEquivalenceTest's
// ArenaPoolMatchesStandaloneGeneration stages them) and appended, in
// sample order, to a run, which keeps the order it is given.
RrSketchPool SampleOrderSketches(const SocialNetwork& n, uint64_t seed,
                                 uint64_t theta) {
  RrSketchPool run(n.graph);
  for (uint64_t i = 0; i < theta; ++i) {
    Rng rng = SampleStream(seed, i);
    const auto root = static_cast<VertexId>(rng.NextBounded(n.num_vertices()));
    run.Append(GenerateRRGraph(n.graph, n.influence, root, &rng).View());
  }
  return run;
}

// True when IndexEst+'s filter (its best-of-two edge cut, Example 7)
// keeps `rr`, a sketch u is in but does not root, as a candidate under
// `probs`: some edge of the chosen cut has c(e) <= p(e|W), p(e|W) > 0.
bool KeptByCut(const RRView& rr, VertexId u, const InfluenceGraph& influence,
               const EdgeProbFn& probs) {
  DecodedSketch sketch;
  Decode(rr, &sketch);
  const uint32_t local = *sketch.LocalIndex(u);
  std::vector<std::pair<EdgeId, double>> cuts[2];
  double log_prune[2] = {0.0, 0.0};
  const auto add = [&](int c, uint32_t k) {
    const EdgeId edge = sketch.edges[k];
    const double threshold = rr.thresholds(edge);
    cuts[c].emplace_back(edge, threshold);
    log_prune[c] +=
        std::log(std::max(1e-12, threshold / influence.MaxProb(edge)));
  };
  for (uint32_t k = sketch.offsets[local]; k < sketch.offsets[local + 1];
       ++k) {
    add(0, k);
  }
  for (uint32_t k = 0; k < sketch.heads.size(); ++k) {
    if (sketch.heads[k] == sketch.root_local) add(1, k);
  }
  const int chosen = cuts[0].empty() || cuts[1].empty()
                         ? (cuts[0].empty() ? 0 : 1)
                         : (log_prune[0] >= log_prune[1] ? 0 : 1);
  for (const auto& [edge, threshold] : cuts[chosen]) {
    const double p = probs.Prob(edge);
    if (p > 0.0 && threshold <= p) return true;
  }
  return false;
}

TEST(RrIndexTest, EstimatesEqualSampleOrderReference) {
  // A pool numbers its sketches in root order; the paper's estimators
  // only count sketches, so IndexEst and IndexEst+ must return exactly
  // what Algorithm 3 returns over the samples in the order they were
  // drawn: the same influence, samples and edges visited, IndexEst+'s
  // edges those of the sketches its filter keeps.
  const SocialNetwork example = MakeRunningExample();
  const SocialNetwork lastfm = GenerateDataset(LastfmSpec(0.1));
  struct Case {
    const SocialNetwork* n;
    uint64_t theta;
    size_t threads;
  };
  for (const Case& c : {Case{&example, 5000, 1}, Case{&lastfm, 20000, 1},
                        Case{&lastfm, 20000, 3}}) {
    const SocialNetwork& n = *c.n;
    SCOPED_TRACE("|V| = " + std::to_string(n.num_vertices()) + ", " +
                 std::to_string(c.threads) + " build threads");
    // The (user, tag set) pairs, fixed before any estimate.
    Rng pick(17);
    std::vector<std::pair<VertexId, std::vector<TagId>>> queries;
    for (int q = 0; q < 24; ++q) {
      const auto user =
          static_cast<VertexId>(pick.NextBounded(n.num_vertices()));
      const auto a = static_cast<TagId>(pick.NextBounded(n.topics.num_tags()));
      const auto b = static_cast<TagId>(pick.NextBounded(n.topics.num_tags()));
      queries.push_back({user, a == b ? std::vector<TagId>{a}
                                      : std::vector<TagId>{a, b}});
    }
    RrIndexOptions options = DenseOptions();
    options.theta_override = c.theta;
    options.num_build_threads = c.threads;
    RrIndex index(n, options);
    index.Build();
    PrunedRrIndex pruned(&index, &n.influence);
    const RrSketchPool samples = SampleOrderSketches(n, options.seed, c.theta);
    // Sample i's id in the index, by root and among one root's by
    // sample, which keys its thresholds.
    std::vector<uint32_t> by_id(c.theta);
    std::iota(by_id.begin(), by_id.end(), 0);
    std::ranges::stable_sort(
        by_id, {}, [&samples](uint32_t i) { return samples.RootOf(i); });
    std::vector<uint32_t> id_of(c.theta);
    for (uint32_t id = 0; id < c.theta; ++id) id_of[by_id[id]] = id;
    uint64_t all_kept_edges = 0;
    for (const auto& [u, tags] : queries) {
      const auto post = n.topics.Posterior(tags);
      const PosteriorProbs probs(n.influence, post);
      uint64_t hits = 0, walked = 0, edges = 0, kept_edges = 0;
      for (size_t i = 0; i < samples.num_sketches(); ++i) {
        RRView rr =
            samples.View(i, samples.IsSingleton(i) ? samples.RootOf(i) : u);
        rr.thresholds = index.Thresholds(id_of[i]);
        if (!rr.LocalIndex(u).has_value()) continue;
        ++walked;
        uint64_t visited = 0;
        if (IsReachable(rr, u, probs, &visited)) ++hits;
        edges += visited;
        if (rr.root() != u && KeptByCut(rr, u, n.influence, probs)) {
          kept_edges += visited;
        }
      }
      const double influence = std::max(
          1.0, static_cast<double>(hits) / static_cast<double>(c.theta) *
                   static_cast<double>(n.num_vertices()));
      const Estimate got = index.EstimateInfluence(u, probs);
      EXPECT_EQ(got.influence, influence) << "user " << u;
      EXPECT_EQ(got.samples, walked) << "user " << u;
      EXPECT_EQ(got.edges_visited, edges) << "user " << u;
      const Estimate got_pruned = pruned.EstimateInfluence(u, probs);
      EXPECT_EQ(got_pruned.influence, influence) << "user " << u;
      EXPECT_EQ(got_pruned.samples, walked) << "user " << u;
      EXPECT_EQ(got_pruned.edges_visited, kept_edges) << "user " << u;
      all_kept_edges += kept_edges;
    }
    // Sanity of the fixture: the filter keeps sketches that walk edges.
    EXPECT_GT(all_kept_edges, 0u);
  }
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

TEST(PrunedRrIndexTest, RootSelfLoopFiltersLikeTheBaseIndex) {
  // Two users, u = 0 and r = 1, with certain edges u -> r and r -> r: each
  // sketch rooted at r holds u and both edges, so its root has an
  // out-edge (the self-loop). IndexEst+'s filter for u reads every
  // edge into the root, the self-loop's tail (the root) included.
  const RRGraph looped{1, {0, 1}, {0, 1, 2}, {1, 1}, {0, 0}};
  const SocialNetwork n = NetworkOf(2, {looped});
  RrIndexOptions options;
  options.theta_override = 64;
  options.seed = 3;
  RrIndex base(n, options);
  base.Build();
  ASSERT_FALSE(base.RootRange(1).empty());
  ASSERT_EQ(base.CountContaining(0),
            base.RootRange(0).size() + base.RootRange(1).size());
  for (const CutPolicy policy : {CutPolicy::kBestOfTwo, CutPolicy::kOutEdges,
                                 CutPolicy::kRootInEdges}) {
    PrunedRrIndex pruned(&base, &n.influence, policy);
    const TagId tags[] = {0};
    const auto post = n.topics.Posterior(tags);
    const PosteriorProbs probs(n.influence, post);
    const Estimate base_est = base.EstimateInfluence(0, probs);
    const Estimate pruned_est = pruned.EstimateInfluence(0, probs);
    EXPECT_DOUBLE_EQ(base_est.influence, pruned_est.influence);
    EXPECT_EQ(base_est.samples, pruned_est.samples);
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
            0x8e66af663a6c7f54ULL)
      << std::hex << PrunedRrIndexPeer::FilterHash(example_index, example);

  const SocialNetwork lastfm = GenerateDataset(LastfmSpec(0.1));
  options.theta_override = 20000;
  RrIndex lastfm_index(lastfm, options);
  lastfm_index.Build();
  EXPECT_EQ(PrunedRrIndexPeer::FilterHash(lastfm_index, lastfm),
            0xbb7231aebf40342dULL)
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
  // Table 3's key relationship: DelayMat keeps a counter per vertex, the
  // RR index theta sketches, here 20 per vertex. (At 10 per vertex the
  // RR index, whose in-trees name each vertex by its parent and in-rank,
  // takes 13,797 B, 7.8 times DelayMat's 1,764.)
  SocialNetwork n = GenerateDataset(LastfmSpec(0.3));
  RrIndexOptions options;
  options.theta_per_vertex = 20.0;
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
