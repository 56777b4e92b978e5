// Pins for the sketches' shapes and the law of their thresholds, which
// no record stores (SketchThresholds in src/index/rr_graph.h):
//
//   * shapes: a built pool's sketches (vertices, root, CSR, ranks),
//     containing lists and root starts, hashed without their thresholds
//     (ShapeHash), equal the values recorded when every record still
//     stored its threshold;
//   * the threshold law: over a fixed record set, c(e) / env(e) passes a
//     one-sample Kolmogorov-Smirnov test for U(0, 1], on a built index
//     and on one after repairs, a compaction, a save and a load;
//   * the repair law: after an update that lowers p(e), e survives in a
//     fraction of the sketches it was live in that a two-sided binomial
//     test finds consistent with p_new / p_old, and the survivors'
//     c(e) / p_new passes the KS test.
//
// kAlpha, the networks, the seeds and the updates were fixed before the
// first run and are not to be re-picked.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <span>
#include <sstream>
#include <vector>

#include "owned_sketch.h"
#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/index/dynamic_index.h"
#include "src/index/index_io.h"
#include "src/index/rr_index.h"

namespace pitex {
namespace {

// The significance level of every test below, written down before the
// first run.
constexpr double kAlpha = 1e-3;
// The Kolmogorov distribution's 1 - kAlpha quantile: sqrt(n) * D
// exceeds it with probability kAlpha under the null, for large n.
constexpr double kKolmogorovQuantile = 1.9495;

// The one-sample KS statistic D of `values` against U(0, 1].
double KsStatistic(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  double d = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const auto rank = static_cast<double>(i);
    d = std::max({d, (rank + 1) / n - values[i], values[i] - rank / n});
  }
  return d;
}

// Expects `values` to pass the KS test for U(0, 1] at kAlpha.
void ExpectUniform(const std::vector<double>& values, const char* what) {
  ASSERT_GE(values.size(), 1000u) << what;
  const double d = KsStatistic(values);
  std::cout << what << ": sqrt(n) D = "
            << std::sqrt(static_cast<double>(values.size())) * d << " over "
            << values.size() << " records\n";
  EXPECT_LT(std::sqrt(static_cast<double>(values.size())) * d,
            kKolmogorovQuantile)
      << what << ": D = " << d << " over " << values.size() << " records";
}

// c(e) / env(e) for every record of every sketch of `index` (an RrIndex
// or a DynamicRrIndex over `network`), env(e) the float envelope of
// `network`'s model.
template <typename Index>
std::vector<double> ThresholdUniforms(const Index& index,
                                      const SocialNetwork& network) {
  std::vector<double> uniforms;
  const IndexViews views(index, network.num_vertices());
  std::vector<GlobalEdgeSample> edges;
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    const RRView rr = views(i);
    DecomposeRRGraphInto(rr, &edges);
    for (const GlobalEdgeSample& edge : edges) {
      const auto env = static_cast<double>(
          EnvelopeProbability(network.influence.MaxProb(edge.edge)));
      uniforms.push_back(rr.thresholds(edge.edge) / env);
    }
  }
  return uniforms;
}

// P[X <= x] and P[X >= x] for X ~ Bin(n, p), doubled and capped at 1:
// the two-sided binomial test's p-value.
double BinomialTwoSided(uint64_t n, double p, uint64_t x) {
  const auto total = static_cast<double>(n);
  double below = 0.0;
  double above = 0.0;
  for (uint64_t i = 0; i <= n; ++i) {
    const auto k = static_cast<double>(i);
    const double mass =
        std::exp(std::lgamma(total + 1) - std::lgamma(k + 1) -
                 std::lgamma(total - k + 1) + k * std::log(p) +
                 (total - k) * std::log1p(-p));
    if (i <= x) below += mass;
    if (i >= x) above += mass;
  }
  return std::min(1.0, 2.0 * std::min(below, above));
}

TEST(ThresholdLawTest, ShapesArePinned) {
  const SocialNetwork example = MakeRunningExample();
  RrIndexOptions options;
  options.theta_override = 512;
  options.seed = 7;
  RrIndex small(example, options);
  small.Build();
  EXPECT_EQ(ShapeHash(small, example.num_vertices()), 0x5a1fe94049e6eaceULL)
      << std::hex << ShapeHash(small, example.num_vertices());

  // A parallel build over a synthetic dataset.
  const SocialNetwork lastfm = GenerateDataset(LastfmSpec(0.1));
  options.seed = 5;
  options.num_build_threads = 3;
  options.theta_override = 100000;
  RrIndex synthetic(lastfm, options);
  synthetic.Build();
  EXPECT_EQ(ShapeHash(synthetic, lastfm.num_vertices()), 0xf67f62096bdece31ULL)
      << std::hex << ShapeHash(synthetic, lastfm.num_vertices());

  // pitexbench's index: the dblp analog at scale 0.05 with 64 tags and
  // dataset seed 1, theta/vertex 8 and seed 7 (theta = 200,000).
  DatasetSpec dataset = DblpSpec(0.05);
  dataset.num_tags = 64;
  dataset.seed = 1;
  const SocialNetwork dblp = GenerateDataset(dataset);
  RrIndexOptions probe;
  probe.theta_per_vertex = 8.0;
  probe.seed = 7;
  RrIndex benchmark(dblp, probe);
  benchmark.Build();
  ASSERT_EQ(benchmark.num_graphs(), 200000u);
  EXPECT_EQ(ShapeHash(benchmark, dblp.num_vertices()), 0x3fdafafe5188bd4dULL)
      << std::hex << ShapeHash(benchmark, dblp.num_vertices());
}

TEST(ThresholdLawTest, StatisticsAreExact) {
  EXPECT_DOUBLE_EQ(KsStatistic({0.5}), 0.5);
  EXPECT_DOUBLE_EQ(KsStatistic({0.25, 0.75}), 0.25);
  EXPECT_NEAR(BinomialTwoSided(4, 0.5, 2), 1.0, 1e-12);
  EXPECT_NEAR(BinomialTwoSided(4, 0.5, 0), 2.0 / 16.0, 1e-12);
}

TEST(ThresholdLawTest, ThresholdsAreUniformUnderTheirEnvelope) {
  // A parallel build over a synthetic dataset, then the same index
  // repaired through 200 updates that raise, lower and delete edges,
  // compacted, saved and loaded.
  const SocialNetwork lastfm = GenerateDataset(LastfmSpec(0.1));
  RrIndexOptions options;
  options.seed = 5;
  options.num_build_threads = 3;
  options.theta_override = 20000;
  RrIndex built(lastfm, options);
  built.Build();
  ExpectUniform(ThresholdUniforms(built, lastfm), "built");

  DynamicRrIndex dynamic(lastfm, options);
  dynamic.Build();
  Rng pick(29);
  for (int round = 0; round < 200; ++round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>(pick.NextBounded(lastfm.num_edges()));
    if (round % 5 != 4) {
      update.entries = {
          {static_cast<TopicId>(pick.NextBounded(lastfm.topics.num_topics())),
           pick.NextDouble()}};
    }
    dynamic.ApplyUpdates(std::span(&update, 1));
  }
  const SocialNetwork& now = dynamic.network();
  ExpectUniform(ThresholdUniforms(dynamic, now), "repaired");
  const std::unique_ptr<RrIndex> compacted = dynamic.Freeze(now, true);
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(*compacted, file));
  IndexIoError error;
  const auto loaded = LoadRrIndex(now, file, &error);
  ASSERT_NE(loaded, nullptr) << error.message;
  ExpectUniform(ThresholdUniforms(*loaded, now), "compacted and loaded");
}

TEST(ThresholdLawTest, LoweredEdgeSurvivesAtItsEnvelopeRatio) {
  // Two users and the certain-topic edge t -> h at 0.8: the sketches
  // rooted at h hold the edge live with probability 0.8. Lowering it to
  // 0.3 keeps it in each with probability p_new / p_old, by a coin of
  // that sketch's repair stream.
  SocialNetwork n;
  GraphBuilder graph(2);
  graph.AddEdge(0, 1);
  n.graph = graph.Build();
  n.topics = TopicModel(1, 1);
  n.topics.SetTagTopic(0, 0, 1.0);
  InfluenceGraphBuilder influence(1);
  const EdgeTopicEntry before{0, 0.8};
  influence.SetEdgeTopics(0, std::span(&before, 1));
  n.influence = influence.Build();
  n.tags.Intern("w");
  RrIndexOptions options;
  options.seed = 13;
  options.theta_override = 20000;
  DynamicRrIndex index(n, options);
  index.Build();
  // The sketches rooted at h, and those of them that hold the edge.
  const auto holds_edge = [&index](uint32_t id) {
    return index.graph(id, 1).num_edges() == 1;
  };
  std::vector<uint32_t> live;
  for (const uint32_t id : index.RootRange(1)) {
    if (holds_edge(id)) live.push_back(id);
  }
  ASSERT_GE(live.size(), 5000u);

  index.UpdateEdgeTopics(0, std::vector<EdgeTopicEntry>{{0, 0.3}});
  const double ratio =
      static_cast<double>(EnvelopeProbability(0.3)) /
      static_cast<double>(EnvelopeProbability(0.8));
  uint64_t survivors = 0;
  std::vector<double> uniforms;
  for (const uint32_t id : live) {
    if (!holds_edge(id)) continue;
    ++survivors;
    const RRView rr = index.graph(id, 1);
    uniforms.push_back(rr.thresholds(0) /
                       static_cast<double>(EnvelopeProbability(0.3)));
  }
  const double p = BinomialTwoSided(live.size(), ratio, survivors);
  std::cout << survivors << " of " << live.size() << " keep the edge (ratio "
            << ratio << "), two-sided p = " << p << "\n";
  EXPECT_GE(p, kAlpha) << survivors << " of " << live.size()
                       << " sketches keep the edge, against a ratio of "
                       << ratio;
  ExpectUniform(uniforms, "survivors");
  // No sketch that did not hold the edge gains it: a lowered envelope
  // resurrects nothing.
  for (const uint32_t id : index.RootRange(1)) {
    if (!std::ranges::binary_search(live, id)) {
      EXPECT_FALSE(holds_edge(id)) << "sketch " << id;
    }
  }
}

}  // namespace
}  // namespace pitex
