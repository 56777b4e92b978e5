// Integration tests for PitexEngine: every method answers the running
// example correctly, index methods require/build their index, and the
// direct-estimation API agrees with the exact oracle.

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "running_example.h"
#include "src/core/engine.h"
#include "src/datasets/synthetic.h"
#include "src/sampling/exact.h"

namespace pitex {
namespace {

EngineOptions BaseOptions(Method method) {
  EngineOptions options;
  options.method = method;
  options.eps = 0.2;
  options.min_samples = 4000;
  options.max_samples = 20000;
  options.index_theta_per_vertex = 4000.0;  // dense index for a 7-vertex toy
  options.seed = 3;
  return options;
}

class EngineMethodTest : public testing::TestWithParam<Method> {};

INSTANTIATE_TEST_SUITE_P(
    AllMethods, EngineMethodTest,
    testing::Values(Method::kMc, Method::kRr, Method::kLazy,
                    Method::kIndexEst, Method::kIndexEstPlus,
                    Method::kDelayMat),
    [](const testing::TestParamInfo<Method>& param_info) {
      std::string name = MethodName(param_info.param);
      const size_t plus = name.find('+');
      if (plus != std::string::npos) name.replace(plus, 1, "PLUS");
      return name;
    });

TEST_P(EngineMethodTest, SolvesRunningExample) {
  SocialNetwork n = MakeRunningExample();
  PitexEngine engine(&n, BaseOptions(GetParam()));
  engine.BuildIndex();
  const PitexResult r = engine.Explore({.user = 0, .k = 2});
  EXPECT_EQ(r.tags, (std::vector<TagId>{2, 3}))
      << MethodName(GetParam());
  EXPECT_NEAR(r.influence, 1.733, 0.12) << MethodName(GetParam());
  EXPECT_GT(r.seconds, 0.0);
}

TEST_P(EngineMethodTest, EstimateInfluenceMatchesExact) {
  SocialNetwork n = MakeRunningExample();
  PitexEngine engine(&n, BaseOptions(GetParam()));
  engine.BuildIndex();
  const TagId tags[] = {0, 1};
  const Estimate est = engine.EstimateInfluence(0, tags);
  EXPECT_NEAR(est.influence, 1.5125, 0.1) << MethodName(GetParam());
}

TEST_P(EngineMethodTest, EnumerationModeAgreesWithBestEffort) {
  SocialNetwork n = MakeRunningExample();
  EngineOptions options = BaseOptions(GetParam());
  options.best_effort = false;
  PitexEngine plain(&n, options);
  plain.BuildIndex();
  const PitexResult r = plain.Explore({.user = 0, .k = 2});
  EXPECT_EQ(r.tags, (std::vector<TagId>{2, 3}));
  EXPECT_EQ(r.sets_evaluated, 6u);  // no pruning in enumeration mode
}

TEST(EngineTest, TimMethodRunsAndRanksReasonably) {
  // TIM has no guarantee, but on the running example (a tree for every tag
  // set) its path-based estimate is exact enough to find the optimum.
  SocialNetwork n = MakeRunningExample();
  EngineOptions options = BaseOptions(Method::kTim);
  options.tim.path_threshold = 0.001;
  PitexEngine engine(&n, options);
  const PitexResult r = engine.Explore({.user = 0, .k = 2});
  EXPECT_EQ(r.tags, (std::vector<TagId>{2, 3}));
}

TEST(EngineTest, IndexMethodsReportSizeAndBuildTime) {
  SocialNetwork n = MakeRunningExample();
  PitexEngine online(&n, BaseOptions(Method::kLazy));
  online.BuildIndex();
  EXPECT_EQ(online.IndexSizeBytes(), 0u);
  EXPECT_EQ(online.IndexBuildSeconds(), 0.0);

  PitexEngine indexed(&n, BaseOptions(Method::kIndexEst));
  indexed.BuildIndex();
  EXPECT_GT(indexed.IndexSizeBytes(), 0u);
  EXPECT_GE(indexed.IndexBuildSeconds(), 0.0);

  PitexEngine delayed(&n, BaseOptions(Method::kDelayMat));
  delayed.BuildIndex();
  EXPECT_GT(delayed.IndexSizeBytes(), 0u);
  EXPECT_LT(delayed.IndexSizeBytes(), indexed.IndexSizeBytes());
}

TEST(EngineTest, BuildIndexIsIdempotent) {
  SocialNetwork n = MakeRunningExample();
  PitexEngine engine(&n, BaseOptions(Method::kIndexEst));
  engine.BuildIndex();
  const size_t size = engine.IndexSizeBytes();
  engine.BuildIndex();  // no-op
  EXPECT_EQ(engine.IndexSizeBytes(), size);
}

TEST(EngineTest, LtMethodSolvesRunningExample) {
  // The LT extension plugs into the same engine; on the running example
  // the live graphs are trees, where LT and IC spreads coincide, so the
  // optimum is still {w3, w4}.
  SocialNetwork n = MakeRunningExample();
  PitexEngine engine(&n, BaseOptions(Method::kLt));
  const PitexResult r = engine.Explore({.user = 0, .k = 2});
  EXPECT_EQ(r.tags, (std::vector<TagId>{2, 3}));
  EXPECT_NEAR(r.influence, 1.733, 0.12);
}

TEST(EngineTest, MethodNamesMatchPaper) {
  EXPECT_STREQ(MethodName(Method::kMc), "MC");
  EXPECT_STREQ(MethodName(Method::kRr), "RR");
  EXPECT_STREQ(MethodName(Method::kLazy), "LAZY");
  EXPECT_STREQ(MethodName(Method::kTim), "TIM");
  EXPECT_STREQ(MethodName(Method::kIndexEst), "INDEXEST");
  EXPECT_STREQ(MethodName(Method::kIndexEstPlus), "INDEXEST+");
  EXPECT_STREQ(MethodName(Method::kDelayMat), "DELAYMAT");
}

TEST(EngineTest, VaryingKReusesEngine) {
  SocialNetwork n = MakeRunningExample();
  PitexEngine engine(&n, BaseOptions(Method::kLazy));
  for (size_t k = 1; k <= 3; ++k) {
    const PitexResult r = engine.Explore({.user = 0, .k = k});
    EXPECT_EQ(r.tags.size(), k);
  }
}

TEST(EngineDeathTest, IndexMethodWithoutBuildDies) {
  SocialNetwork n = MakeRunningExample();
  PitexEngine engine(&n, BaseOptions(Method::kIndexEst));
  EXPECT_DEATH(engine.Explore({.user = 0, .k = 2}), "BuildIndex");
}

TEST(EngineTest, ExploreTopNRanksAndContainsArgmax) {
  SocialNetwork n = MakeRunningExample();
  PitexEngine engine(&n, BaseOptions(Method::kIndexEst));
  engine.BuildIndex();

  const PitexQuery query{.user = 0, .k = 2};
  const PitexResult best = engine.Explore(query);
  const auto top = engine.ExploreTopN(query, 3);
  ASSERT_EQ(top.size(), 3u);
  // Descending influence; the argmax heads the list.
  EXPECT_EQ(top[0].tags, best.tags);
  EXPECT_GE(top[0].influence, top[1].influence);
  EXPECT_GE(top[1].influence, top[2].influence);
  // Distinct sets.
  EXPECT_NE(top[0].tags, top[1].tags);
  EXPECT_NE(top[1].tags, top[2].tags);
}

TEST(EngineTest, AdoptedDelayMatServesQueries) {
  SocialNetwork n = MakeRunningExample();
  const EngineOptions options = BaseOptions(Method::kDelayMat);

  RrIndexOptions index_options;
  index_options.theta_per_vertex = options.index_theta_per_vertex;
  index_options.seed = options.seed;
  auto index = std::make_unique<DelayMatIndex>(n, index_options);
  index->Build();

  PitexEngine engine(&n, options);
  engine.AdoptDelayMatIndex(std::move(index));
  engine.BuildIndex();  // attaches, builds nothing
  const PitexResult r = engine.Explore({.user = 0, .k = 2});
  EXPECT_EQ(r.tags.size(), 2u);
  EXPECT_GE(r.influence, 1.0);
}

TEST(EngineTest, DelayMatAnswersArePinned) {
  // DelayMat's recovered graphs (Algorithm 4: the forward live sample,
  // the uniform root, the thresholds' key and the re-closed sketch)
  // pinned through the answers they give, recorded when each recovered
  // graph's thresholds became a function of a key drawn from the query
  // stream. The users are SampleUserGroup(kMid, 4, 3); each
  // asks k = 2, then k = 3 from the cached graphs. User 346's edge
  // probes also pin the recovered sketches' per-tail edge order.
  const SocialNetwork n = GenerateDataset(LastfmSpec(0.5));
  EngineOptions options;
  options.method = Method::kDelayMat;
  options.index_theta_per_vertex = 16;
  options.seed = 5;
  PitexEngine engine(&n, options);
  engine.BuildIndex();
  struct Pinned {
    VertexId user;
    size_t k;
    std::vector<TagId> tags;
    uint64_t influence_bits;
    uint64_t total_samples;
    uint64_t edges_visited;
    uint64_t sets_evaluated;
  };
  const Pinned pinned[] = {
      {96, 2, {17, 38}, 0x3fffb6db6db6db6eull, 4928, 3047, 38},
      {96, 3, {38, 44, 47}, 0x3fffb6db6db6db6eull, 7000, 4308, 7},
      {346, 2, {14, 47}, 0x3ff9642c8590b216ull, 8740, 3168, 140},
      {346, 3, {14, 35, 47}, 0x3ff9642c8590b216ull, 10074, 3662, 34},
      {628, 2, {32, 37}, 0x400a86bca1af286cull, 15485, 14314, 113},
      {628, 3, {11, 32, 44}, 0x400a308158ed2308ull, 24700, 22879, 101},
      {603, 2, {5, 7}, 0x3ff4de9bd37a6f4eull, 299, 52, 2},
      {603, 3, {7, 27, 32}, 0x3ff4de9bd37a6f4eull, 805, 140, 5},
  };
  for (const Pinned& want : pinned) {
    const PitexResult got = engine.Explore({.user = want.user, .k = want.k});
    SCOPED_TRACE(testing::Message() << "user " << want.user << " k "
                                    << want.k);
    EXPECT_EQ(got.tags, want.tags);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.influence), want.influence_bits)
        << got.influence;
    EXPECT_EQ(got.total_samples, want.total_samples);
    EXPECT_EQ(got.edges_visited, want.edges_visited);
    EXPECT_EQ(got.sets_evaluated, want.sets_evaluated);
  }
}

}  // namespace
}  // namespace pitex
