// Layout-equivalence tests for the pooled RR-sketch store
// (src/index/rr_sketch_pool.h): the CSR-of-CSRs flattening must be a pure
// representation change. Against a reference rebuild (the same per-sample
// RNG streams, generated into standalone owning RRGraphs) the pooled
// index must hold structurally identical sketches, identical containment
// lists, and bit-identical EstimateInfluence results — and the estimate
// hot path must stop allocating once its scratch has warmed up.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "running_example.h"
#include "src/index/rr_index.h"
#include "src/sampling/exact.h"

// Global allocation counter: every operator new in the test binary bumps
// it, so "zero allocations" is measured, not assumed. The replacement
// operators are malloc-backed; GCC's heuristic flags inlined new/free
// pairs from replacement allocators, which is exactly what we intend.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pitex {
namespace {

constexpr uint64_t kSeed = 7;
constexpr uint64_t kTheta = 2000;

RrIndexOptions Options() {
  RrIndexOptions options;
  options.theta_override = kTheta;
  options.seed = kSeed;
  return options;
}

// Replicates RrIndex::Build's per-sample RNG stream derivation.
Rng StreamFor(uint64_t seed, uint64_t i) {
  uint64_t mix = seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
  return Rng(SplitMix64(&mix));
}

// The reference rebuild: standalone owning RRGraphs, no pool.
std::vector<RRGraph> ReferenceGraphs(const SocialNetwork& n) {
  std::vector<RRGraph> graphs(kTheta);
  for (uint64_t i = 0; i < kTheta; ++i) {
    Rng rng = StreamFor(kSeed, i);
    const auto root =
        static_cast<VertexId>(rng.NextBounded(n.num_vertices()));
    graphs[i] = GenerateRRGraph(n.graph, n.influence, root, &rng);
  }
  return graphs;
}

bool SameSketch(const RRView& a, const RRView& b) {
  if (a.root != b.root || !std::ranges::equal(a.vertices, b.vertices) ||
      !std::ranges::equal(a.offsets, b.offsets) ||
      a.edges.size() != b.edges.size()) {
    return false;
  }
  for (size_t j = 0; j < a.edges.size(); ++j) {
    if (a.edges[j].head_local != b.edges[j].head_local ||
        a.edges[j].edge != b.edges[j].edge ||
        a.edges[j].threshold != b.edges[j].threshold) {
      return false;
    }
  }
  return true;
}

// The pool's footprint from its layout: every array holds 32-bit
// entries except edges_, the one directory has s + 1 entries, and a
// sketch's body block is 2n + 2 entries (edge header, vertices, offsets)
// unless it is an implicit singleton (one vertex, no edges).
size_t ExactSizeBytes(const RrSketchPool& pool) {
  const size_t s = pool.num_sketches();
  size_t body = 0;
  for (size_t i = 0; i < s; ++i) {
    const RRView view = pool.View(i);
    const bool singleton = view.vertices.size() == 1 && view.edges.empty();
    body += singleton ? 0 : 2 * view.vertices.size() + 2;
  }
  return sizeof(RrSketchPool) +
         sizeof(uint32_t) * (s + (s + 1) + body +
                             pool.num_universe_vertices() + 1 +
                             pool.total_vertices()) +
         sizeof(RRLocalEdge) * pool.total_edges();
}

TEST(PooledLayoutTest, SketchesMatchReferenceRebuild) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, Options());
  index.Build();
  const std::vector<RRGraph> reference = ReferenceGraphs(n);

  ASSERT_EQ(index.num_graphs(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    const RRView pooled = index.graph(i);
    const RRView ref = reference[i];
    ASSERT_EQ(pooled.root, ref.root) << "graph " << i;
    ASSERT_TRUE(std::ranges::equal(pooled.vertices, ref.vertices))
        << "graph " << i;
    ASSERT_TRUE(std::ranges::equal(pooled.offsets, ref.offsets))
        << "graph " << i;
    ASSERT_EQ(pooled.edges.size(), ref.edges.size()) << "graph " << i;
    for (size_t j = 0; j < ref.edges.size(); ++j) {
      ASSERT_EQ(pooled.edges[j].head_local, ref.edges[j].head_local);
      ASSERT_EQ(pooled.edges[j].edge, ref.edges[j].edge);
      ASSERT_EQ(pooled.edges[j].threshold, ref.edges[j].threshold);
    }
  }
}

TEST(PooledLayoutTest, ContainingMatchesReferenceRebuild) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, Options());
  index.Build();
  const std::vector<RRGraph> reference = ReferenceGraphs(n);

  uint64_t total = 0;
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < reference.size(); ++i) {
      if (reference[i].LocalIndex(v).has_value()) expected.push_back(i);
    }
    EXPECT_TRUE(std::ranges::equal(index.Containing(v), expected))
        << "vertex " << v;
    EXPECT_EQ(index.CountContaining(v), expected.size());
    total += expected.size();
  }
  EXPECT_EQ(index.pool().total_vertices(), total);
}

TEST(PooledLayoutTest, EstimatesBitIdenticalToReference) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, Options());
  index.Build();
  const std::vector<RRGraph> reference = ReferenceGraphs(n);

  for (TagId a = 0; a < 4; ++a) {
    for (TagId b = a + 1; b < 4; ++b) {
      const TagId tags[] = {a, b};
      const auto post = n.topics.Posterior(tags);
      const PosteriorProbs probs(n.influence, post);
      for (VertexId u = 0; u < n.num_vertices(); ++u) {
        // Reference estimator: Algorithm 3 over the standalone graphs.
        uint64_t hits = 0, samples = 0, edges_visited = 0;
        for (const RRGraph& rr : reference) {
          if (!rr.LocalIndex(u).has_value()) continue;
          ++samples;
          if (IsReachable(rr, u, probs, &edges_visited)) ++hits;
        }
        double expected = static_cast<double>(hits) /
                          static_cast<double>(kTheta) *
                          static_cast<double>(n.num_vertices());
        expected = std::max(expected, 1.0);

        const Estimate est = index.EstimateInfluence(u, probs);
        EXPECT_EQ(est.influence, expected) << "user " << u;
        EXPECT_EQ(est.samples, samples) << "user " << u;
        EXPECT_EQ(est.edges_visited, edges_visited) << "user " << u;
      }
    }
  }
}

TEST(PooledLayoutTest, EstimateAllocatesNothingAfterWarmup) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, Options());
  index.Build();
  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);

  // Warmup: grows the per-thread scratch to the largest sketch.
  double sink = 0.0;
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    sink += index.EstimateInfluence(u, probs).influence;
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    for (VertexId u = 0; u < n.num_vertices(); ++u) {
      sink += index.EstimateInfluence(u, probs).influence;
    }
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "estimate hot path allocated";
  EXPECT_GT(sink, 0.0);
}

TEST(PooledLayoutTest, PoolTotalsConsistent) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, Options());
  index.Build();
  const RrSketchPool& pool = index.pool();

  uint64_t vertices = 0, edges = 0;
  size_t max_sketch = 0;
  for (size_t i = 0; i < pool.num_sketches(); ++i) {
    const RRView view = pool.View(i);
    vertices += view.vertices.size();
    edges += view.edges.size();
    max_sketch = std::max(max_sketch, view.vertices.size());
    ASSERT_EQ(view.offsets.size(), view.vertices.size() + 1);
    ASSERT_EQ(view.offsets.back(), view.edges.size());
  }
  EXPECT_EQ(pool.total_vertices(), vertices);
  EXPECT_EQ(pool.total_edges(), edges);
  EXPECT_EQ(pool.max_sketch_vertices(), max_sketch);
  EXPECT_EQ(pool.num_universe_vertices(), n.num_vertices());
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
}

// Packs hand-made sketches over a 10-vertex universe.
RrSketchPool PackGraphs(const std::vector<RRGraph>& graphs) {
  return RrSketchPool::Pack(graphs.size(), 10,
                            [&graphs](size_t i) { return graphs[i].View(); });
}

RRGraph Singleton(VertexId v) { return RRGraph{v, {v}, {0, 0}, {}}; }

TEST(PooledLayoutTest, SingletonIsImplicit) {
  const std::vector<RRGraph> graphs = {
      Singleton(5),
      RRGraph{2, {2, 7}, {0, 0, 1}, {{0, 3, 0.25f}}},
      Singleton(7)};
  const RrSketchPool pool = PackGraphs(graphs);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  // Only the two-vertex sketch has a body block: 2 * 2 + 2 entries.
  EXPECT_EQ(pool.SizeBytes(),
            sizeof(RrSketchPool) +
                sizeof(uint32_t) * (3 + 4 + 6 + 11 + 4) +
                sizeof(RRLocalEdge));
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_TRUE(SameSketch(pool.View(i), graphs[i])) << "sketch " << i;
  }
  EXPECT_TRUE(std::ranges::equal(pool.Containing(5), std::vector<uint32_t>{0}));
  EXPECT_TRUE(
      std::ranges::equal(pool.Containing(7), std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(pool.total_vertices(), 4u);
  EXPECT_EQ(pool.max_sketch_vertices(), 2u);
}

TEST(PooledLayoutTest, SelfLoopSingletonStaysExplicit) {
  // One vertex but one edge: the edge needs its header and offsets, so
  // the sketch keeps its 2 * 1 + 2 body entries.
  const std::vector<RRGraph> graphs = {
      RRGraph{4, {4}, {0, 1}, {{0, 9, 0.5f}}}, Singleton(4)};
  const RrSketchPool pool = PackGraphs(graphs);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  EXPECT_EQ(pool.SizeBytes(),
            sizeof(RrSketchPool) +
                sizeof(uint32_t) * (2 + 3 + 4 + 11 + 2) +
                sizeof(RRLocalEdge));
  EXPECT_TRUE(SameSketch(pool.View(0), graphs[0]));
  EXPECT_TRUE(SameSketch(pool.View(1), graphs[1]));
  EXPECT_TRUE(
      std::ranges::equal(pool.Containing(4), std::vector<uint32_t>{0, 1}));
}

TEST(PooledLayoutTest, PoolOfSingletonsHasNoBody) {
  std::vector<RRGraph> graphs;
  for (VertexId v = 0; v < 10; ++v) {
    graphs.push_back(Singleton(v));
    graphs.push_back(Singleton(9 - v));
  }
  const RrSketchPool pool = PackGraphs(graphs);
  EXPECT_EQ(pool.SizeBytes(),
            sizeof(RrSketchPool) +
                sizeof(uint32_t) * (20 + 21 + 0 + 11 + 20));
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_TRUE(SameSketch(pool.View(i), graphs[i])) << "sketch " << i;
  }
  for (VertexId v = 0; v < 10; ++v) {
    const uint32_t a = 2 * v;
    const uint32_t b = 2 * (9 - v) + 1;
    EXPECT_TRUE(std::ranges::equal(
        pool.Containing(v), std::vector<uint32_t>{std::min(a, b),
                                                  std::max(a, b)}));
  }
  EXPECT_EQ(pool.total_vertices(), 20u);
  EXPECT_EQ(pool.total_edges(), 0u);
  EXPECT_EQ(pool.max_sketch_vertices(), 1u);
}

// Hand-made sketches that mix implicit singletons with explicit blocks
// (self-loop one-vertex sketches among them) and end in a singleton
// right after an explicit block.
std::vector<RRGraph> MixedGraphs() {
  return {RRGraph{2, {2, 7}, {0, 0, 1}, {{0, 3, 0.25f}}},
          Singleton(5),
          RRGraph{4, {4}, {0, 1}, {{0, 9, 0.5f}}},
          Singleton(1),
          Singleton(8),
          RRGraph{6, {1, 3, 6}, {0, 1, 2, 2}, {{2, 4, 0.1f}, {2, 5, 0.2f}}},
          RRGraph{0, {0, 9}, {0, 1, 1}, {{0, 7, 0.75f}}},
          Singleton(9)};
}

void ExpectSamePools(const RrSketchPool& got, const RrSketchPool& want) {
  ASSERT_EQ(got.num_sketches(), want.num_sketches());
  for (size_t i = 0; i < want.num_sketches(); ++i) {
    EXPECT_TRUE(SameSketch(got.View(i), want.View(i))) << "sketch " << i;
  }
  for (VertexId v = 0; v < want.num_universe_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(got.Containing(v), want.Containing(v)))
        << "vertex " << v;
  }
  EXPECT_EQ(got.SizeBytes(), want.SizeBytes());
  EXPECT_EQ(got.max_sketch_vertices(), want.max_sketch_vertices());
}

TEST(PooledLayoutTest, TrailingSingletonAfterExplicitBlock) {
  // The last sketch's block starts at the end of body_: View() must take
  // its header from the static one, never from body_.
  for (const std::vector<RRGraph>& graphs :
       {std::vector<RRGraph>{RRGraph{2, {2, 7}, {0, 0, 1}, {{0, 3, 0.25f}}},
                             Singleton(7)},
        std::vector<RRGraph>{RRGraph{4, {4}, {0, 1}, {{0, 9, 0.5f}}},
                             Singleton(4), Singleton(3)},
        MixedGraphs()}) {
    const RrSketchPool pool = PackGraphs(graphs);
    EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
    for (size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_TRUE(SameSketch(pool.View(i), graphs[i])) << "sketch " << i;
    }
  }
  const RrSketchPool pool = PackGraphs(MixedGraphs());
  // Blocks of 2 * 2 + 2, 2 * 1 + 2, 2 * 3 + 2 and 2 * 2 + 2 entries.
  EXPECT_EQ(pool.SizeBytes(),
            sizeof(RrSketchPool) +
                sizeof(uint32_t) * (8 + 9 + 24 + 11 + 12) +
                sizeof(RRLocalEdge) * 5);
  EXPECT_TRUE(
      std::ranges::equal(pool.Containing(9), std::vector<uint32_t>{6, 7}));
  EXPECT_EQ(pool.max_sketch_vertices(), 3u);
}

TEST(PooledLayoutTest, FromRunsMatchesPackForAnySegmentation) {
  // Three runs take the samples in interleaved contiguous claims, as
  // ParallelForSlots' slots do; the finish must rebase every directory
  // entry and edge header into the one pool Pack writes.
  const std::vector<RRGraph> graphs = MixedGraphs();
  const RrSketchPool want = PackGraphs(graphs);
  const std::vector<std::vector<std::pair<uint64_t, uint32_t>>> claims = {
      {{0, 2}, {6, 1}},           // run 0: samples 0-1, then 6
      {{2, 3}},                   // run 1: samples 2-4
      {{5, 1}, {7, 1}}};          // run 2: sample 5, then 7
  std::vector<RrSketchPool> runs(claims.size());
  std::vector<RrSketchPool::Segment> segments;
  for (uint32_t r = 0; r < claims.size(); ++r) {
    for (const auto& [sample, count] : claims[r]) {
      segments.push_back({sample, r,
                          static_cast<uint32_t>(runs[r].num_sketches()),
                          count});
      for (uint64_t i = sample; i < sample + count; ++i) {
        runs[r].Append(graphs[i]);
      }
    }
  }
  // Segment order does not matter: the finish sorts by sample.
  std::ranges::reverse(segments);
  const RrSketchPool got =
      RrSketchPool::FromRuns(runs, segments, graphs.size(), 10);
  ExpectSamePools(got, want);
  EXPECT_EQ(got.SizeBytes(), ExactSizeBytes(got));

  // A run that is one finished segment per sketch.
  std::vector<RrSketchPool> singles(graphs.size());
  std::vector<RrSketchPool::Segment> each;
  for (uint32_t i = 0; i < graphs.size(); ++i) {
    singles[i].Append(graphs[i]);
    each.push_back({i, i, 0, 1});
  }
  ExpectSamePools(RrSketchPool::FromRuns(singles, each, graphs.size(), 10),
                  want);
}

TEST(PooledLayoutTest, FromRunsRequiresFullCoverage) {
  const std::vector<RRGraph> graphs = MixedGraphs();
  RrSketchPool run;
  for (const RRGraph& g : graphs) run.Append(g);
  const std::vector<RrSketchPool> runs = {run};
  const std::vector<RrSketchPool::Segment> gap = {{0, 0, 0, 3},
                                                  {4, 0, 4, 4}};
  EXPECT_DEATH(RrSketchPool::FromRuns(runs, gap, graphs.size(), 10),
               "cover every sample");
  const std::vector<RrSketchPool::Segment> twice = {{0, 0, 0, 8},
                                                    {0, 0, 0, 8}};
  EXPECT_DEATH(RrSketchPool::FromRuns(runs, twice, graphs.size(), 10),
               "cover every sample");
  const std::vector<RrSketchPool::Segment> short_run = {{0, 0, 0, 9}};
  EXPECT_DEATH(RrSketchPool::FromRuns(runs, short_run, 9, 10),
               "out of range");
}

TEST(PooledLayoutTest, OverlayStoreMixesSingletonsAndBlocks) {
  // The overlay's store is a run that is never finished: its views must
  // hold whatever mix of singletons and blocks was put, including a
  // singleton put right after a block, and a re-put sketch.
  const std::vector<RRGraph> graphs = MixedGraphs();
  RrSketchOverlay overlay;
  for (uint32_t i = 0; i < graphs.size(); ++i) {
    overlay.Put(100 + i, graphs[i]);
    // The newest copy is last in the store, after every earlier block.
    EXPECT_TRUE(SameSketch(overlay.View(overlay.SlotOf(100 + i)), graphs[i]))
        << "sketch " << i;
  }
  overlay.Put(100, Singleton(2));
  overlay.Put(105, graphs[0]);
  EXPECT_EQ(overlay.num_stored(), graphs.size() + 2);
  EXPECT_TRUE(SameSketch(overlay.View(overlay.SlotOf(100)), Singleton(2)));
  EXPECT_TRUE(SameSketch(overlay.View(overlay.SlotOf(105)), graphs[0]));
  for (uint32_t i = 1; i < graphs.size(); ++i) {
    if (i == 5) continue;
    EXPECT_TRUE(SameSketch(overlay.View(overlay.SlotOf(100 + i)), graphs[i]))
        << "sketch " << i;
  }
  EXPECT_EQ(overlay.SlotOf(99), RrSketchOverlay::kNotRepaired);
  EXPECT_EQ(overlay.max_sketch_vertices(), 3u);
}

}  // namespace
}  // namespace pitex
