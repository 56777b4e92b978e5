// Equivalence tests for index construction (src/index/sketch_arena.h
// generating into runs, finished by RrSketchPool::FromRuns):
//
//   * representation: the built pool is byte-identical to packing
//     standalone GenerateRRGraph outputs — runs and their segment-ordered
//     finish are pure layout changes;
//   * RNG scheme: the combined-draw + geometric-skip probe changed the
//     draw *sequence* (documented in docs/perf.md). A fixed-seed golden
//     hash pins the current scheme so future refactors cannot drift it
//     silently, and a chi-squared test checks the sketch-size (spread)
//     distribution against a verbatim retained copy of the pre-arena
//     two-draw generator — the distributions must agree because the
//     per-edge law (live w.p. p(e)) is unchanged;
//   * allocations: steady-state sketch generation into a cleared, reused
//     run is measured allocation-free;
//   * repairs and DelayMat recovery: SketchArena::RebuildRepairedSketch
//     matches the reverse BFS + AssembleRRGraph reference it replaced
//     (tests/owned_sketch.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "allocation_counter.h"
#include "owned_sketch.h"
#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/index/rr_index.h"
#include "src/index/sketch_arena.h"

namespace pitex {
namespace {

// Replicates RrIndex::Build's per-sample RNG stream derivation.
Rng StreamFor(uint64_t seed, uint64_t i) {
  uint64_t mix = seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
  return Rng(SplitMix64(&mix));
}

// A sparse network whose envelopes sit deep in the geometric-skip regime
// (vertex max << 1/16): a celebrity-style hub with many weak in-edges
// plus a weak ring, so reverse BFS meets long low-probability in-edge
// runs and the skip path is actually exercised.
SocialNetwork MakeSkipRegimeNetwork() {
  constexpr size_t kFans = 400;
  SocialNetwork n;
  GraphBuilder builder(kFans + 1);
  for (VertexId f = 1; f <= kFans; ++f) builder.AddEdge(f, 0);
  for (VertexId f = 1; f <= kFans; ++f) {
    builder.AddEdge(f, 1 + (f % kFans));
  }
  n.graph = builder.Build();
  n.topics = TopicModel(1, 1);
  n.topics.SetTagTopic(0, 0, 1.0);
  InfluenceGraphBuilder influence(n.graph.num_edges());
  for (EdgeId e = 0; e < n.graph.num_edges(); ++e) {
    const EdgeTopicEntry entry{0, e < kFans ? 0.01 : 0.03};
    influence.SetEdgeTopics(e, std::span(&entry, 1));
  }
  n.influence = influence.Build();
  return n;
}

// Verbatim retained pre-arena generator (rr_graph.cc before the arena
// rebuild): double envelopes, one Bernoulli draw plus one threshold draw
// per live edge, no geometric skips. The new scheme must reproduce its
// *distribution* (chi-squared below), not its draw sequence.
RRGraph ReferenceGenerateRRGraph(const Graph& graph,
                                 const InfluenceGraph& influence,
                                 VertexId root, Rng* rng) {
  std::unordered_set<VertexId> visited{root};
  std::vector<VertexId> vertices{root};
  std::vector<GlobalEdgeSample> live;
  std::vector<VertexId> stack{root};
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (const auto& [w, e] : graph.InEdges(v)) {
      const double p = influence.MaxProb(e);
      if (p <= 0.0) continue;
      if (!rng->NextBernoulli(p)) continue;  // dead for every W
      (void)rng->NextDouble();  // its threshold draw, which no sketch keeps
      live.push_back(GlobalEdgeSample{w, v, e});
      if (visited.insert(w).second) {
        vertices.push_back(w);
        stack.push_back(w);
      }
    }
  }
  return AssembleRRGraph(graph, root, std::move(vertices), live);
}

TEST(IndexBuildEquivalenceTest, ArenaPoolMatchesStandaloneGeneration) {
  // The arena-built pool must equal packing standalone GenerateRRGraph
  // outputs: pure representation change, same draws, same layout.
  const SocialNetwork n = MakeRunningExample();
  RrIndexOptions options;
  options.theta_override = 2000;
  options.seed = 7;
  RrIndex index(n, options);
  index.Build();

  std::vector<RRGraph> staging(options.theta_override);
  for (uint64_t i = 0; i < options.theta_override; ++i) {
    Rng rng = StreamFor(options.seed, i);
    const auto root =
        static_cast<VertexId>(rng.NextBounded(n.num_vertices()));
    staging[i] = GenerateRRGraph(n.graph, n.influence, root, &rng);
  }
  // The pools number their sketches in root order.
  staging = InRootOrder(std::move(staging));
  const RrSketchPool reference = PackViews(
      staging.size(), RrSketchPool(n.graph),
      [&staging](size_t i) { return staging[i].View(); });

  ASSERT_EQ(index.pool().num_sketches(), reference.num_sketches());
  for (size_t i = 0; i < reference.num_sketches(); ++i) {
    const RRView got = index.pool().View(i, staging[i].root);
    const RRView want = reference.View(i, staging[i].root);
    ASSERT_EQ(got.root(), want.root()) << "sketch " << i;
    ASSERT_TRUE(Owned(got).vertices == Owned(want).vertices)
        << "sketch " << i;
    ASSERT_EQ(Owned(got).offsets, Owned(want).offsets) << "sketch " << i;
    ASSERT_EQ(Owned(got).heads, Owned(want).heads) << "sketch " << i;
    ASSERT_EQ(Owned(got).ranks, Owned(want).ranks) << "sketch " << i;
  }
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    ASSERT_EQ(ContainingIds(index.pool(), v), ContainingIds(reference, v))
        << "vertex " << v;
  }
}

TEST(IndexBuildEquivalenceTest, FixedSeedGoldenHash) {
  // Pins the exact draw scheme (combined draw, float envelopes,
  // geometric skips, arena assembly). An intentional sampling change
  // must update these constants — and the docs/perf.md derivation.
  const SocialNetwork example = MakeRunningExample();
  RrIndexOptions options;
  options.theta_override = 512;
  options.seed = 7;
  RrIndex dense_index(example, options);
  dense_index.Build();
  EXPECT_EQ(IndexContentHash(dense_index), 0x2aa87b295a7ebd75ULL)
      << std::hex << IndexContentHash(dense_index);

  // Skip-regime graph: exercises the geometric path specifically.
  const SocialNetwork sparse = MakeSkipRegimeNetwork();
  options.seed = 11;
  RrIndex sparse_index(sparse, options);
  sparse_index.Build();
  EXPECT_EQ(IndexContentHash(sparse_index), 0x6fa8900c0dfcf4ecULL)
      << std::hex << IndexContentHash(sparse_index);
}

TEST(IndexBuildEquivalenceTest, SyntheticPoolGoldenHash) {
  // The whole pool of a parallel build over a synthetic dataset (runs
  // finished by FromRuns, 143k edges): pins the generator's direct
  // block writes and the implicit-singleton shortcut to the contents
  // the RRGraph-staged generator produced.
  const SocialNetwork n = GenerateDataset(LastfmSpec(0.1));
  RrIndexOptions options;
  options.seed = 5;
  options.num_build_threads = 3;
  options.theta_override = 100000;
  RrIndex index(n, options);
  index.Build();
  uint64_t edges = 0;
  const IndexViews views(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    edges += views(i).num_edges();
  }
  EXPECT_EQ(edges, 142718u);
  EXPECT_EQ(IndexContentHash(index), 0x6f5151f6ba07a0f9ULL)
      << std::hex << IndexContentHash(index);
}

TEST(IndexBuildEquivalenceTest, SpreadDistributionMatchesReference) {
  // Chi-squared two-sample test on the sketch vertex-count distribution:
  // the geometric-skip generator draws from exactly the per-edge law of
  // the retained two-draw reference, so the size histograms must agree.
  // Fixed seeds make the statistic deterministic; the 0.001-level
  // critical value leaves generous room for the envelope's float
  // round-up (a <= 2^-24 relative perturbation).
  const SocialNetwork n = MakeSkipRegimeNetwork();
  constexpr int kSamples = 20000;
  constexpr size_t kBuckets = 8;  // sizes 1..7 and >= 8
  std::vector<double> current(kBuckets, 0.0);
  std::vector<double> reference(kBuckets, 0.0);
  Rng cur_rng(1234);
  Rng ref_rng(1234);
  for (int i = 0; i < kSamples; ++i) {
    const auto root = static_cast<VertexId>(
        cur_rng.NextBounded(n.num_vertices()));
    (void)ref_rng.NextBounded(n.num_vertices());  // mirror the root draw
    const RRGraph cur = GenerateRRGraph(n.graph, n.influence, root, &cur_rng);
    const RRGraph ref =
        ReferenceGenerateRRGraph(n.graph, n.influence, root, &ref_rng);
    ++current[std::min(cur.vertices.size(), kBuckets) - 1];
    ++reference[std::min(ref.vertices.size(), kBuckets) - 1];
  }
  double stat = 0.0;
  size_t df = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const double total = current[b] + reference[b];
    if (total < 10.0) continue;  // merge-or-skip sparse tail buckets
    const double diff = current[b] - reference[b];
    stat += diff * diff / total;
    ++df;
  }
  ASSERT_GE(df, 2u);
  // Chi-squared 0.999 quantiles for df = 1..8.
  const double critical[] = {10.83, 13.82, 16.27, 18.47,
                             20.52, 22.46, 24.32, 26.12};
  EXPECT_LT(stat, critical[df - 1]) << "df=" << df;
}

TEST(IndexBuildEquivalenceTest, SteadyStateGenerationAllocatesNothing) {
  const SocialNetwork n = MakeRunningExample();
  const EnvelopeTable envelope(n.graph, n.influence);
  SketchArena arena;
  RrSketchPool run(n.graph);
  // Each round clears the run and replays the same seed, so the working
  // set is identical and the warmup round establishes every buffer's
  // high-water mark, the run's arrays included.
  const auto run_round = [&] {
    Rng rng(3);
    run.Clear();
    for (uint64_t i = 0; i < 64; ++i) {
      const auto root =
          static_cast<VertexId>(rng.NextBounded(n.num_vertices()));
      arena.Generate(n.graph, envelope, root, &rng, &run);
    }
  };
  run_round();  // warmup
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) run_round();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state sketch generation allocated";
  EXPECT_EQ(run.num_sketches(), 64u);
}

// The pipeline RebuildRepairedSketch replaced in repair and in DelayMat
// recovery: a reverse BFS for the vertices reaching the root, then
// AssembleRRGraph over the live edges of `graph`.
RRGraph ReferenceReclose(const Graph& graph, VertexId root,
                         std::span<const GlobalEdgeSample> edges) {
  std::unordered_map<VertexId, std::vector<VertexId>> tails_of;
  for (const GlobalEdgeSample& e : edges) tails_of[e.head].push_back(e.tail);
  std::vector<VertexId> keep{root};
  std::unordered_set<VertexId> seen{root};
  std::vector<VertexId> stack{root};
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    const auto it = tails_of.find(v);
    if (it == tails_of.end()) continue;
    for (const VertexId t : it->second) {
      if (seen.insert(t).second) {
        keep.push_back(t);
        stack.push_back(t);
      }
    }
  }
  return AssembleRRGraph(graph, root, keep, edges);
}

// A graph of `num_vertices` vertices whose edge e is the tail and head
// of the sample in `edges` with id e, and a self-loop on vertex 0 for
// an id no sample has.
Graph GraphOfSamples(size_t num_vertices,
                     std::span<const GlobalEdgeSample> edges) {
  EdgeId max_id = 0;
  for (const GlobalEdgeSample& e : edges) max_id = std::max(max_id, e.edge);
  std::vector<std::pair<VertexId, VertexId>> ends(max_id + 1, {0, 0});
  for (const GlobalEdgeSample& e : edges) ends[e.edge] = {e.tail, e.head};
  GraphBuilder builder(num_vertices);
  for (const auto& [tail, head] : ends) builder.AddEdge(tail, head);
  return builder.Build();
}

TEST(IndexBuildEquivalenceTest, RebuildRepairedSketchMatchesAssemble) {
  // RebuildRepairedSketch == ReferenceReclose, including orphaned-subtree
  // pruning and per-tail edge order, for each block shape a run stores:
  // an implicit singleton, small blocks and a 300-vertex chain, each
  // block's local ids at bit_width(n - 1) bits.
  struct Case {
    const char* name;
    VertexId root;
    size_t num_vertices;
    std::vector<GlobalEdgeSample> edges;
  };
  std::vector<Case> cases;
  cases.push_back({"mixed",
                   5,
                   8,
                   {
                       {2, 5, 0},  // 2 -> root
                       {1, 2, 1},  // 1 -> 2 -> root
                       {3, 4, 2},  // orphan pair: 3 -> 4 does not
                       {4, 3, 3},  // reach the root
                       {6, 2, 4},  // 6 -> 2 -> root
                       {1, 2, 5},  // parallel edge, order preserved
                   }});
  // No live edge enters the root: the root alone, which the run stores
  // as an implicit singleton without calling the fill.
  cases.push_back({"no live in-edge",
                   0,
                   4,
                   {{0, 1, 0}, {1, 2, 1}, {3, 2, 2}}});
  // A chain of 300 vertices into the root takes 9-bit local ids; a spur
  // off the chain's middle does not reach the root.
  Case chain{"300-vertex chain", 299, 310, {}};
  for (VertexId v = 0; v + 1 < 300; ++v) {
    chain.edges.push_back({v, v + 1, v});
  }
  chain.edges.push_back({150, 305, 400});
  cases.push_back(chain);
  // DelayMat's step-2 shape: a forward live sample from vertex 0, with
  // the root drawn inside it, so most live edges' tails (0's other
  // branches, the root's descendants) do not reach the root.
  cases.push_back({"forward sample",
                   3,
                   12,
                   {
                       {0, 1, 0},
                       {0, 2, 1},
                       {1, 3, 2},   // 0 -> 1 -> root
                       {2, 4, 3},   // 2's branch misses the root
                       {3, 5, 4},   // out of the root
                       {5, 6, 5},
                       {4, 3, 6},   // 0 -> 2 -> 4 -> root after all
                       {6, 7, 7},
                       {2, 8, 8},
                       {1, 3, 9},  // second 1 -> root edge
                   }});

  SketchArena arena;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Graph graph = GraphOfSamples(c.num_vertices, c.edges);
    const RRGraph want = ReferenceReclose(graph, c.root, c.edges);
    RrSketchPool run(graph);
    arena.RebuildRepairedSketch(c.root, c.edges, &run);
    ASSERT_EQ(run.num_sketches(), 1u);
    const RRView view = run.View(0, c.root);
    // An in-tree is a parent tree; any other sketch stores its heads at
    // its local ids' width.
    EXPECT_TRUE(view.IsTree() ||
                view.heads.bits == IdBits(view.vertices.size()));
    const RRGraph got = Owned(view);
    EXPECT_EQ(got.root, want.root);
    EXPECT_EQ(got.vertices, want.vertices);
    EXPECT_EQ(got.offsets, want.offsets);
    EXPECT_EQ(got.heads, want.heads);
    EXPECT_EQ(got.ranks, want.ranks);
  }
}

}  // namespace
}  // namespace pitex
