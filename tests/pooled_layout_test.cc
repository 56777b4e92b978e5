// Layout-equivalence tests for the pooled RR-sketch store
// (src/index/rr_sketch_pool.h): the CSR-of-CSRs flattening must be a pure
// representation change. Against a reference rebuild (the same per-sample
// RNG streams, generated into standalone owning RRGraphs) the pooled
// index must hold structurally identical sketches, identical containment
// lists, and bit-identical EstimateInfluence results — and the estimate
// hot path must stop allocating once its scratch has warmed up.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "allocation_counter.h"
#include "certain_cycle.h"
#include "owned_sketch.h"
#include "pool_image.h"
#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/index/dynamic_index.h"
#include "src/index/first_copies.h"
#include "src/index/index_io.h"
#include "src/index/rr_index.h"
#include "src/index/rr_sketch_pool.h"
#include "src/sampling/exact.h"

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

// The reference rebuild: standalone owning RRGraphs, no pool, in the
// pool's root order, each with the thresholds of its id there.
std::vector<RRGraph> ReferenceGraphs(const SocialNetwork& n) {
  std::vector<RRGraph> graphs(kTheta);
  for (uint64_t i = 0; i < kTheta; ++i) {
    Rng rng = StreamFor(kSeed, i);
    const auto root =
        static_cast<VertexId>(rng.NextBounded(n.num_vertices()));
    graphs[i] = GenerateRRGraph(n.graph, n.influence, root, &rng);
  }
  graphs = InRootOrder(std::move(graphs));
  for (uint64_t id = 0; id < kTheta; ++id) {
    graphs[id].thresholds = {&n.influence, ThresholdKey(kSeed, id)};
  }
  return graphs;
}

bool SameSketch(const RRView& a, const RRView& b) {
  const RRGraph ga = Owned(a);
  const RRGraph gb = Owned(b);
  return ga.root == gb.root && ga.vertices == gb.vertices &&
         ga.offsets == gb.offsets && ga.heads == gb.heads &&
         ga.ranks == gb.ranks;
}

// Bits of a field that holds every id below `count`: the fewest b with
// 2^b >= count.
uint32_t BitsFor(uint64_t count) {
  uint32_t bits = 0;
  while ((uint64_t{1} << bits) < count) ++bits;
  return bits;
}

// Bits of parent tree `view`'s fields: for each vertex but the root, its
// parent's local id at BitsFor(n - 1) bits and its rank at BitsFor(its
// parent's in-degree) bits, the parent decoded from its field.
uint64_t TreeBits(const RRView& view) {
  const auto n = static_cast<uint32_t>(view.vertices.size());
  TreeScratch tree;
  DecodeTree(view, kNoVertex, &tree);
  uint64_t bits = 0;
  for (uint32_t j = 1; j < n; ++j) {
    bits += BitsFor(n - 1) +
            BitsFor(view.topology->InDegree(tree.vertex(tree.parent(j))));
  }
  return bits;
}

// Bytes the LEB128 varint of x takes: one per started group of 7 bits.
size_t VarintBytes(uint32_t x) {
  size_t bytes = 1;
  for (; x >= 128; x >>= 7) ++bytes;
  return bytes;
}

// Each vertex's containing list rebuilt by brute force from the pool's
// views: the ascending ids of the sketches whose vertices include it
// and whose root it is not.
std::vector<std::vector<uint32_t>> ContainingFromViews(
    const RrSketchPool& pool) {
  std::vector<std::vector<uint32_t>> lists(pool.num_universe_vertices());
  const PoolViews views(pool);
  for (uint32_t i = 0; i < pool.num_sketches(); ++i) {
    const RRView view = views(i);
    for (const VertexId v : Owned(view).vertices) {
      if (v != view.root()) lists[v].push_back(i);
    }
  }
  return lists;
}

// Each vertex's root range rebuilt by brute force from the pool's views:
// the ascending ids of the sketches rooted at it.
std::vector<std::vector<uint32_t>> RootsFromViews(const RrSketchPool& pool) {
  std::vector<std::vector<uint32_t>> rooted(pool.num_universe_vertices());
  const PoolViews views(pool);
  for (uint32_t i = 0; i < pool.num_sketches(); ++i) {
    rooted[views(i).root()].push_back(i);
  }
  return rooted;
}

// Each vertex's containing list with each id's root, by brute force
// from the pool's views.
std::vector<std::vector<RootedId>> RootedFromViews(const RrSketchPool& pool) {
  std::vector<std::vector<RootedId>> lists(pool.num_universe_vertices());
  const PoolViews views(pool);
  for (uint32_t i = 0; i < pool.num_sketches(); ++i) {
    const RRView view = views(i);
    for (const VertexId v : Owned(view).vertices) {
      if (v != view.root()) lists[v].push_back({view.root(), i});
    }
  }
  return lists;
}

// Bits the containing list `list` (ascending ids, with their roots)
// takes at parameter k, the sketches rooted at v being `rooted[v]`: per
// root r it names, the Rice code of its gap (r as itself for the first
// root, then r less the root before less 1), x >> k one-bits, a zero
// and k low bits, then a bit per sketch r roots.
uint64_t RootListBitsOf(const std::vector<RootedId>& list, uint32_t k,
                        const std::vector<std::vector<uint32_t>>& rooted) {
  uint64_t bits = 0;
  int64_t last = -1;
  for (size_t j = 0; j < list.size(); ++j) {
    const VertexId r = list[j].root;
    if (j > 0 && list[j - 1].root == r) continue;
    bits += ((r - last - 1) >> k) + 1 + k + rooted[r].size();
    last = r;
  }
  return bits;
}

// A pool's containing lists as its layout calls for: the parameter that
// codes them in the fewest bits, the smallest of a tie, each vertex's
// start in bits, and the bytes of the coded lists, whole bytes and then
// 7 of padding (none with no bits).
struct ExpectedLists {
  uint32_t k = 0;
  std::vector<uint64_t> starts = {0};
  size_t bytes = 0;
};

ExpectedLists ExpectedListsOf(const RrSketchPool& pool) {
  const std::vector<std::vector<RootedId>> lists = RootedFromViews(pool);
  const std::vector<std::vector<uint32_t>> rooted = RootsFromViews(pool);
  const auto total = [&](uint32_t k) {
    uint64_t bits = 0;
    for (const std::vector<RootedId>& list : lists) {
      bits += RootListBitsOf(list, k, rooted);
    }
    return bits;
  };
  ExpectedLists want;
  for (uint32_t k = 1; k < 32; ++k) {
    if (total(k) < total(want.k)) want.k = k;
  }
  for (const std::vector<RootedId>& list : lists) {
    want.starts.push_back(want.starts.back() +
                          RootListBitsOf(list, want.k, rooted));
  }
  const uint64_t bits = want.starts.back();
  want.bytes = bits == 0 ? 0 : (bits + 7) / 8 + 7;
  return want;
}

// True when `g`'s offsets give its root no out-edge and every other
// vertex exactly one: offset j is j, less one past the root.
bool InTreeShape(const RRGraph& g) {
  const size_t r = *g.LocalIndex(g.root);
  for (size_t j = 0; j < g.offsets.size(); ++j) {
    if (g.offsets[j] != j - (j > r ? 1 : 0)) return false;
  }
  return true;
}

// Bytes of `count` packed words at `width` bits: the words to the next
// byte, then 7 bytes of padding, or nothing when they take no bits.
size_t PackedBytes(size_t count, size_t width) {
  const size_t bits = count * width;
  return bits == 0 ? 0 : (bits + 7) / 8 + 7;
}

// Bits a word takes as two's complement: none for 0, else its
// magnitude's (of -word - 1 below 0) and a sign bit.
uint32_t SignedBits(int64_t word) {
  return word == 0 ? 0 : BitsFor(static_cast<uint64_t>(word < 0 ? -word - 1
                                                                 : word) +
                                 1) +
                             1;
}

// Bytes of a two-level array of `entries` words at `width` bits: a
// 32-bit base per 64 entries, then the packed words.
size_t TwoLevelBytes(size_t entries, size_t width) {
  return sizeof(uint32_t) * ((entries + 63) / 64) +
         PackedBytes(entries, width);
}

// Bytes of a directory of `sketches` sketches, `blocks` of them blocks,
// whose words take `width` bits: a 16-byte record per 64 sketches (a
// 32-bit base and rank and a 64-bit mask), then a packed word per block.
size_t DirectoryBytes(size_t sketches, size_t blocks, size_t width) {
  return 16 * ((sketches + 63) / 64) + PackedBytes(blocks, width);
}

// True when sketches a and b have one shape: the same root, vertices,
// CSR and ranks, which a pool's encoding of each maps to the same bytes.
bool SameShape(const RRGraph& a, const RRGraph& b) {
  return a.root == b.root && a.vertices == b.vertices &&
         a.offsets == b.offsets && a.heads == b.heads && a.ranks == b.ranks;
}

// The pool's footprint from its layout, and the word widths it calls
// for, which it expects the pool to report. The directory holds a
// 16-byte record per 64 sketches and a word per block, its start less
// its group's base (where the next first copy starts at the group's
// first sketch), signed; a singleton takes no word. A block of the same
// shape as an earlier block of its root range (the same vertices, root,
// CSR and ranks) is a repeat: it takes no body bytes, and its word names
// that range's first block of the shape. The root starts hold a 32-bit
// base per 64 entries and one word per entry, the sketches rooted below
// it less its group's first such count; the containing starts the same,
// each word its list's start, in bits, less its group's first start.
// Each array's words are packed at the bits its largest word takes.
// The containing lists are
// Rice codes at the pool's parameter (ExpectedListsOf). A sketch's body
// block, unless it is an implicit singleton (one vertex, no edges), is a
// varint header of n << 1 | in-tree, then bit fields to the next byte.
// An in-tree in a pool with a topology is a parent tree (TreeBits); any
// other block has a varint of m after its header, then n - 1 vertices at
// V bits, the root's local id, n + 1 offsets at BitsFor(m + 1) bits, and
// m heads at BitsFor(n) bits, then m records, each a rank at R bits; V
// and R are BitsFor of the network's vertex count and largest
// out-degree, and 7 bytes of padding end a body of blocks. The block
// words take the bits the widest takes in two's complement.
size_t ExactSizeBytes(const RrSketchPool& pool) {
  const size_t s = pool.num_sketches();
  const uint64_t vertex_bits = BitsFor(pool.num_network_vertices());
  const uint64_t rank_bits = BitsFor(pool.max_out_degree());
  EXPECT_EQ(pool.vertex_bits(), vertex_bits);
  EXPECT_EQ(pool.rank_bits(), rank_bits);
  size_t body = 0;
  size_t base = 0;
  size_t blocks = 0;
  uint32_t directory_width = 0;
  // The first copies of the current root's range, each with its start.
  std::vector<std::pair<RRGraph, size_t>> firsts;
  const PoolViews views(pool);
  for (size_t i = 0; i < s; ++i) {
    if (i % 64 == 0) base = body;
    const RRView view = views(i);
    const uint64_t n = view.vertices.size();
    const uint64_t m = view.num_edges();
    EXPECT_EQ(pool.IsSingleton(i), n == 1 && m == 0) << "sketch " << i;
    if (n == 1 && m == 0) continue;
    ++blocks;
    RRGraph owned = Owned(view);
    if (!firsts.empty() && firsts.front().first.root != owned.root) {
      firsts.clear();
    }
    const auto first = std::ranges::find_if(firsts, [&owned](const auto& f) {
      return SameShape(f.first, owned);
    });
    const size_t start = first == firsts.end() ? body : first->second;
    const auto word = static_cast<int64_t>(start) - static_cast<int64_t>(base);
    directory_width = std::max(directory_width, SignedBits(word));
    if (first != firsts.end()) continue;
    const bool tree =
        InTreeShape(owned) && pool.topology().num_vertices() != 0;
    EXPECT_EQ(view.IsTree(), tree) << "sketch " << i;
    firsts.emplace_back(std::move(owned), body);
    const uint64_t bits = tree ? TreeBits(view)
                               : (n - 1) * vertex_bits + BitsFor(n) +
                                     (n + 1) * BitsFor(m + 1) +
                                     m * (BitsFor(n) + rank_bits);
    body += VarintBytes(static_cast<uint32_t>(n << 1 | tree)) +
            (tree ? 0 : VarintBytes(static_cast<uint32_t>(m))) +
            (bits + 7) / 8;
  }
  if (body > 0) body += 7;
  const ExpectedLists lists = ExpectedListsOf(pool);
  const std::vector<uint64_t>& starts = lists.starts;
  uint64_t max_word = 0;
  for (size_t v = 0; v < starts.size(); ++v) {
    max_word = std::max(max_word, starts[v] - starts[v / 64 * 64]);
  }
  const uint32_t start_width = BitsFor(max_word + 1);
  std::vector<uint64_t> root_starts = {0};
  for (const std::vector<uint32_t>& rooted : RootsFromViews(pool)) {
    root_starts.push_back(root_starts.back() + rooted.size());
  }
  uint64_t max_root_word = 0;
  for (size_t v = 0; v < root_starts.size(); ++v) {
    max_root_word =
        std::max(max_root_word, root_starts[v] - root_starts[v / 64 * 64]);
  }
  const uint32_t root_width = BitsFor(max_root_word + 1);
  EXPECT_EQ(pool.directory_width(), directory_width);
  if (pool.num_universe_vertices() > 0) {
    EXPECT_EQ(pool.containing_start_width(), start_width);
    EXPECT_EQ(pool.root_start_width(), root_width);
    EXPECT_EQ(pool.containing_k(), lists.k);
  }
  EXPECT_EQ(pool.DirectoryBytes(), DirectoryBytes(s, blocks, directory_width));
  return sizeof(RrSketchPool) + DirectoryBytes(s, blocks, directory_width) +
         (pool.num_universe_vertices() > 0
              ? TwoLevelBytes(root_starts.size(), root_width) +
                    TwoLevelBytes(starts.size(), start_width)
              : 0) +
         body + lists.bytes;
}

// The vertex total counted two ways, over the sketch views and over the
// root ranges and containing lists (a sketch's root ranges it, and its
// other vertices each list it once); expects them equal and returns it.
uint64_t ExpectVertexTotalsAgree(const RrSketchPool& pool) {
  uint64_t from_views = 0;
  const PoolViews views(pool);
  for (size_t i = 0; i < pool.num_sketches(); ++i) {
    from_views += views(i).vertices.size();
  }
  uint64_t from_lists = 0;
  for (VertexId v = 0; v < pool.num_universe_vertices(); ++v) {
    from_lists += pool.RootRange(v).size() + pool.NonRootContaining(v).count();
  }
  EXPECT_EQ(from_lists, from_views);
  return from_views;
}

// The pool's root ranges and containing index against a brute-force
// rebuild from its views: the roots do not decrease in id, each root
// range is exactly the sketches rooted at its vertex, and every decoded
// list (its ids in order, each with its root), every count, and the
// vertex total match.
void ExpectContainingMatchesViews(const RrSketchPool& pool) {
  const PoolViews views(pool);
  for (size_t i = 1; i < pool.num_sketches(); ++i) {
    EXPECT_LE(views(i - 1).root(), views(i).root()) << "sketch " << i;
  }
  const std::vector<std::vector<uint32_t>> rooted = RootsFromViews(pool);
  const std::vector<std::vector<uint32_t>> want = ContainingFromViews(pool);
  const std::vector<std::vector<RootedId>> want_rooted = RootedFromViews(pool);
  for (VertexId v = 0; v < want.size(); ++v) {
    EXPECT_TRUE(std::ranges::equal(pool.RootRange(v), rooted[v]))
        << "vertex " << v;
    EXPECT_TRUE(std::ranges::equal(pool.NonRootContaining(v), want[v]))
        << "vertex " << v;
    EXPECT_EQ(RootedIds(pool.NonRootContaining(v)), want_rooted[v])
        << "vertex " << v;
    EXPECT_EQ(pool.CountContaining(v), rooted[v].size() + want[v].size())
        << "vertex " << v;
  }
  ExpectVertexTotalsAgree(pool);
}

// The overlay's coder, at `pool`'s parameter, codes every list of
// `pool` in as many bits as the pool's coder, and decodes it back.
void ExpectOverlayCodesAsPool(const RrSketchPool& pool) {
  const std::vector<std::vector<uint32_t>> want = ContainingFromViews(pool);
  const std::vector<std::vector<RootedId>> rooted = RootedFromViews(pool);
  RrSketchOverlay overlay(pool);
  for (VertexId v = 0; v < want.size(); ++v) {
    // A vertex the overlay has not coded has no list of its own.
    EXPECT_FALSE(overlay.NonRootContaining(v).has_value()) << "vertex " << v;
    overlay.SetContaining(v, rooted[v]);
    const std::optional<ContainingList> list = overlay.NonRootContaining(v);
    ASSERT_TRUE(list.has_value()) << "vertex " << v;
    EXPECT_TRUE(std::ranges::equal(*list, want[v])) << "vertex " << v;
    EXPECT_EQ(RootedIds(*list), rooted[v]) << "vertex " << v;
    EXPECT_EQ(list->count(), want[v].size()) << "vertex " << v;
    EXPECT_EQ(list->bits(), pool.NonRootContaining(v).bits())
        << "vertex " << v;
  }
}

TEST(PooledLayoutTest, SketchesMatchReferenceRebuild) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, Options());
  index.Build();
  const std::vector<RRGraph> reference = ReferenceGraphs(n);

  ASSERT_EQ(index.num_graphs(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    const RRView pooled = index.graph(i, reference[i].root);
    const RRView ref = reference[i];
    ASSERT_EQ(pooled.root(), ref.root()) << "graph " << i;
    ASSERT_EQ(Owned(pooled).vertices, Owned(ref).vertices) << "graph " << i;
    const RRGraph owned = Owned(pooled);
    ASSERT_EQ(owned.offsets, reference[i].offsets) << "graph " << i;
    ASSERT_EQ(owned.heads, reference[i].heads) << "graph " << i;
    ASSERT_EQ(owned.ranks, reference[i].ranks) << "graph " << i;
  }
}

TEST(PooledLayoutTest, ContainingMatchesReferenceRebuild) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, Options());
  index.Build();
  const std::vector<RRGraph> reference = ReferenceGraphs(n);

  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < reference.size(); ++i) {
      if (reference[i].LocalIndex(v).has_value()) expected.push_back(i);
    }
    EXPECT_EQ(ContainingIds(index, v), expected) << "vertex " << v;
    EXPECT_EQ(index.CountContaining(v), expected.size());
  }
  ExpectVertexTotalsAgree(index.pool());
}

TEST(PooledLayoutTest, RootMasksSpanSeveralPiecesOnABuiltPool) {
  // 2,000 sketches over the running example's 7 vertices: every vertex
  // roots far more than 64, so each mask spans several of the decoder's
  // 57-bit pieces. Every list, its ids in order with their roots, is
  // the transpose of the pool's blocks, and the overlay's coder writes
  // it in the same bits.
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, Options());
  index.Build();
  const RrSketchPool& pool = index.pool();
  size_t smallest = pool.num_sketches();
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    smallest = std::min<size_t>(smallest, pool.RootRange(v).size());
  }
  EXPECT_GT(smallest, 2 * size_t{kBitWindow});
  ExpectContainingMatchesViews(pool);
  ExpectOverlayCodesAsPool(pool);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
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
  const PoolViews views(pool);
  for (size_t i = 0; i < pool.num_sketches(); ++i) {
    const RRView view = views(i);
    vertices += view.vertices.size();
    edges += view.num_edges();
    max_sketch = std::max(max_sketch, view.vertices.size());
    const RRGraph owned = Owned(view);
    ASSERT_EQ(owned.offsets.back(), view.num_edges());
    if (!view.IsTree()) {
      ASSERT_EQ(view.heads.bits, BitsFor(view.vertices.size()));
    }
  }
  EXPECT_EQ(ExpectVertexTotalsAgree(pool), vertices);
  EXPECT_GT(edges, 0u);
  EXPECT_EQ(pool.max_sketch_vertices(), max_sketch);
  EXPECT_EQ(pool.num_universe_vertices(), n.num_vertices());
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  ExpectContainingMatchesViews(pool);
}

// Packs hand-made sketches over a network of 10 vertices and up to 10
// out-edges a vertex, without its topology: 4-bit vertices and ranks.
RrSketchPool PackGraphs(const std::vector<RRGraph>& graphs) {
  return PackViews(graphs.size(), RrSketchPool(10, 10),
                   [&graphs](size_t i) { return graphs[i].View(); });
}

RRGraph Singleton(VertexId v) { return RRGraph{v, {v}, {0, 0}, {}, {}}; }

// The root starts of `graphs`, in root order, over `num_vertices`
// vertices: what FromRuns takes for runs that hold them in that order.
std::vector<uint32_t> StartsOf(size_t num_vertices,
                               const std::vector<RRGraph>& graphs) {
  std::vector<VertexId> roots;
  for (const RRGraph& g : graphs) roots.push_back(g.root);
  return RootStartsOf(num_vertices, roots);
}

TEST(PooledLayoutTest, SingletonIsImplicit) {
  // In root order: the block rooted at 2, then the singletons of 5
  // and 7.
  const std::vector<RRGraph> graphs = InRootOrder(
      {Singleton(5), RRGraph{2, {2, 7}, {0, 0, 1}, {0}, {3}},
       Singleton(7)});
  const RrSketchPool pool = PackGraphs(graphs);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  // Only the two-vertex sketch has a body block, in the general form: a
  // pool without a topology stores no parent tree. A one-byte header
  // and a one-byte edge count, then 13 bits in 2 bytes (its 4-bit
  // vertex other than the root, its root id, 3 offsets and 1 head at a
  // bit each, and its edge record, a 4-bit rank), then 7 bytes of
  // padding: 11 in all. The one list, vertex 7's,
  // names root 2, whose range holds 1 sketch: a gap of 2, which k = 0,
  // 1 and 2 code in 3 bits (the smallest k wins the tie), and a 1-bit
  // mask: 1 byte, then 7 of padding. The
  // directory takes one 16-byte record, and the block, at its group's
  // base, a 0-bit word. The 11 root starts and the 11 containing starts
  // each take one 4-byte base and packed words, then 7 bytes of
  // padding: the root starts, the largest 3, at 2 bits (3 bytes), and
  // the containing starts, the largest the list's 4 bits, at 3 bits (5
  // bytes).
  EXPECT_EQ(pool.containing_k(), 0u);
  EXPECT_EQ(pool.directory_width(), 0u);
  EXPECT_EQ(pool.root_start_width(), 2u);
  EXPECT_EQ(pool.containing_start_width(), 3u);
  EXPECT_EQ(pool.SizeBytes(), sizeof(RrSketchPool) + 16 + (4 + 3 + 7) +
                                  (4 + 5 + 7) + 11 + (1 + 7));
  const PoolViews views(pool);
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_TRUE(SameSketch(views(i), graphs[i])) << "sketch " << i;
  }
  std::vector<VertexId> singleton_roots;
  for (size_t i = 0; i < pool.num_sketches(); ++i) {
    if (pool.IsSingleton(i)) singleton_roots.push_back(pool.RootOf(i));
  }
  EXPECT_EQ(singleton_roots, (std::vector<VertexId>{5, 7}));
  EXPECT_TRUE(std::ranges::equal(pool.RootRange(5), std::vector<uint32_t>{1}));
  EXPECT_TRUE(std::ranges::empty(pool.NonRootContaining(5)));
  EXPECT_TRUE(std::ranges::equal(pool.RootRange(7), std::vector<uint32_t>{2}));
  EXPECT_TRUE(
      std::ranges::equal(pool.NonRootContaining(7), std::vector<uint32_t>{0}));
  EXPECT_EQ(ExpectVertexTotalsAgree(pool), 4u);
  EXPECT_EQ(pool.max_sketch_vertices(), 2u);
}

TEST(PooledLayoutTest, SelfLoopSingletonStaysExplicit) {
  // One vertex but one edge: the edge needs its header, offsets and
  // record, so the sketch keeps a block of 1 + 1 + 1 bytes (header, edge
  // count, then 6 bits: no stored vertex, as the one vertex is the
  // root, a 0-bit root id, 2 offsets of a bit, a 0-bit head and the
  // 4-bit rank), then 7 of padding.
  // Vertex 4 roots both sketches, so its root range holds them and no
  // list holds an id: k = 0 and no list bytes. The block's word is 0 (0
  // bits), the root starts' largest 2 (2 bits, 3 bytes for 11 and 7 of
  // padding) and every containing start 0 (0 bits, no bytes).
  const std::vector<RRGraph> graphs = {
      RRGraph{4, {4}, {0, 1}, {0}, {9}}, Singleton(4)};
  const RrSketchPool pool = PackGraphs(graphs);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  EXPECT_EQ(pool.containing_k(), 0u);
  EXPECT_EQ(pool.SizeBytes(),
            sizeof(RrSketchPool) + 16 + (4 + 3 + 7) + 4 + 10);
  const PoolViews views(pool);
  EXPECT_TRUE(SameSketch(views(0), graphs[0]));
  EXPECT_TRUE(SameSketch(views(1), graphs[1]));
  EXPECT_TRUE(
      std::ranges::equal(pool.RootRange(4), std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(std::ranges::empty(pool.NonRootContaining(4)));
}

TEST(PooledLayoutTest, PoolOfSingletonsHasNoBody) {
  std::vector<RRGraph> graphs;
  for (VertexId v = 0; v < 10; ++v) {
    graphs.push_back(Singleton(v));
    graphs.push_back(Singleton(9 - v));
  }
  graphs = InRootOrder(std::move(graphs));
  const RrSketchPool pool = PackGraphs(graphs);
  // Each sketch is its root alone, so the root ranges hold every id
  // and the lists none: k = 0 and no list bytes. The directory is one
  // 16-byte record and no word. The root starts, the largest 20, take 5
  // bits (7 bytes for 11, then 7 of padding) and the containing starts,
  // all 0, none.
  EXPECT_EQ(pool.containing_k(), 0u);
  EXPECT_EQ(pool.SizeBytes(), sizeof(RrSketchPool) + 16 + (4 + 7 + 7) + 4);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  const PoolViews views(pool);
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_TRUE(SameSketch(views(i), graphs[i])) << "sketch " << i;
  }
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_TRUE(std::ranges::equal(pool.RootRange(v),
                                   std::vector<uint32_t>{2 * v, 2 * v + 1}));
    EXPECT_TRUE(std::ranges::empty(pool.NonRootContaining(v)));
  }
  EXPECT_EQ(ExpectVertexTotalsAgree(pool), 20u);
  for (size_t i = 0; i < pool.num_sketches(); ++i) {
    EXPECT_EQ(views(i).num_edges(), 0u) << "sketch " << i;
  }
  EXPECT_EQ(pool.max_sketch_vertices(), 1u);
}

// Hand-made sketches that mix implicit singletons with explicit blocks
// (self-loop one-vertex sketches among them) and end in a singleton
// right after an explicit block.
std::vector<RRGraph> MixedGraphs() {
  return {RRGraph{2, {2, 7}, {0, 0, 1}, {0}, {3}},
          Singleton(5),
          RRGraph{4, {4}, {0, 1}, {0}, {9}},
          Singleton(1),
          Singleton(8),
          RRGraph{6, {1, 3, 6}, {0, 1, 2, 2}, {2, 2}, {4, 5}},
          RRGraph{0, {0, 9}, {0, 1, 1}, {0}, {7}},
          Singleton(9)};
}

void ExpectSamePools(const RrSketchPool& got, const RrSketchPool& want) {
  ASSERT_EQ(got.num_sketches(), want.num_sketches());
  const PoolViews got_views(got);
  const PoolViews want_views(want);
  for (size_t i = 0; i < want.num_sketches(); ++i) {
    EXPECT_TRUE(SameSketch(got_views(i), want_views(i))) << "sketch " << i;
  }
  for (VertexId v = 0; v < want.num_universe_vertices(); ++v) {
    EXPECT_EQ(ContainingIds(got, v), ContainingIds(want, v)) << "vertex " << v;
  }
  EXPECT_EQ(got.SizeBytes(), want.SizeBytes());
  EXPECT_EQ(got.max_sketch_vertices(), want.max_sketch_vertices());
}

TEST(PooledLayoutTest, TrailingSingletonAfterExplicitBlock) {
  // A singleton right after an explicit block, last in the pool: View()
  // must take its header from the static block, never from body_.
  for (const std::vector<RRGraph>& graphs :
       {std::vector<RRGraph>{RRGraph{2, {2, 7}, {0, 0, 1}, {0}, {3}},
                             Singleton(7)},
        std::vector<RRGraph>{RRGraph{4, {4}, {0, 1}, {0}, {9}},
                             Singleton(4), Singleton(3)},
        MixedGraphs()}) {
    const RrSketchPool pool = PackGraphs(graphs);
    EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
    const PoolViews views(pool);
    const std::vector<RRGraph> ordered = InRootOrder(graphs);
    for (size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_TRUE(SameSketch(views(i), ordered[i])) << "sketch " << i;
    }
  }
  const RrSketchPool pool = PackGraphs(MixedGraphs());
  // Blocks of 2 + 2 (13 bits) and 2 + 4 (30 bits: two 4-bit vertices, a
  // 2-bit root id, four 2-bit offsets, two 2-bit heads and two 4-bit
  // ranks) bytes for the two in-trees, which a pool without a topology
  // stores with their offsets, and 2 + 1 (6 bits) and 2 + 2 (13 bits)
  // for the self-loop and the sketch whose root has an out-edge (header
  // and edge count, fields; no block stores its root's vertex), then 7
  // of padding,
  // and 4 containing lists past the roots, each one root of a 1-sketch
  // range: vertex 9's root 0, 7's root 2, and 1's and 3's root 6, gaps
  // of 0, 2, 6 and 6, which k = 2 codes in the fewest bits, 3, 3, 4
  // and 4, each with a 1-bit mask: 18 bits, 3 bytes, then 7 of padding.
  // In root order the sketch rooted at 0, which holds 9, is first and
  // the singleton of 9 last. The blocks start at 0, 4, 8 and 11, 5-bit
  // signed words (3 bytes, then 7 of padding); the root starts, the
  // largest 8, take 4 bits (6 bytes for 11, then 7), and the containing
  // starts, the largest 18 bits, 5 (7 bytes, then 7).
  EXPECT_EQ(pool.containing_k(), 2u);
  EXPECT_EQ(pool.directory_width(), 5u);
  EXPECT_EQ(pool.SizeBytes(), sizeof(RrSketchPool) + (16 + 3 + 7) +
                                  (4 + 6 + 7) + (4 + 7 + 7) + (17 + 7) +
                                  (3 + 7));
  EXPECT_TRUE(std::ranges::equal(pool.RootRange(9), std::vector<uint32_t>{7}));
  EXPECT_TRUE(
      std::ranges::equal(pool.NonRootContaining(9), std::vector<uint32_t>{0}));
  EXPECT_EQ(pool.max_sketch_vertices(), 3u);
}

TEST(PooledLayoutTest, FromRunsMatchesPackForAnySegmentation) {
  // Three runs take the ids in interleaved contiguous claims, as
  // ParallelForSlots' slots do; the finish must rebase every directory
  // entry into the one pool PackViews writes.
  const std::vector<RRGraph> graphs = InRootOrder(MixedGraphs());
  const std::vector<uint32_t> starts = StartsOf(10, graphs);
  const RrSketchPool want = PackGraphs(graphs);
  const std::vector<std::vector<std::pair<uint64_t, uint32_t>>> claims = {
      {{0, 2}, {6, 1}},           // run 0: samples 0-1, then 6
      {{2, 3}},                   // run 1: samples 2-4
      {{5, 1}, {7, 1}}};          // run 2: sample 5, then 7
  const RrSketchPool network(10, 10);
  std::vector<RrSketchPool> runs(claims.size(), network);
  std::vector<RrSketchPool::Segment> segments;
  for (uint32_t r = 0; r < claims.size(); ++r) {
    for (const auto& [sample, count] : claims[r]) {
      segments.push_back({sample, &runs[r],
                          static_cast<uint32_t>(runs[r].num_sketches()),
                          count});
      for (uint64_t i = sample; i < sample + count; ++i) {
        runs[r].Append(graphs[i]);
      }
    }
  }
  // Segment order does not matter: the finish sorts by sample.
  std::ranges::reverse(segments);
  const RrSketchPool got = RrSketchPool::FromRuns(segments, starts, network);
  ExpectSamePools(got, want);
  EXPECT_EQ(got.SizeBytes(), ExactSizeBytes(got));

  // A run that is one finished segment per sketch.
  std::vector<RrSketchPool> singles(graphs.size(), network);
  std::vector<RrSketchPool::Segment> each;
  for (uint32_t i = 0; i < graphs.size(); ++i) {
    singles[i].Append(graphs[i]);
    each.push_back({i, &singles[i], 0, 1});
  }
  ExpectSamePools(RrSketchPool::FromRuns(each, starts, network), want);
  // Runs must take the pool's widths and topology: their blocks are
  // copied as they are, ranks and all.
  EXPECT_DEATH(
      RrSketchPool::FromRuns(each, starts, RrSketchPool(10, 11)),
      "different network");
  const SocialNetwork cycle = MakeCertainCycle(10);
  const SocialNetwork same_cycle = MakeCertainCycle(10);
  RrSketchPool cycle_run(cycle.graph);
  cycle_run.Append(Singleton(3));
  const std::vector<RrSketchPool::Segment> on_cycle = {{0, &cycle_run, 0, 1}};
  const std::vector<uint32_t> on_cycle_starts = RootStartsOf(cycle_run);
  EXPECT_EQ(RrSketchPool::FromRuns(on_cycle, on_cycle_starts,
                                   RrSketchPool(cycle.graph))
                .num_sketches(),
            1u);
  EXPECT_DEATH(RrSketchPool::FromRuns(on_cycle, on_cycle_starts,
                                      RrSketchPool(same_cycle.graph)),
               "different network");
}

TEST(PooledLayoutTest, FromRunsRequiresFullCoverage) {
  const std::vector<RRGraph> graphs = MixedGraphs();
  const RrSketchPool network(10, 10);
  RrSketchPool run = network.EmptyLike();
  for (const RRGraph& g : graphs) run.Append(g);
  const std::vector<uint32_t> starts = StartsOf(10, InRootOrder(graphs));
  const std::vector<RrSketchPool::Segment> gap = {{0, &run, 0, 3},
                                                  {4, &run, 4, 4}};
  EXPECT_DEATH(RrSketchPool::FromRuns(gap, starts, network),
               "cover every sample");
  const std::vector<RrSketchPool::Segment> twice = {{0, &run, 0, 8},
                                                    {0, &run, 0, 8}};
  EXPECT_DEATH(RrSketchPool::FromRuns(twice, starts, network),
               "cover every sample");
  const std::vector<RrSketchPool::Segment> short_run = {{0, &run, 0, 9}};
  EXPECT_DEATH(RrSketchPool::FromRuns(short_run, starts, network),
               "out of range");
}

TEST(PooledLayoutTest, FoldIsTheReEncodingOfEveryCurrentSketch) {
  // RrSketchOverlay::Fold cuts the ids into stretches of the base and
  // one-sketch segments of the store. Each case repairs some sketches,
  // each with the view of a base sketch of the same root (a repair keeps
  // its sketch's root), and requires the fold to be, array by array, the
  // pool PackViews re-encodes from the same views.
  DatasetSpec spec = LastfmSpec(0.3);
  spec.seed = 23;
  const SocialNetwork network = GenerateDataset(spec);
  RrIndexOptions options;
  options.theta_override = 3000;
  RrIndex index(network, options);
  index.Build();
  const RrSketchPool& base = index.pool();
  const auto theta = static_cast<uint32_t>(base.num_sketches());
  const PoolViews views(base);
  // The next id of i's root range after i, wrapping to its first: i
  // itself when its root roots no other sketch.
  const auto same_root = [&base](uint32_t i) {
    const auto range = base.RootRange(base.RootOf(i));
    return i + 1 < range.back() + 1 ? i + 1 : range.front();
  };
  // A root range that holds a block and a singleton.
  uint32_t block = 0;
  uint32_t singleton = 0;
  for (VertexId v = 0; v < base.num_universe_vertices(); ++v) {
    const auto range = base.RootRange(v);
    const auto b = std::ranges::find_if_not(
        range, [&base](uint32_t i) { return base.IsSingleton(i); });
    const auto s = std::ranges::find_if(
        range, [&base](uint32_t i) { return base.IsSingleton(i); });
    if (b != range.end() && s != range.end()) {
      block = *b;
      singleton = *s;
      break;
    }
  }
  ASSERT_NE(block, singleton);

  // Each case: (id, source) puts, in order, of views(source) as
  // sketch id's current copy.
  using Puts = std::vector<std::pair<uint32_t, uint32_t>>;
  Puts every;
  for (uint32_t i = 0; i < theta; ++i) every.emplace_back(i, same_root(i));
  Puts group_edges;
  for (const uint32_t i : {0u, 63u, 64u, 127u, theta - 1}) {
    group_edges.emplace_back(i, same_root(i));
  }
  const std::pair<const char*, Puts> cases[] = {
      {"no repair", {}},
      {"group edges and the last id", group_edges},
      {"repaired twice", {{block, block}, {block, singleton}}},
      {"block to singleton and singleton to block",
       {{block, singleton}, {singleton, block}}},
      {"every sketch", every},
  };
  for (const auto& [name, puts] : cases) {
    SCOPED_TRACE(name);
    RrSketchOverlay overlay(base);
    std::vector<uint32_t> current(theta);
    std::iota(current.begin(), current.end(), 0u);
    for (const auto& [id, source] : puts) {
      overlay.Put(id, views(source));
      current[id] = source;
    }
    EXPECT_EQ(overlay.num_stored(), puts.size());
    const RrSketchPool want =
        PackViews(theta, RrSketchPool(network.graph),
                  [&](size_t i) { return views(current[i]); });
    const RrSketchPool folded = overlay.Fold(base);
    EXPECT_EQ(pool_image::PoolDifference(network, folded, want), "");
    EXPECT_EQ(folded.SizeBytes(), want.SizeBytes());
  }
  // A repair keeps its sketch's root: a copy of another root's sketch is
  // refused.
  RrSketchOverlay overlay(base);
  EXPECT_DEATH(overlay.Put(0, views(theta - 1)),
               "keep its sketch's id and root");
}

TEST(PooledLayoutTest, VertexIdsMustFitThirtyOneBits) {
  // The index file's directory word's top bit tells a block start from a
  // singleton's vertex, so no vertex id may reach it: the writers abort on such
  // sketches (the index loader rejects them with a typed error). A
  // default pool's vertex fields hold every id below that bit.
  constexpr VertexId kTooWide = VertexId{1} << 31;
  const RRGraph wide_singleton = Singleton(kTooWide);
  const RRGraph wide_block{0, {0, kTooWide}, {0, 0, 1}, {0}, {3}};
  const RRGraph fits = Singleton(kTooWide - 1);
  for (const RRGraph* g : {&wide_singleton, &wide_block}) {
    RrSketchPool run;
    EXPECT_DEATH(run.Append(*g), "outside the pool's network");
  }
  RrSketchPool run;
  run.Append(fits);
  EXPECT_EQ(run.View(0, kTooWide - 1).root(), kTooWide - 1);
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
    EXPECT_TRUE(SameSketch(
        overlay.View(overlay.SlotOf(100 + i), graphs[i].root), graphs[i]))
        << "sketch " << i;
  }
  overlay.Put(100, Singleton(2));
  overlay.Put(105, graphs[0]);
  EXPECT_EQ(overlay.num_stored(), graphs.size() + 2);
  EXPECT_TRUE(SameSketch(overlay.View(overlay.SlotOf(100), 2), Singleton(2)));
  EXPECT_TRUE(
      SameSketch(overlay.View(overlay.SlotOf(105), graphs[0].root), graphs[0]));
  for (uint32_t i = 1; i < graphs.size(); ++i) {
    if (i == 5) continue;
    EXPECT_TRUE(SameSketch(
        overlay.View(overlay.SlotOf(100 + i), graphs[i].root), graphs[i]))
        << "sketch " << i;
  }
  EXPECT_EQ(overlay.SlotOf(99), RrSketchOverlay::kNotRepaired);
  EXPECT_EQ(overlay.max_sketch_vertices(), 3u);
}

// A sketch over vertices 0 .. n - 1 rooted at n - 1: edge k is the path
// edge k -> k + 1 while k + 1 < n, and a parallel shortcut 0 -> n - 1
// after that, so n and m can be set apart. Edge k has id k.
RRGraph WideSketch(size_t n, size_t m) {
  std::vector<VertexId> vertices(n);
  std::iota(vertices.begin(), vertices.end(), 0);
  std::vector<GlobalEdgeSample> edges;
  for (size_t k = 0; k < m; ++k) {
    const bool path = k + 1 < n;
    edges.push_back(GlobalEdgeSample{
        static_cast<VertexId>(path ? k : 0),
        static_cast<VertexId>(path ? k + 1 : n - 1), static_cast<EdgeId>(k)});
  }
  return AssembleRRGraph(Graph(), static_cast<VertexId>(n - 1),
                         std::move(vertices), edges);
}

class ConstantProbs final : public EdgeProbFn {
 public:
  double Prob(EdgeId) const override { return 0.5; }
};

// A model of every edge of `graph` certain: a sketch's thresholds over
// it are its uniforms H themselves, about half above ConstantProbs'
// 0.5, which cut the walks there.
InfluenceGraph CertainModel(const Graph& graph) {
  InfluenceGraphBuilder influence(graph.num_edges());
  const EdgeTopicEntry certain{0, 1.0};
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    influence.SetEdgeTopics(e, std::span(&certain, 1));
  }
  return influence.Build();
}

constexpr size_t kWideUniverse = 65537;

// Sketches on both sides of the 8-bit boundaries of the local ids and
// the offsets, interleaved with implicit singletons.
std::vector<RRGraph> BoundaryGraphs() {
  const std::vector<std::pair<size_t, size_t>> sizes = {
      {256, 255},      // 8-bit ids and offsets: the largest n and m
      {257, 255},      // 9-bit ids: one vertex too many
      {256, 256},      // 9-bit offsets: one edge too many
      {257, 256},      // both
      {65537, 65536},  // 17-bit ids and offsets: a 65,537-vertex path
      {3, 2}};         // 2-bit ids again after a wide block
  std::vector<RRGraph> graphs;
  for (const auto& [n, m] : sizes) {
    graphs.push_back(WideSketch(n, m));
    graphs.push_back(Singleton(static_cast<VertexId>(n % 10)));
  }
  return graphs;
}

// Every view of `pool` equals its graph, each field at the width the
// pool's network or the graph's size calls for, and, when the pool holds
// its network's topology (and the graphs share it), answers every
// reachability query as the graph does.
void ExpectMatchesGraphs(const RrSketchPool& pool,
                         const std::vector<RRGraph>& graphs) {
  ASSERT_EQ(pool.num_sketches(), graphs.size());
  const ConstantProbs probs;
  const InfluenceGraph model = CertainModel(pool.topology());
  // A singleton's root as the pool holds it: a run's record, or where a
  // finished pool's lists name it.
  const PoolViews views(pool);
  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE("sketch " + std::to_string(i));
    RRView view = views(i);
    RRView want = graphs[i];
    view.thresholds = want.thresholds = {&model, ThresholdKey(0, i)};
    ASSERT_TRUE(SameSketch(view, want));
    const RRGraph& graph = graphs[i];
    const size_t n = graph.vertices.size();
    const size_t m = graph.ranks.size();
    // A singleton, and an in-tree in a pool with a topology, is a
    // parent tree rooted at local 0; any other block stores its offsets.
    const bool singleton = n == 1 && m == 0;
    EXPECT_EQ(view.IsTree(),
              singleton || (InTreeShape(graph) &&
                            pool.topology().num_vertices() != 0));
    EXPECT_EQ(view.root(), graph.root);
    if (view.IsTree()) {
      EXPECT_EQ(view.root_local, 0u);
    } else {
      EXPECT_EQ(view.root_local, graph.LocalIndex(graph.root));
      // A block's vertices take the pool's width.
      EXPECT_EQ(view.vertices.ids().bits,
                BitsFor(pool.num_network_vertices()));
      EXPECT_EQ(view.heads.bits, BitsFor(n));
      EXPECT_EQ(view.offsets.bits, BitsFor(m + 1));
      EXPECT_EQ(view.ranks.bits, BitsFor(pool.max_out_degree()));
    }
    // Ranks decode only against a topology.
    if (pool.topology().num_vertices() == 0) continue;
    const size_t r = *graph.LocalIndex(graph.root);
    for (const size_t u :
         {size_t{0}, size_t{1}, n / 2, n - 2, n - 1, r - 1, r, r + 1}) {
      if (u >= n) continue;
      const VertexId user = graph.vertices[u];
      uint64_t got_edges = 0, want_edges = 0;
      EXPECT_EQ(IsReachable(view, user, probs, &got_edges),
                IsReachable(want, user, probs, &want_edges))
          << "user " << user;
      EXPECT_EQ(got_edges, want_edges) << "user " << user;
    }
  }
}

// True when some graph of `graphs` (in root order) has the shape of an
// earlier one with its root: a finished pool shares its block.
bool HasRepeats(const std::vector<RRGraph>& graphs) {
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      const RRGraph& a = graphs[i];
      if (SameShape(a, graphs[j]) &&
          (a.vertices.size() > 1 || !a.ranks.empty())) {
        return true;
      }
    }
  }
  return false;
}

// Writes `graphs` through every pool writer that finishes them — Append,
// PackViews, PackViews again from the packed views, and FromRuns over
// one run and over three runs — into pools of `network`'s network, and
// checks each result against the graphs. Returns the PackViews pool.
RrSketchPool ExpectWritersKeep(const std::vector<RRGraph>& graphs,
                               const RrSketchPool& network) {
  // Append: a run written one sketch at a time.
  RrSketchPool run = network.EmptyLike();
  for (const RRGraph& g : graphs) run.Append(g);
  ExpectMatchesGraphs(run, graphs);

  // An overlay's store: a run that is never finished.
  RrSketchOverlay overlay(run);
  for (uint32_t i = 0; i < graphs.size(); ++i) overlay.Put(i, graphs[i]);
  for (uint32_t i = 0; i < graphs.size(); ++i) {
    EXPECT_TRUE(
        SameSketch(overlay.View(overlay.SlotOf(i), graphs[i].root), graphs[i]))
        << "sketch " << i;
  }

  // PackViews, then PackViews again from the packed views (narrow
  // blocks re-encoded from narrow views).
  RrSketchPool packed = PackViews(
      graphs.size(), network, [&graphs](size_t i) { return graphs[i].View(); });
  ExpectMatchesGraphs(packed, graphs);
  EXPECT_EQ(packed.SizeBytes(), ExactSizeBytes(packed));
  ExpectContainingMatchesViews(packed);
  ExpectOverlayCodesAsPool(packed);
  // The run took the same sketches in the same groups, so without a
  // repeat to share, the same words.
  if (!HasRepeats(graphs)) {
    EXPECT_EQ(run.directory_width(), packed.directory_width());
  }
  EXPECT_EQ(packed.max_sketch_vertices(),
            std::ranges::max(graphs, {}, [](const RRGraph& g) {
              return g.vertices.size();
            }).vertices.size());
  const RrSketchPool repacked =
      PackViews(graphs.size(), network, PoolViews(packed));
  ExpectSamePools(repacked, packed);

  // FromRuns over the one run...
  const std::vector<RrSketchPool::Segment> whole = {
      {0, &run, 0, static_cast<uint32_t>(graphs.size())}};
  const RrSketchPool from_one =
      RrSketchPool::FromRuns(whole, RootStartsOf(run), network);
  ExpectMatchesGraphs(from_one, graphs);
  ExpectSamePools(from_one, packed);

  // ... and over three runs that took the samples round robin, so every
  // block moves and every edge start is rebased.
  std::vector<RrSketchPool> runs(3, network.EmptyLike());
  std::vector<RrSketchPool::Segment> segments;
  for (uint32_t i = 0; i < graphs.size(); ++i) {
    RrSketchPool& r = runs[i % 3];
    segments.push_back({i, &r, static_cast<uint32_t>(r.num_sketches()), 1});
    r.Append(graphs[i]);
  }
  const RrSketchPool from_three = RrSketchPool::FromRuns(
      segments, RootStartsOf(run), network);
  ExpectMatchesGraphs(from_three, graphs);
  ExpectSamePools(from_three, packed);
  EXPECT_EQ(from_three.SizeBytes(), ExactSizeBytes(from_three));
  return packed;
}

void ExpectIndexFileRoundTrip(const SocialNetwork& network,
                              const RrSketchPool& pool,
                              const std::vector<RRGraph>& graphs);

// Writes `made`, hand-made sketches over `universe` vertices, in root
// order (so a finished pool's sketch i is graph i), through every writer
// (ExpectWritersKeep) twice: as made, into pools of `universe` vertices
// and up to `max_out_degree` out-edges a vertex (the universe unless
// given), which hold no topology; then re-ranked against their own
// network (NetworkOf, its vertex 0 given at least `max_out_degree`
// out-edges when that is given), so their walks are checked too, and
// saved and loaded back as an index of it.
void ExpectEveryWriterKeeps(const std::vector<RRGraph>& made,
                            size_t universe, size_t max_out_degree = 0) {
  const std::vector<RRGraph> graphs = InRootOrder(made);
  const bool padded = max_out_degree != 0;
  if (!padded) max_out_degree = universe;
  ExpectWritersKeep(graphs, RrSketchPool(universe, max_out_degree));
  const SocialNetwork network =
      NetworkOf(universe, graphs, padded ? max_out_degree : 0);
  std::vector<RRGraph> ranked = graphs;
  Rerank(network.graph, &ranked);
  const RrSketchPool pool =
      ExpectWritersKeep(ranked, RrSketchPool(network.graph));
  ExpectIndexFileRoundTrip(network, pool, ranked);
}

TEST(PooledLayoutTest, WidthBoundariesSurviveEveryWriter) {
  const std::vector<RRGraph> graphs = BoundaryGraphs();
  // Sanity of the fixtures: the shortcut edges make m independent of n.
  ASSERT_EQ(graphs[2].vertices.size(), 257u);
  ASSERT_EQ(graphs[2].ranks.size(), 255u);
  ASSERT_EQ(graphs[8].ranks.size(), 65536u);
  ExpectEveryWriterKeeps(graphs, kWideUniverse);
}

// A sketch over `vertices` (sorted) rooted at vertices[root_at], with no
// edges.
RRGraph EdgelessSketch(std::vector<VertexId> vertices, size_t root_at = 0) {
  const VertexId root = vertices[root_at];
  std::vector<uint32_t> offsets(vertices.size() + 1, 0);
  return RRGraph{root, std::move(vertices), std::move(offsets), {}, {}};
}

// Appends `g` to `run` through AppendSketch, as the generator and the
// repair assembly do: its form first, then a fill that puts its offsets
// (unless it is an in-tree), its heads and its ranks, in order.
void AppendThroughSketch(const RRGraph& g, RrSketchPool* run) {
  const bool in_tree = InTreeShape(g);
  run->AppendSketch(*g.LocalIndex(g.root), g.vertices, g.ranks.size(),
                    in_tree, [&g, in_tree](BlockWriter& out) {
                      if (!in_tree) {
                        for (const uint32_t offset : g.offsets) {
                          out.PutOffset(offset);
                        }
                      }
                      for (const uint32_t head : g.heads) out.PutHead(head);
                      for (const uint32_t rank : g.ranks) out.PutRank(rank);
                    });
}

// A sketch over vertices 0 .. n - 1 rooted at local id r: a path from
// each end converging on the root (j -> j + 1 below it, j -> j - 1
// above it). Edge k has id k.
RRGraph RootedSketch(size_t n, size_t r) {
  std::vector<VertexId> vertices(n);
  std::iota(vertices.begin(), vertices.end(), 0);
  std::vector<GlobalEdgeSample> edges;
  for (size_t j = 0; j < n; ++j) {
    if (j == r) continue;
    const size_t k = edges.size();
    edges.push_back(GlobalEdgeSample{
        static_cast<VertexId>(j), static_cast<VertexId>(j < r ? j + 1 : j - 1),
        static_cast<EdgeId>(k)});
  }
  return AssembleRRGraph(Graph(), static_cast<VertexId>(r),
                         std::move(vertices), edges);
}

TEST(PooledLayoutTest, RootLocalIdSurvivesEveryWriter) {
  // Roots first, in the middle and last in their blocks, at the largest
  // local id 8 bits hold, and past it in a 9-bit block, with implicit
  // singletons in between.
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {5, 0}, {5, 2}, {5, 4}, {256, 255}, {300, 280}, {2, 1}};
  std::vector<RRGraph> graphs;
  for (const auto& [n, r] : shapes) {
    graphs.push_back(RootedSketch(n, r));
    graphs.push_back(Singleton(static_cast<VertexId>(r % 10)));
  }
  // Sanity of the fixtures: the 256-vertex block's local ids take 8
  // bits, the 300-vertex one's 9.
  ASSERT_EQ(BitsFor(graphs[6].vertices.size()), 8u);
  ASSERT_EQ(BitsFor(graphs[8].vertices.size()), 9u);
  ExpectEveryWriterKeeps(graphs, 300);
}

// Saves `pool` as an index on `network`, loads it back and saves it
// again: expects the same bytes both times, the loaded pool's views to
// match `graphs` and its containing lists to match its views.
void ExpectIndexFileRoundTrip(const SocialNetwork& network,
                              const RrSketchPool& pool,
                              const std::vector<RRGraph>& graphs) {
  const auto index =
      RrIndex::FromPool(network, Options(), graphs.size(),
                        std::make_shared<const RrSketchPool>(pool));
  std::stringstream first;
  ASSERT_TRUE(SaveRrIndex(*index, first));
  IndexIoError error;
  const auto loaded = LoadRrIndex(network, first, &error);
  ASSERT_NE(loaded, nullptr) << error.message;
  std::stringstream second;
  ASSERT_TRUE(SaveRrIndex(*loaded, second));
  EXPECT_EQ(second.str(), first.str());
  ExpectMatchesGraphs(loaded->pool(), graphs);
  // FinishLoaded rebuilt the containing index as the writer built it.
  ExpectContainingMatchesViews(loaded->pool());
  EXPECT_EQ(loaded->pool().containing_k(), pool.containing_k());
  EXPECT_EQ(loaded->pool().SizeBytes(), pool.SizeBytes());
}

TEST(PooledLayoutTest, HeaderTakesTwoBytesFromSixtyFourVertices) {
  // The header is the varint of n << 1 | in-tree: one byte while
  // n <= 63, two from n = 64 and three from n = 8,192, for blocks with
  // offsets (whose edge count, another varint, follows it) and in-tree
  // blocks alike.
  const auto first = [](size_t n) {
    std::vector<VertexId> vertices(n);
    std::iota(vertices.begin(), vertices.end(), 0);
    return vertices;
  };
  const std::vector<RRGraph> graphs = {
      EdgelessSketch(first(63)),   Singleton(3),
      EdgelessSketch(first(64)),   RootedSketch(63, 2),
      RootedSketch(64, 5),         EdgelessSketch(first(8191)),
      EdgelessSketch(first(8192)), WideSketch(8192, 8193)};
  RrSketchPool run(8300, 8300);
  for (const RRGraph& g : graphs) AppendThroughSketch(g, &run);
  ExpectMatchesGraphs(run, graphs);
  ExpectEveryWriterKeeps(graphs, 8300);
  const RrSketchPool pool = PackViews(
      graphs.size(), RrSketchPool(8300, 8300),
      [&graphs](size_t i) { return graphs[i].View(); });
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  // At 14-bit vertices and ranks, each block storing every vertex but
  // its root, the edgeless blocks take 1 + 1 + 110, 2 + 1 + 111,
  // 2 + 1 + 14,335 and 3 + 1 + 14,336 bytes (header, edge count, 874,
  // 888, 114,673 and 114,687 bits), the in-trees, which a pool without a
  // topology stores with their offsets, 1 + 1 + 313 and 2 + 1 + 318
  // (2,498 and 2,538 bits), and the 8,193-edge block 3 + 2 + 56,325
  // (450,600 bits), then 7 bytes of padding. The 8,193-edge block, last
  // in root order, starts 29,540 bytes in, so the 7 block words take 16
  // bits (14 bytes, then 7 of padding). The root starts and the
  // containing starts each take 130 bases and 8,301 packed words, then 7
  // bytes of padding: the root starts at 3 bits (3,113 bytes), as no
  // group of 64 vertices roots 8 sketches before its last, and the
  // containing starts at 12 (12,452 bytes).
  EXPECT_EQ(pool.directory_width(), 16u);
  EXPECT_EQ(pool.root_start_width(), 3u);
  EXPECT_EQ(pool.containing_start_width(), 12u);
  EXPECT_EQ(pool.SizeBytes(),
            sizeof(RrSketchPool) + (16 + 14 + 7) + (4 * 130 + 3113 + 7) +
                (4 * 130 + 12452 + 7) +
                (112 + 114 + 315 + 321 + 14338 + 14340 + 56330 + 7) +
                ExpectedListsOf(pool).bytes);
}

// Where the block of `view` starts: its header, the varint of n << 1 |
// in-tree, and the varint of m unless it is a parent tree, come right
// before its fields.
const uint8_t* BlockStart(const RRView& view) {
  const auto n = static_cast<uint32_t>(view.vertices.size());
  if (view.IsTree()) return view.tree - VarintBytes(n << 1 | 1);
  const auto m = static_cast<uint32_t>(view.num_edges());
  return view.vertices.ids().data - VarintBytes(n << 1) - VarintBytes(m);
}

// The bytes of a pool's explicit sketch's block, viewed, from its
// header through the byte of its last field's last bit.
std::vector<uint8_t> ViewBytes(const RRView& view) {
  if (view.IsTree()) {
    return {BlockStart(view), view.tree + (TreeBits(view) + 7) / 8};
  }
  const PackedIds& ranks = view.ranks;
  return {BlockStart(view),
          ranks.data + (ranks.first + uint64_t{ranks.bits} * view.num_edges() +
                        7) / 8};
}

// The bytes of explicit sketch i's block in `pool`.
std::vector<uint8_t> BlockBytes(const RrSketchPool& pool, size_t i) {
  return ViewBytes(PoolViews(pool)(i));
}

// Checks the sharing rule on finished `pool`: in each root range, a
// block of the shape of an earlier block of the range is a repeat and
// starts where the range's first block of that shape starts; any other
// block is a first copy, which holds other bytes than the range's other
// first copies and starts apart from every other first copy of the
// pool. Returns the repeats.
size_t ExpectCanonicalSharing(const RrSketchPool& pool) {
  const PoolViews views(pool);
  size_t repeats = 0;
  std::vector<const uint8_t*> starts;  // every first copy's
  for (VertexId v = 0; v < pool.num_universe_vertices(); ++v) {
    std::vector<std::pair<RRGraph, uint32_t>> firsts;  // shape, id
    for (const uint32_t i : pool.RootRange(v)) {
      if (pool.IsSingleton(i)) continue;
      const RRView view = views(i);
      RRGraph shape = Owned(view);
      const auto first = std::ranges::find_if(
          firsts, [&shape](const auto& f) { return SameShape(f.first, shape); });
      if (first != firsts.end()) {
        ++repeats;
        EXPECT_EQ(BlockStart(view), BlockStart(views(first->second)))
            << "sketch " << i << " repeats sketch " << first->second;
        continue;
      }
      const std::vector<uint8_t> bytes = ViewBytes(view);
      for (const auto& [other, id] : firsts) {
        EXPECT_NE(bytes, ViewBytes(views(id)))
            << "first copies " << id << " and " << i;
      }
      firsts.emplace_back(std::move(shape), i);
      starts.push_back(BlockStart(view));
    }
  }
  std::ranges::sort(starts);
  EXPECT_EQ(std::ranges::adjacent_find(starts), starts.end())
      << "two first copies share a start";
  return repeats;
}

TEST(PooledLayoutTest, SharingIsCanonical) {
  // Built pools share every repeat with its range's first copy, and
  // store no first copy twice: the running example at theta 512 (about
  // 73 sketches a root over 7 vertices), and lastfm at scale 0.1 at
  // theta 100,000, built by 3 threads.
  const SocialNetwork example = MakeRunningExample();
  RrIndexOptions options;
  options.theta_override = 512;
  options.seed = 7;
  RrIndex small(example, options);
  small.Build();
  EXPECT_GT(ExpectCanonicalSharing(small.pool()), 0u);
  EXPECT_EQ(small.pool().SizeBytes(), ExactSizeBytes(small.pool()));
  const SocialNetwork lastfm = GenerateDataset(LastfmSpec(0.1));
  options.theta_override = 100000;
  options.num_build_threads = 3;
  RrIndex large(lastfm, options);
  large.Build();
  EXPECT_GT(ExpectCanonicalSharing(large.pool()), 0u);
  EXPECT_EQ(large.pool().SizeBytes(), ExactSizeBytes(large.pool()));
}

TEST(PooledLayoutTest, TreeBlockStoresParentsAndInRanks) {
  // Two in-trees, rooted first and in the middle, and a sketch whose
  // root has an out-edge (a self-loop), then implicit singletons, in
  // root order, over the network of their own edges: 0 -> 0 (edge 0),
  // 0 -> 1 (edge 1), 2 -> 1 (edge 2) and 7 -> 2 (edge 3), so 4-bit
  // vertices and, vertex 0 having two out-edges, 1-bit ranks.
  const std::vector<RRGraph> made = InRootOrder(
      {RRGraph{0, {0, 9}, {0, 1, 1}, {0}, {7}}, RootedSketch(3, 1),
       RRGraph{2, {2, 7}, {0, 0, 1}, {0}, {3}}, Singleton(5),
       Singleton(6)});
  const SocialNetwork network = NetworkOf(10, made);
  std::vector<RRGraph> graphs = made;
  Rerank(network.graph, &graphs);
  const RrSketchPool pool =
      PackViews(graphs.size(), RrSketchPool(network.graph),
                [&graphs](size_t i) { return graphs[i].View(); });
  // A parent tree is its header, 2 << 1 | in-tree, then per vertex but
  // the root its parent at bit_width(n - 2) bits and its edge's rank in
  // the parent's in-list at bit_width(in-degree - 1) bits. Vertex 7 is
  // root 2's one in-edge: both fields take 0 bits.
  EXPECT_EQ(BlockBytes(pool, 2), (std::vector<uint8_t>{0x05}));
  // Root 1's in-list is edges 1 and 2: vertex 0 at rank 0 and vertex 2
  // at rank 1, each under parent 0 at a bit: 4 bits.
  EXPECT_EQ(BlockBytes(pool, 1), (std::vector<uint8_t>{0x07, 0x08}));
  // The root's out-edge keeps the general form: its edge count 1 after
  // the header and the offsets {0, 1, 1} at a bit each after the root
  // id; vertex 9 is stored, root 0 left out, then head 0 and rank 0:
  // 10 bits.
  EXPECT_EQ(BlockBytes(pool, 0),
            (std::vector<uint8_t>{0x04, 0x01, 0xc9, 0x00}));
  const PoolViews views(pool);
  for (const size_t i : {1, 2, 3, 4}) {
    EXPECT_TRUE(views(i).IsTree()) << "sketch " << i;
    EXPECT_EQ(views(i).root_local, 0u) << "sketch " << i;
  }
  EXPECT_FALSE(views(0).IsTree());
  // The views decode to the shapes they were given.
  EXPECT_EQ(Owned(views(1)).offsets, (std::vector<uint32_t>{0, 1, 1, 2}));
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  // The blocks start at 0, 4 and 6: 4-bit signed words (2 bytes, then 7
  // of padding). The 11 root starts, the largest 5, take 3 bits (5
  // bytes, then 7), and the 11 containing starts, the lists' bits
  // below 16, 4 (6 bytes, then 7).
  EXPECT_EQ(pool.directory_width(), 4u);
  EXPECT_EQ(pool.root_start_width(), 3u);
  EXPECT_EQ(pool.containing_start_width(), 4u);
  EXPECT_EQ(pool.SizeBytes(), sizeof(RrSketchPool) + (16 + 2 + 7) +
                                  (4 + 5 + 7) + (4 + 6 + 7) +
                                  (4 + 2 + 1 + 7) +
                                  ExpectedListsOf(pool).bytes);
  ExpectEveryWriterKeeps(made, 10);
}

// Sketches no in-tree block can hold, between implicit singletons: a
// root with an out-edge (a cycle through the root, which repair keeps),
// a vertex with two out-edges, and the one-vertex self-loop.
std::vector<RRGraph> NonTreeGraphs() {
  return {RRGraph{1,
                  {0, 1, 2},
                  {0, 1, 2, 3},
                  {1, 0, 1},
                  {0, 1, 2}},
          Singleton(3),
          RRGraph{2,
                  {0, 1, 2},
                  {0, 2, 3, 3},
                  {1, 2, 2},
                  {3, 4, 5}},
          Singleton(4),
          RRGraph{4, {4}, {0, 1}, {0}, {9}}};
}

TEST(PooledLayoutTest, NonTreeShapesKeepOffsetsThroughEveryWriter) {
  const std::vector<RRGraph> graphs = NonTreeGraphs();
  for (const size_t i : {0, 2, 4}) ASSERT_FALSE(InTreeShape(graphs[i]));
  // AppendSketch, as the generator writes.
  RrSketchPool run;
  for (const RRGraph& g : graphs) AppendThroughSketch(g, &run);
  ExpectMatchesGraphs(run, graphs);
  // RebuildRepairedSketch, as repair re-closes a sketch from its live
  // edges, decoded and ranked again in the network that holds them:
  // every vertex here reaches its root, so each comes back whole.
  const SocialNetwork network = NetworkOf(10, graphs);
  std::vector<RRGraph> ranked = graphs;
  Rerank(network.graph, &ranked);
  SketchArena arena;
  RrSketchPool repaired(network.graph);
  std::vector<GlobalEdgeSample> edges;
  for (const RRGraph& g : ranked) {
    DecomposeRRGraphInto(g, &edges);
    arena.RebuildRepairedSketch(g.root, edges, &repaired);
  }
  ExpectMatchesGraphs(repaired, ranked);
  // Append, PackViews and FromRuns, then the index file.
  ExpectEveryWriterKeeps(graphs, 10);
}

// `num_sketches` edgeless sketches rooted at vertex `root`, past every
// placed vertex, that each hold vertex 0, and vertex v >= 1 in the
// sketches placed[v] lists, so the lists hold exactly the placed ids
// and vertex 0's.
std::vector<RRGraph> PlacedGraphs(
    size_t num_sketches, const std::vector<std::vector<uint32_t>>& placed,
    VertexId root) {
  std::vector<std::vector<VertexId>> members(num_sketches, {0});
  for (VertexId v = 1; v < placed.size(); ++v) {
    for (const uint32_t id : placed[v]) members[id].push_back(v);
  }
  std::vector<RRGraph> graphs;
  for (std::vector<VertexId>& vertices : members) {
    vertices.push_back(root);
    graphs.push_back(EdgelessSketch(vertices, vertices.size() - 1));
  }
  return graphs;
}

// The bits of every containing list of `pool`, summed.
uint64_t ListBits(const RrSketchPool& pool) {
  uint64_t bits = 0;
  for (VertexId v = 0; v < pool.num_universe_vertices(); ++v) {
    bits += pool.NonRootContaining(v).bits();
  }
  return bits;
}

TEST(PooledLayoutTest, ContainingMasksCrossEveryPieceBoundary) {
  // 4,096 sketches over 13 vertices, each rooted at vertex 12, so each
  // list is one entry: the gap 12, which k = 3 codes in the fewest bits
  // (5: 1, a zero and 100), then a 4,096-bit mask. Vertex 0 is in every
  // sketch (every mask bit set); vertices 10 and 11 are in none, and
  // vertex 12 is in every root range. The others place ids on each side
  // of the decoder's 57-bit pieces of a mask (56 and 57, 113 and 114),
  // past the writer's 32-bit pieces and 64-bit stores, and at the
  // range's ends (0 and 4,095), so that a piece between two ids may
  // hold none.
  const std::vector<std::vector<uint32_t>> placed = {
      {},                     // 0: every sketch
      {7},                    // inside the first piece
      {56},                   // the first piece's last bit
      {57},                   // the second piece's first bit
      {113},                  // the second piece's last bit
      {114},                  // the third piece's first bit
      {512},                  // eight zero pieces before it
      {917},
      {0, 1, 9, 466, 1371},
      {0, 4095},              // ids 0 and θ - 1: 70 zero pieces between
  };
  const std::vector<RRGraph> graphs = PlacedGraphs(4096, placed, 12);
  const RrSketchPool pool = PackViews(
      graphs.size(), RrSketchPool(13, 13),
      [&graphs](size_t i) { return graphs[i].View(); });
  EXPECT_EQ(pool.containing_k(), 3u);
  // Sanity of the fixture: the brute force sees the lists placed.
  const std::vector<std::vector<uint32_t>> lists = ContainingFromViews(pool);
  for (VertexId v = 1; v < placed.size(); ++v) {
    EXPECT_EQ(lists[v], placed[v]) << "vertex " << v;
  }
  EXPECT_EQ(lists[0].size(), graphs.size());
  EXPECT_TRUE(lists[10].empty() && lists[11].empty() && lists[12].empty());
  EXPECT_EQ(pool.RootRange(12).size(), graphs.size());
  ExpectContainingMatchesViews(pool);
  // Each of vertices 0 to 9 takes 5 + 4,096 bits.
  EXPECT_EQ(pool.NonRootContaining(7).bits(), 4101u);
  EXPECT_EQ(pool.NonRootContaining(9).bits(), 4101u);
  EXPECT_EQ(ListBits(pool), 10 * 4101u);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  ExpectEveryWriterKeeps(graphs, 13);
}

TEST(PooledLayoutTest, SparseVertexInDensePoolRunsPastAWord) {
  // 200 sketches over 12 vertices, each holding vertices 0 to 9 and
  // rooted at 0: every list is one entry, the gap 0, which k = 0 codes
  // in 1 bit, then a 200-bit mask, four pieces of up to 57 bits to the
  // decoder. Vertex 10, in sketches 70 and 199 only, sets one bit in
  // the second piece and one in the fourth, the other two all zeros;
  // vertex 11, in sketches 0 and 130, one in the first and one in the
  // third.
  std::vector<RRGraph> graphs;
  for (uint32_t i = 0; i < 200; ++i) {
    std::vector<VertexId> vertices(10);
    std::iota(vertices.begin(), vertices.end(), 0);
    if (i == 70 || i == 199) vertices.push_back(10);
    if (i == 0 || i == 130) vertices.push_back(11);
    graphs.push_back(EdgelessSketch(vertices));
  }
  const RrSketchPool pool = PackViews(
      graphs.size(), RrSketchPool(12, 12),
      [&graphs](size_t i) { return graphs[i].View(); });
  EXPECT_EQ(pool.containing_k(), 0u);
  ExpectContainingMatchesViews(pool);
  EXPECT_TRUE(std::ranges::equal(pool.NonRootContaining(10),
                                 std::vector<uint32_t>{70, 199}));
  EXPECT_TRUE(std::ranges::equal(pool.NonRootContaining(11),
                                 std::vector<uint32_t>{0, 130}));
  EXPECT_EQ(pool.NonRootContaining(10).bits(), 1u + 200u);
  EXPECT_EQ(pool.NonRootContaining(11).bits(), 1u + 200u);
  // Vertices 1 to 11 take 201 bits each; vertex 0's root range holds
  // every sketch.
  EXPECT_EQ(ListBits(pool), 11 * 201u);
  EXPECT_EQ(pool.RootRange(0).size(), 200u);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  ExpectEveryWriterKeeps(graphs, 12);
}

TEST(PooledLayoutTest, RootListsMatchBruteForceOnRandomPools) {
  // Random pools from sparse to dense, so k runs from 0 up: through
  // every writer each list decodes to the ids, with their roots, that
  // the brute force over the views gives. The pool's k codes the lists
  // in no more bits than any other k, which bounds them: E root entries
  // over |V| lists, each list's gaps plus one summing to at most |V|,
  // at the mean-gap parameter k' = bit_width(floor(|V|^2 / E)) - 1 take
  // quotients below |V|^2 / 2^k' < 2E, so the lists take at most
  // E * (k' + 3) bits and their masks, a bit per sketch of each entry's
  // root range.
  Rng rng(20261018);
  std::vector<uint32_t> ks;
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t universe = 2 + rng.NextBounded(300);
    const size_t theta = 1 + rng.NextBounded(500);
    const size_t max_n = std::array<size_t, 4>{
        1, 2, universe / 4 + 1, universe}[trial % 4];
    std::vector<VertexId> all(universe);
    std::iota(all.begin(), all.end(), 0);
    std::vector<RRGraph> graphs;
    for (size_t i = 0; i < theta; ++i) {
      const size_t n = 1 + rng.NextBounded(max_n);
      for (size_t j = 0; j < n; ++j) {
        std::swap(all[j], all[j + rng.NextBounded(universe - j)]);
      }
      std::vector<VertexId> vertices(all.begin(), all.begin() + n);
      std::ranges::sort(vertices);
      graphs.push_back(n == 1 ? Singleton(vertices[0])
                              : EdgelessSketch(std::move(vertices)));
    }
    ExpectEveryWriterKeeps(graphs, universe);
    const RrSketchPool pool = PackViews(
        theta, RrSketchPool(universe, universe),
        [&graphs](size_t i) { return graphs[i].View(); });
    ExpectVertexTotalsAgree(pool);
    const std::vector<std::vector<RootedId>> lists = RootedFromViews(pool);
    const std::vector<std::vector<uint32_t>> rooted = RootsFromViews(pool);
    uint64_t entries = 0;
    uint64_t mask_bits = 0;
    for (const std::vector<RootedId>& list : lists) {
      for (size_t j = 0; j < list.size(); ++j) {
        if (j > 0 && list[j - 1].root == list[j].root) continue;
        ++entries;
        mask_bits += rooted[list[j].root].size();
      }
    }
    for (uint32_t k = 0; k < 32; ++k) {
      uint64_t bits = 0;
      for (const std::vector<RootedId>& list : lists) {
        bits += RootListBitsOf(list, k, rooted);
      }
      EXPECT_LE(ListBits(pool), bits) << "k " << k;
    }
    if (entries > 0) {
      const uint64_t mean = universe * universe / entries;
      const auto mean_k = static_cast<uint64_t>(std::bit_width(mean)) - 1;
      EXPECT_LE(ListBits(pool), entries * (mean_k + 3) + mask_bits);
    }
    ks.push_back(pool.containing_k());
  }
  // Sanity of the fixtures: the trials reach both ends.
  EXPECT_EQ(std::ranges::min(ks), 0u);
  EXPECT_GE(std::ranges::max(ks), 6u) << ::testing::PrintToString(ks);
}

TEST(PooledLayoutTest, RootOrderHoldsOnBuiltLoadedAndCompactedPools) {
  // Every finished pool numbers its sketches in root order: the built
  // one, the one its index file loads into, and the one a compaction
  // folds after repairs. In each, the roots never fall, each root range
  // is exactly the sketches rooted at its vertex, and the range and the
  // vertex's list are its membership (ExpectContainingMatchesViews).
  DatasetSpec spec = LastfmSpec(0.3);
  spec.seed = 23;
  const SocialNetwork network = GenerateDataset(spec);
  RrIndexOptions options;
  options.theta_override = 3000;
  options.num_build_threads = 3;
  RrIndex index(network, options);
  index.Build();
  ExpectContainingMatchesViews(index.pool());
  EXPECT_EQ(index.pool().SizeBytes(), ExactSizeBytes(index.pool()));

  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  IndexIoError error;
  const auto loaded = LoadRrIndex(network, file, &error);
  ASSERT_NE(loaded, nullptr) << error.message;
  ExpectContainingMatchesViews(loaded->pool());
  EXPECT_EQ(pool_image::PoolDifference(network, loaded->pool(), index.pool()),
            "");

  DynamicRrIndex dynamic(network, options);
  dynamic.Build();
  for (int round = 0; round < 8; ++round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>((round * 977) % network.num_edges());
    update.entries = {
        {static_cast<TopicId>(round % network.topics.num_topics()), 0.9}};
    dynamic.ApplyUpdates(std::span(&update, 1));
  }
  ASSERT_GT(dynamic.overlay_sketches(), 0u);
  const IndexViews before(dynamic, network.num_vertices());
  std::vector<VertexId> roots;
  for (size_t i = 0; i < dynamic.num_graphs(); ++i) {
    roots.push_back(before(i).root());
  }
  const auto compacted = dynamic.Freeze(network, /*compact=*/true);
  ASSERT_EQ(dynamic.stats().compactions, 1u);
  ExpectContainingMatchesViews(compacted->pool());
  // A repair keeps its sketch's root, so the fold keeps every id.
  const PoolViews after(compacted->pool());
  for (size_t i = 0; i < roots.size(); ++i) {
    ASSERT_EQ(after(i).root(), roots[i]) << "sketch " << i;
  }
}

TEST(PooledLayoutTest, RepairedListsDecodeToBruteForce) {
  // Repairs re-code the lists of the vertices whose membership changed
  // into the overlay, at the base pool's parameter: the served lists,
  // the master's and a frozen snapshot's, stay the brute force's.
  DatasetSpec spec = LastfmSpec(0.3);
  spec.seed = 23;
  const SocialNetwork network = GenerateDataset(spec);
  RrIndexOptions options;
  options.theta_override = 3000;
  DynamicRrIndex index(network, options);
  index.Build();
  for (int round = 0; round < 8; ++round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>((round * 977) % network.num_edges());
    update.entries = {
        {static_cast<TopicId>(round % network.topics.num_topics()), 0.9}};
    index.ApplyUpdates(std::span(&update, 1));
  }
  ASSERT_GT(index.overlay_sketches(), 0u);
  const auto frozen = index.Freeze(network, /*compact=*/false);
  ASSERT_GT(frozen->pool().containing_k(), 0u);
  std::vector<std::vector<uint32_t>> want(network.num_vertices());
  const IndexViews views(index, network.num_vertices());
  for (uint32_t i = 0; i < index.num_graphs(); ++i) {
    for (const VertexId v : Owned(views(i)).vertices) want[v].push_back(i);
  }
  for (VertexId v = 0; v < want.size(); ++v) {
    ASSERT_EQ(ContainingIds(index, v), want[v]) << "vertex " << v;
    ASSERT_EQ(ContainingIds(*frozen, v), want[v]) << "vertex " << v;
  }
}

TEST(PooledLayoutTest, VertexInEverySketchAndVerticesInNone) {
  // Vertex 3 is in every sketch, singletons and blocks alike; vertices
  // 0, 5 and 9 (the universe's first and last among them) are in none.
  std::vector<RRGraph> graphs;
  for (VertexId k = 0; k < 300; ++k) {
    graphs.push_back(k % 3 == 0 ? Singleton(3)
                                : EdgelessSketch({3, 6 + k % 3}));
  }
  graphs.push_back(RRGraph{3, {1, 3}, {0, 0, 1}, {0}, {2}});
  const RrSketchPool pool = PackGraphs(graphs);
  ExpectContainingMatchesViews(pool);
  EXPECT_EQ(pool.CountContaining(3), graphs.size());
  for (const VertexId v : {0u, 5u, 9u}) {
    EXPECT_TRUE(std::ranges::empty(pool.NonRootContaining(v))) << "vertex " << v;
    EXPECT_EQ(pool.CountContaining(v), 0u) << "vertex " << v;
  }
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
}

TEST(PooledLayoutTest, ContainingCodecPinsRootEntries) {
  // The coder's bits are pinned, LSB-first: per root r the list names,
  // its gap (r, then r less the root before less 1) as x >> k one-bits,
  // a zero and the low k bits of x, then a mask of a bit per sketch r
  // roots, bit j for sketch RootStart(r) + j; then 7 bytes of padding.
  // Each list decodes to its ids with their roots, and counts them.
  struct Case {
    uint32_t k;
    std::vector<uint32_t> rooted;  // sketches each vertex roots
    std::vector<RootedId> ids;
    uint64_t bits;
    std::vector<uint8_t> bytes;  // before the padding
  };
  std::vector<uint32_t> forty_first(41, 0);
  forty_first[40] = 1;
  const std::vector<Case> cases = {
      // Roots 0, 2 and 3 over ranges [0, 3), [3, 5) and [5, 10): gaps
      // 0, 1 and 0 at k = 2, 000 010 000 (the low bits LSB-first), and
      // masks 011, 01 and 01001.
      {2,
       {3, 0, 2, 5},
       {{0, 1}, {0, 2}, {2, 4}, {3, 6}, {3, 9}},
       19,
       {0xb0, 0x84, 0x04}},
      // A gap of 40 at k = 0: 40 ones, past the writer's 31-bit run,
      // then the zero and the mask's one bit.
      {0, forty_first, {{40, 0}}, 42, {0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
      // A 130-sketch range at k = 3: its mask takes three loads of up to
      // 57 bits, the middle one all zeros, then root 1's 2-bit mask.
      {3,
       {130, 2},
       {{0, 0}, {0, 129}, {1, 131}},
       140,
       {0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x20, 0x08}},
      // An empty list codes nothing and needs no padding.
      {13, {1, 1}, {}, 0, {}},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Case& want = cases[c];
    std::vector<uint32_t> starts = {0};
    for (const uint32_t count : want.rooted) {
      starts.push_back(starts.back() + count);
    }
    GroupWords root_starts;
    root_starts.Assign(std::span<const uint32_t>(starts));
    std::vector<uint8_t> coded(PaddedBytes(want.bits), 0);
    ASSERT_EQ(coded.size(), want.bytes.empty() ? 0 : want.bytes.size() + 7);
    BitWriter writer(coded.data());
    PutRootList(want.ids, want.k, root_starts, &writer);
    const uint64_t at = writer.Finish();
    EXPECT_EQ(at, want.bits);
    EXPECT_EQ(RootListBits(want.ids, want.k, root_starts), want.bits);
    std::vector<uint8_t> bytes = want.bytes;
    if (!bytes.empty()) bytes.resize(bytes.size() + 7, 0);
    EXPECT_EQ(coded, bytes);
    const ContainingList list(coded.data(), 0, at, want.k, root_starts);
    EXPECT_EQ(RootedIds(list), want.ids);
    EXPECT_EQ(list.count(), want.ids.size());
    EXPECT_EQ(list.bits(), want.bits);
  }
}

TEST(PooledLayoutTest, RootGapsPastALoadDecode) {
  // Root gaps whose codes do not fit the decoder's 57-bit load with
  // their entry: a unary run that reaches it (the entry's code is read
  // by GetRice, in one more load or several), or low bits that end past
  // it (read by one more load). Each entry's mask follows at once, so
  // masks start at every offset those codes end on. Each list decodes
  // to its ids with their roots, counts them, and takes per entry its
  // gap's (gap >> k) + 1 + k bits and its range's size.
  struct Entry {
    uint32_t gap;   // the root less the root before less 1
    uint32_t size;  // sketches the root roots
    std::vector<uint32_t> bits;  // set mask bits
  };
  struct Case {
    uint32_t k;
    std::vector<Entry> entries;
  };
  const std::vector<Case> cases = {
      // k = 0: runs of 56 ones (the code fills the load; its mask takes
      // the next), 57 and 63 (one more load), 113 (the second load's
      // last bit is the zero), 114 and 511 (two loads and more). A
      // 70-bit mask takes two pieces after the 57 run.
      {0,
       {{56, 3, {0, 2}},
        {57, 70, {1, 56, 57, 69}},
        {63, 1, {0}},
        {113, 2, {1}},
        {114, 1, {0}},
        {511, 5, {4}}}},
      // k = 3: runs of 54, 55 and 56 ones, whose 3 low bits end past the
      // load (at bits 58, 59 and 60); a run of 57 (one more load, whose
      // low bits are in it); a run of 511.
      {3,
       {{54 << 3 | 5, 1, {0}},
        {55 << 3 | 7, 2, {0, 1}},
        {56 << 3 | 2, 1, {0}},
        {57 << 3, 4, {3}},
        {511 << 3 | 6, 1, {0}}}},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Case& want = cases[c];
    std::vector<std::pair<VertexId, uint32_t>> roots;  // (root, size)
    VertexId root = UINT32_MAX;  // one before vertex 0
    uint64_t bits = 0;
    for (const Entry& entry : want.entries) {
      root += entry.gap + 1;
      roots.emplace_back(root, entry.size);
      bits += (entry.gap >> want.k) + 1 + want.k + entry.size;
    }
    std::vector<uint32_t> starts(root + 2, 0);
    for (const auto& [r, size] : roots) starts[r + 1] = size;
    std::partial_sum(starts.begin(), starts.end(), starts.begin());
    std::vector<RootedId> ids;
    for (size_t e = 0; e < roots.size(); ++e) {
      for (const uint32_t j : want.entries[e].bits) {
        ids.push_back({roots[e].first, starts[roots[e].first] + j});
      }
    }
    GroupWords root_starts;
    root_starts.Assign(std::span<const uint32_t>(starts));
    std::vector<uint8_t> coded(PaddedBytes(bits), 0);
    BitWriter writer(coded.data());
    PutRootList(ids, want.k, root_starts, &writer);
    const uint64_t at = writer.Finish();
    EXPECT_EQ(at, bits);
    EXPECT_EQ(RootListBits(ids, want.k, root_starts), bits);
    const ContainingList list(coded.data(), 0, at, want.k, root_starts);
    EXPECT_EQ(RootedIds(list), ids);
    EXPECT_EQ(list.count(), ids.size());
  }
}

TEST(PooledLayoutTest, RiceCodesPinnedAcrossLoads) {
  // PutRice's bits, LSB-first: x >> k one-bits, a zero, then the low k
  // bits of x; then 7 bytes of padding. GetRice reads each code back
  // and steps past it, including codes whose run reaches the 57-bit
  // load (q = 57, 64, 113, 114, 511: more loads) and codes whose low
  // bits end past it (q = 55 and 56 at k = 3, q = 40 at k = 20).
  struct Case {
    uint32_t k;
    std::vector<uint32_t> values;
    uint64_t bits;
    std::vector<uint8_t> bytes;  // before the padding; empty: not pinned
  };
  const std::vector<Case> cases = {
      // x = 0, 0, 3, 8: 0|00 0|00 0|11 110|00.
      {2, {0, 0, 3, 8}, 14, {0x80, 0x07}},
      // A lone zero bit.
      {0, {0}, 1, {0x00}},
      // x = 70 at k = 0: 70 ones, past a 64-bit word, then the zero.
      {0, {70}, 71, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}},
      // At k = 20, x = 2 << 20 (23 bits), then x = 40 << 20 | 2^20 - 1
      // from bit 23, 7 bits into its byte: a load there holds 57 bits,
      // and the code's 40 ones, zero and 20 low ones end at bit 83.
      {20,
       {2u << 20, 40u << 20 | ((1u << 20) - 1)},
       84,
       {0x03, 0x00, 0x80, 0xff, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0x0f}},
      // x = 2^32 - 2 at k = 31: one 1, the zero, then 0x7ffffffe.
      {31, {UINT32_MAX - 1}, 33, {0xf9, 0xff, 0xff, 0xff, 0x01}},
      // q = 55, 56, 57, 64, 113, 114 and 511 at k = 3, each after a
      // 4-bit code, so no code starts on a byte: 4 + 59, 4 + 60, ...
      {3,
       {0, 55 << 3 | 7, 0, 56 << 3, 0, 57 << 3 | 1, 0, 64 << 3, 0,
        113 << 3 | 4, 0, 114 << 3, 0, 511 << 3 | 6},
       7 * 4 + (55 + 56 + 57 + 64 + 113 + 114 + 511) + 7 * 4,
       {}},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Case& want = cases[c];
    std::vector<uint8_t> coded(PaddedBytes(want.bits), 0);
    BitWriter writer(coded.data());
    for (const uint32_t x : want.values) PutRice(x, want.k, &writer);
    const uint64_t end = writer.Finish();
    EXPECT_EQ(end, want.bits);
    if (!want.bytes.empty()) {
      std::vector<uint8_t> bytes = want.bytes;
      bytes.resize(bytes.size() + 7, 0);
      EXPECT_EQ(coded, bytes);
    }
    uint64_t at = 0;
    for (const uint32_t x : want.values) {
      EXPECT_EQ(GetRice(coded.data(), &at, want.k), x) << "at bit " << at;
    }
    EXPECT_EQ(at, end);
  }
}

// Pairs {k, k + 1} on the certain cycle's edge k, rooted at k + 1, and
// singletons, alternating over 70 sketches (so over two directory
// groups), with a singleton rooted at `root` as sketch 40: in root
// order, the last sketch.
std::vector<RRGraph> SingletonRootGraphs(VertexId root) {
  std::vector<RRGraph> graphs;
  for (VertexId k = 0; k < 70; ++k) {
    graphs.push_back(k % 2 == 0 ? Singleton(k)
                                : RRGraph{k + 1, {k, k + 1}, {0, 1, 1}, {1},
                                          {k}});
  }
  graphs[40] = Singleton(root);
  return graphs;
}

// The word width of the directory in `pool`'s index file on `network`,
// a network of its sketches.
uint32_t FileDirectoryWidth(const SocialNetwork& network,
                            const RrSketchPool& pool) {
  const auto index =
      RrIndex::FromPool(network, Options(), pool.num_sketches(),
                        std::make_shared<const RrSketchPool>(pool));
  std::stringstream file;
  EXPECT_TRUE(SaveRrIndex(*index, file));
  return pool_image::Image(file.str(), network).width;
}

// `graphs`, hand-made sketches over `universe` vertices, re-ranked
// against their own network (NetworkOf) and packed into a pool of it.
std::pair<SocialNetwork, RrSketchPool> PackOnOwnNetwork(
    std::vector<RRGraph> graphs, size_t universe) {
  SocialNetwork network = NetworkOf(universe, graphs);
  Rerank(network.graph, &graphs);
  RrSketchPool pool =
      PackViews(graphs.size(), RrSketchPool(network.graph),
                [&graphs](size_t i) { return graphs[i].View(); });
  return {std::move(network), std::move(pool)};
}

TEST(PooledLayoutTest, SingletonRootsWidenNoDirectory) {
  // A singleton has no word in the pool's directory or in the index
  // file's, which holds a mask bit per sketch and a word per block: one
  // rooted at 2^15 - 1 and one rooted at 2^15 leave both at the words
  // the blocks take. Each pair is a one-byte parent tree (its header;
  // both fields take 0 bits), so the first group's 32 blocks start 0 to
  // 31 bytes past its base: 6-bit signed words. The first 63 vertices'
  // lists take 263 bits, so the containing starts take 9.
  for (const VertexId root : {32767u, 32768u}) {
    SCOPED_TRACE("root " + std::to_string(root));
    const std::vector<RRGraph> graphs = SingletonRootGraphs(root);
    ExpectEveryWriterKeeps(graphs, 40000);
    const auto [network, pool] = PackOnOwnNetwork(graphs, 40000);
    EXPECT_EQ(pool.directory_width(), 6u);
    uint64_t bits = 0;
    for (VertexId v = 0; v < 63; ++v) bits += pool.NonRootContaining(v).bits();
    EXPECT_EQ(bits, 263u);
    EXPECT_EQ(pool.containing_start_width(), 9u);
    EXPECT_EQ(PoolViews(pool)(graphs.size() - 1).root(), root);
    EXPECT_EQ(FileDirectoryWidth(network, pool), 6u);
  }
}

// Edgeless sketches rooted at 0 of a 4,096-vertex network whose blocks
// take `bytes` bytes in all, no two alike: the k-th holds 0 and k + 1 ..
// k + n - 1. Each takes a header of one byte while n <= 63 and two from
// n = 64, an edge count of one byte, and then n - 1 12-bit vertices
// (all but the root), a BitsFor(n)-bit root id and n + 1 0-bit offsets
// to the next byte, for 2 <= n <= 2,048.
std::vector<RRGraph> BlocksTaking(size_t bytes) {
  const auto length = [](uint32_t n) {
    return VarintBytes(n << 1) + 1 + (12 * (n - 1) + BitsFor(n) + 7) / 8;
  };
  std::vector<RRGraph> graphs;
  const auto push = [&graphs](uint32_t n) {
    std::vector<VertexId> vertices(n);
    std::iota(vertices.begin(), vertices.end(),
              static_cast<VertexId>(graphs.size()));
    vertices[0] = 0;
    graphs.push_back(EdgelessSketch(std::move(vertices)));
  };
  for (; bytes > 4 * length(2048); bytes -= length(2048)) push(2048);
  // The rest by knapsack: last[x] is the largest n of a block that ends
  // blocks of x bytes in all (0 when none do), last[0] a mark.
  std::vector<uint32_t> last(bytes + 1, 0);
  last[0] = 1;
  for (size_t x = 1; x <= bytes; ++x) {
    for (uint32_t n = 2048; n >= 2 && last[x] == 0; --n) {
      if (length(n) <= x && last[x - length(n)] != 0) last[x] = n;
    }
  }
  EXPECT_NE(last[bytes], 0u) << bytes << " bytes";
  for (size_t x = bytes; x > 0 && last[x] != 0; x -= length(last[x])) {
    push(last[x]);
  }
  return graphs;
}

TEST(PooledLayoutTest, DirectoryWidthFollowsBlockStarts) {
  // The last sketch of the first group of 64 is a block that starts
  // `offset` bytes past the group's base, the largest word. The pool's
  // words are signed: 2^w - 1 takes w + 1 bits and 2^w takes w + 2, and
  // the index file's words are the pool's. A second group opens with a
  // block at its base.
  for (const auto& [offset, width] :
       {std::pair{size_t{255}, 9u}, {size_t{256}, 10u},
        {size_t{32767}, 16u}, {size_t{32768}, 17u},
        {size_t{65535}, 17u}, {size_t{65536}, 18u}}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    // Every sketch before sketch 63 is rooted at 0, as the blocks
    // BlocksTaking makes are, so root order keeps their places.
    std::vector<RRGraph> graphs = BlocksTaking(offset);
    ASSERT_LT(graphs.size(), 63u);
    while (graphs.size() < 63) graphs.push_back(Singleton(0));
    graphs.push_back(EdgelessSketch({1, 2}));
    graphs.push_back(RRGraph{2, {2, 7}, {0, 0, 1}, {0}, {3}});
    graphs.push_back(Singleton(4));
    ExpectEveryWriterKeeps(graphs, 4096);
    const auto [network, pool] = PackOnOwnNetwork(graphs, 4096);
    EXPECT_EQ(pool.directory_width(), width);
    EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
    EXPECT_EQ(FileDirectoryWidth(network, pool), width);
    // Sanity of the fixture: sketch 63's block starts `offset` bytes
    // past sketch 0's, which begins the body.
    const PoolViews views(pool);
    EXPECT_EQ(BlockStart(views(63)) - BlockStart(views(0)),
              static_cast<std::ptrdiff_t>(offset));
  }
}

TEST(PooledLayoutTest, RepeatWordsReachBackToMinus32768AtTwoBytes) {
  // The first group's blocks, all rooted at 0, take `back` bytes, and the
  // second group opens with a repeat of sketch 0's block in the same
  // root range: its word, sketch 0's start less the second group's base,
  // is -back. w-bit words hold it down to -2^(w - 1), as they do every
  // forward word of the first group, below back; -2^(w - 1) - 1 takes a
  // bit more. So 16 bits, two bytes, reach back to -32,768.
  for (const auto& [back, width] :
       {std::pair{size_t{256}, 9u}, {size_t{257}, 10u},
        {size_t{32768}, 16u}, {size_t{32769}, 17u}}) {
    SCOPED_TRACE("back " + std::to_string(back));
    std::vector<RRGraph> graphs = BlocksTaking(back);
    ASSERT_LT(graphs.size(), 64u);
    while (graphs.size() < 64) graphs.push_back(Singleton(0));
    graphs.push_back(graphs.front());
    graphs.push_back(RRGraph{2, {2, 7}, {0, 0, 1}, {0}, {3}});
    ExpectEveryWriterKeeps(graphs, 4096);
    const auto [network, pool] = PackOnOwnNetwork(graphs, 4096);
    EXPECT_EQ(pool.directory_width(), width);
    EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
    EXPECT_EQ(FileDirectoryWidth(network, pool), width);
    // Sanity of the fixture: sketch 64 shares sketch 0's bytes, and the
    // first block after it starts `back` bytes past sketch 0's.
    const PoolViews views(pool);
    EXPECT_EQ(BlockStart(views(64)), BlockStart(views(0)));
    EXPECT_EQ(BlockStart(views(65)) - BlockStart(views(0)),
              static_cast<std::ptrdiff_t>(back));
  }
}

TEST(PooledLayoutTest, RangeOfManyShapesSharesEachOnce) {
  // Twelve distinct pairs rooted at 0, {0, v} with the edge v -> 0, then
  // the same twelve again and again in reverse: a range of more first
  // copies than a scan serves (FromRuns and the loader index them), whose
  // 24 repeats each share their pair's first copy, through every writer
  // and the index file.
  std::vector<RRGraph> graphs;
  for (VertexId v = 1; v <= 12; ++v) {
    graphs.push_back(RRGraph{0, {0, v}, {0, 0, 1}, {0}, {0}});
  }
  for (VertexId v = 1; v <= 12; ++v) graphs.push_back(graphs[v - 1]);
  for (VertexId v = 12; v >= 1; --v) graphs.push_back(graphs[v - 1]);
  ExpectEveryWriterKeeps(graphs, 16);
  const auto [network, pool] = PackOnOwnNetwork(graphs, 16);
  EXPECT_EQ(ExpectCanonicalSharing(pool), 24u);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
}

TEST(PooledLayoutTest, FirstCopiesTableFollowsItsRange) {
  // 40,000 distinct 8-byte blocks as one range, then 5,000 ranges of 9:
  // the table stays under four slots a copy (16 at least) in each, so
  // clearing and growing it cost O(copies) a range, and no range after
  // the wide one pays for the wide one's table. Each range then finds
  // every copy it added, at the start it added it at.
  constexpr uint64_t kWide = 40000;
  std::vector<uint8_t> body(8 * kWide + kBitPadding, 0);
  for (uint64_t i = 0; i < kWide; ++i) {
    for (int b = 0; b < 8; ++b) {
      body[8 * i + b] = static_cast<uint8_t>(i >> (8 * b));
    }
  }
  FirstCopies firsts;
  const auto add_range = [&](uint64_t first, uint64_t count) {
    firsts.Clear();
    EXPECT_EQ(firsts.slots(), 0u);
    for (uint64_t i = first; i < first + count; ++i) {
      EXPECT_EQ(firsts.FindOrAdd(&body[8 * i], 8, 8 * i), nullptr);
      EXPECT_LT(firsts.slots(), std::max<uint64_t>(17, 4 * (i - first + 1)));
    }
    for (uint64_t i = first; i < first + count; ++i) {
      const FirstCopies::Copy* copy = firsts.FindOrAdd(&body[8 * i], 8, 0);
      ASSERT_NE(copy, nullptr);
      EXPECT_EQ(copy->start, 8 * i);
      EXPECT_EQ(firsts.AtStart(8 * i), copy);
    }
  };
  add_range(0, kWide);
  EXPECT_EQ(firsts.slots(), 131072u);
  for (uint64_t r = 0; r < 5000; ++r) {
    add_range(9 * r % (kWide - 9), 9);
    ASSERT_EQ(firsts.slots(), 32u);
  }
}

TEST(PooledLayoutTest, RangesAfterAWideOneLoadInLinearTime) {
  // A file whose first root range holds 100,576 distinct edgeless
  // triples {0, a, b} (1 <= a < b <= 449), then 20,000 ranges of 9
  // distinct pairs, loads as fast as the same sketches with the wide
  // range rooted last. A loader whose table kept the wide range's size
  // would clear its 262,144 slots for each later range: 21 GB of writes
  // in all, quadratic in the file. Best of three loads of each, against
  // a margin far inside that gap.
  constexpr VertexId kWide = 449;
  constexpr VertexId kNarrow = 20000;
  constexpr VertexId kVertices = kWide + kNarrow + 2;
  const auto best_load_seconds = [&](VertexId wide_root) {
    std::vector<RRGraph> graphs;
    for (VertexId a = 1; a <= kWide; ++a) {
      for (VertexId b = a + 1; b <= kWide; ++b) {
        graphs.push_back(wide_root == 0
                             ? EdgelessSketch({0, a, b})
                             : EdgelessSketch({a, b, wide_root}, 2));
      }
    }
    for (VertexId r = kWide + 1; r <= kWide + kNarrow; ++r) {
      for (VertexId x = 1; x <= 9; ++x) {
        graphs.push_back(EdgelessSketch({x, r}, 1));
      }
    }
    const SocialNetwork network = NetworkOf(kVertices, graphs);
    const std::string file = pool_image::SavedPool(
        network,
        PackViews(graphs.size(), RrSketchPool(network.graph),
                  [&graphs](size_t i) { return graphs[i].View(); }));
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      std::istringstream in(file);
      IndexIoError error;
      const auto begin = std::chrono::steady_clock::now();
      const auto loaded = LoadRrIndex(network, in, &error);
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - begin;
      EXPECT_NE(loaded, nullptr) << error.message;
      best = std::min(best, took.count());
    }
    return best;
  };
  const double wide_first = best_load_seconds(0);
  const double wide_last = best_load_seconds(kVertices - 1);
  EXPECT_LT(wide_first, 3 * wide_last + 0.05)
      << "wide range first: " << wide_first << " s, last: " << wide_last
      << " s";
}

TEST(PooledLayoutTest, ContainingStartWidthFollowsGroupBits) {
  // 9,364 sketches over 70 vertices. The first 9,358, rooted at 2, hold
  // vertices 0 and 10 to 15: seven lists of one entry, the gap 2 and a
  // 9,358-bit mask. Vertex rho (7 or 8) roots the next 4, the first
  // holding vertex 1 and the rest singletons: vertex 1's list is the
  // gap rho and a 4-bit mask. Vertex 63 roots a sketch holding 64,
  // whose list is the gap 63 and a 1-bit mask. Over the gaps (seven 2s,
  // rho and 63) k = 2 takes the fewest bits, 43 or 44, tied with k = 3
  // (so the smaller wins): a gap of 2 codes in 3 bits, 7 in 4 and 8 in
  // 5. Vertices 2 to 62 hold no other list, so vertex 63's start, the
  // last word of the first group of 64, is 7 (3 + 9,358) + 4 + 4 =
  // 2^16 - 1 bits for rho = 7, which takes 16 bits, or 2^16 for rho =
  // 8, which makes every start's word 17 bits. The 9,358 sketches
  // rooted at 2 share one 9-byte block (7-bit vertices), so each later
  // group's repeats reach back 9 bytes: 5-bit directory words.
  for (const auto& [rho, width] : {std::pair{7u, 16u}, {8u, 17u}}) {
    SCOPED_TRACE("rho " + std::to_string(rho));
    std::vector<RRGraph> graphs(9358,
                                EdgelessSketch({0, 2, 10, 11, 12, 13, 14, 15},
                                               1));
    graphs.push_back(EdgelessSketch({1, rho}, 1));
    for (int i = 0; i < 3; ++i) graphs.push_back(Singleton(rho));
    graphs.push_back(EdgelessSketch({63, 64}));
    graphs.push_back(Singleton(69));
    ExpectEveryWriterKeeps(graphs, 70);
    const RrSketchPool pool = PackViews(
        graphs.size(), RrSketchPool(70, 70),
        [&graphs](size_t i) { return graphs[i].View(); });
    EXPECT_EQ(pool.containing_k(), 2u);
    uint64_t bits = 0;
    for (VertexId v = 0; v < 63; ++v) bits += pool.NonRootContaining(v).bits();
    EXPECT_EQ(bits, width == 16 ? 65535u : 65536u);
    EXPECT_EQ(pool.containing_start_width(), width);
    EXPECT_EQ(pool.directory_width(), 5u);
    EXPECT_EQ(pool.CountContaining(0), 9358u);
    EXPECT_TRUE(std::ranges::equal(pool.NonRootContaining(1),
                                   std::vector<uint32_t>{9358}));
    EXPECT_TRUE(
        std::ranges::equal(pool.RootRange(63), std::vector<uint32_t>{9362}));
    EXPECT_TRUE(std::ranges::equal(pool.NonRootContaining(64),
                                   std::vector<uint32_t>{9362}));
    ExpectContainingMatchesViews(pool);
  }
}

// Id k of ids spread over [0, count): alternately from the top and the
// bottom, so the largest id and small ones both appear.
uint64_t Spread(size_t k, uint64_t count) {
  return k % 2 == 0 ? count - 1 - (k / 2) % count : (k / 2) % count;
}

// A sketch of n vertices of a network with `num_vertices` vertices and
// `num_edges` edges: its n / 2 lowest ids and the rest of the highest,
// the largest among them, and a path from the first to the last, the
// root, with ranks spread below `max_out_degree` (Spread), and no
// topology. An in-tree, or with `general` the path and an edge out of
// the root back to the first vertex (a self-loop when n = 1).
RRGraph SweepSketch(uint64_t num_vertices, uint64_t max_out_degree, size_t n,
                    bool general) {
  std::vector<VertexId> vertices(n);
  for (size_t j = 0; j < n; ++j) {
    vertices[j] = static_cast<VertexId>(j < n / 2 ? j : num_vertices - n + j);
  }
  std::vector<GlobalEdgeSample> edges;
  for (size_t j = 0; j + 1 < n; ++j) {
    edges.push_back({vertices[j], vertices[j + 1], 0});
  }
  if (general) edges.push_back({vertices[n - 1], vertices[0], 0});
  for (size_t k = 0; k < edges.size(); ++k) {
    edges[k].edge = static_cast<EdgeId>(Spread(k, max_out_degree));
  }
  return AssembleRRGraph(Graph(), vertices[n - 1], vertices, edges);
}

// Re-closes each of `graphs`, sketches of `network` (Rerank) each of
// whose vertices reaches its root, from its decomposed live edges
// through RebuildRepairedSketch, as repair does: each comes back whole,
// and its block is the very bytes Append writes of it.
void ExpectRebuildKeeps(const SocialNetwork& network,
                        const std::vector<RRGraph>& graphs) {
  SketchArena arena;
  RrSketchPool rebuilt(network.graph);
  RrSketchPool appended(network.graph);
  std::vector<GlobalEdgeSample> edges;
  for (const RRGraph& g : graphs) {
    DecomposeRRGraphInto(g, &edges);
    arena.RebuildRepairedSketch(g.root, edges, &rebuilt);
    appended.Append(g);
  }
  ExpectMatchesGraphs(rebuilt, graphs);
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (rebuilt.IsSingleton(i)) continue;
    EXPECT_EQ(BlockBytes(rebuilt, i), BlockBytes(appended, i))
        << "sketch " << i;
  }
}

TEST(PooledLayoutTest, EveryFieldWidthSurvivesEveryWriter) {
  // Networks whose vertex fields take 0, 1, 15, 16, 17, 24, 25 and 31
  // bits and whose rank fields take 0 (no out-list longer than 1), 1,
  // 5 (pitexbench's), 15, 16, 17, 24, 25, 31 and 32 (a vertex id stays
  // below 2^31, the directory word's flag, so no vertex field takes
  // 32), with sketches of n in {1, 2, 3, 4, 5, 8, 9, 256, 257}, in-trees
  // and general, so local ids take 0 to 9 bits, between singletons at
  // the highest and lowest vertex. Every writer that builds no
  // containing index (AppendSketch, Append, an overlay) runs at every
  // width, a default pool's (31-bit vertices, 32-bit ranks) among them.
  // PackViews and FromRuns, whose containing index holds an entry per
  // vertex, run while the network has at most 2^17 vertices, at every
  // rank width (ExpectWritersKeep); the walks and the index file, on a
  // network that holds the sketches' edges, while it also has at most
  // 2^17 out-edges a vertex (ExpectEveryWriterKeeps), where repair's
  // RebuildRepairedSketch runs too (ExpectRebuildKeeps).
  constexpr uint64_t k1 = 1;
  const std::pair<uint64_t, uint64_t> networks[] = {
      {1, 1},               {2, 2},
      {k1 << 15, 18},       {k1 << 15, k1 << 15},
      {k1 << 16, k1 << 16}, {k1 << 17, k1 << 17},
      {k1 << 24, k1 << 24}, {k1 << 25, k1 << 25},
      {k1 << 31, k1 << 31}, {k1 << 31, k1 << 32},
      {k1 << 31, 1},        {2, k1 << 32},
      {k1 << 17, k1 << 32}, {k1 << 17, 1}};
  const RrSketchPool default_pool;
  EXPECT_EQ(default_pool.vertex_bits(), 31u);
  EXPECT_EQ(default_pool.rank_bits(), 32u);
  for (const auto& [num_vertices, max_out_degree] : networks) {
    SCOPED_TRACE("|V| = " + std::to_string(num_vertices) +
                 ", largest out-degree " + std::to_string(max_out_degree));
    std::vector<RRGraph> graphs = {
        Singleton(static_cast<VertexId>(num_vertices - 1))};
    for (const size_t n : {1, 2, 3, 4, 5, 8, 9, 256, 257}) {
      if (n > num_vertices) continue;
      for (const bool general : {false, true}) {
        // The one-vertex in-tree is a singleton.
        if (n == 1 && !general) continue;
        graphs.push_back(
            SweepSketch(num_vertices, max_out_degree, n, general));
        ASSERT_EQ(InTreeShape(graphs.back()), !general);
      }
      graphs.push_back(Singleton(0));
    }
    RrSketchPool run(num_vertices, max_out_degree);
    ASSERT_EQ(run.vertex_bits(), BitsFor(num_vertices));
    ASSERT_EQ(run.rank_bits(), BitsFor(max_out_degree));
    for (const RRGraph& g : graphs) AppendThroughSketch(g, &run);
    ExpectMatchesGraphs(run, graphs);
    RrSketchPool appended(num_vertices, max_out_degree);
    for (size_t i = 0; i < run.num_sketches(); ++i) {
      appended.Append(run.View(i, graphs[i].root));
    }
    ExpectMatchesGraphs(appended, graphs);
    EXPECT_EQ(appended.SizeBytes(), run.SizeBytes());
    RrSketchOverlay overlay(run);
    for (uint32_t i = 0; i < graphs.size(); ++i) overlay.Put(i, graphs[i]);
    for (uint32_t i = 0; i < graphs.size(); ++i) {
      EXPECT_TRUE(SameSketch(overlay.View(overlay.SlotOf(i), graphs[i].root),
                             graphs[i]))
          << "sketch " << i;
    }
    if (num_vertices == (k1 << 31) && max_out_degree == (k1 << 32)) {
      RrSketchPool wide = default_pool.EmptyLike();
      for (const RRGraph& g : graphs) wide.Append(g);
      ExpectMatchesGraphs(wide, graphs);
      EXPECT_EQ(wide.SizeBytes(), run.SizeBytes());
    }
    if (num_vertices > (k1 << 17)) continue;
    if (max_out_degree > (k1 << 17)) {
      // Too many out-edges for a network to hold: the writers run at
      // counts only, with no walk or index file.
      ExpectWritersKeep(InRootOrder(graphs),
                        RrSketchPool(num_vertices, max_out_degree));
      continue;
    }
    ExpectEveryWriterKeeps(graphs, num_vertices, max_out_degree);
    const SocialNetwork network =
        NetworkOf(num_vertices, graphs, max_out_degree);
    std::vector<RRGraph> ranked = graphs;
    Rerank(network.graph, &ranked);
    ExpectRebuildKeeps(network, ranked);
  }
}

// The 64-bit FNV-1a of a saved index file's bytes before its trailer
// (build_seconds, which is a wall-clock time, and the checksum over it).
uint64_t FileHash(const std::string& bytes) {
  return Fnv1aBytes(0xcbf29ce484222325ULL, bytes.data(),
                    bytes.size() - pool_image::kTrailerBytes);
}

// A dblp analog at `scale` with 64 tags and dataset seed 1, as
// pitexbench generates its network.
SocialNetwork BenchmarkNetwork(double scale) {
  DatasetSpec dataset = DblpSpec(scale);
  dataset.num_tags = 64;
  dataset.seed = 1;
  return GenerateDataset(dataset);
}

TEST(PooledLayoutTest, BenchmarkIndexFootprintIsPinned) {
  // pitexbench's index (pitexbench/workloads.cc): the dblp analog at
  // scale 0.05 with 64 tags and dataset seed 1, eps 0.7, delta 1000,
  // theta/vertex 8 and seed 7, so theta = 200,000 over 25,000 vertices.
  // A change to the pool's layout that moves these bytes fails here, not
  // only in the benchmark's heap reading; a change that means to move
  // them updates the numbers and says so.
  const SocialNetwork network = BenchmarkNetwork(0.05);
  RrIndexOptions options;
  options.eps = 0.7;
  options.delta = 1000.0;
  options.theta_per_vertex = 8.0;
  options.seed = 7;
  RrIndex index(network, options);
  index.Build();
  const RrSketchPool& pool = index.pool();
  ASSERT_EQ(pool.num_sketches(), 200000u);
  // The offset arrays pack their words at the bits the largest takes:
  // the block words, signed, from -80 to 483 B, at 10 bits; the root
  // starts, the largest 573 sketches, at 10 bits; and the containing
  // starts, the largest 11,799 bits, at 14. Each array of starts takes
  // 391 bases and 25,001 words, then 7 bytes of padding: 1,564 + 31,252
  // + 7 = 32,823 B and 1,564 + 43,752 + 7 = 45,323 B. 85,966 sketches
  // are blocks, so the directory takes 3,125 16-byte records and 85,966
  // words, 107,458 B, then 7 of padding: 157,465 B. 41,710 blocks repeat an
  // earlier block of their root range and share its bytes (2,840 of
  // them in an earlier group, with a negative word), so 44,256 first
  // copies are stored. The 200,000 root
  // incidences are root ranges, and the lists' other 254,185 ids are
  // 101,074 root entries, whose gaps k = 10 codes in the fewest bits:
  // with their masks, 2,081,217 bits, 260,160 B with padding (481,823 B
  // as gaps between ids at k = 14). The network's 25,000 vertices and
  // at most 18 out-edges a vertex give 15-bit vertices and 5-bit ranks.
  // A record is its rank alone. Every block has fewer than 64 vertices,
  // so a one-byte header. 44,251 first copies are parent trees: their
  // 181,512 vertices other than their roots take 507,781 bits of
  // parents and 449,649 bits of in-ranks (17,016 of the 25,000 vertices
  // have at most one in-edge, so a rank of 0 bits under them), 182,222 B
  // with their headers, each to its next byte. The other 5 first copies
  // store offsets, and an edge count of one byte: 217 B. A body of
  // 182,439 B and 7 of padding.
  EXPECT_EQ(pool.directory_width(), 10u);
  EXPECT_EQ(pool.DirectoryBytes(), 3125u * 16 + (85966u * 10 + 7) / 8 + 7);
  EXPECT_EQ(pool.containing_start_width(), 14u);
  EXPECT_EQ(pool.root_start_width(), 10u);
  EXPECT_EQ(pool.containing_k(), 10u);
  EXPECT_EQ(pool.vertex_bits(), 15u);
  EXPECT_EQ(pool.max_out_degree(), 18u);
  EXPECT_EQ(pool.rank_bits(), 5u);
  uint64_t list_bits = 0;
  for (VertexId v = 0; v < pool.num_universe_vertices(); ++v) {
    list_bits += pool.NonRootContaining(v).bits();
  }
  EXPECT_EQ(list_bits, 2081217u);
  ExpectContainingMatchesViews(pool);
  EXPECT_EQ(ExpectCanonicalSharing(pool), 41710u);
  EXPECT_EQ(pool.SizeBytes(), sizeof(RrSketchPool) + 157465 + 32823 +
                                  45323 + 182446 + 260160);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  // The file is v17: its 61-byte header, theta, each vertex's count of
  // rooted sketches (each below 32, so 5 bits each: 15,625 B), the
  // 3,125 group masks, the pool's 85,966 10-bit block words (107,458 B)
  // and its body, each array after its u64 length and each packed
  // array after its width, then build_seconds and the checksum: these
  // exact bytes.
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  EXPECT_EQ(file.str()[pool_image::kVersionOffset], 17);
  EXPECT_EQ(file.str().size(), 61u + 8 + (1 + 8 + 15625) + (8 + 3125 * 8) +
                                   (1 + 8 + 107458) + (8 + 182446) + 16);
  EXPECT_EQ(FileHash(file.str()), 0xcee21fece8caa2faULL)
      << std::hex << FileHash(file.str());
  const pool_image::Image image(file.str(), network);
  EXPECT_EQ(image.count_width, 5u);
  EXPECT_EQ(image.width, 10u);
  // The body is the v16 file's, byte for byte: only the offset arrays
  // moved.
  EXPECT_EQ(FileHash(std::string(image.body.begin(), image.body.end())),
            0xe9a4624466670474ULL);
  // The same bytes under a v16 header, whose root counts took 1, 2 or 4
  // bytes and whose block words 2 or 4, are refused by their version.
  std::string v16 = file.str();
  v16[pool_image::kVersionOffset] = 16;
  pool_image::RepairChecksum(&v16);
  std::stringstream v16_file(v16);
  IndexIoError v16_error;
  EXPECT_EQ(LoadRrIndex(network, v16_file, &v16_error), nullptr);
  EXPECT_EQ(v16_error.code, IndexIoCode::kBadVersion);

  // With repairs, the save folds base + overlay: its bytes load and save
  // back unchanged, and the loaded index holds the fold's sketches.
  DynamicRrIndex dynamic(network, options);
  dynamic.Build();
  for (int round = 0; round < 16; ++round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>((round * 7919) % network.num_edges());
    update.entries = {
        {static_cast<TopicId>(round % network.topics.num_topics()), 0.9}};
    dynamic.ApplyUpdates(std::span(&update, 1));
  }
  ASSERT_GT(dynamic.overlay_sketches(), 0u);
  const std::unique_ptr<RrIndex> repaired =
      dynamic.Freeze(network, /*compact=*/false);
  std::stringstream folded_file;
  ASSERT_TRUE(SaveRrIndex(*repaired, folded_file));
  IndexIoError error;
  const auto loaded = LoadRrIndex(network, folded_file, &error);
  ASSERT_NE(loaded, nullptr) << error.message;
  std::stringstream again;
  ASSERT_TRUE(SaveRrIndex(*loaded, again));
  EXPECT_EQ(again.str(), folded_file.str());
  // Compaction folds the same pool the save did.
  const std::unique_ptr<RrIndex> folded =
      dynamic.Freeze(network, /*compact=*/true);
  EXPECT_EQ(IndexContentHash(*loaded), IndexContentHash(*folded));
  EXPECT_EQ(IndexContentHash(*repaired), IndexContentHash(*folded));
  EXPECT_EQ(loaded->pool().SizeBytes(), folded->pool().SizeBytes());
}

TEST(PooledLayoutTest, WideNetworkKeepsTwoByteWords) {
  // The dblp analog at scale 0.08 has 40,000 vertices: singletons rooted
  // at 2^15 and above, which made every directory word 4 bytes while
  // the directory held the roots. The pool's words and the file's hold
  // only block starts, so both take 10 bits, as on the 25,000-vertex
  // network, and the file loads and saves back unchanged.
  const SocialNetwork network = BenchmarkNetwork(0.08);
  ASSERT_EQ(network.num_vertices(), 40000u);
  RrIndexOptions options;
  options.theta_per_vertex = 1.0;
  options.seed = 7;
  RrIndex index(network, options);
  index.Build();
  const RrSketchPool& pool = index.pool();
  EXPECT_EQ(pool.directory_width(), 10u);
  EXPECT_EQ(pool.SizeBytes(), ExactSizeBytes(pool));
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  EXPECT_EQ(pool_image::Image(file.str(), network).width, 10u);
  IndexIoError error;
  const auto loaded = LoadRrIndex(network, file, &error);
  ASSERT_NE(loaded, nullptr) << error.message;
  EXPECT_EQ(loaded->pool().SizeBytes(), pool.SizeBytes());
  std::stringstream again;
  ASSERT_TRUE(SaveRrIndex(*loaded, again));
  EXPECT_EQ(again.str(), file.str());
}

}  // namespace
}  // namespace pitex
