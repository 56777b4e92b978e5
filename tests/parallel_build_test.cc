// Deterministic parallel index construction: the index must be
// bit-identical for every thread count. The sampler draws every root
// first and gives each sample its final id; each worker slot appends the
// ids it claims to its own run and RrSketchPool::FromRuns copies the
// runs' segments in id order, so these tests pin that finish too.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "owned_sketch.h"
#include "pool_image.h"
#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/index/rr_index.h"
#include "src/util/thread_pool.h"

namespace pitex {
namespace {

void ExpectIndexesIdentical(const RrIndex& a, const RrIndex& b) {
  ASSERT_EQ(a.num_graphs(), b.num_graphs());
  const IndexViews a_views(a, a.num_vertices());
  const IndexViews b_views(b, b.num_vertices());
  for (size_t i = 0; i < a.num_graphs(); ++i) {
    const RRView ga = a_views(i);
    const RRView gb = b_views(i);
    ASSERT_EQ(ga.root(), gb.root()) << "graph " << i;
    ASSERT_TRUE(Owned(ga).vertices == Owned(gb).vertices)
        << "graph " << i;
    ASSERT_EQ(Owned(ga).offsets, Owned(gb).offsets) << "graph " << i;
    ASSERT_EQ(Owned(ga).heads, Owned(gb).heads) << "graph " << i;
    ASSERT_EQ(Owned(ga).ranks, Owned(gb).ranks) << "graph " << i;
  }
}

TEST(ParallelBuildTest, OneVsTwoThreadsIdentical) {
  SocialNetwork n = MakeRunningExample();
  RrIndexOptions serial;
  serial.theta_override = 2000;
  RrIndexOptions parallel = serial;
  parallel.num_build_threads = 2;

  RrIndex a(n, serial), b(n, parallel);
  a.Build();
  b.Build();
  ExpectIndexesIdentical(a, b);
}

TEST(ParallelBuildTest, FourThreadsOnSyntheticDataset) {
  SocialNetwork n = GenerateDataset(LastfmSpec(0.1));
  RrIndexOptions serial;
  serial.theta_override = 500;
  RrIndexOptions parallel = serial;
  parallel.num_build_threads = 4;

  RrIndex a(n, serial), b(n, parallel);
  a.Build();
  b.Build();
  ExpectIndexesIdentical(a, b);
}

TEST(ParallelBuildTest, ContainingListsIdentical) {
  SocialNetwork n = MakeRunningExample();
  RrIndexOptions serial;
  serial.theta_override = 1000;
  RrIndexOptions parallel = serial;
  parallel.num_build_threads = 3;

  RrIndex a(n, serial), b(n, parallel);
  a.Build();
  b.Build();
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    EXPECT_EQ(ContainingIds(a, v), ContainingIds(b, v)) << "vertex " << v;
  }
}

TEST(ParallelBuildTest, EstimatesIdentical) {
  SocialNetwork n = MakeRunningExample();
  RrIndexOptions serial;
  serial.theta_override = 3000;
  RrIndexOptions parallel = serial;
  parallel.num_build_threads = 2;

  RrIndex a(n, serial), b(n, parallel);
  a.Build();
  b.Build();
  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);
  EXPECT_DOUBLE_EQ(a.EstimateInfluence(0, probs).influence,
                   b.EstimateInfluence(0, probs).influence);
}

void ExpectPoolsIdentical(const RrSketchPool& a, const RrSketchPool& b) {
  ASSERT_EQ(a.num_sketches(), b.num_sketches());
  const PoolViews a_views(a);
  const PoolViews b_views(b);
  for (size_t i = 0; i < a.num_sketches(); ++i) {
    const RRView ga = a_views(i);
    const RRView gb = b_views(i);
    ASSERT_EQ(ga.root(), gb.root()) << "sketch " << i;
    ASSERT_TRUE(Owned(ga).vertices == Owned(gb).vertices)
        << "sketch " << i;
    ASSERT_EQ(Owned(ga).offsets, Owned(gb).offsets) << "sketch " << i;
    ASSERT_EQ(Owned(ga).heads, Owned(gb).heads) << "sketch " << i;
    ASSERT_EQ(Owned(ga).ranks, Owned(gb).ranks) << "sketch " << i;
  }
  ASSERT_EQ(a.num_universe_vertices(), b.num_universe_vertices());
  for (VertexId v = 0; v < a.num_universe_vertices(); ++v) {
    ASSERT_EQ(ContainingIds(a, v), ContainingIds(b, v)) << "vertex " << v;
  }
  EXPECT_EQ(a.SizeBytes(), b.SizeBytes());
  EXPECT_EQ(a.max_sketch_vertices(), b.max_sketch_vertices());
}

TEST(ParallelBuildTest, PoolsIdenticalForEveryThreadCount) {
  // theta values not divisible by the thread counts, and below
  // 2 * threads: an internal pool is only spun up from 2 * threads
  // samples, but an external pool runs every theta >= 2 in parallel.
  // The sampler draws every sample's root, the first draw of its
  // stream, before it generates any sketch, and builds each sample at
  // the id a counting sort by root gives it: every id's root is the
  // pre-pass's, and every thread count gives the same bytes.
  const SocialNetwork n = GenerateDataset(LastfmSpec(0.1));
  for (const uint64_t theta : {1, 2, 5, 13, 997}) {
    RrIndexOptions serial;
    serial.theta_override = theta;
    RrIndex reference(n, serial);
    reference.Build();
    std::vector<VertexId> pre_pass;
    for (uint64_t i = 0; i < theta; ++i) {
      pre_pass.push_back(static_cast<VertexId>(
          SampleStream(serial.seed, i).NextBounded(n.num_vertices())));
    }
    std::ranges::sort(pre_pass);
    ASSERT_EQ(reference.pool().num_sketches(), theta);
    for (uint32_t id = 0; id < theta; ++id) {
      ASSERT_EQ(reference.pool().RootOf(id), pre_pass[id]) << "sketch " << id;
    }
    for (const size_t threads : {1, 2, 3, 4, 7}) {
      SCOPED_TRACE("theta " + std::to_string(theta) + ", threads " +
                   std::to_string(threads));
      RrIndexOptions internal = serial;
      internal.num_build_threads = threads;
      RrIndex a(n, internal);
      a.Build();
      ExpectPoolsIdentical(a.pool(), reference.pool());
      EXPECT_EQ(pool_image::PoolDifference(n, a.pool(), reference.pool()), "");

      ThreadPool workers(threads);
      RrIndex b(n, serial);
      b.Build(&workers);
      ExpectPoolsIdentical(b.pool(), reference.pool());
      EXPECT_EQ(pool_image::PoolDifference(n, b.pool(), reference.pool()), "");
    }
  }
}

}  // namespace
}  // namespace pitex
