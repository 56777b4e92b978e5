// Equivalence tests for the zero-allocation best-effort search path
// (src/core/best_effort_solver.cc + search_arena + BoundScratch +
// MaterializedProbs): against verbatim copies of the pre-refactor solver
// and samplers retained below, the optimized path must return
// byte-identical rankings (ties included), byte-identical counters, and
// byte-identical sampler estimates across seeds and k — and, with a
// reused scratch, perform zero heap allocations at steady state.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <queue>
#include <vector>

#include "allocation_counter.h"
#include "running_example.h"
#include "src/core/best_effort_solver.h"
#include "src/core/upper_bound.h"
#include "src/sampling/estimator_common.h"
#include "src/sampling/lazy_sampler.h"
#include "src/sampling/mc_sampler.h"
#include "src/util/random.h"

namespace pitex {
namespace {

// ---------------------------------------------------------------------------
// Retained reference implementations (pre-refactor, verbatim except for
// renames). Do not "modernize" these: their whole value is staying frozen.
// ---------------------------------------------------------------------------

class ReferenceLazySampler final : public InfluenceOracle {
 public:
  struct HeapEntry {
    uint64_t due;
    VertexId neighbor;
    double prob;
  };

  ReferenceLazySampler(const Graph& graph, SampleSizePolicy policy,
                       uint64_t seed)
      : graph_(graph),
        policy_(policy),
        rng_(seed),
        states_(graph.num_vertices()),
        state_epoch_(graph.num_vertices(), 0),
        visit_epoch_(graph.num_vertices(), 0) {}

  const char* Name() const override { return "REF-LAZY"; }

  Estimate EstimateInfluence(VertexId u, const EdgeProbFn& probs) override {
    const ReachableSet reach = ComputeReachable(graph_, probs, u);
    const auto rw = static_cast<double>(reach.vertices.size());
    const double threshold = policy_.StoppingThreshold();
    const uint64_t cap = policy_.SampleCap(reach.vertices.size());

    ++call_epoch_;
    Estimate result;
    uint64_t total_activated = 0;
    double sum_squares = 0.0;
    std::vector<VertexId> frontier;
    for (uint64_t i = 0; i < cap; ++i) {
      ++instance_epoch_;
      const uint64_t before = total_activated;
      frontier.assign(1, u);
      visit_epoch_[u] = instance_epoch_;
      while (!frontier.empty()) {
        const VertexId v = frontier.back();
        frontier.pop_back();
        ++total_activated;
        VertexState& state = StateOf(v, probs, cap, &result.edges_visited);
        ++state.visits;
        while (!state.heap.empty() &&
               state.heap.front().due == state.visits) {
          std::pop_heap(state.heap.begin(), state.heap.end(), DueGreater{});
          HeapEntry entry = state.heap.back();
          state.heap.pop_back();
          ++result.edges_visited;
          if (visit_epoch_[entry.neighbor] != instance_epoch_) {
            visit_epoch_[entry.neighbor] = instance_epoch_;
            frontier.push_back(entry.neighbor);
          }
          const uint64_t skip = rng_.NextGeometric(entry.prob);
          if (skip <= cap && state.visits + skip > state.visits) {
            entry.due = state.visits + skip;
            if (entry.due <= cap) {
              state.heap.push_back(entry);
              std::push_heap(state.heap.begin(), state.heap.end(),
                             DueGreater{});
            }
          }
        }
      }
      ++result.samples;
      const auto spread = static_cast<double>(total_activated - before);
      sum_squares += spread * spread;
      if (result.samples >= policy_.min_samples &&
          static_cast<double>(total_activated) / rw >= threshold) {
        break;
      }
    }
    result.influence =
        static_cast<double>(total_activated) /
        static_cast<double>(std::max<uint64_t>(result.samples, 1));
    result.std_error = SampleMeanStdError(
        static_cast<double>(total_activated), sum_squares, result.samples);
    return result;
  }

 private:
  struct DueGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.due > b.due;
    }
  };
  struct VertexState {
    uint64_t visits = 0;
    std::vector<HeapEntry> heap;
  };

  VertexState& StateOf(VertexId v, const EdgeProbFn& probs,
                       uint64_t sample_cap, uint64_t* edge_probes) {
    VertexState& state = states_[v];
    if (state_epoch_[v] == call_epoch_) return state;
    state_epoch_[v] = call_epoch_;
    state.visits = 0;
    state.heap.clear();
    for (const auto& [w, e] : graph_.OutEdges(v)) {
      const double p = probs.Prob(e);
      if (p <= 0.0) continue;
      ++*edge_probes;
      const uint64_t skip = rng_.NextGeometric(p);
      if (skip > sample_cap) continue;
      state.heap.push_back(HeapEntry{skip, w, p});
    }
    std::make_heap(state.heap.begin(), state.heap.end(), DueGreater{});
    return state;
  }

  const Graph& graph_;
  SampleSizePolicy policy_;
  Rng rng_;
  std::vector<VertexState> states_;
  std::vector<uint32_t> state_epoch_;
  std::vector<uint32_t> visit_epoch_;
  uint32_t call_epoch_ = 0;
  uint32_t instance_epoch_ = 0;
};

class ReferenceMcSampler final : public InfluenceOracle {
 public:
  ReferenceMcSampler(const Graph& graph, SampleSizePolicy policy,
                     uint64_t seed)
      : graph_(graph),
        policy_(policy),
        rng_(seed),
        visit_epoch_(graph.num_vertices(), 0) {}

  const char* Name() const override { return "REF-MC"; }

  Estimate EstimateInfluence(VertexId u, const EdgeProbFn& probs) override {
    const ReachableSet reach = ComputeReachable(graph_, probs, u);
    const auto rw = static_cast<double>(reach.vertices.size());
    const double threshold = policy_.StoppingThreshold();
    const uint64_t cap = policy_.SampleCap(reach.vertices.size());

    Estimate result;
    uint64_t total_activated = 0;
    double sum_squares = 0.0;
    std::vector<VertexId> stack;
    for (uint64_t i = 0; i < cap; ++i) {
      ++epoch_;
      stack.assign(1, u);
      visit_epoch_[u] = epoch_;
      uint64_t activated = 1;
      while (!stack.empty()) {
        const VertexId v = stack.back();
        stack.pop_back();
        for (const auto& [w, e] : graph_.OutEdges(v)) {
          const double p = probs.Prob(e);
          if (p <= 0.0) continue;
          ++result.edges_visited;
          if (visit_epoch_[w] == epoch_) continue;
          if (rng_.NextBernoulli(p)) {
            visit_epoch_[w] = epoch_;
            stack.push_back(w);
            ++activated;
          }
        }
      }
      total_activated += activated;
      sum_squares += static_cast<double>(activated) *
                     static_cast<double>(activated);
      ++result.samples;
      if (result.samples >= policy_.min_samples &&
          static_cast<double>(total_activated) / rw >= threshold) {
        break;
      }
    }
    result.influence =
        static_cast<double>(total_activated) /
        static_cast<double>(std::max<uint64_t>(result.samples, 1));
    result.std_error = SampleMeanStdError(
        static_cast<double>(total_activated), sum_squares, result.samples);
    return result;
  }

 private:
  const Graph& graph_;
  SampleSizePolicy policy_;
  Rng rng_;
  std::vector<uint32_t> visit_epoch_;
  uint32_t epoch_ = 0;
};

struct ReferenceHeapNode {
  double bound;
  std::vector<TagId> tags;  // sorted ascending
  bool operator<(const ReferenceHeapNode& other) const {
    return bound < other.bound;
  }
};

struct ReferenceWorstFirst {
  bool operator()(const RankedTagSet& a, const RankedTagSet& b) const {
    return a.influence > b.influence;
  }
};

// Verbatim pre-refactor SolveTopNByBestEffort: vector-owning heap nodes,
// allocating UpperBoundProbs / Posterior, no materialization.
std::vector<RankedTagSet> ReferenceSolveTopN(const SocialNetwork& network,
                                             const PitexQuery& query,
                                             const UpperBoundContext& context,
                                             InfluenceOracle* oracle,
                                             size_t n, PitexResult* stats) {
  PitexResult local_stats;
  PitexResult& counters = stats != nullptr ? *stats : local_stats;
  counters = PitexResult{};

  std::priority_queue<RankedTagSet, std::vector<RankedTagSet>,
                      ReferenceWorstFirst>
      best;
  auto incumbent = [&]() -> double {
    return best.size() < n ? -1.0 : best.top().influence;
  };

  std::priority_queue<ReferenceHeapNode> heap;
  heap.push(
      ReferenceHeapNode{std::numeric_limits<double>::infinity(), {}});
  const size_t num_tags = network.topics.num_tags();

  while (!heap.empty()) {
    ReferenceHeapNode node = heap.top();
    heap.pop();
    if (node.bound <= incumbent()) {
      ++counters.sets_pruned;
      break;
    }
    if (node.tags.size() == query.k) {
      const TopicPosterior posterior = network.topics.Posterior(node.tags);
      const PosteriorProbs probs(network.influence, posterior);
      const Estimate est = oracle->EstimateInfluence(query.user, probs);
      ++counters.sets_evaluated;
      counters.total_samples += est.samples;
      counters.edges_visited += est.edges_visited;
      best.push(RankedTagSet{std::move(node.tags), est.influence});
      if (best.size() > n) best.pop();
      continue;
    }
    const UpperBoundProbs bound_probs(network.influence, context, node.tags,
                                      query.k);
    const Estimate bound_est =
        oracle->EstimateInfluence(query.user, bound_probs);
    ++counters.bounds_evaluated;
    counters.total_samples += bound_est.samples;
    counters.edges_visited += bound_est.edges_visited;
    if (bound_est.influence <= incumbent()) {
      ++counters.sets_pruned;
      continue;
    }
    const TagId limit = node.tags.empty() ? static_cast<TagId>(num_tags)
                                          : node.tags.front();
    const auto start = static_cast<TagId>(query.k - node.tags.size() - 1);
    for (TagId w = start; w < limit; ++w) {
      ReferenceHeapNode child;
      child.bound = bound_est.influence;
      child.tags.reserve(node.tags.size() + 1);
      child.tags.push_back(w);
      child.tags.insert(child.tags.end(), node.tags.begin(),
                        node.tags.end());
      heap.push(std::move(child));
    }
  }

  std::vector<RankedTagSet> result;
  result.reserve(best.size());
  while (!best.empty()) {
    result.push_back(best.top());
    best.pop();
  }
  std::reverse(result.begin(), result.end());
  if (!result.empty()) {
    counters.tags = result.front().tags;
    counters.influence = result.front().influence;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

SampleSizePolicy PolicyFor(size_t num_tags, size_t k) {
  SampleSizePolicy policy;
  policy.num_tags = static_cast<int64_t>(num_tags);
  policy.k = static_cast<int64_t>(k);
  policy.use_phi = true;
  policy.min_samples = 32;
  policy.max_samples = 512;
  return policy;
}

// A denser random model than the running example: 6 tags over 4 topics on
// a 24-vertex random graph, so the search has real ties and pruning.
SocialNetwork MakeRandomNetwork(uint64_t seed) {
  Rng rng(seed);
  const size_t num_vertices = 24, num_topics = 4, num_tags = 6;
  SocialNetwork n;
  GraphBuilder gb(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (int j = 0; j < 3; ++j) {
      const auto w = static_cast<VertexId>(rng.NextBounded(num_vertices));
      if (w != v) gb.AddEdge(v, w);
    }
  }
  n.graph = gb.Build();

  n.topics = TopicModel(num_topics, num_tags);
  for (TagId w = 0; w < num_tags; ++w) {
    for (TopicId z = 0; z < num_topics; ++z) {
      if (rng.NextBernoulli(0.6)) {
        n.topics.SetTagTopic(w, z, 0.1 + 0.9 * rng.NextDouble());
      }
    }
  }
  InfluenceGraphBuilder ib(n.graph.num_edges());
  for (EdgeId e = 0; e < n.graph.num_edges(); ++e) {
    std::vector<EdgeTopicEntry> entries;
    for (TopicId z = 0; z < num_topics; ++z) {
      if (rng.NextBernoulli(0.5)) {
        entries.push_back({z, 0.5 * rng.NextDouble()});
      }
    }
    ib.SetEdgeTopics(e, entries);
  }
  n.influence = ib.Build();
  return n;
}

void ExpectSameRanking(const std::vector<RankedTagSet>& got,
                       const std::vector<RankedTagSet>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].tags, want[i].tags) << "rank " << i;
    EXPECT_EQ(got[i].influence, want[i].influence) << "rank " << i;
  }
}

void ExpectSameCounters(const PitexResult& got, const PitexResult& want) {
  EXPECT_EQ(got.tags, want.tags);
  EXPECT_EQ(got.influence, want.influence);
  EXPECT_EQ(got.sets_evaluated, want.sets_evaluated);
  EXPECT_EQ(got.sets_pruned, want.sets_pruned);
  EXPECT_EQ(got.bounds_evaluated, want.bounds_evaluated);
  EXPECT_EQ(got.total_samples, want.total_samples);
  EXPECT_EQ(got.edges_visited, want.edges_visited);
}

// ---------------------------------------------------------------------------
// Lemma-8 scratch path vs reference path
// ---------------------------------------------------------------------------

void CheckMultipliersMatch(const SocialNetwork& n, size_t k) {
  const UpperBoundContext ctx(n.topics);
  BoundScratch scratch;
  std::vector<std::vector<TagId>> partials = {{}};
  for (TagId a = 0; a < n.topics.num_tags(); ++a) {
    partials.push_back({a});
    for (TagId b = a + 1; b < n.topics.num_tags(); ++b) {
      partials.push_back({a, b});
    }
  }
  for (const auto& partial : partials) {
    if (partial.size() > k) continue;
    const std::vector<double> want = ctx.TopicMultipliers(partial, k);
    ctx.TopicMultipliersInto(partial, k, &scratch);
    ASSERT_EQ(scratch.multipliers.size(), want.size());
    for (size_t z = 0; z < want.size(); ++z) {
      EXPECT_EQ(scratch.multipliers[z], want[z])
          << "topic " << z << " partial size " << partial.size();
      EXPECT_EQ(scratch.compatible[z] != 0,
                ctx.Compatible(partial, static_cast<TopicId>(z)));
    }
  }
}

TEST(BestEffortEquivalenceTest, TopicMultipliersScratchBitIdentical) {
  CheckMultipliersMatch(MakeRunningExample(), 2);
  CheckMultipliersMatch(MakeRunningExample(), 3);
  for (uint64_t seed : {5u, 21u, 99u}) {
    CheckMultipliersMatch(MakeRandomNetwork(seed), 3);
  }
}

// ---------------------------------------------------------------------------
// Sampler estimates: materialized table vs virtual dispatch, new vs
// reference internals
// ---------------------------------------------------------------------------

template <typename NewSampler, typename RefSampler>
void CheckSamplerEquivalence(const SocialNetwork& n, uint64_t seed) {
  ASSERT_GE(n.topics.num_tags(), 4u);
  const SampleSizePolicy policy = PolicyFor(n.topics.num_tags(), 2);
  NewSampler via_table(n.graph, policy, seed);
  NewSampler via_virtual(n.graph, policy, seed);
  RefSampler reference(n.graph, policy, seed);
  MaterializedProbs materialized;
  for (TagId a = 0; a < 4; ++a) {
    for (TagId b = a + 1; b < 4; ++b) {
      const TagId tags[] = {a, b};
      const auto post = n.topics.Posterior(tags);
      const PosteriorProbs probs(n.influence, post);
      materialized.Assign(probs, n.num_edges());
      for (VertexId u = 0; u < n.num_vertices(); u += 3) {
        const Estimate got = via_table.EstimateInfluence(u, materialized);
        const Estimate plain = via_virtual.EstimateInfluence(u, probs);
        const Estimate want = reference.EstimateInfluence(u, probs);
        EXPECT_EQ(got.influence, want.influence) << "user " << u;
        EXPECT_EQ(got.std_error, want.std_error) << "user " << u;
        EXPECT_EQ(got.samples, want.samples) << "user " << u;
        EXPECT_EQ(got.edges_visited, want.edges_visited) << "user " << u;
        EXPECT_EQ(plain.influence, want.influence) << "user " << u;
        EXPECT_EQ(plain.samples, want.samples) << "user " << u;
        EXPECT_EQ(plain.edges_visited, want.edges_visited) << "user " << u;
      }
    }
  }
}

TEST(BestEffortEquivalenceTest, LazyEstimatesBitIdentical) {
  for (uint64_t seed : {3u, 7u, 13u}) {
    CheckSamplerEquivalence<LazySampler, ReferenceLazySampler>(
        MakeRunningExample(), seed);
    CheckSamplerEquivalence<LazySampler, ReferenceLazySampler>(
        MakeRandomNetwork(41), seed);
  }
}

TEST(BestEffortEquivalenceTest, McEstimatesBitIdentical) {
  for (uint64_t seed : {3u, 7u, 13u}) {
    CheckSamplerEquivalence<McSampler, ReferenceMcSampler>(
        MakeRunningExample(), seed);
    CheckSamplerEquivalence<McSampler, ReferenceMcSampler>(
        MakeRandomNetwork(41), seed);
  }
}

// ---------------------------------------------------------------------------
// Full solver: rankings, ties, and counters across seeds, k, and n
// ---------------------------------------------------------------------------

template <typename NewSampler, typename RefSampler>
void CheckSolverEquivalence(const SocialNetwork& n, size_t k, size_t top_n,
                            uint64_t seed) {
  const UpperBoundContext ctx(n.topics);
  const SampleSizePolicy policy = PolicyFor(n.topics.num_tags(), k);
  NewSampler new_sampler(n.graph, policy, seed);
  RefSampler ref_sampler(n.graph, policy, seed);
  const PitexQuery query{.user = 0, .k = k};
  PitexResult got_stats, want_stats;
  const auto got =
      SolveTopNByBestEffort(n, query, ctx, &new_sampler, top_n, &got_stats);
  const auto want =
      ReferenceSolveTopN(n, query, ctx, &ref_sampler, top_n, &want_stats);
  ExpectSameRanking(got, want);
  ExpectSameCounters(got_stats, want_stats);
}

TEST(BestEffortEquivalenceTest, LazyRankingsBitIdentical) {
  const SocialNetwork running = MakeRunningExample();
  const SocialNetwork random = MakeRandomNetwork(77);
  for (uint64_t seed : {3u, 7u, 11u, 19u}) {
    for (size_t k = 1; k <= 4; ++k) {
      for (size_t top_n : {size_t{1}, size_t{3}, size_t{10}}) {
        CheckSolverEquivalence<LazySampler, ReferenceLazySampler>(
            running, k, top_n, seed);
        CheckSolverEquivalence<LazySampler, ReferenceLazySampler>(
            random, k, top_n, seed);
      }
    }
  }
}

TEST(BestEffortEquivalenceTest, McRankingsBitIdentical) {
  const SocialNetwork running = MakeRunningExample();
  for (uint64_t seed : {3u, 11u}) {
    for (size_t k = 1; k <= 3; ++k) {
      CheckSolverEquivalence<McSampler, ReferenceMcSampler>(running, k, 2,
                                                            seed);
    }
  }
}

TEST(BestEffortEquivalenceTest, ScratchReuseAcrossQueryShapes) {
  // One scratch serving interleaved shapes (k and n change between
  // queries) must behave exactly like fresh state every time.
  const SocialNetwork n = MakeRandomNetwork(123);
  const UpperBoundContext ctx(n.topics);
  BestEffortScratch scratch;
  std::vector<RankedTagSet> out;
  const size_t shapes[][2] = {{2, 1}, {3, 4}, {1, 2}, {2, 3}, {3, 1}};
  for (const auto& shape : shapes) {
    const size_t k = shape[0], top_n = shape[1];
    const SampleSizePolicy policy = PolicyFor(n.topics.num_tags(), k);
    LazySampler new_sampler(n.graph, policy, 5);
    ReferenceLazySampler ref_sampler(n.graph, policy, 5);
    const PitexQuery query{.user = 2, .k = k};
    PitexResult got_stats, want_stats;
    SolveTopNByBestEffort(n, query, ctx, &new_sampler, top_n, &out,
                          &got_stats, &scratch);
    const auto want =
        ReferenceSolveTopN(n, query, ctx, &ref_sampler, top_n, &want_stats);
    ExpectSameRanking(out, want);
    ExpectSameCounters(got_stats, want_stats);
  }
}

// ---------------------------------------------------------------------------
// The zero-allocation guarantee
// ---------------------------------------------------------------------------

TEST(BestEffortEquivalenceTest, SolverAllocatesNothingAtSteadyState) {
  const SocialNetwork n = MakeRunningExample();
  const UpperBoundContext ctx(n.topics);
  const SampleSizePolicy policy = PolicyFor(n.topics.num_tags(), 2);
  LazySampler sampler(n.graph, policy, 9);
  BestEffortScratch scratch;
  std::vector<RankedTagSet> out;
  PitexResult stats;
  const PitexQuery query{.user = 0, .k = 2};

  // Warmup: grows every pooled capacity (arena, bound scratch, incumbent
  // slots, sampler heaps/reach) to this query shape's high-water mark.
  // The sampler's RNG advances between calls, so sizes wobble a little —
  // a generous warmup covers the envelope.
  double sink = 0.0;
  for (int i = 0; i < 50; ++i) {
    SolveTopNByBestEffort(n, query, ctx, &sampler, 3, &out, &stats, &scratch);
    sink += stats.influence;
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 25; ++i) {
    SolveTopNByBestEffort(n, query, ctx, &sampler, 3, &out, &stats, &scratch);
    sink += stats.influence;
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "best-effort steady state allocated";
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace pitex
