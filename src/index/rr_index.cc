#include "src/index/rr_index.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/index/sketch_arena.h"
#include "src/util/chernoff.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace pitex {

double RrIndex::TheoreticalTheta(const RrIndexOptions& options,
                                 size_t num_vertices, size_t num_tags) {
  const double log_terms = std::log(options.delta) +
                           LogPhi(static_cast<int64_t>(num_tags),
                                  options.cap_k) +
                           std::log(2.0);
  return (2.0 + options.eps) / (options.eps * options.eps) *
         static_cast<double>(num_vertices) * log_terms;
}

RrIndex::RrIndex(const SocialNetwork& network, const RrIndexOptions& options)
    : network_(network),
      options_(options),
      theta_(ThetaFor(network.num_vertices(), options)),
      pool_(std::make_shared<const RrSketchPool>()) {}

uint64_t RrIndex::ThetaFor(size_t num_vertices,
                           const RrIndexOptions& options) {
  if (options.theta_override > 0) return options.theta_override;
  const double theta =
      options.theta_per_vertex * static_cast<double>(num_vertices);
  return std::min<uint64_t>(
      options.max_theta,
      std::max<uint64_t>(64, static_cast<uint64_t>(std::llround(theta))));
}

std::unique_ptr<RrIndex> RrIndex::FromPool(
    const SocialNetwork& network, const RrIndexOptions& options,
    uint64_t theta, std::shared_ptr<const RrSketchPool> base,
    std::shared_ptr<const RrSketchOverlay> overlay) {
  PITEX_CHECK(theta > 0 && base != nullptr);
  PITEX_CHECK_MSG(theta == base->num_sketches(),
                  "theta must equal the base pool's sketch count");
  RrIndexOptions adopted = options;
  adopted.theta_override = theta;
  auto index = std::make_unique<RrIndex>(network, adopted);
  index->pool_ = std::move(base);
  index->overlay_ = std::move(overlay);
  index->built_ = true;
  return index;
}

RrSketchPool SampleSketchPool(const Graph& graph,
                              const EnvelopeTable& envelope, uint64_t theta,
                              uint64_t seed, size_t num_threads,
                              ThreadPool* pool) {
  // A root drawn from no vertices is undefined: fail before the first
  // draw.
  PITEX_CHECK_MSG(theta == 0 || graph.num_vertices() > 0,
                  "cannot sample RR-Graphs of a network with no vertices");
  // Sketch ids, and so the root starts, are u32.
  PITEX_CHECK_MSG(theta < UINT32_MAX,
                  "sketch pool exceeds its directory words");
  // Roots first: sample i's root is the first draw of its stream, so
  // every root is drawn before any sketch is, and a stable counting sort
  // of the samples by root gives each its final id (by root, and among
  // one root's by sample) and the root starts. Sample i's stream is
  // drawn again when its sketch is generated.
  const size_t num_vertices = graph.num_vertices();
  std::vector<uint32_t> starts(num_vertices + 1, 0);
  std::vector<uint32_t> sample_of(theta);  // by id, once sorted
  {
    std::vector<VertexId> roots(theta);
    for (uint64_t i = 0; i < theta; ++i) {
      roots[i] = static_cast<VertexId>(
          SampleStream(seed, i).NextBounded(num_vertices));
      ++starts[roots[i] + 1];
    }
    for (size_t v = 0; v < num_vertices; ++v) starts[v + 1] += starts[v];
    std::vector<uint32_t> next(starts.begin(), starts.end() - 1);
    for (uint64_t i = 0; i < theta; ++i) {
      sample_of[next[roots[i]]++] = static_cast<uint32_t>(i);
    }
  }
  // Every worker slot generates straight into its own run, in pool
  // layout, with its own scratch arena (zero allocations at steady
  // state), each sketch at its final id. ParallelForSlots claims
  // contiguous id ranges, so a slot opens a segment whenever an id does
  // not follow its last one; FromRuns copies the segments into the pool
  // with the root starts. Each sample i owns an independent RNG stream
  // derived from (seed, i), making the pool bit-identical regardless of
  // thread count.
  const size_t threads = std::max<size_t>(1, num_threads);
  std::unique_ptr<ThreadPool> local_pool;
  if (pool == nullptr && threads > 1 && theta >= 2 * threads) {
    local_pool = std::make_unique<ThreadPool>(threads);
    pool = local_pool.get();
  }
  if (theta < 2) pool = nullptr;
  const size_t slots =
      pool == nullptr ? 1 : std::min<size_t>(pool->num_threads(), theta);
  // Each slot's state starts a cache line of its own: slots append
  // concurrently, and a vector header sharing a line with another
  // slot's would move between cores on every sketch.
  struct alignas(64) SlotState {
    SketchArena arena;
    RrSketchPool run;
    std::vector<RrSketchPool::Segment> segments;
  };
  std::vector<SlotState> state(slots);
  const RrSketchPool network(graph);
  for (SlotState& s : state) s.run = network.EmptyLike();
  auto generate = [&](size_t slot, size_t id) {
    RrSketchPool& run = state[slot].run;
    std::vector<RrSketchPool::Segment>& open = state[slot].segments;
    if (open.empty() || open.back().id + open.back().count != id) {
      open.push_back({id, &run, static_cast<uint32_t>(run.num_sketches()), 0});
    }
    ++open.back().count;
    Rng rng = SampleStream(seed, sample_of[id]);
    const auto root = static_cast<VertexId>(rng.NextBounded(num_vertices));
    state[slot].arena.Generate(graph, envelope, root, &rng, &run);
    // The sketch generated is rooted in its id's root range.
    PITEX_DCHECK([&] {
      const VertexId got = run.RootOf(run.num_sketches() - 1);
      return starts[got] <= id && id < starts[got + 1];
    }());
  };
  if (pool != nullptr) {
    ParallelForSlots(pool, 0, theta, generate);
  } else {
    for (uint64_t id = 0; id < theta; ++id) generate(0, id);
  }
  std::vector<RrSketchPool::Segment> all;
  for (const SlotState& s : state) {
    all.insert(all.end(), s.segments.begin(), s.segments.end());
  }
  return RrSketchPool::FromRuns(all, starts, network);
}

Rng SampleStream(uint64_t seed, uint64_t i, uint64_t version) {
  uint64_t mix = seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
  if (version > 0) mix ^= 0xbf58476d1ce4e5b9ULL * version;
  return Rng(SplitMix64(&mix));
}

void RrIndex::Build(ThreadPool* pool) {
  PITEX_CHECK_MSG(!built_, "Build() called twice");
  Timer timer;
  // The envelope table is materialized once (O(|E|)) for the sampling
  // pass.
  const EnvelopeTable envelope(network_.graph, network_.influence);
  pool_ = std::make_shared<const RrSketchPool>(
      SampleSketchPool(network_.graph, envelope, theta_, options_.seed,
                       options_.num_build_threads, pool));
  built_ = true;
  build_seconds_ = timer.Seconds();
}

PITEX_NOALLOC Estimate RrIndex::EstimateInfluence(
    VertexId u, const EdgeProbFn& probs, EstimateScratch* scratch) const {
  PITEX_CHECK_MSG(built_, "index not built");
  Estimate result;
  // u reaches the root of every RR-Graph it roots, visiting no edge:
  // its root range is that many hits. Only the rest are walked.
  uint64_t hits = RootRange(u).size();
  result.samples = hits;
  const auto count = [&](const RRView& rr) {
    ++result.samples;
    if (IsReachable(rr, u, probs, &result.edges_visited, scratch)) ++hits;
  };
  // The overlay check is hoisted out of the loop: an index without
  // repairs walks the base pool exactly as a freshly built one does.
  const RrSketchPool& base = *pool_;
  if (repairs() == nullptr) {
    const ContainingList list = base.NonRootContaining(u);
    for (auto it = list.begin(); it != list.end(); ++it) {
      RRView rr = base.RootedView(*it, it.root());
      rr.thresholds = Thresholds(*it);
      count(rr);
    }
  } else {
    const ContainingList list = NonRootContaining(u);
    for (auto it = list.begin(); it != list.end(); ++it) {
      count(RootedGraph(*it, it.root()));
    }
  }
  result.influence = static_cast<double>(hits) /
                     static_cast<double>(theta_) *
                     static_cast<double>(network_.num_vertices());
  result.influence = std::max(result.influence, 1.0);
  // Over all theta offline samples, the observation for sample i is
  // |V| * 1[u in graph i and u ~>_W root_i].
  const auto scale = static_cast<double>(network_.num_vertices());
  result.std_error = SampleMeanStdError(
      static_cast<double>(hits) * scale,
      static_cast<double>(hits) * scale * scale, theta_);
  return result;
}

Estimate RrIndex::EstimateInfluence(VertexId u, const EdgeProbFn& probs) {
  // One RrIndex backs many concurrent readers (PitexService shares it
  // across workers), so the oracle-interface entry point keeps its
  // scratch per thread: concurrent estimates stay safe and allocation-
  // free without any caller-side plumbing. Pre-sizing to the largest
  // sketch makes the very first walk allocation-free too.
  thread_local EstimateScratch scratch;
  scratch.Reserve(max_sketch_vertices());
  return EstimateInfluence(u, probs, &scratch);
}

size_t RrIndex::max_sketch_vertices() const {
  const RrSketchOverlay* overlay = repairs();
  return std::max(pool_->max_sketch_vertices(),
                  overlay == nullptr ? 0 : overlay->max_sketch_vertices());
}

size_t RrIndex::SizeBytes() const {
  const RrSketchOverlay* overlay = repairs();
  return sizeof(RrIndex) + pool_->SizeBytes() +
         (overlay == nullptr ? 0 : overlay->SizeBytes());
}

}  // namespace pitex
