// Component micro-benchmarks (google-benchmark): the hot primitives every
// PITEX query is built from.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/engine.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/admission.h"
#include "src/util/failpoint.h"
#include "src/index/dynamic_index.h"
#include "src/index/index_io.h"
#include "src/index/rr_graph.h"
#include "src/index/rr_index.h"
#include "src/index/rr_sketch_pool.h"
#include "src/index/sketch_arena.h"
#include "src/sampling/lazy_sampler.h"
#include "src/sampling/mc_sampler.h"
#include "src/sampling/rr_sampler.h"
#include "src/sampling/sketch_oracle.h"
#include "src/serve/replication.h"
#include "src/serve/snapshot_registry.h"
#include "src/serve/wal.h"
#include "src/util/serialize.h"
#include "src/util/thread_pool.h"

#include <filesystem>

namespace {

using namespace pitex;

const SocialNetwork& Network() {
  static const SocialNetwork* network =
      new SocialNetwork(GenerateDataset(DiggsSpec(0.1)));
  return *network;
}

void BM_Posterior(benchmark::State& state) {
  const auto& n = Network();
  const auto k = static_cast<size_t>(state.range(0));
  std::vector<TagId> tags(k);
  for (size_t i = 0; i < k; ++i) tags[i] = static_cast<TagId>(i * 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(n.topics.Posterior(tags));
  }
}
BENCHMARK(BM_Posterior)->Arg(1)->Arg(3)->Arg(5);

void BM_EdgeProbSparseDot(benchmark::State& state) {
  const auto& n = Network();
  const TagId tags[] = {0, 3};
  const auto post = n.topics.Posterior(tags);
  EdgeId e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(n.influence.EdgeProb(e, post));
    e = (e + 1) % n.num_edges();
  }
}
BENCHMARK(BM_EdgeProbSparseDot);

void BM_GeometricSkip(benchmark::State& state) {
  Rng rng(1);
  const double p = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextGeometric(p));
  }
}
BENCHMARK(BM_GeometricSkip)->Arg(10)->Arg(1000);

void BM_ReachableSet(benchmark::State& state) {
  const auto& n = Network();
  const TagId tags[] = {0, 3};
  const auto post = n.topics.Posterior(tags);
  const auto users = SampleUserGroup(n.graph, UserGroup::kHigh, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeReachableSet(n.graph, n.influence, post, users[0]));
  }
}
BENCHMARK(BM_ReachableSet);

void BM_GenerateRRGraph(benchmark::State& state) {
  // One table-free sketch per iteration, into a cleared one-sketch run.
  const auto& n = Network();
  Rng rng(2);
  SketchArena arena;
  RrSketchPool run(n.graph);
  for (auto _ : state) {
    const auto root =
        static_cast<VertexId>(rng.NextBounded(n.num_vertices()));
    run.Clear();
    arena.Generate(n.graph, n.influence, root, &rng, &run);
    benchmark::DoNotOptimize(run.View(0, root));
  }
}
BENCHMARK(BM_GenerateRRGraph);

template <typename Sampler>
void BM_OnlineEstimate(benchmark::State& state) {
  const auto& n = Network();
  SampleSizePolicy policy;
  policy.num_tags = static_cast<int64_t>(n.topics.num_tags());
  policy.k = 2;
  policy.min_samples = 64;
  policy.max_samples = static_cast<uint64_t>(state.range(0));
  Sampler sampler(n.graph, policy, 3);
  const TagId tags[] = {0, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);
  const auto users = SampleUserGroup(n.graph, UserGroup::kHigh, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.EstimateInfluence(users[0], probs));
  }
}
BENCHMARK_TEMPLATE(BM_OnlineEstimate, McSampler)->Arg(256);
BENCHMARK_TEMPLATE(BM_OnlineEstimate, RrSampler)->Arg(256);
BENCHMARK_TEMPLATE(BM_OnlineEstimate, LazySampler)->Arg(256);

void BM_IndexBuild(benchmark::State& state) {
  // Full offline index construction (Def.-2 sampling + pool pack) at
  // bench scale, swept over build threads for per-thread scaling.
  const auto& n = Network();
  RrIndexOptions options;
  options.theta_per_vertex = 4.0;
  options.num_build_threads = static_cast<size_t>(state.range(0));
  uint64_t sketches = 0;
  for (auto _ : state) {
    RrIndex index(n, options);
    index.Build();
    sketches += index.num_graphs();
    benchmark::DoNotOptimize(index.SizeBytes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(sketches));
}
BENCHMARK(BM_IndexBuild)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotPublish(benchmark::State& state) {
  // Serve-mode epoch swap: freeze the master (an O(1) network copy, the
  // shared base pool and a frozen copy of the overlay) into an immutable
  // RrIndex replica and publish the snapshot. Arg is the number of
  // single-edge update batches staged in the master's overlay before
  // the timed freezes (0 = empty overlay).
  const auto batches = static_cast<uint64_t>(state.range(0));
  RrIndexOptions options;
  options.theta_per_vertex = 4.0;
  DynamicRrIndex master(Network(), options);
  master.Build();
  for (uint64_t b = 0; b < batches; ++b) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>(b * 7919 % Network().num_edges());
    update.entries = {{0, 0.05 + 0.9 * static_cast<double>(b % 7) / 7.0}};
    master.ApplyUpdates(std::span(&update, 1));
  }
  IndexSnapshotRegistry registry;
  uint64_t epoch = 0;
  for (auto _ : state) {
    registry.Publish(IndexSnapshot::FromDynamic(master, ++epoch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  // Exact counts, where the time is noisy: the sketch copies each freeze
  // copies with the overlay, and the bytes a published replica serves
  // (the shared base and its overlay copy).
  state.counters["overlay_sketches"] =
      static_cast<double>(master.overlay_sketches());
  state.counters["pool_bytes"] = static_cast<double>(
      master.Freeze(master.network(), /*compact=*/false)->SizeBytes());
}
BENCHMARK(BM_SnapshotPublish)->Arg(0)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_CompactOverlay(benchmark::State& state) {
  // Compaction: DynamicRrIndex::Compact folds the master's overlay into a
  // new base pool. Arg is the number of single-edge update batches staged
  // in the overlay before each timed Compact(); the staging runs with
  // the timer paused. Each round moves every staged edge to another
  // probability, so every round repairs.
  const auto batches = static_cast<uint64_t>(state.range(0));
  RrIndexOptions options;
  options.theta_per_vertex = 4.0;
  DynamicRrIndex master(Network(), options);
  master.Build();
  uint64_t round = 0;
  const auto stage = [&] {
    for (uint64_t b = 0; b < batches; ++b) {
      EdgeInfluenceUpdate update;
      update.edge = static_cast<EdgeId>(b * 7919 % Network().num_edges());
      update.entries = {
          {0, 0.05 + 0.9 * static_cast<double>((b + round) % 7) / 7.0}};
      master.ApplyUpdates(std::span(&update, 1));
    }
    ++round;
  };
  // The first round's compacted base, counted once: an exact size where
  // the time is noisy.
  stage();
  master.Compact();
  const size_t pool_bytes =
      master.Freeze(master.network(), /*compact=*/false)->pool().SizeBytes();
  for (auto _ : state) {
    state.PauseTiming();
    stage();
    state.ResumeTiming();
    master.Compact();
  }
  state.counters["pool_bytes"] = static_cast<double>(pool_bytes);
}
BENCHMARK(BM_CompactOverlay)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_WalAppend(benchmark::State& state) {
  // Durable update logging: append edge-update batches and group-commit
  // every Arg batches with one fsync. Arg=1 is the PitexService
  // behavior (commit per acknowledged batch); larger groups show how
  // much of the cost is the fsync barrier vs the framing + write(2).
  const auto group = static_cast<uint64_t>(state.range(0));
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pitex_bm_wal").string();
  std::filesystem::remove_all(dir);
  std::string error;
  auto wal = WriteAheadLog::Open(dir, /*next_lsn=*/1, WalOptions(), &error);
  if (wal == nullptr) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::vector<EdgeInfluenceUpdate> batch(1);
  batch[0].edge = 7;
  batch[0].entries = {{0, 0.3}, {1, 0.25}, {2, 0.1}};
  uint64_t pending = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal->Append(batch));
    if (++pending == group) {
      if (!wal->Sync()) state.SkipWithError("wal fsync failed");
      pending = 0;
    }
  }
  if (pending != 0) (void)wal->Sync();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  wal.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_WalShip(benchmark::State& state) {
  // Replication shipping path minus the disk: put the term in front of
  // one committed record's stored payload (built once, as ReadWalAfter
  // hands it to the shipper), frame it, push it through the in-process
  // transport, and decode it on the follower side. Arg is the
  // updates-per-batch fan-in; the items rate is records/s
  // (docs/perf.md).
  const auto batch_size = static_cast<size_t>(state.range(0));
  auto [primary_end, follower_end] = MakeInProcessTransportPair();
  std::vector<EdgeInfluenceUpdate> updates(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    updates[i].edge = static_cast<EdgeId>(i);
    updates[i].entries = {{0, 0.3}, {1, 0.25}, {2, 0.1}};
  }
  constexpr uint64_t kLsn = 1;
  std::ostringstream stored;
  BinaryWriter writer(&stored);
  WriteWalRecord(&writer, kLsn, updates);
  const std::string body = std::move(stored).str();
  ReplFrame frame;
  for (auto _ : state) {
    if (!primary_end->Send(EncodeRecordMsg(/*term=*/1, body))) {
      state.SkipWithError("transport send failed");
      return;
    }
    if (follower_end->Recv(&frame, std::chrono::milliseconds(1000)) !=
        ReplicationTransport::RecvStatus::kFrame) {
      state.SkipWithError("transport recv failed");
      return;
    }
    ReplRecordMsg decoded;
    if (!DecodeRecordMsg(frame, &decoded) || decoded.lsn != kLsn) {
      state.SkipWithError("record decode failed");
      return;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(batch_size),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WalShip)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_IndexEstimate(benchmark::State& state) {
  const auto& n = Network();
  static RrIndex* index = [] {
    RrIndexOptions options;
    options.theta_per_vertex = 4.0;
    auto* idx = new RrIndex(Network(), options);
    idx->Build();
    return idx;
  }();
  const TagId tags[] = {0, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);
  const auto users = SampleUserGroup(n.graph, UserGroup::kHigh, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->EstimateInfluence(users[0], probs));
  }
}
BENCHMARK(BM_IndexEstimate);

// Where sketch `rr`'s block starts: its varint header of n << 1 and the
// in-tree flag (1 byte while n <= 63), and the varint of m in a block
// that is not an in-tree, come right before its fields.
const uint8_t* BlockStart(const RRView& rr) {
  if (rr.IsTree()) {
    return rr.tree - VarintLength(uint64_t{rr.vertices.size()} << 1 | 1);
  }
  return rr.vertices.ids().data -
         VarintLength(uint64_t{rr.vertices.size()} << 1) -
         VarintLength(rr.num_edges());
}

// Where block `rr` ends: past the byte of its last field's last bit (a
// parent tree's last rank, another block's last record).
const uint8_t* BlockEnd(const RRView& rr) {
  if (!rr.IsTree()) {
    return rr.ranks.data +
           (rr.ranks.first + uint64_t{rr.ranks.bits} * rr.num_edges() + 7) /
               8;
  }
  static TreeScratch tree;
  const auto n = static_cast<uint32_t>(rr.vertices.size());
  DecodeTree(rr, kNoVertex, &tree);
  uint64_t bits = 0;
  for (uint32_t j = 1; j < n; ++j) {
    bits += IdBits(n - 1) +
            IdBits(rr.topology->InDegree(tree.vertex(tree.parent(j))));
  }
  return rr.tree + (bits + 7) / 8;
}

// True for an implicit singleton, which has no block and no directory
// word: only its clear bit in its group's mask.
bool IsSingleton(const RRView& rr) {
  return rr.vertices.size() == 1 && rr.num_edges() == 0;
}

// The 64-byte lines of pool memory an estimate walk over `rr` reads
// outside its block: its group's 16-byte directory record (aligned to 16
// bytes, so never across a line), all a singleton's walk reads, and, for
// a block, its word (2 or 4 bytes, never across a line).
uint64_t DirectoryLines(const RRView& rr) { return IsSingleton(rr) ? 1 : 2; }

// Appends the 64-byte lines of a block to `lines`: it runs without gaps
// from its header through the byte of its last field's last bit. Lines
// are counted from
// `body`, the pool's first block, as if the body started a line, so the
// count does not depend on where the heap placed the body.
void AppendBlockLines(const RRView& rr, const uint8_t* body,
                      std::vector<uint64_t>* lines) {
  const auto line = [body](const uint8_t* p) {
    return static_cast<uint64_t>(p - body) / 64;
  };
  const uint8_t* end = BlockEnd(rr);
  for (uint64_t l = line(BlockStart(rr)); l <= line(end - 1); ++l) {
    lines->push_back(l);
  }
}

// Forwards Prob to `probs` and records each edge it is asked for: the
// edges a walk probes, in order, as IsReachable asks each probed edge's
// probability once, right after it decodes the edge's id.
class RecordingProbs final : public EdgeProbFn {
 public:
  explicit RecordingProbs(const EdgeProbFn& probs) : probs_(&probs) {}
  double Prob(EdgeId e) const override {
    edges.push_back(e);
    return probs_->Prob(e);
  }
  mutable std::vector<EdgeId> edges;

 private:
  const EdgeProbFn* probs_;
};

// The graph's adjacency arrays, as GraphLine names their lines.
enum class GraphArray : uint64_t {
  kOutOffsets,
  kOutEntries,
  kInOffsets,
  kInEntries
};

// The key of the 64-byte line that holds entry `index` of `array`, of
// `entry_bytes` each: the array, then the line, counted from the array's
// first entry as if it started a line, so the count does not depend on
// where the heap placed the arrays.
uint64_t GraphLine(GraphArray array, uint64_t index, uint64_t entry_bytes) {
  return static_cast<uint64_t>(array) << 58 | index * entry_bytes / 64;
}

// Appends the lines of the graph's adjacency arrays IsReachable reads
// over `rr` from `u`, whose probed edges were `probed`. A parent tree is
// decoded up to u (DecodeTree): each vertex decoded reads its parent's
// in-list offsets (its length sets the rank's width) and its entry in
// that in-list, and the chase that follows reads none. A general-form
// walk decodes each probed edge (RRView::Edge): its tail's out-list
// offset and its entry in that out-list.
void AppendGraphLines(const RRView& rr, VertexId u,
                      std::span<const EdgeId> probed,
                      std::vector<uint64_t>* lines) {
  const Graph& graph = *rr.topology;
  if (rr.IsTree()) {
    static TreeScratch tree;
    const AdjEntry* entries = graph.InEdges(0).data();
    const uint32_t last = std::min<uint32_t>(
        DecodeTree(rr, u, &tree),
        static_cast<uint32_t>(rr.vertices.size()) - 1);
    for (uint32_t j = 1; j <= last; ++j) {
      const VertexId parent = tree.vertex(tree.parent(j));
      lines->push_back(
          GraphLine(GraphArray::kInOffsets, parent, sizeof(uint64_t)));
      lines->push_back(
          GraphLine(GraphArray::kInOffsets, parent + 1, sizeof(uint64_t)));
      const auto entry = static_cast<uint64_t>(
          graph.InEdges(parent).data() - entries + tree.rank(j));
      lines->push_back(
          GraphLine(GraphArray::kInEntries, entry, sizeof(AdjEntry)));
    }
    return;
  }
  const AdjEntry* entries = graph.OutEdges(0).data();
  for (const EdgeId e : probed) {
    const VertexId tail = graph.Tail(e);
    lines->push_back(
        GraphLine(GraphArray::kOutOffsets, tail, sizeof(uint64_t)));
    const auto entry = static_cast<uint64_t>(
        graph.OutEdges(tail).data() - entries + graph.OutRank(tail, e));
    lines->push_back(
        GraphLine(GraphArray::kOutEntries, entry, sizeof(AdjEntry)));
  }
}

void BM_IndexEstimateSweep(benchmark::State& state) {
  // Sweeps the query user round-robin over the whole vertex set: the
  // aggregate estimate hot path (thousands of tiny sketch walks), which is
  // what the pooled layout and scratch reuse target.
  const auto& n = Network();
  static RrIndex* index = [] {
    RrIndexOptions options;
    options.theta_per_vertex = 4.0;
    auto* idx = new RrIndex(Network(), options);
    idx->Build();
    return idx;
  }();
  const TagId tags[] = {0, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);
  // Means over one sweep of every user: edges_visited per estimate;
  // pool_lines, the lines of pool memory an estimate's walks over
  // NonRootContaining(u) read, the sketches it views (its root range is
  // counted from the range's size alone): each sketch's DirectoryLines,
  // and each distinct line of their blocks once, however many of the
  // blocks it holds; containing_bytes, the coded length of
  // NonRootContaining(u) as the pool stores it, in bytes (its bits / 8);
  // graph_lines, the distinct lines of the graph's adjacency arrays those
  // walks read (AppendGraphLines), counted like pool_lines. Counted once outside the timed loop: exact counts of the work and
  // memory one estimate spans, where the time is noisy, and the same
  // whatever the iteration count or the heap's placement.
  struct Sweep {
    double edges_visited, pool_lines, containing_bytes, graph_lines;
  };
  static const Sweep sweep = [&n, &probs] {
    // The first block starts the body: every block is in some root
    // range.
    const uint8_t* body = nullptr;
    for (VertexId v = 0; v < n.num_vertices(); ++v) {
      for (const uint32_t id : index->RootRange(v)) {
        const RRView rr = index->graph(id, v);
        if (!IsSingleton(rr) && (body == nullptr || BlockStart(rr) < body)) {
          body = BlockStart(rr);
        }
      }
    }
    uint64_t edges = 0;
    uint64_t lines = 0;
    uint64_t bits = 0;
    uint64_t graph_lines = 0;
    std::vector<uint64_t> block_lines;
    std::vector<uint64_t> adjacency_lines;
    const auto distinct = [](std::vector<uint64_t>* keys) {
      std::ranges::sort(*keys);
      return static_cast<uint64_t>(std::ranges::unique(*keys).begin() -
                                   keys->begin());
    };
    RecordingProbs recording(probs);
    for (VertexId v = 0; v < n.num_vertices(); ++v) {
      edges += index->EstimateInfluence(v, probs).edges_visited;
      const ContainingList list = index->NonRootContaining(v);
      block_lines.clear();
      adjacency_lines.clear();
      for (auto it = list.begin(); it != list.end(); ++it) {
        const RRView rr = index->RootedGraph(*it, it.root());
        lines += DirectoryLines(rr);
        if (!IsSingleton(rr)) AppendBlockLines(rr, body, &block_lines);
        recording.edges.clear();
        IsReachable(rr, v, recording, nullptr);
        AppendGraphLines(rr, v, recording.edges, &adjacency_lines);
      }
      lines += distinct(&block_lines);
      graph_lines += distinct(&adjacency_lines);
      bits += list.bits();
    }
    const auto users = static_cast<double>(n.num_vertices());
    return Sweep{static_cast<double>(edges) / users,
                 static_cast<double>(lines) / users,
                 static_cast<double>(bits) / 8 / users,
                 static_cast<double>(graph_lines) / users};
  }();
  VertexId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->EstimateInfluence(u, probs));
    u = (u + 1) % static_cast<VertexId>(n.num_vertices());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["edges_visited"] = sweep.edges_visited;
  state.counters["pool_lines"] = sweep.pool_lines;
  state.counters["containing_bytes"] = sweep.containing_bytes;
  state.counters["graph_lines"] = sweep.graph_lines;
  // The swept index's exact footprint, and its directory's share.
  state.counters["pool_bytes"] = static_cast<double>(index->SizeBytes());
  state.counters["directory_bytes"] =
      static_cast<double>(index->pool().DirectoryBytes());
}
BENCHMARK(BM_IndexEstimateSweep);

void BM_IsReachable(benchmark::State& state) {
  // Raw Definition-3 reachability over one pre-built index's non-trivial
  // sketches (u != root, so the BFS actually runs): isolates the per-call
  // visited/stack cost from estimator bookkeeping.
  const auto& n = Network();
  static RrIndex* index = [] {
    RrIndexOptions options;
    options.theta_per_vertex = 4.0;
    auto* idx = new RrIndex(Network(), options);
    idx->Build();
    return idx;
  }();
  const TagId tags[] = {0, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);
  // (sketch, user) pairs where the user is a non-root member, so the
  // BFS actually walks edges: each sketch's first such member, viewed
  // through its root. 1,024 of them at an even stride across the whole
  // index, so the pairs span every root's range (ids follow roots).
  struct Pair {
    uint32_t id;
    VertexId root;
    VertexId u;
  };
  std::vector<Pair> all;
  DecodedSketch decoded;
  for (VertexId root = 0; root < n.num_vertices(); ++root) {
    for (const uint32_t id : index->RootRange(root)) {
      Decode(index->graph(id, root), &decoded);
      for (const VertexId v : decoded.vertices) {
        if (v != root) {
          all.push_back({id, root, v});
          break;
        }
      }
    }
  }
  std::vector<Pair> pairs;
  const size_t stride = std::max<size_t>(1, all.size() / 1024);
  for (size_t i = 0; i < all.size() && pairs.size() < 1024; i += stride) {
    pairs.push_back(all[i]);
  }
  if (pairs.empty()) {
    state.SkipWithError("no RR-Graph has a non-root member");
    return;
  }
  EstimateScratch scratch;
  size_t next = 0;
  uint64_t visits = 0;
  for (auto _ : state) {
    const Pair& pair = pairs[next];
    benchmark::DoNotOptimize(IsReachable(index->RootedGraph(pair.id, pair.root),
                                         pair.u, probs, &visits, &scratch));
    next = (next + 1) % pairs.size();
  }
}
BENCHMARK(BM_IsReachable);

void BM_UpperBoundProbs(benchmark::State& state) {
  const auto& n = Network();
  static const UpperBoundContext* ctx = new UpperBoundContext(n.topics);
  const TagId partial[] = {0};
  for (auto _ : state) {
    const UpperBoundProbs bound(n.influence, *ctx, partial, 3);
    benchmark::DoNotOptimize(bound.Prob(0));
  }
}
BENCHMARK(BM_UpperBoundProbs);

void BM_UpperBoundMultipliers(benchmark::State& state) {
  // The Lemma-8 topic-multiplier computation, once per explored partial
  // set in best-effort search — the bound-side hot path, measured through
  // the scratch-based production entry point.
  const auto& n = Network();
  static const UpperBoundContext* ctx = new UpperBoundContext(n.topics);
  static BoundScratch* scratch = new BoundScratch();
  const auto size = static_cast<size_t>(state.range(0));
  std::vector<TagId> partial(size);
  for (size_t i = 0; i < size; ++i) partial[i] = static_cast<TagId>(i * 2);
  for (auto _ : state) {
    ctx->TopicMultipliersInto(partial, 4, scratch);
    benchmark::DoNotOptimize(scratch->multipliers.data());
  }
}
BENCHMARK(BM_UpperBoundMultipliers)->Arg(1)->Arg(3);

void BM_LazySamplerEstimate(benchmark::State& state) {
  // One lazy-propagation estimate exactly as the best-effort solver
  // drives it per explored node (fixed tag set, reused sampler; the
  // sampler self-materializes the probabilities during its sweep).
  const auto& n = Network();
  SampleSizePolicy policy;
  policy.num_tags = static_cast<int64_t>(n.topics.num_tags());
  policy.k = 2;
  policy.use_phi = true;
  policy.min_samples = 32;
  policy.max_samples = 256;
  LazySampler sampler(n.graph, policy, 3);
  const TagId tags[] = {0, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);
  const auto users = SampleUserGroup(n.graph, UserGroup::kHigh, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.EstimateInfluence(users[0], probs));
  }
}
BENCHMARK(BM_LazySamplerEstimate);

void BM_BestEffortQuery(benchmark::State& state) {
  // End-to-end best-effort PITEX query (Sec. 5 / Algorithm 1) through the
  // engine facade with the LAZY oracle: heap exploration, Lemma-8 bounds,
  // and online sampling together.
  const auto& n = Network();
  EngineOptions options = [] {
    EngineOptions o;
    o.method = Method::kLazy;
    o.best_effort = true;
    o.min_samples = 32;
    o.max_samples = 256;
    o.seed = 7;
    return o;
  }();
  const auto k = static_cast<size_t>(state.range(0));
  // Means over one pass of a fixed user list on a fresh engine:
  // sets_evaluated and edges_visited per query. Counted outside the
  // timed loop, whose engine's RNG advances with every query: exact
  // counts, the same whatever the iteration count.
  uint64_t sets = 0;
  uint64_t edges = 0;
  const std::vector<VertexId> counted =
      SampleUserGroup(n.graph, UserGroup::kHigh, 16, 1);
  {
    PitexEngine fresh(&n, options);
    for (const VertexId user : counted) {
      const PitexResult r = fresh.Explore({.user = user, .k = k});
      sets += r.sets_evaluated;
      edges += r.edges_visited;
    }
  }
  PitexEngine engine(&n, options);
  const auto users = SampleUserGroup(n.graph, UserGroup::kHigh, 1, 1);
  for (auto _ : state) {
    const PitexResult r = engine.Explore({.user = users[0], .k = k});
    benchmark::DoNotOptimize(r.influence);
  }
  const auto queries = static_cast<double>(counted.size());
  state.counters["sets_evaluated"] = static_cast<double>(sets) / queries;
  state.counters["edges_visited"] = static_cast<double>(edges) / queries;
}
BENCHMARK(BM_BestEffortQuery)->Arg(2)->Arg(3);

void BM_IndexEstPlusQuery(benchmark::State& state) {
  // A best-effort IndexEst+ query (Sec. 6.2) through the engine facade,
  // as pitexbench serves it: the frontier and Lemma-8 bounds over the
  // pooled index's estimate, which walks the blocks of the sketches
  // holding the user that its edge-cut filter keeps. One engine per k,
  // its index built once; the queries cycle over a fixed list of users.
  const auto& n = Network();
  const auto k = static_cast<size_t>(state.range(0));
  static std::vector<std::unique_ptr<PitexEngine>> engines(4);
  if (engines[k] == nullptr) {
    EngineOptions options;
    options.method = Method::kIndexEstPlus;
    options.eps = 0.7;
    options.delta = 1000.0;
    options.min_samples = 32;
    options.max_samples = 512;
    options.index_theta_per_vertex = 8.0;
    options.seed = 7;
    engines[k] = std::make_unique<PitexEngine>(&n, options);
    engines[k]->BuildIndex();
  }
  PitexEngine& engine = *engines[k];
  const std::vector<VertexId> users =
      SampleUserGroup(n.graph, UserGroup::kHigh, 16, 1);
  // Means over one pass of the users: sets_evaluated and edges_visited
  // per query. Counted outside the timed loop: exact counts of the work
  // a query does, where the time is noisy, and the same whatever the
  // iteration count.
  uint64_t sets = 0;
  uint64_t edges = 0;
  for (const VertexId user : users) {
    const PitexResult r = engine.Explore({.user = user, .k = k});
    sets += r.sets_evaluated;
    edges += r.edges_visited;
  }
  size_t next = 0;
  for (auto _ : state) {
    const PitexResult r = engine.Explore({.user = users[next], .k = k});
    benchmark::DoNotOptimize(r.influence);
    next = (next + 1) % users.size();
  }
  const auto queries = static_cast<double>(users.size());
  state.counters["sets_evaluated"] = static_cast<double>(sets) / queries;
  state.counters["edges_visited"] = static_cast<double>(edges) / queries;
}
BENCHMARK(BM_IndexEstPlusQuery)->Arg(2)->Arg(3);

void BM_SerializeRrIndex(benchmark::State& state) {
  static RrIndex* index = [] {
    RrIndexOptions options;
    options.theta_per_vertex = 2.0;
    auto* idx = new RrIndex(Network(), options);
    idx->Build();
    return idx;
  }();
  size_t bytes = 0;
  for (auto _ : state) {
    std::stringstream file;
    benchmark::DoNotOptimize(SaveRrIndex(*index, file));
    bytes = file.str().size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
  // Bytes serialized per save: an exact count, where the time is noisy.
  state.counters["file_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeRrIndex);

void BM_LoadRrIndex(benchmark::State& state) {
  static const std::string* snapshot = [] {
    RrIndexOptions options;
    options.theta_per_vertex = 2.0;
    RrIndex index(Network(), options);
    index.Build();
    std::stringstream file;
    SaveRrIndex(index, file);
    return new std::string(file.str());
  }();
  for (auto _ : state) {
    std::stringstream file(*snapshot);
    benchmark::DoNotOptimize(LoadRrIndex(Network(), file));
  }
  state.SetBytesProcessed(static_cast<int64_t>(snapshot->size()) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["file_bytes"] = static_cast<double>(snapshot->size());
}
BENCHMARK(BM_LoadRrIndex);

void BM_SketchLookup(benchmark::State& state) {
  static SketchOracle* oracle = [] {
    auto* o = new SketchOracle(&Network());
    o->Build();
    return o;
  }();
  VertexId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle->EnvelopeInfluence(u));
    u = (u + 1) % static_cast<VertexId>(Network().num_vertices());
  }
}
BENCHMARK(BM_SketchLookup);

void BM_DynamicRepairSingleEdge(benchmark::State& state) {
  const auto& n = Network();
  RrIndexOptions options;
  options.theta_per_vertex = 2.0;
  DynamicRrIndex index(n, options);
  index.Build();
  Rng rng(9);
  for (auto _ : state) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>(rng.NextBounded(n.num_edges()));
    update.entries = {{static_cast<TopicId>(
                           rng.NextBounded(n.topics.num_topics())),
                       0.05 + 0.3 * rng.NextDouble()}};
    index.ApplyUpdates(std::span(&update, 1));
  }
}
BENCHMARK(BM_DynamicRepairSingleEdge);

// One serving-sized update batch (Arg = updates) on the dblp analog the
// end-to-end benchmark serves (25k vertices, ~297k edges, theta = 200k):
// the per-update model fold plus the sketch repairs, with the master's
// overlay compacting past theta/16 as in recovery replay.
void BM_ApplyUpdatesBatch(benchmark::State& state) {
  static const SocialNetwork* dblp =
      new SocialNetwork(GenerateDataset(DblpSpec(0.05)));
  RrIndexOptions options;
  options.theta_override = 200000;
  DynamicRrIndex index(*dblp, options);
  index.Build();
  Rng rng(9);
  std::vector<EdgeInfluenceUpdate> batch(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (EdgeInfluenceUpdate& update : batch) {
      update.edge = static_cast<EdgeId>(rng.NextBounded(dblp->num_edges()));
      update.entries = {{static_cast<TopicId>(
                             rng.NextBounded(dblp->topics.num_topics())),
                         0.05 + 0.3 * rng.NextDouble()}};
    }
    index.ApplyUpdates(batch);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApplyUpdatesBatch)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  static ThreadPool* pool = new ThreadPool(4);
  const auto tasks = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::atomic<size_t> counter{0};
    for (size_t i = 0; i < tasks; ++i) {
      pool->Submit([&counter] { counter.fetch_add(1); });
    }
    pool->Wait();
    benchmark::DoNotOptimize(counter.load());
  }
  state.SetItemsProcessed(static_cast<int64_t>(tasks) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(64)->Arg(1024);

void BM_AdmissionOverhead(benchmark::State& state) {
  // Happy-path admission (TryAdmit + Release, nothing sheds): the cost a
  // fully-admitted query pays on top of its engine time. A PITEX query
  // runs for tens of microseconds at minimum, so this must stay well
  // under 1% of that -- i.e. low hundreds of nanoseconds.
  AdmissionOptions options;
  options.max_queue_depth = 1 << 20;  // never full
  options.user_rate_limit = 1e9;      // never limits
  AdmissionController controller(options);
  VertexId user = 0;
  for (auto _ : state) {
    const auto now = AdmissionController::Clock::now();
    benchmark::DoNotOptimize(controller.TryAdmit(user, now));
    controller.Release(1);
    user = (user + 1) % 4096;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AdmissionOverhead);

void BM_FailpointDisarmed(benchmark::State& state) {
  // The disarmed fast gate every instrumented call site pays in
  // production: one relaxed atomic load. Nanoseconds, or the fail-point
  // framework could not ship enabled in release builds.
  FailpointRegistry::Instance().DisableAll();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PITEX_FAILPOINT("bench/disarmed"));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FailpointDisarmed);

void BM_MetricsIncrement(benchmark::State& state) {
  // The registered-handle fast path every serving counter pays: one
  // relaxed fetch_add into the calling thread's cacheline-padded shard.
  // Must match BM_FailpointDisarmed's order of magnitude or counters
  // could not ride the per-query path.
  static obs::Counter* counter = new obs::Counter();
  for (auto _ : state) {
    counter->Inc();
  }
  benchmark::DoNotOptimize(counter->Value());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsIncrement);

void BM_HotCounterIncrement(benchmark::State& state) {
  // The PITEX_COUNT macro form sanctioned inside PITEX_NOALLOC bodies:
  // a constant array index plus the same relaxed fetch_add.
  for (auto _ : state) {
    PITEX_COUNT(kSolveFrontierPops, 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HotCounterIncrement);

void BM_SpanStartStop(benchmark::State& state) {
  // PITEX_SPAN cost, both regimes (docs/perf.md). Arg(0) = disarmed
  // (sampling off: a thread-local load and a branch, no clock read);
  // Arg(1) = armed (every trace sampled: two steady_clock reads plus a
  // ring append under the thread-local buffer's uncontended mutex).
  const bool armed = state.range(0) != 0;
  obs::Tracer::Instance().SetSampleEvery(armed ? 1 : 0);
  obs::Tracer::Instance().Clear();
  const uint64_t trace_id = obs::Tracer::Instance().StartTrace();
  for (auto _ : state) {
    PITEX_TRACE_SCOPE(trace_id);
    PITEX_SPAN(kSolve);
  }
  obs::Tracer::Instance().SetSampleEvery(0);
  obs::Tracer::Instance().Clear();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanStartStop)->Arg(0)->Arg(1);

void BM_JournalRecord(benchmark::State& state) {
  // Wait-free flight-recorder append: fetch_add claim + five relaxed
  // stores behind a seqlock stamp. Rare-event paths only, but cheap
  // enough that recording never needs gating.
  static obs::EventJournal* journal = new obs::EventJournal(1024);
  for (auto _ : state) {
    journal->Record(obs::EventKind::kShed, 1, 2);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_JournalRecord);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the binary understands the repo-wide
// --smoke flag: each benchmark then runs a single short iteration window,
// which is enough for the bench_smoke_* CTest entry to prove the harness
// still builds and runs.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char min_time[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time);

  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
