#include "src/index/rr_graph.h"

#include <algorithm>

#include "src/index/sketch_arena.h"
#include "src/util/check.h"

namespace pitex {

std::optional<uint32_t> RRView::LocalIndex(VertexId v) const {
  auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
  if (it == vertices.end() || *it != v) return std::nullopt;
  return static_cast<uint32_t>(it - vertices.begin());
}

size_t RRGraph::SizeBytes() const {
  return sizeof(RRGraph) + vertices.capacity() * sizeof(VertexId) +
         offsets.capacity() * sizeof(uint32_t) +
         edges.capacity() * sizeof(RRLocalEdge);
}

void RRGraph::Assign(const RRView& view) {
  root = view.root;
  vertices.assign(view.vertices.begin(), view.vertices.end());
  offsets.assign(view.offsets.begin(), view.offsets.end());
  edges.assign(view.edges.begin(), view.edges.end());
}

void EstimateScratch::Reserve(size_t max_vertices) {
  if (visited_.size() < max_vertices) visited_.resize(max_vertices, 0);
}

RRGraph AssembleRRGraph(VertexId root, std::vector<VertexId> vertices,
                        std::span<const GlobalEdgeSample> edges) {
  RRGraph rr;
  rr.root = root;
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  rr.vertices = std::move(vertices);
  const size_t n = rr.vertices.size();

  auto local_of = [&](VertexId v) -> std::optional<uint32_t> {
    return rr.LocalIndex(v);
  };

  // Counting sort the surviving edges by local tail.
  std::vector<std::pair<uint32_t, RRLocalEdge>> staged;
  staged.reserve(edges.size());
  for (const auto& e : edges) {
    const auto tail = local_of(e.tail);
    const auto head = local_of(e.head);
    if (!tail || !head) continue;
    staged.emplace_back(*tail, RRLocalEdge{*head, e.edge, e.threshold});
  }
  rr.offsets.assign(n + 1, 0);
  for (const auto& [tail, local] : staged) ++rr.offsets[tail + 1];
  for (size_t i = 0; i < n; ++i) rr.offsets[i + 1] += rr.offsets[i];
  rr.edges.resize(staged.size());
  std::vector<uint32_t> pos(rr.offsets.begin(), rr.offsets.end() - 1);
  for (const auto& [tail, local] : staged) rr.edges[pos[tail]++] = local;
  return rr;
}

void DecomposeRRGraphInto(const RRView& rr,
                          std::vector<GlobalEdgeSample>* edges) {
  edges->clear();
  edges->reserve(rr.edges.size());
  for (uint32_t tail = 0; tail + 1 < rr.offsets.size(); ++tail) {
    for (uint32_t i = rr.offsets[tail]; i < rr.offsets[tail + 1]; ++i) {
      const RRLocalEdge& local = rr.edges[i];
      edges->push_back(GlobalEdgeSample{rr.vertices[tail],
                                        rr.vertices[local.head_local],
                                        local.edge, local.threshold});
    }
  }
}

RRGraph GenerateRRGraph(const Graph& graph, const InfluenceGraph& influence,
                        VertexId root, Rng* rng) {
  // One-off entry point over the bulk build's generator: identical draws
  // to the table-backed build (SketchArena materializes the envelope
  // floats per visited vertex), copied out of a one-sketch run for
  // callers that want an owning graph (the query planner's probes,
  // tests).
  thread_local SketchArena arena;
  thread_local RrSketchPool run;
  run.Clear();
  arena.Generate(graph, influence, root, rng, &run);
  RRGraph out;
  out.Assign(run.View(0));
  return out;
}

PITEX_NOALLOC bool IsReachable(const RRView& rr, VertexId u,
                               const EdgeProbFn& probs,
                               uint64_t* edges_visited,
                               EstimateScratch* scratch) {
  const auto start = rr.LocalIndex(u);
  if (!start) return false;
  const auto target = rr.LocalIndex(rr.root);
  PITEX_DCHECK(target.has_value());
  if (*start == *target) return true;

  const size_t n = rr.vertices.size();
  auto& visited = scratch->visited_;
  if (visited.size() < n) visited.resize(n, 0);
  // Epoch stamping: bumping the epoch invalidates every old mark without
  // touching memory. On the (once per 2^32 calls) wrap, clear explicitly.
  if (++scratch->epoch_ == 0) {
    std::fill(visited.begin(), visited.end(), 0);
    scratch->epoch_ = 1;
  }
  const uint32_t epoch = scratch->epoch_;

  auto& stack = scratch->stack_;
  stack.clear();
  stack.push_back(*start);
  visited[*start] = epoch;
  uint64_t probes = 0;
  bool found = false;
  while (!stack.empty() && !found) {
    const uint32_t v = stack.back();
    stack.pop_back();
    for (uint32_t i = rr.offsets[v]; i < rr.offsets[v + 1]; ++i) {
      const auto& edge = rr.edges[i];
      ++probes;
      if (visited[edge.head_local] == epoch) continue;
      if (probs.Prob(edge.edge) < edge.threshold) continue;  // dead under W
      if (edge.head_local == *target) {
        found = true;
        break;
      }
      visited[edge.head_local] = epoch;
      stack.push_back(edge.head_local);
    }
  }
  if (edges_visited != nullptr) *edges_visited += probes;
  return found;
}

bool IsReachable(const RRView& rr, VertexId u, const EdgeProbFn& probs,
                 uint64_t* edges_visited) {
  EstimateScratch scratch;
  return IsReachable(rr, u, probs, edges_visited, &scratch);
}

}  // namespace pitex
