#include "src/index/rr_graph.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace pitex {

void EstimateScratch::Reserve(size_t max_vertices) {
  tree_.Reserve(max_vertices);
  if (visited_.size() < max_vertices) visited_.resize(max_vertices, 0);
}

std::optional<uint32_t> RRView::TreeLocalIndex(VertexId v) const {
  thread_local TreeScratch scratch;
  const uint32_t local = DecodeTree(*this, v, &scratch);
  if (local == vertices.size()) return std::nullopt;
  return local;
}

std::optional<uint32_t> DecodedSketch::LocalIndex(VertexId v) const {
  const auto at = std::ranges::lower_bound(vertices, v);
  if (at == vertices.end() || *at != v) return std::nullopt;
  return static_cast<uint32_t>(at - vertices.begin());
}

void Decode(const RRView& rr, DecodedSketch* out) {
  const size_t n = rr.vertices.size();
  const size_t m = rr.num_edges();
  const bool decode_edges =
      rr.topology != nullptr && rr.topology->num_vertices() != 0;
  out->root = rr.root();
  out->vertices.resize(n);
  out->offsets.resize(n + 1);
  out->heads.resize(m);
  out->edges.resize(decode_edges ? m : 0);
  if (!rr.IsTree()) {
    out->ranks.resize(m);
    out->root_local = rr.root_local;
    for (size_t j = 0; j < n; ++j) out->vertices[j] = rr.vertices[j];
    for (size_t j = 0; j <= n; ++j) out->offsets[j] = rr.offsets[j];
    for (size_t k = 0; k < m; ++k) {
      out->heads[k] = rr.heads[k];
      out->ranks[k] = rr.ranks[k];
    }
    if (decode_edges) {
      for (uint32_t tail = 0; tail < n; ++tail) {
        for (uint32_t k = out->offsets[tail]; k < out->offsets[tail + 1];
             ++k) {
          out->edges[k] = rr.Edge(tail, out->ranks[k]);
        }
      }
    }
    return;
  }
  // A parent tree: decoded top-down, then each vertex takes its place
  // among the sorted ids, and each vertex but the root its one edge.
  thread_local TreeScratch tree;
  thread_local std::vector<std::pair<VertexId, uint32_t>> order;
  DecodeTree(rr, kNoVertex, &tree);
  order.resize(n);
  for (uint32_t j = 0; j < n; ++j) order[j] = {tree.vertex(j), j};
  std::ranges::sort(order);
  thread_local std::vector<uint32_t> sorted_of;  // tree order -> sorted
  sorted_of.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    out->vertices[i] = order[i].first;
    sorted_of[order[i].second] = i;
  }
  out->root_local = sorted_of[0];
  out->ranks.clear();
  uint32_t k = 0;
  for (uint32_t i = 0; i < n; ++i) {
    out->offsets[i] = k;
    const uint32_t j = order[i].second;
    if (j == 0) continue;
    out->heads[k] = sorted_of[tree.parent(j)];
    out->edges[k] = tree.edge(j);
    ++k;
  }
  out->offsets[n] = k;
}

void DecomposeRRGraphInto(const DecodedSketch& sketch,
                          std::vector<GlobalEdgeSample>* edges) {
  edges->clear();
  edges->reserve(sketch.heads.size());
  for (uint32_t tail = 0; tail < sketch.vertices.size(); ++tail) {
    for (uint32_t k = sketch.offsets[tail]; k < sketch.offsets[tail + 1];
         ++k) {
      edges->push_back(GlobalEdgeSample{sketch.vertices[tail],
                                        sketch.vertices[sketch.heads[k]],
                                        sketch.edges[k]});
    }
  }
}

void DecomposeRRGraphInto(const RRView& rr,
                          std::vector<GlobalEdgeSample>* edges) {
  thread_local DecodedSketch sketch;
  Decode(rr, &sketch);
  DecomposeRRGraphInto(sketch, edges);
}

namespace {

// Forward DFS from local vertex `start` over the edges live under
// `probs`, stopping at `target`: the walk over a general-form sketch.
PITEX_NOALLOC bool WalkToRoot(const RRView& rr, const LocalCsr& csr,
                              uint32_t start, const EdgeProbFn& probs,
                              uint32_t epoch, std::vector<uint32_t>& visited,
                              std::vector<uint32_t>& stack,
                              uint64_t* probes) {
  uint64_t count = 0;  // a local, so it can live in a register
  bool found = false;
  stack.clear();
  stack.push_back(start);
  visited[start] = epoch;
  while (!stack.empty() && !found) {
    const uint32_t v = stack.back();
    stack.pop_back();
    const uint32_t end = csr.offset(v + 1);
    for (uint32_t i = csr.offset(v); i < end; ++i) {
      const uint32_t head = csr.head(i);
      ++count;
      if (visited[head] == epoch) continue;
      const EdgeId e = rr.Edge(v, rr.ranks[i]);
      if (!rr.thresholds.Live(e, probs.Prob(e))) continue;
      if (head == rr.root_local) {
        found = true;
        break;
      }
      visited[head] = epoch;
      stack.push_back(head);
    }
  }
  *probes += count;
  return found;
}

// The walk over a parent tree from local vertex `start`, decoded up to
// it: each vertex but the root has one out-edge, to its parent, so the
// DFS from `start` is the chase of its parents, which reaches the root
// (every parent comes before its child) unless an edge on the way is
// dead. No head is met twice, so no stamp is needed.
PITEX_NOALLOC bool ChaseToRoot(const RRView& rr, const TreeScratch& tree,
                               uint32_t start, const EdgeProbFn& probs,
                               uint64_t* probes) {
  uint64_t count = 0;
  bool found = false;
  for (uint32_t v = start;;) {
    const EdgeId e = tree.edge(v);
    ++count;
    if (!rr.thresholds.Live(e, probs.Prob(e))) break;
    v = tree.parent(v);
    if (v == 0) {
      found = true;
      break;
    }
  }
  *probes += count;
  return found;
}

}  // namespace

PITEX_NOALLOC bool IsReachable(const RRView& rr, VertexId u,
                               const EdgeProbFn& probs,
                               uint64_t* edges_visited,
                               EstimateScratch* scratch) {
  uint64_t probes = 0;
  bool found;
  if (rr.IsTree()) {
    const uint32_t start = DecodeTree(rr, u, &scratch->tree_);
    if (start == rr.vertices.size()) return false;
    if (start == 0) return true;
    found = ChaseToRoot(rr, scratch->tree_, start, probs, &probes);
  } else {
    const auto start = rr.LocalIndex(u);
    if (!start) return false;
    if (*start == rr.root_local) return true;
    const size_t n = rr.vertices.size();
    auto& visited = scratch->visited_;
    if (visited.size() < n) visited.resize(n, 0);
    // Epoch stamping: bumping the epoch invalidates every old mark
    // without touching memory. On the (once per 2^32 calls) wrap, clear
    // explicitly.
    if (++scratch->epoch_ == 0) {
      std::fill(visited.begin(), visited.end(), 0);
      scratch->epoch_ = 1;
    }
    found = rr.VisitCsr([&](const LocalCsr& csr) {
      return WalkToRoot(rr, csr, *start, probs, scratch->epoch_, visited,
                        scratch->stack_, &probes);
    });
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
