#include "src/index/rr_graph.h"

#include <algorithm>
#include <type_traits>

#include "src/util/check.h"

namespace pitex {

void EstimateScratch::Reserve(size_t max_vertices) {
  if (visited_.size() < max_vertices) visited_.resize(max_vertices, 0);
}

void DecomposeRRGraphInto(const RRView& rr,
                          std::vector<GlobalEdgeSample>* edges) {
  edges->clear();
  edges->reserve(rr.num_edges());
  rr.VisitCsr([&](const auto& csr) {
    for (uint32_t tail = 0; tail < rr.vertices.size(); ++tail) {
      for (uint32_t i = csr.offset(tail); i < csr.offset(tail + 1); ++i) {
        edges->push_back(GlobalEdgeSample{rr.vertices[tail],
                                          rr.vertices[csr.head(i)],
                                          rr.Edge(tail, rr.ranks[i])});
      }
    }
  });
}

namespace {

// Forward DFS from local vertex `start` over the edges live under
// `probs`, stopping at `target`: the walk over a sketch that is not an
// in-tree.
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

// The walk over an in-tree: each vertex but the root has one out-edge,
// to its parent, so the DFS from `start` is the chase of its parents,
// which reaches the root (ParentsReachRoot) unless an edge on the way is
// dead. No head is met twice, so no stamp is needed.
PITEX_NOALLOC bool ChaseToRoot(const RRView& rr, const TreeCsr& csr,
                               uint32_t start, const EdgeProbFn& probs,
                               uint64_t* probes) {
  uint64_t count = 0;
  bool found = false;
  for (uint32_t v = start;;) {
    const uint32_t i = csr.offset(v);
    const EdgeId e = rr.Edge(v, rr.ranks[i]);
    ++count;
    if (!rr.thresholds.Live(e, probs.Prob(e))) break;
    v = csr.head(i);
    if (v == rr.root_local) {
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
  const auto start = rr.LocalIndex(u);
  if (!start) return false;
  if (*start == rr.root_local) return true;

  // One dispatch on the CSR form: an in-tree chases, any other sketch
  // takes the DFS.
  uint64_t probes = 0;
  const bool found = rr.VisitCsr([&](const auto& csr) {
    if constexpr (std::is_same_v<std::decay_t<decltype(csr)>, TreeCsr>) {
      return ChaseToRoot(rr, csr, *start, probs, &probes);
    } else {
      const size_t n = rr.vertices.size();
      auto& visited = scratch->visited_;
      if (visited.size() < n) visited.resize(n, 0);
      // Epoch stamping: bumping the epoch invalidates every old mark
      // without touching memory. On the (once per 2^32 calls) wrap,
      // clear explicitly.
      if (++scratch->epoch_ == 0) {
        std::fill(visited.begin(), visited.end(), 0);
        scratch->epoch_ = 1;
      }
      return WalkToRoot(rr, csr, *start, probs, scratch->epoch_, visited,
                        scratch->stack_, &probes);
    }
  });
  if (edges_visited != nullptr) *edges_visited += probes;
  return found;
}

bool IsReachable(const RRView& rr, VertexId u, const EdgeProbFn& probs,
                 uint64_t* edges_visited) {
  EstimateScratch scratch;
  return IsReachable(rr, u, probs, edges_visited, &scratch);
}

bool ParentsReachRoot(const RRView& rr, std::vector<uint8_t>* marks) {
  enum : uint8_t { kUnseen, kOnChase, kReachesRoot };
  const auto n = static_cast<uint32_t>(rr.vertices.size());
  marks->assign(n, kUnseen);
  (*marks)[rr.root_local] = kReachesRoot;
  return rr.VisitCsr([&](const auto& csr) {
    const auto parent = [&csr](uint32_t v) { return csr.head(csr.offset(v)); };
    for (uint32_t j = 0; j < n; ++j) {
      uint32_t v = j;
      for (; (*marks)[v] == kUnseen; v = parent(v)) (*marks)[v] = kOnChase;
      // The chase met itself: a cycle that never reaches the root.
      if ((*marks)[v] == kOnChase) return false;
      for (v = j; (*marks)[v] == kOnChase; v = parent(v)) {
        (*marks)[v] = kReachesRoot;
      }
    }
    return true;
  });
}

bool ParentsReachRoot(const RRView& rr) {
  thread_local std::vector<uint8_t> marks;
  return ParentsReachRoot(rr, &marks);
}

}  // namespace pitex
