#include "src/index/sketch_arena.h"

#include <algorithm>

#include "src/util/check.h"

namespace pitex {

uint32_t SketchArena::BeginTraversal(size_t num_vertices) {
  if (mark_.size() < num_vertices) {
    mark_.resize(num_vertices, 0);
    local_index_.resize(num_vertices, 0);
  }
  if (++epoch_ == 0) {
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

template <typename Edge, typename Kept, typename RankOf>
PITEX_NOALLOC void SketchArena::PutSortedEdges(std::span<const Edge> edges,
                                               const Kept& kept,
                                               const RankOf& rank_of,
                                               BlockWriter* out) {
  // counts_[j] starts tail j's edges; each kept edge takes the next
  // place of its tail, and then the block's heads and ranks go in that
  // order.
  sorted_.resize(edges.size());
  size_t m = 0;
  for (const Edge& s : edges) {
    if (!kept(s)) continue;
    sorted_[counts_[local_index_[s.tail]]++] =
        SortedEdge{local_index_[s.head], rank_of(s)};
    ++m;
  }
  for (size_t k = 0; k < m; ++k) out->PutHead(sorted_[k].head);
  for (size_t k = 0; k < m; ++k) out->PutRank(sorted_[k].rank);
}

template <typename EnvOf>
PITEX_NOALLOC void SketchArena::GenerateImpl(const Graph& graph,
                                             const EnvOf& env_of,
                                             VertexId root, Rng* rng,
                                             RrSketchPool* run) {
  const uint32_t epoch = BeginTraversal(graph.num_vertices());
  std::vector<VertexId>& vertices = vertices_;

  // Reverse walk from the root over live in-edges; each in-edge of a
  // visited vertex is probed exactly once (its head is unique). A vertex
  // takes the next local id when it is first met, so an in-tree's
  // vertices come in the tree's order (RrSketchPool::AppendTree).
  staged_.clear();
  mark_[root] = epoch;
  local_index_[root] = 0;
  vertices.assign(1, root);
  stack_.assign(1, root);
  uint64_t rank_bits = 0;  // an in-tree's rank fields'
  while (!stack_.empty()) {
    const VertexId v = stack_.back();
    stack_.pop_back();
    const auto in = graph.InEdges(v);
    const auto [env, vmax] = env_of(v);
    const uint32_t width = IdBits(in.size());
    SampleLiveInEdges(env, vmax, rng, [&](size_t j) {
      const VertexId w = in[j].vertex;
      staged_.push_back(StagedEdge{w, v, static_cast<uint32_t>(j)});
      rank_bits += width;
      if (mark_[w] != epoch) {
        mark_[w] = epoch;
        local_index_[w] = static_cast<uint32_t>(vertices.size());
        vertices.push_back(w);
        stack_.push_back(w);
      }
    });
  }
  const size_t n = vertices.size();
  if (staged_.size() + 1 == n) {
    // An in-tree (a lone root included, an implicit singleton): every
    // live edge met a new vertex, its tail, which took the next local
    // id, so the edges in probe order are vertices 1 .. n - 1's.
    run->AppendTree(root, n, rank_bits, [&](TreeWriter& out) {
      for (const StagedEdge& s : staged_) {
        out.PutChild(local_index_[s.head], s.in_rank, graph.InDegree(s.head));
      }
    });
    return;
  }

  // Any other sketch, in the general form: sort the vertices (no
  // duplicates by construction), dense global -> local map via the epoch
  // marks, then counting-sort the staged edges by local tail (stable, so
  // per-tail edge order is probe order), each with its out-list rank.
  std::sort(vertices.begin(), vertices.end());
  for (size_t j = 0; j < n; ++j) {
    local_index_[vertices[j]] = static_cast<uint32_t>(j);
  }
  counts_.assign(n + 1, 0);
  for (const StagedEdge& s : staged_) ++counts_[local_index_[s.tail] + 1];
  for (size_t j = 0; j < n; ++j) counts_[j + 1] += counts_[j];
  run->AppendSketch(local_index_[root], vertices, staged_.size(),
                    /*in_tree=*/false, [&](BlockWriter& out) {
    for (size_t j = 0; j <= n; ++j) out.PutOffset(counts_[j]);
    PutSortedEdges(
        std::span<const StagedEdge>(staged_),
        [](const StagedEdge&) { return true; },
        [&](const StagedEdge& s) {
          return graph.OutRank(s.tail, graph.InEdges(s.head)[s.in_rank].edge);
        },
        &out);
  });
}

PITEX_NOALLOC void SketchArena::Generate(const Graph& graph,
                                         const EnvelopeTable& envelope,
                                         VertexId root, Rng* rng,
                                         RrSketchPool* run) {
  GenerateImpl(
      graph,
      [&](VertexId v) {
        return std::pair<std::span<const float>, float>(
            envelope.InEnvelopes(graph, v), envelope.VertexMax(v));
      },
      root, rng, run);
}

PITEX_NOALLOC void SketchArena::Generate(const Graph& graph,
                                         const InfluenceGraph& influence,
                                         VertexId root, Rng* rng,
                                         RrSketchPool* run) {
  GenerateImpl(
      graph,
      [&](VertexId v) {
        return InEnvelopeSlice(graph, influence, v, &env_scratch_);
      },
      root, rng, run);
}

PITEX_NOALLOC void SketchArena::RebuildRepairedSketch(
    VertexId root, std::span<const GlobalEdgeSample> edges,
    RrSketchPool* run) {
  const Graph& graph = run->topology();
  const size_t num_vertices = graph.num_vertices();
  // 1. Candidate set = {root} + every edge endpoint, provisional local
  // ids in first-seen order via the epoch marks.
  uint32_t epoch = BeginTraversal(num_vertices);
  cand_.clear();
  auto add_cand = [&](VertexId v) {
    if (mark_[v] != epoch) {
      mark_[v] = epoch;
      local_index_[v] = static_cast<uint32_t>(cand_.size());
      cand_.push_back(v);
    }
  };
  add_cand(root);
  for (const GlobalEdgeSample& s : edges) {
    add_cand(s.tail);
    add_cand(s.head);
  }
  const size_t c = cand_.size();

  // 2. Reverse adjacency (edges bucketed by local head id) so "which
  // tails feed v" is a slice, not a hash lookup.
  counts_.assign(c + 1, 0);
  for (const GlobalEdgeSample& s : edges) {
    ++counts_[local_index_[s.head] + 1];
  }
  for (size_t j = 0; j < c; ++j) counts_[j + 1] += counts_[j];
  adj_.resize(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    adj_[counts_[local_index_[edges[i].head]]++] = static_cast<uint32_t>(i);
  }
  // counts_[j] now ends bucket j; bucket j starts at counts_[j - 1].

  // 3. Reverse BFS from the root: mark every candidate that reaches it.
  reach_.assign(c, 0);
  reach_[local_index_[root]] = 1;
  stack_.assign(1, root);
  while (!stack_.empty()) {
    const VertexId v = stack_.back();
    stack_.pop_back();
    const uint32_t lv = local_index_[v];
    const uint32_t begin = lv == 0 ? 0 : counts_[lv - 1];
    for (uint32_t i = begin; i < counts_[lv]; ++i) {
      const VertexId tail = edges[adj_[i]].tail;
      uint8_t& seen = reach_[local_index_[tail]];
      if (seen == 0) {
        seen = 1;
        stack_.push_back(tail);
      }
    }
  }

  // 4. Kept vertices, sorted ascending, with final local ids stamped
  // under a fresh epoch (so dropped candidates read as absent).
  vertices_.clear();
  for (const VertexId v : cand_) {
    if (reach_[local_index_[v]] != 0) vertices_.push_back(v);
  }
  std::sort(vertices_.begin(), vertices_.end());
  epoch = BeginTraversal(num_vertices);
  const size_t n = vertices_.size();
  for (size_t j = 0; j < n; ++j) {
    mark_[vertices_[j]] = epoch;
    local_index_[vertices_[j]] = static_cast<uint32_t>(j);
  }

  // 5. Counting-sort the surviving edges by local tail, straight into
  // the run's block (stable: per-tail order is input order). A root no
  // edge reaches is an implicit singleton, and the fill is not called.
  counts_.assign(n + 1, 0);
  size_t kept_edges = 0;
  auto kept = [&](const GlobalEdgeSample& s) {
    return mark_[s.tail] == epoch && mark_[s.head] == epoch;
  };
  for (const GlobalEdgeSample& s : edges) {
    if (!kept(s)) continue;
    ++counts_[local_index_[s.tail] + 1];
    ++kept_edges;
  }
  for (size_t j = 0; j < n; ++j) counts_[j + 1] += counts_[j];
  const uint32_t root_local = local_index_[root];
  const bool in_tree =
      IsInTree(n, root_local, [this](size_t j) { return counts_[j]; });
  run->AppendSketch(root_local, vertices_, kept_edges, in_tree,
                    [&](BlockWriter& out) {
    if (!in_tree) {
      for (size_t j = 0; j <= n; ++j) out.PutOffset(counts_[j]);
    }
    PutSortedEdges(edges, kept,
                   [&](const GlobalEdgeSample& s) {
                     return graph.OutRank(s.tail, s.edge);
                   },
                   &out);
  });
}

}  // namespace pitex
