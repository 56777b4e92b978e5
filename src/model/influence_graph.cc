#include "src/model/influence_graph.h"

#include <algorithm>

#include "src/util/check.h"

namespace pitex {

EnvelopeTable::EnvelopeTable(const Graph& graph,
                             const InfluenceGraph& influence) {
  in_env_.resize(graph.num_edges());
  vertex_max_.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const uint64_t base = graph.InEdgeOffset(v);
    const auto in = graph.InEdges(v);
    float vmax = 0.0f;
    for (size_t j = 0; j < in.size(); ++j) {
      const float p = EnvelopeProbability(influence.MaxProb(in[j].edge));
      in_env_[base + j] = p;
      vmax = std::max(vmax, p);
    }
    vertex_max_[v] = vmax;
  }
}

void InfluenceGraph::Directory::Set(
    size_t c, std::shared_ptr<const ChunkStorage> storage) {
  chunks[c] = Chunk{storage->offsets.data(), storage->entries.data(),
                    storage->max_prob.data()};
  owners[c] = std::move(storage);
}

InfluenceGraph::InfluenceGraph(std::shared_ptr<const Directory> directory,
                               size_t num_edges)
    : directory_(std::move(directory)),
      num_edges_(num_edges),
      chunks_(directory_->chunks.data()) {}

double InfluenceGraph::EdgeTopicProb(EdgeId e, TopicId z) const {
  for (const auto& entry : EdgeTopics(e)) {
    if (entry.topic == z) return entry.prob;
  }
  return 0.0;
}

double InfluenceGraph::EdgeProb(EdgeId e, const TopicPosterior& posterior) const {
  double p = 0.0;
  for (const auto& entry : EdgeTopics(e)) {
    p += entry.prob * posterior[entry.topic];
  }
  return p;
}

namespace {

// Sorts `entries` by topic and aborts on a repeated topic (zero entries
// were dropped by the caller).
void SortAndCheckTopics(std::span<EdgeTopicEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const EdgeTopicEntry& a, const EdgeTopicEntry& b) {
              return a.topic < b.topic;
            });
  for (size_t i = 1; i < entries.size(); ++i) {
    PITEX_CHECK_MSG(entries[i].topic != entries[i - 1].topic,
                    "duplicate topic");
  }
}

}  // namespace

template <typename EntriesOf>
std::shared_ptr<const InfluenceGraph::ChunkStorage> InfluenceGraph::MakeChunk(
    size_t begin, size_t end, size_t nnz, EntriesOf entries_of) {
  auto chunk = std::make_shared<ChunkStorage>();
  chunk->offsets.reserve(end - begin + 1);
  chunk->offsets.push_back(0);
  chunk->entries.reserve(nnz);
  chunk->max_prob.reserve(end - begin);
  for (size_t e = begin; e < end; ++e) {
    const std::span<const EdgeTopicEntry> entries =
        entries_of(static_cast<EdgeId>(e));
    double max_p = 0.0;
    for (const EdgeTopicEntry& entry : entries) {
      max_p = std::max(max_p, entry.prob);
    }
    chunk->entries.insert(chunk->entries.end(), entries.begin(),
                          entries.end());
    chunk->offsets.push_back(static_cast<uint32_t>(chunk->entries.size()));
    chunk->max_prob.push_back(max_p);
  }
  return chunk;
}

InfluenceGraph ReplaceEdgeTopics(
    const InfluenceGraph& influence,
    std::span<const EdgeTopicsReplacement> replacements) {
  if (replacements.empty()) return influence;
  const size_t num_edges = influence.num_edges();
  // Validate each replacement into a shared scratch (kept entries are
  // sorted by topic with zeros dropped, like InfluenceGraphBuilder), and
  // visit them in edge order.
  struct Kept {
    EdgeId edge;
    uint32_t begin;
    uint32_t end;
  };
  std::vector<Kept> replaced;
  replaced.reserve(replacements.size());
  std::vector<EdgeTopicEntry> kept;
  for (const auto& [e, entries] : replacements) {
    PITEX_CHECK(e < num_edges);
    const auto begin = static_cast<uint32_t>(kept.size());
    for (const EdgeTopicEntry& entry : entries) {
      PITEX_CHECK(entry.prob >= 0.0 && entry.prob <= 1.0);
      if (entry.prob > 0.0) kept.push_back(entry);
    }
    SortAndCheckTopics(std::span(kept).subspan(begin));
    replaced.push_back({e, begin, static_cast<uint32_t>(kept.size())});
  }
  std::sort(replaced.begin(), replaced.end(),
            [](const Kept& a, const Kept& b) { return a.edge < b.edge; });
  for (size_t i = 1; i < replaced.size(); ++i) {
    PITEX_CHECK_MSG(replaced[i].edge != replaced[i - 1].edge,
                    "edge replaced twice in one batch");
  }

  // Copy the directory, then rebuild each touched chunk; untouched
  // chunks stay shared.
  const InfluenceGraph::Directory& old = *influence.directory_;
  auto directory = std::make_shared<InfluenceGraph::Directory>(old);
  size_t next = 0;
  while (next < replaced.size()) {
    const size_t c = replaced[next].edge >> InfluenceGraph::kChunkShift;
    const size_t begin = c * InfluenceGraph::kChunkEdges;
    const size_t end =
        std::min(num_edges, begin + InfluenceGraph::kChunkEdges);
    directory->Set(
        c, InfluenceGraph::MakeChunk(
               begin, end, old.owners[c]->entries.size() + kept.size(),
               [&](EdgeId e) -> std::span<const EdgeTopicEntry> {
                 if (next < replaced.size() && replaced[next].edge == e) {
                   const Kept& r = replaced[next++];
                   return {kept.data() + r.begin, kept.data() + r.end};
                 }
                 return influence.EdgeTopics(e);
               }));
  }
  return InfluenceGraph(std::move(directory), num_edges);
}

InfluenceGraphBuilder::InfluenceGraphBuilder(size_t num_edges)
    : num_edges_(num_edges), staged_(num_edges) {}

void InfluenceGraphBuilder::SetEdgeTopics(
    EdgeId e, std::span<const EdgeTopicEntry> entries) {
  PITEX_CHECK(e < num_edges_);
  PITEX_CHECK_MSG(staged_[e].empty(), "edge topic vector set twice");
  auto& dst = staged_[e];
  dst.reserve(entries.size());
  for (const auto& entry : entries) {
    PITEX_CHECK(entry.prob >= 0.0 && entry.prob <= 1.0);
    if (entry.prob > 0.0) dst.push_back(entry);
  }
  SortAndCheckTopics(dst);
}

InfluenceGraph InfluenceGraphBuilder::Build() {
  constexpr size_t kChunk = InfluenceGraph::kChunkEdges;
  const size_t num_chunks = (num_edges_ + kChunk - 1) / kChunk;
  auto directory = std::make_shared<InfluenceGraph::Directory>();
  directory->chunks.resize(num_chunks);
  directory->owners.resize(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * kChunk;
    const size_t end = std::min(num_edges_, begin + kChunk);
    size_t nnz = 0;
    for (size_t e = begin; e < end; ++e) nnz += staged_[e].size();
    directory->Set(c, InfluenceGraph::MakeChunk(
                          begin, end, nnz, [this](EdgeId e) {
                            return std::span<const EdgeTopicEntry>(staged_[e]);
                          }));
  }
  staged_.clear();
  return InfluenceGraph(std::move(directory), num_edges_);
}

namespace {

template <typename KeepEdge>
ReachableSet Bfs(const Graph& graph, VertexId u, KeepEdge keep) {
  ReachableSet result;
  std::vector<uint8_t> visited(graph.num_vertices(), 0);
  std::vector<VertexId> frontier{u};
  visited[u] = 1;
  result.vertices.push_back(u);
  while (!frontier.empty()) {
    const VertexId v = frontier.back();
    frontier.pop_back();
    for (const auto& [w, e] : graph.OutEdges(v)) {
      if (!keep(e)) continue;
      if (!visited[w]) {
        visited[w] = 1;
        result.vertices.push_back(w);
        frontier.push_back(w);
      }
    }
  }
  // Count edges with both endpoints in the reachable set and positive
  // probability (|E_W(u)| in the paper's notation).
  for (VertexId v : result.vertices) {
    for (const auto& [w, e] : graph.OutEdges(v)) {
      if (keep(e) && visited[w]) ++result.num_internal_edges;
    }
  }
  return result;
}

}  // namespace

ReachableSet ComputeReachableSet(const Graph& graph,
                                 const InfluenceGraph& influence,
                                 const TopicPosterior& posterior, VertexId u) {
  return Bfs(graph, u,
             [&](EdgeId e) { return influence.EdgeProb(e, posterior) > 0.0; });
}

ReachableSet ComputeMaxReachableSet(const Graph& graph,
                                    const InfluenceGraph& influence,
                                    VertexId u) {
  return Bfs(graph, u, [&](EdgeId e) { return influence.MaxProb(e) > 0.0; });
}

}  // namespace pitex
