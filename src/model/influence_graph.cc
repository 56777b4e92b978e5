#include "src/model/influence_graph.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace pitex {

float EnvelopeProbability(double p) {
  PITEX_DCHECK(p >= 0.0 && p <= 1.0);
  auto f = static_cast<float>(p);  // round-to-nearest
  if (static_cast<double>(f) < p) f = std::nextafterf(f, 2.0f);
  return f;
}

EnvelopeTable::EnvelopeTable(const Graph& graph,
                             const InfluenceGraph& influence) {
  in_env_.resize(graph.num_edges());
  in_pos_.resize(graph.num_edges());
  vertex_max_.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const uint64_t base = graph.InEdgeOffset(v);
    const auto in = graph.InEdges(v);
    float vmax = 0.0f;
    for (size_t j = 0; j < in.size(); ++j) {
      const float p = EnvelopeProbability(influence.MaxProb(in[j].edge));
      in_env_[base + j] = p;
      in_pos_[in[j].edge] = static_cast<uint32_t>(base + j);
      vmax = std::max(vmax, p);
    }
    vertex_max_[v] = vmax;
  }
}

void EnvelopeTable::Update(const Graph& graph, EdgeId e, double max_prob) {
  in_env_[in_pos_[e]] = EnvelopeProbability(max_prob);
  const VertexId head = graph.Head(e);
  float vmax = 0.0f;
  for (const float p : InEnvelopes(graph, head)) vmax = std::max(vmax, p);
  vertex_max_[head] = vmax;
}

size_t EnvelopeTable::SizeBytes() const {
  return in_env_.capacity() * sizeof(float) +
         in_pos_.capacity() * sizeof(uint32_t) +
         vertex_max_.capacity() * sizeof(float);
}

InfluenceGraph::InfluenceGraph(std::shared_ptr<const Storage> storage)
    : storage_(std::move(storage)),
      num_edges_(storage_->offsets.size() - 1),
      offsets_(storage_->offsets.data()),
      entries_(storage_->entries.data()),
      max_prob_(storage_->max_prob.data()) {}

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

InfluenceGraph ReplaceEdgeTopics(
    const InfluenceGraph& influence,
    std::span<const EdgeTopicsReplacement> replacements) {
  const size_t num_edges = influence.num_edges();
  // Validate each replacement into a shared scratch (kept entries are
  // sorted by topic with zeros dropped, like InfluenceGraphBuilder) and
  // index them by edge.
  std::vector<uint32_t> replacement_of(num_edges, UINT32_MAX);
  std::vector<std::pair<uint32_t, uint32_t>> kept_range(replacements.size());
  std::vector<EdgeTopicEntry> kept;
  for (uint32_t r = 0; r < replacements.size(); ++r) {
    const auto& [e, entries] = replacements[r];
    PITEX_CHECK(e < num_edges);
    PITEX_CHECK_MSG(replacement_of[e] == UINT32_MAX,
                    "edge replaced twice in one batch");
    replacement_of[e] = r;
    const auto begin = static_cast<uint32_t>(kept.size());
    for (const EdgeTopicEntry& entry : entries) {
      PITEX_CHECK(entry.prob >= 0.0 && entry.prob <= 1.0);
      if (entry.prob > 0.0) kept.push_back(entry);
    }
    std::sort(kept.begin() + begin, kept.end(),
              [](const EdgeTopicEntry& a, const EdgeTopicEntry& b) {
                return a.topic < b.topic;
              });
    for (size_t i = begin + 1; i < kept.size(); ++i) {
      PITEX_CHECK_MSG(kept[i].topic != kept[i - 1].topic, "duplicate topic");
    }
    kept_range[r] = {begin, static_cast<uint32_t>(kept.size())};
  }

  // Exact-size single pass: unchanged edges block-copy their CSR slice.
  auto out = std::make_shared<InfluenceGraph::Storage>();
  int64_t nnz_delta = 0;
  for (uint32_t r = 0; r < replacements.size(); ++r) {
    nnz_delta +=
        static_cast<int64_t>(kept_range[r].second) -
        static_cast<int64_t>(kept_range[r].first) -
        static_cast<int64_t>(influence.EdgeTopics(replacements[r].edge).size());
  }
  out->offsets.reserve(num_edges + 1);
  out->offsets.push_back(0);
  out->entries.reserve(influence.offsets_[num_edges] +
                       static_cast<size_t>(std::max<int64_t>(0, nnz_delta)));
  out->max_prob.reserve(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) {
    std::span<const EdgeTopicEntry> entries;
    if (replacement_of[e] != UINT32_MAX) {
      const auto [begin, end] = kept_range[replacement_of[e]];
      entries = {kept.data() + begin, kept.data() + end};
    } else {
      entries = influence.EdgeTopics(e);
    }
    double max_p = 0.0;
    for (const EdgeTopicEntry& entry : entries) {
      max_p = std::max(max_p, entry.prob);
    }
    out->entries.insert(out->entries.end(), entries.begin(), entries.end());
    out->offsets.push_back(out->entries.size());
    out->max_prob.push_back(max_p);
  }
  return InfluenceGraph(std::move(out));
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
  std::sort(dst.begin(), dst.end(),
            [](const EdgeTopicEntry& a, const EdgeTopicEntry& b) {
              return a.topic < b.topic;
            });
  for (size_t i = 1; i < dst.size(); ++i) {
    PITEX_CHECK_MSG(dst[i].topic != dst[i - 1].topic, "duplicate topic");
  }
}

InfluenceGraph InfluenceGraphBuilder::Build() {
  auto g = std::make_shared<InfluenceGraph::Storage>();
  g->offsets.reserve(num_edges_ + 1);
  g->offsets.push_back(0);
  g->max_prob.reserve(num_edges_);
  size_t total = 0;
  for (const auto& v : staged_) total += v.size();
  g->entries.reserve(total);
  for (auto& v : staged_) {
    double max_p = 0.0;
    for (const auto& entry : v) max_p = std::max(max_p, entry.prob);
    g->entries.insert(g->entries.end(), v.begin(), v.end());
    g->offsets.push_back(g->entries.size());
    g->max_prob.push_back(max_p);
    v.clear();
  }
  staged_.clear();
  return InfluenceGraph(std::move(g));
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
