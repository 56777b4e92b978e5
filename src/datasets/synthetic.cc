#include "src/datasets/synthetic.h"

#include <algorithm>
#include <cmath>

#include "src/graph/generators.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace pitex {

DatasetSpec LastfmSpec(double scale) {
  DatasetSpec spec;
  spec.name = "lastfm";
  spec.num_vertices = std::max<size_t>(64, static_cast<size_t>(1300 * scale));
  spec.avg_out_degree = 8.7;
  spec.num_topics = 20;
  spec.num_tags = 50;
  spec.tag_topic_density = 0.16;
  spec.seed = 101;
  return spec;
}

DatasetSpec DiggsSpec(double scale) {
  DatasetSpec spec;
  spec.name = "diggs";
  spec.num_vertices = std::max<size_t>(64, static_cast<size_t>(15000 * scale));
  spec.avg_out_degree = 13.3;
  spec.num_topics = 20;
  spec.num_tags = 50;
  spec.tag_topic_density = 0.08;
  spec.seed = 102;
  return spec;
}

DatasetSpec DblpSpec(double scale) {
  DatasetSpec spec;
  spec.name = "dblp";
  spec.num_vertices =
      std::max<size_t>(64, static_cast<size_t>(500000 * scale));
  spec.avg_out_degree = 11.9;
  spec.num_topics = 9;
  spec.num_tags = 276;
  spec.tag_topic_density = 0.32;
  spec.seed = 103;
  return spec;
}

DatasetSpec TwitterSpec(double scale) {
  DatasetSpec spec;
  spec.name = "twitter";
  spec.num_vertices =
      std::max<size_t>(64, static_cast<size_t>(10000000 * scale));
  spec.avg_out_degree = 1.2;
  spec.num_topics = 50;
  spec.num_tags = 250;
  spec.tag_topic_density = 0.17;
  spec.seed = 104;
  return spec;
}

namespace {

Graph GenerateTopology(const DatasetSpec& spec, Rng* rng) {
  const size_t n = spec.num_vertices;
  const auto base_degree =
      static_cast<size_t>(std::floor(spec.avg_out_degree));
  const auto target_edges =
      static_cast<size_t>(std::llround(spec.avg_out_degree *
                                       static_cast<double>(n)));
  if (base_degree >= 1) {
    Graph pa = PreferentialAttachment(n, base_degree, rng);
    if (pa.num_edges() >= target_edges) return pa;
    // Top up the fractional remainder with random edges biased towards
    // high in-degree targets (keeps the power-law shape).
    GraphBuilder builder(n);
    for (EdgeId e = 0; e < pa.num_edges(); ++e) {
      builder.AddEdge(pa.Tail(e), pa.Head(e));
    }
    const size_t extra = target_edges - pa.num_edges();
    for (size_t i = 0; i < extra; ++i) {
      const auto u = static_cast<VertexId>(rng->NextBounded(n));
      // Pick the head of a random existing edge: probability proportional
      // to in-degree.
      const auto pick =
          static_cast<EdgeId>(rng->NextBounded(pa.num_edges()));
      const VertexId v = pa.Head(pick);
      if (u != v) builder.AddEdge(u, v);
    }
    return builder.Build();
  }
  // avg degree < 1 (the twitter analog): sparse preferential edges.
  GraphBuilder builder(n);
  std::vector<VertexId> targets{0};
  for (size_t i = 0; i < target_edges; ++i) {
    const auto u = static_cast<VertexId>(rng->NextBounded(n));
    VertexId v = targets[rng->NextBounded(targets.size())];
    if (rng->NextBernoulli(0.3)) {
      v = static_cast<VertexId>(rng->NextBounded(n));  // exploration
    }
    if (u == v) continue;
    builder.AddEdge(u, v);
    targets.push_back(v);
  }
  return builder.Build();
}

TopicModel GenerateTopicModel(const DatasetSpec& spec, Rng* rng) {
  TopicModel topics(spec.num_topics, spec.num_tags);
  // Every tag gets a primary topic with a strong likelihood, partitioning
  // the vocabulary; extra entries are sprinkled until the target density
  // is met (Sec. 7.3 discusses how this density controls pruning power).
  for (TagId w = 0; w < spec.num_tags; ++w) {
    const auto primary = static_cast<TopicId>(w % spec.num_topics);
    topics.SetTagTopic(w, primary, 0.5 + 0.5 * rng->NextDouble());
  }
  const auto total =
      static_cast<size_t>(spec.tag_topic_density *
                          static_cast<double>(spec.num_tags) *
                          static_cast<double>(spec.num_topics));
  size_t nonzero = spec.num_tags;  // one primary entry per tag
  size_t attempts = 0;
  const size_t max_attempts = 20 * spec.num_tags * spec.num_topics;
  while (nonzero < total && attempts++ < max_attempts) {
    const auto w = static_cast<TagId>(rng->NextBounded(spec.num_tags));
    const auto z = static_cast<TopicId>(rng->NextBounded(spec.num_topics));
    if (topics.TagTopic(w, z) > 0.0) continue;
    topics.SetTagTopic(w, z, 0.05 + 0.45 * rng->NextDouble());
    ++nonzero;
  }
  return topics;
}

InfluenceGraph GenerateInfluence(const DatasetSpec& spec, const Graph& graph,
                                 Rng* rng) {
  // Vertices belong to topic communities; an edge's primary topic is its
  // tail's community so that a user's influence is topically coherent.
  std::vector<TopicId> community(graph.num_vertices());
  for (auto& c : community) {
    c = static_cast<TopicId>(rng->NextBounded(spec.num_topics));
  }
  InfluenceGraphBuilder builder(graph.num_edges());
  std::vector<EdgeTopicEntry> entries;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    entries.clear();
    const VertexId head = graph.Head(e);
    const double in_deg =
        std::max<double>(1.0, static_cast<double>(graph.InDegree(head)));
    // Weighted-cascade flavor: harder to influence popular users.
    const double p =
        std::min(1.0, spec.edge_prob_scale * rng->NextDouble() / in_deg);
    const TopicId primary = community[graph.Tail(e)];
    entries.push_back({primary, p});
    if (spec.num_topics > 1 && rng->NextBernoulli(spec.secondary_topic_prob)) {
      auto secondary =
          static_cast<TopicId>(rng->NextBounded(spec.num_topics - 1));
      if (secondary >= primary) ++secondary;
      entries.push_back({secondary, p * 0.5});
    }
    builder.SetEdgeTopics(e, entries);
  }
  return builder.Build();
}

}  // namespace

SocialNetwork GenerateDataset(const DatasetSpec& spec) {
  PITEX_CHECK(spec.num_vertices >= 2);
  PITEX_CHECK(spec.num_topics >= 1 && spec.num_tags >= 1);
  Rng rng(spec.seed);
  SocialNetwork network;
  network.graph = GenerateTopology(spec, &rng);
  network.topics = GenerateTopicModel(spec, &rng);
  network.influence = GenerateInfluence(spec, network.graph, &rng);
  for (size_t w = 0; w < spec.num_tags; ++w) {
    network.tags.Intern(spec.name + "_tag_" + std::to_string(w));
  }
  return network;
}

const char* UserGroupName(UserGroup group) {
  switch (group) {
    case UserGroup::kHigh: return "high";
    case UserGroup::kMid: return "mid";
    case UserGroup::kLow: return "low";
  }
  return "?";
}

std::vector<VertexId> SampleUserGroup(const Graph& graph, UserGroup group,
                                      size_t count, uint64_t seed) {
  // Users with no outgoing edge are filtered (Sec. 7.1), the rest ranked
  // by out-degree.
  std::vector<VertexId> users;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.OutDegree(v) > 0) users.push_back(v);
  }
  std::sort(users.begin(), users.end(), [&](VertexId a, VertexId b) {
    return graph.OutDegree(a) > graph.OutDegree(b);
  });
  const size_t n = users.size();
  size_t begin = 0, end = n;
  const size_t p1 = std::max<size_t>(1, n / 100);
  const size_t p10 = std::max<size_t>(p1 + 1, n / 10);
  switch (group) {
    case UserGroup::kHigh: begin = 0; end = p1; break;
    case UserGroup::kMid: begin = p1; end = p10; break;
    case UserGroup::kLow: begin = p10; end = n; break;
  }
  // Few users with an out-edge put the percentile cut points past n:
  // clamp both ends so the pool is a valid (possibly empty) range.
  begin = std::min(begin, n);
  end = std::min(std::max(end, begin + 1), n);
  std::vector<VertexId> pool(users.begin() + static_cast<long>(begin),
                             users.begin() + static_cast<long>(end));
  Rng rng(seed);
  // Fisher-Yates prefix shuffle.
  const size_t take = std::min(count, pool.size());
  for (size_t i = 0; i < take; ++i) {
    const size_t j = i + rng.NextBounded(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(take);
  return pool;
}

}  // namespace pitex
