// Test fixture: a directed cycle of n users whose every edge is certain,
// so each sketch sampled on it holds all n users and n edges. Tests use
// it to reach the pool's wide blocks (past 256 local ids, past 65,536
// vertices) and as a network large enough for hand-packed sketches over
// high vertex ids.

#ifndef PITEX_TESTS_CERTAIN_CYCLE_H_
#define PITEX_TESTS_CERTAIN_CYCLE_H_

#include <span>

#include "src/model/influence_graph.h"

namespace pitex {

inline SocialNetwork MakeCertainCycle(VertexId n) {
  SocialNetwork network;
  GraphBuilder graph(n);
  for (VertexId v = 0; v < n; ++v) graph.AddEdge(v, (v + 1) % n);
  network.graph = graph.Build();
  network.topics = TopicModel(1, 1);
  network.topics.SetTagTopic(0, 0, 1.0);
  InfluenceGraphBuilder influence(network.graph.num_edges());
  const EdgeTopicEntry certain{0, 1.0};
  for (EdgeId e = 0; e < network.graph.num_edges(); ++e) {
    influence.SetEdgeTopics(e, std::span(&certain, 1));
  }
  network.influence = influence.Build();
  network.tags.Intern("w");
  return network;
}

}  // namespace pitex

#endif  // PITEX_TESTS_CERTAIN_CYCLE_H_
