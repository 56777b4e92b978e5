// Tests for incremental index maintenance (src/index/dynamic_index.h):
// bit-identical initial state vs. the static index, exact affected-set
// computation, repair correctness against fresh rebuilds and the exact
// oracle, and deterministic repair histories.

#include "src/index/dynamic_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "running_example.h"
#include "owned_sketch.h"
#include "pool_image.h"
#include "reference_dynamic_index.h"
#include "src/datasets/synthetic.h"
#include "src/sampling/exact.h"

namespace pitex {
namespace {

RrIndexOptions DenseOptions() {
  RrIndexOptions options;
  options.theta_override = 60000;
  options.seed = 5;
  return options;
}

RrIndexOptions SmallOptions() {
  RrIndexOptions options;
  options.theta_override = 3000;
  options.seed = 5;
  return options;
}

// Compares through RRView so owning graphs and pooled views are
// interchangeable. A record's threshold is a function of the index's
// seed, the sketch's id and the model, so equal shapes at one id are
// equal sketches.
bool GraphsEqual(const RRView& a, const RRView& b) {
  const RRGraph ga = Owned(a);
  const RRGraph gb = Owned(b);
  return ga.root == gb.root && ga.vertices == gb.vertices &&
         ga.offsets == gb.offsets && ga.heads == gb.heads &&
         ga.ranks == gb.ranks;
}

TEST(DynamicRrIndexTest, InitialStateMatchesStaticIndex) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex static_index(n, SmallOptions());
  static_index.Build();
  DynamicRrIndex dynamic_index(n, SmallOptions());
  dynamic_index.Build();

  ASSERT_EQ(dynamic_index.num_graphs(), static_index.num_graphs());
  const IndexViews dynamic_views(dynamic_index, n.num_vertices());
  const IndexViews static_views(static_index, n.num_vertices());
  for (size_t i = 0; i < static_index.num_graphs(); ++i) {
    EXPECT_TRUE(GraphsEqual(dynamic_views(i), static_views(i)))
        << "graph " << i;
  }
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    EXPECT_EQ(ContainingIds(dynamic_index, v), ContainingIds(static_index, v))
        << "vertex " << v;
  }
}

TEST(DynamicRrIndexTest, AffectedSetIsContainingHead) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();

  const EdgeId e = 4;  // u4 -> u6
  const VertexId head = n.graph.Head(e);
  const size_t expected = ContainingIds(index, head).size();

  const EdgeTopicEntry entries[] = {{2, 0.3}};
  index.UpdateEdgeTopics(e, entries);
  EXPECT_EQ(index.stats().graphs_examined, expected);
  EXPECT_LE(index.stats().graphs_changed, expected);
  EXPECT_EQ(index.stats().edges_updated, 1u);
  EXPECT_EQ(index.stats().update_batches, 1u);
}

TEST(DynamicRrIndexTest, UpdateSwapsInfluenceModel) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();

  const EdgeTopicEntry entries[] = {{0, 0.9}};
  index.UpdateEdgeTopics(0, entries);
  EXPECT_DOUBLE_EQ(index.network().influence.MaxProb(0), 0.9);
  EXPECT_DOUBLE_EQ(index.network().influence.EdgeTopicProb(0, 0), 0.9);
  // Caller's network is untouched.
  EXPECT_DOUBLE_EQ(n.influence.MaxProb(0), 0.4);
}

TEST(DynamicRrIndexTest, DeletingEntriesZeroesEnvelope) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  index.UpdateEdgeTopics(0, {});
  EXPECT_DOUBLE_EQ(index.network().influence.MaxProb(0), 0.0);
}

TEST(DynamicRrIndexTest, ZeroedOutEdgesKillInfluence) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, DenseOptions());
  index.Build();

  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);

  // Zero both of u1's out-edges: u1 can no longer influence anybody.
  std::vector<EdgeInfluenceUpdate> updates(2);
  updates[0].edge = 0;
  updates[1].edge = 1;
  index.ApplyUpdates(updates);

  // Only graphs rooted at u1 still count u1 (trivial self-reach), so the
  // estimate concentrates on exactly 1.0 up to root-sampling noise.
  const PosteriorProbs probs(index.network().influence, post);
  EXPECT_NEAR(index.EstimateInfluence(0, probs).influence, 1.0, 0.05);
}

TEST(DynamicRrIndexTest, RaisingProbabilityIncreasesSpread) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, DenseOptions());
  index.Build();

  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs before_probs(index.network().influence, post);
  const double before = index.EstimateInfluence(0, before_probs).influence;

  // Crank edge u1 -> u3 (the gateway to the whole z3 cluster) to 1.
  const EdgeTopicEntry entries[] = {{1, 1.0}, {2, 1.0}};
  index.UpdateEdgeTopics(1, entries);
  const PosteriorProbs after_probs(index.network().influence, post);
  const double after = index.EstimateInfluence(0, after_probs).influence;
  EXPECT_GT(after, before);
}

TEST(DynamicRrIndexTest, RepairAgreesWithExactOracle) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, DenseOptions());
  index.Build();

  // A batch of model changes across the graph.
  std::vector<EdgeInfluenceUpdate> updates(3);
  updates[0].edge = 1;
  updates[0].entries = {{1, 0.8}, {2, 0.2}};
  updates[1].edge = 4;
  updates[1].entries = {{2, 0.3}};
  updates[2].edge = 6;
  updates[2].entries = {{2, 0.9}};
  index.ApplyUpdates(updates);

  for (TagId a = 0; a < 4; ++a) {
    for (TagId b = a + 1; b < 4; ++b) {
      const TagId tags[] = {a, b};
      const auto post = index.network().topics.Posterior(tags);
      const PosteriorProbs probs(index.network().influence, post);
      const double exact =
          ExactInfluence(index.network().graph, probs, 0);
      const Estimate est = index.EstimateInfluence(0, probs);
      EXPECT_NEAR(est.influence, exact, 0.06 * exact + 0.02)
          << "tags " << a << "," << b;
    }
  }
}

TEST(DynamicRrIndexTest, RepairAgreesWithFreshRebuild) {
  DatasetSpec spec = LastfmSpec(0.4);
  spec.seed = 17;
  const SocialNetwork n = GenerateDataset(spec);

  RrIndexOptions options;
  options.theta_override = 40000;
  options.seed = 9;
  DynamicRrIndex dynamic_index(n, options);
  dynamic_index.Build();

  // Update a handful of edges.
  std::vector<EdgeInfluenceUpdate> updates;
  for (EdgeId e = 0; e < 10; ++e) {
    EdgeInfluenceUpdate update;
    update.edge = e * 97 % n.num_edges();
    update.entries = {{static_cast<TopicId>(e % n.topics.num_topics()),
                       0.05 + 0.02 * static_cast<double>(e % 5)}};
    updates.push_back(std::move(update));
  }
  dynamic_index.ApplyUpdates(updates);

  // A fresh index on the updated network must agree statistically.
  RrIndexOptions rebuild_options = options;
  rebuild_options.seed = 1234;  // independent randomness
  RrIndex rebuilt(dynamic_index.network(), rebuild_options);
  rebuilt.Build();

  const TagId tags[] = {0, 1};
  const auto post = dynamic_index.network().topics.Posterior(tags);
  const PosteriorProbs probs(dynamic_index.network().influence, post);
  const auto users = SampleUserGroup(n.graph, UserGroup::kHigh, 3, 7);
  for (const VertexId u : users) {
    const double repaired = dynamic_index.EstimateInfluence(u, probs).influence;
    const double fresh = rebuilt.EstimateInfluence(u, probs).influence;
    EXPECT_NEAR(repaired, fresh, 0.15 * fresh + 0.3) << "user " << u;
  }
}

TEST(DynamicRrIndexTest, LaterDuplicateWins) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();

  std::vector<EdgeInfluenceUpdate> updates(2);
  updates[0].edge = 0;
  updates[0].entries = {{0, 0.1}};
  updates[1].edge = 0;
  updates[1].entries = {{0, 0.7}};
  index.ApplyUpdates(updates);
  // Updates apply sequentially; the final model reflects the last one.
  EXPECT_DOUBLE_EQ(index.network().influence.MaxProb(0), 0.7);
  EXPECT_EQ(index.stats().edges_updated, 2u);
}

TEST(DynamicRrIndexTest, FootprintAtRestHasNoPerEdgeTerm) {
  // After Build() the master holds its sketch base and an empty overlay,
  // nothing else: the influence model is shared with the caller's
  // network, and envelopes are read from it rather than mirrored in an
  // O(|E|) table.
  DatasetSpec spec = LastfmSpec(0.3);
  spec.seed = 31;
  const SocialNetwork n = GenerateDataset(spec);
  RrIndexOptions options = SmallOptions();
  options.theta_override = 64;
  DynamicRrIndex index(n, options);
  index.Build();
  const auto frozen = index.Freeze(n, /*compact=*/false);
  EXPECT_EQ(index.SizeBytes(), sizeof(DynamicRrIndex) +
                                   frozen->pool().SizeBytes() +
                                   RrSketchOverlay().SizeBytes());
  // 64 sketches cost far less than one float per edge.
  EXPECT_LT(index.SizeBytes(), n.num_edges() * sizeof(float));
}

TEST(DynamicRrIndexTest, OverlayFullCompactionLeavesBasePlusOverlay) {
  // A compaction the overlay's size forces -- in a freeze not asked to
  // compact, or at the start of an update batch -- leaves the master
  // holding its new base and an empty overlay, and nothing else.
  DatasetSpec spec = LastfmSpec(0.3);
  spec.seed = 31;
  const SocialNetwork n = GenerateDataset(spec);
  RrIndexOptions options = SmallOptions();
  options.theta_override = 64;
  DynamicRrIndex index(n, options);
  index.Build();
  const auto at_rest = [&] {
    return sizeof(DynamicRrIndex) +
           index.Freeze(index.network(), /*compact=*/false)->pool().SizeBytes() +
           RrSketchOverlay().SizeBytes();
  };
  // Drops edges one at a time until the overlay passes its bound.
  EdgeId next = 0;
  const auto fill = [&] {
    while (static_cast<double>(index.overlay_sketches()) <=
           kOverlayCompactFraction * static_cast<double>(index.theta())) {
      ASSERT_LT(next, n.num_edges()) << "fixture: too few repairs";
      index.UpdateEdgeTopics(next++, {});
    }
  };

  fill();
  index.Freeze(index.network(), /*compact=*/false);
  EXPECT_EQ(index.stats().compactions, 1u);
  EXPECT_EQ(index.overlay_sketches(), 0u);
  EXPECT_EQ(index.SizeBytes(), at_rest());

  fill();
  // An update to the edge's current topics repairs nothing, so only the
  // batch's compaction changes the master.
  EdgeInfluenceUpdate same;
  same.edge = 0;
  const auto topics = index.network().influence.EdgeTopics(same.edge);
  same.entries.assign(topics.begin(), topics.end());
  index.ApplyUpdates(std::span(&same, 1));
  EXPECT_EQ(index.stats().compactions, 2u);
  EXPECT_EQ(index.overlay_sketches(), 0u);
  EXPECT_EQ(index.SizeBytes(), at_rest());
}

TEST(DynamicRrIndexTest, UpdateValidatorNamesEachDefect) {
  const SocialNetwork n = MakeRunningExample();
  const auto topics = static_cast<TopicId>(n.topics.num_topics());
  const auto reason = [&n](EdgeId edge, std::vector<EdgeTopicEntry> entries) {
    const char* why = InvalidUpdateReason({edge, std::move(entries)}, n);
    return std::string(why == nullptr ? "" : why);
  };
  EXPECT_EQ(reason(0, {{0, 0.3}, {2, 1.0}}), "");
  EXPECT_EQ(reason(0, {}), "");
  // A zero entry is dropped, so it may repeat a positive entry's topic.
  EXPECT_EQ(reason(0, {{1, 0.0}, {1, 0.3}}), "");
  EXPECT_EQ(reason(static_cast<EdgeId>(n.num_edges()), {}), "unknown edge");
  EXPECT_EQ(reason(0, {{0, 1.5}}), "probability out of [0, 1]");
  EXPECT_EQ(reason(0, {{0, -0.1}}), "probability out of [0, 1]");
  EXPECT_EQ(reason(0, {{0, std::numeric_limits<double>::infinity()}}),
            "probability out of [0, 1]");
  EXPECT_EQ(reason(0, {{topics, 0.3}}), "unknown topic");
  EXPECT_EQ(reason(0, {{topics, 0.0}}), "unknown topic");
  EXPECT_EQ(reason(0, {{1, 0.2}, {1, 0.3}}), "duplicate topic");
}

TEST(DynamicRrIndexDeathTest, BuildOverNoVerticesDies) {
  // A sampler has no root to draw from a network with no vertices.
  SocialNetwork n;
  n.graph = GraphBuilder(0).Build();
  n.topics = TopicModel(1, 1);
  n.influence = InfluenceGraphBuilder(0).Build();
  DynamicRrIndex index(n, SmallOptions());
  EXPECT_DEATH(index.Build(), "network with no vertices");
}

TEST(DynamicRrIndexTest, EmptyBatchIsNoop) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  index.ApplyUpdates({});
  EXPECT_EQ(index.stats().update_batches, 0u);
  EXPECT_EQ(index.stats().graphs_examined, 0u);
}

TEST(DynamicRrIndexTest, RepairHistoryIsDeterministic) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex a(n, SmallOptions());
  DynamicRrIndex b(n, SmallOptions());
  a.Build();
  b.Build();

  for (int round = 0; round < 3; ++round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>(round * 2 % 7);
    update.entries = {{2, 0.1 + 0.2 * round}};
    a.ApplyUpdates(std::span(&update, 1));
    b.ApplyUpdates(std::span(&update, 1));
  }
  ASSERT_EQ(a.num_graphs(), b.num_graphs());
  const IndexViews a_views(a, n.num_vertices());
  const IndexViews b_views(b, n.num_vertices());
  for (size_t i = 0; i < a.num_graphs(); ++i) {
    EXPECT_TRUE(GraphsEqual(a_views(i), b_views(i))) << "graph " << i;
  }
}

TEST(DynamicRrIndexTest, NoopUpdateLeavesEveryGraphIdentical) {
  // Coin coupling makes a same-probability update a structural no-op:
  // live edges satisfy c < p_new = p_old, dead edges resurrect with
  // probability 0. (Full regeneration — the naive repair — would redraw
  // the graphs and, worse, bias the ensemble toward worlds that never
  // probed the edge.)
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  std::vector<RRGraph> snapshot;
  const IndexViews views(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    snapshot.emplace_back().Assign(views(i));
  }

  std::vector<EdgeTopicEntry> same(n.influence.EdgeTopics(1).begin(),
                                   n.influence.EdgeTopics(1).end());
  index.UpdateEdgeTopics(1, same);

  EXPECT_GT(index.stats().graphs_examined, 0u);
  EXPECT_EQ(index.stats().graphs_changed, 0u);
  const IndexViews after(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    ASSERT_TRUE(GraphsEqual(after(i), snapshot[i])) << "graph " << i;
  }
}

TEST(DynamicRrIndexTest, ProbabilityDropNeverGrowsGraphs) {
  // Lowering an envelope can only kill the edge (c >= p_new) and prune;
  // every repaired graph must be a sub-structure of its old self.
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  std::vector<size_t> before;
  const IndexViews views(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    before.push_back(views(i).vertices.size());
  }

  const EdgeTopicEntry entries[] = {{2, 0.1}};  // e4 was z3:0.8
  index.UpdateEdgeTopics(4, entries);
  const IndexViews after(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    EXPECT_LE(after(i).vertices.size(), before[i]) << "graph " << i;
  }
}

TEST(DynamicRrIndexTest, ProbabilityRaiseNeverShrinksGraphs) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  std::vector<size_t> before;
  size_t total_before = 0;
  const IndexViews views(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    before.push_back(views(i).vertices.size());
    total_before += before.back();
  }

  const EdgeTopicEntry entries[] = {{2, 0.95}};  // e4 raised from 0.8
  index.UpdateEdgeTopics(4, entries);
  size_t total_after = 0;
  const IndexViews after(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    EXPECT_GE(after(i).vertices.size(), before[i]) << "graph " << i;
    total_after += after(i).vertices.size();
  }
  // With thousands of graphs, some resurrection must have occurred.
  EXPECT_GT(total_after, total_before);
}

TEST(DynamicRrIndexTest, ContainmentStaysConsistentAfterRepairs) {
  DatasetSpec spec = LastfmSpec(0.3);
  spec.seed = 23;
  const SocialNetwork n = GenerateDataset(spec);
  RrIndexOptions options;
  options.theta_override = 2000;
  DynamicRrIndex index(n, options);
  index.Build();

  for (int round = 0; round < 5; ++round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>((round * 131) % n.num_edges());
    update.entries = {{static_cast<TopicId>(round % n.topics.num_topics()),
                       0.2}};
    index.ApplyUpdates(std::span(&update, 1));
  }

  // Invariant: v's containment list holds exactly the graphs whose
  // vertex set includes v.
  size_t listed = 0;
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    for (const uint32_t id : ContainingIds(index, v)) {
      EXPECT_TRUE(index.graph(id, v).LocalIndex(v).has_value());
      ++listed;
    }
  }
  size_t contained = 0;
  const IndexViews views(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    contained += views(i).vertices.size();
  }
  EXPECT_EQ(listed, contained);
}

// The Rice parameter of the hub network's pool below: 40,000 sketches
// over 12,000 vertices, whose lists' root gaps k = 10 codes in the
// fewest bits.
constexpr uint32_t kHubK = 10;

// The unary run of a root gap's Rice code at kHubK.
uint32_t RunOfGap(uint32_t gap) { return gap >> kHubK; }

// 12,000 users. Candidates 1..200 each have a certain edge to two
// anchors, 4,000 + c and 5,500 + c, and an edge into their own hub,
// 4,750 + c, that no topic carries. Fillers 10,000..11,999 each have
// certain edges to five targets, 5 (f - 10,000) to 5 (f - 10,000) + 4,
// so a third of the sketches hold one. A candidate's list is its
// anchors' root ranges (a repair keeps roots): two entries, roots
// 4,000 + c and 5,500 + c, whose gap of 1,499 codes a unary run of 1 at
// kHubK, around its hub's root, whose gaps of 749 from each anchor's
// code none. A hub is the root of a few sketches, so some hubs are the
// root of none.
constexpr VertexId kFirstCandidate = 1;
constexpr VertexId kEndCandidate = 201;
constexpr VertexId kFirstFiller = 10000;
constexpr VertexId kNumUsers = 12000;

VertexId HubOf(VertexId candidate) { return 4750 + candidate; }

SocialNetwork MakeHubNetwork() {
  SocialNetwork network;
  GraphBuilder graph(kNumUsers);
  for (VertexId c = kFirstCandidate; c < kEndCandidate; ++c) {
    graph.AddEdge(c, 4000 + c);
    graph.AddEdge(c, 5500 + c);
    graph.AddEdge(c, HubOf(c));
  }
  for (VertexId f = kFirstFiller; f < kNumUsers; ++f) {
    for (VertexId t = 0; t < 5; ++t) {
      graph.AddEdge(f, 5 * (f - kFirstFiller) + t);
    }
  }
  network.graph = graph.Build();
  network.topics = TopicModel(1, 1);
  network.topics.SetTagTopic(0, 0, 1.0);
  InfluenceGraphBuilder influence(network.graph.num_edges());
  const EdgeTopicEntry one{0, 1.0};
  for (VertexId v = 0; v < kNumUsers; ++v) {
    for (const AdjEntry& out : network.graph.OutEdges(v)) {
      // The candidates' edges into their hubs are the only ones no
      // topic carries.
      if (v >= kEndCandidate || out.vertex != HubOf(v)) {
        influence.SetEdgeTopics(out.edge, std::span(&one, 1));
      }
    }
  }
  network.influence = influence.Build();
  network.tags.Intern("w");
  return network;
}

// True when a list naming `roots` (ascending, each once) gains an
// entry for root h between two of them whose gap's code has a unary
// run, splitting it into two gaps whose codes have none.
bool SplitsLongCode(const std::vector<VertexId>& roots, VertexId h) {
  for (size_t j = 1; j < roots.size(); ++j) {
    const VertexId a = roots[j - 1];
    const VertexId b = roots[j];
    if (a < h && h < b) {
      const uint32_t whole = RunOfGap(b - a - 1);
      return whole > 0 && RunOfGap(h - a - 1) == 0 &&
             RunOfGap(b - h - 1) == 0;
    }
  }
  return false;
}

// The roots a list names, ascending, each once.
std::vector<VertexId> RootsOf(const ContainingList& list) {
  std::vector<VertexId> roots;
  for (auto it = list.begin(); it != list.end(); ++it) {
    if (roots.empty() || roots.back() != it.root()) {
      roots.push_back(it.root());
    }
  }
  return roots;
}

// Every list `before` serves, repairs in its overlay re-coded by
// splices, against the lists of `folded`, its base and overlay folded
// into one pool: the same ids in the same order, each with the same
// root, and at the same k the same bits.
void ExpectListsAsFolded(const RrIndex& before, const RrIndex& folded) {
  const bool same_k =
      before.pool().containing_k() == folded.pool().containing_k();
  for (VertexId v = 0; v < before.num_vertices(); ++v) {
    const ContainingList got = before.NonRootContaining(v);
    const ContainingList want = folded.NonRootContaining(v);
    ASSERT_EQ(RootedIds(got), RootedIds(want)) << "vertex " << v;
    if (same_k) {
      ASSERT_EQ(got.bits(), want.bits()) << "vertex " << v;
    }
  }
}

void ExpectSameContaining(const DynamicRrIndex& got,
                          const ReferenceDynamicRrIndex& want) {
  for (VertexId v = 0; v < got.network().num_vertices(); ++v) {
    ASSERT_EQ(ContainingIds(got, v), want.Containing(v)) << "vertex " << v;
  }
}

TEST(DynamicRrIndexTest, RepairSpliceChangesCodedGapLengths) {
  // Raising a candidate's edge into its hub to certain puts the
  // candidate into every sketch holding the hub, which are its root
  // range: the candidate's list gains an entry for the hub, which splits
  // a root gap whose Rice code has a unary run into two whose codes have
  // none. Deleting the edge again takes it out, merging the two
  // gaps back. The re-coded lists must match the reference's after each
  // batch, and the lists a compaction folds from them (overlay inserts
  // and removes alike).
  const SocialNetwork n = MakeHubNetwork();
  RrIndexOptions options;
  options.theta_override = 40000;
  options.seed = 9;
  DynamicRrIndex index(n, options);
  index.Build();
  ReferenceDynamicRrIndex reference(n, options);
  reference.Build();
  // Sanity of the fixture: the pool codes its lists at kHubK.
  ASSERT_EQ(index.Freeze(n, /*compact=*/false)->pool().containing_k(), kHubK);

  VertexId candidate = kEndCandidate;
  for (VertexId c = kFirstCandidate; c < kEndCandidate; ++c) {
    if (!reference.Containing(HubOf(c)).empty() &&
        SplitsLongCode(RootsOf(index.NonRootContaining(c)), HubOf(c))) {
      candidate = c;
      break;
    }
  }
  ASSERT_NE(candidate, kEndCandidate) << "fixture: no gap to split";
  const std::vector<uint32_t>& hub = reference.Containing(HubOf(candidate));
  const std::vector<uint32_t> before = reference.Containing(candidate);
  std::vector<uint32_t> merged;
  std::ranges::set_union(before, hub, std::back_inserter(merged));
  const uint64_t bits_before = index.NonRootContaining(candidate).bits();

  EdgeId edge = 0;
  for (const AdjEntry& in : n.graph.InEdges(HubOf(candidate))) {
    if (in.vertex == candidate) edge = in.edge;
  }
  EdgeInfluenceUpdate update;
  update.edge = edge;
  update.entries = {{0, 1.0}};
  index.ApplyUpdates(std::span(&update, 1));
  reference.ApplyUpdates(std::span(&update, 1));
  EXPECT_EQ(reference.Containing(candidate), merged);
  ExpectSameContaining(index, reference);
  EXPECT_NE(index.NonRootContaining(candidate).bits(), bits_before);
  {
    const auto repaired = index.Freeze(n, /*compact=*/false);
    ASSERT_GT(index.overlay_sketches(), 0u);
    index.Compact();
    ExpectListsAsFolded(*repaired, *index.Freeze(n, /*compact=*/false));
  }

  update.entries.clear();
  index.ApplyUpdates(std::span(&update, 1));
  reference.ApplyUpdates(std::span(&update, 1));
  EXPECT_EQ(reference.Containing(candidate), before);
  ExpectSameContaining(index, reference);
  EXPECT_EQ(index.NonRootContaining(candidate).bits(), bits_before);

  ASSERT_GT(index.overlay_sketches(), 0u);
  const auto repaired = index.Freeze(n, /*compact=*/false);
  index.Compact();
  EXPECT_EQ(index.overlay_sketches(), 0u);
  ExpectSameContaining(index, reference);
  ExpectListsAsFolded(*repaired, *index.Freeze(n, /*compact=*/false));
}

TEST(DynamicRrIndexTest, CompactionSharesAsFromRunsOfItsViews) {
  // After a fixed repair history (raises, lowerings and deletions), the
  // compaction's pool (RrSketchOverlay::Fold, which copies blocks and
  // shares each repeat of a range's first copy) is byte for byte the
  // pool FromRuns finishes from the same sketches appended from their
  // views (PackViews): the build and the fold share by one rule.
  const SocialNetwork n = GenerateDataset(LastfmSpec(0.1));
  RrIndexOptions options = SmallOptions();
  options.theta_override = 20000;
  DynamicRrIndex index(n, options);
  index.Build();
  for (int round = 0; round < 9; ++round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>((round * 7919) % n.num_edges());
    const auto topic = static_cast<TopicId>(round % n.topics.num_topics());
    if (round % 3 == 1) update.entries = {{topic, 0.9}};
    if (round % 3 == 2) update.entries = {{topic, 0.05}};
    index.ApplyUpdates(std::span(&update, 1));
  }
  ASSERT_GT(index.overlay_sketches(), 0u);
  const std::unique_ptr<RrIndex> repaired =
      index.Freeze(index.network(), /*compact=*/false);
  ASSERT_EQ(index.stats().compactions, 0u);
  const IndexViews views(*repaired, n.num_vertices());
  const RrSketchPool packed =
      PackViews(repaired->num_graphs(), RrSketchPool(n.graph), views);
  const std::unique_ptr<RrIndex> folded =
      index.Freeze(index.network(), /*compact=*/true);
  ASSERT_EQ(index.stats().compactions, 1u);
  EXPECT_EQ(pool_image::PoolDifference(n, folded->pool(), packed), "");
}

TEST(DynamicRrIndexTest, RepairOfASharedIdLeavesItsRangeAlone) {
  // A repair is copy-on-write per id. Replacing the first copy of a
  // shared block (here by a singleton of its root) changes that id's
  // view alone, in the overlay and after Fold, which stores the block
  // again at its next repeat; the fold is the pool PackViews makes of
  // the same views.
  const SocialNetwork n = MakeRunningExample();
  RrIndexOptions options = SmallOptions();
  options.theta_override = 512;
  RrIndex index(n, options);
  index.Build();
  const RrSketchPool& base = index.pool();
  std::vector<RRGraph> before;
  for (uint32_t i = 0; i < base.num_sketches(); ++i) {
    before.push_back(Owned(base.View(i, base.RootOf(i))));
  }
  // The first id of a range whose block a later id of the range repeats.
  std::optional<uint32_t> shared;
  for (uint32_t i = 0; i < before.size() && !shared; ++i) {
    if (base.IsSingleton(i)) continue;
    for (const uint32_t j : base.RootRange(before[i].root)) {
      if (j > i && GraphsEqual(before[j], before[i])) {
        shared = i;
        break;
      }
    }
  }
  ASSERT_TRUE(shared.has_value()) << "fixture: no shared block";
  const VertexId root = before[*shared].root;
  const RRGraph replacement{root, {root}, {0, 0}, {}, {}};

  RrSketchOverlay overlay(base);
  overlay.Put(*shared, replacement);
  const RrSketchPool folded = overlay.Fold(base);
  for (uint32_t i = 0; i < before.size(); ++i) {
    const VertexId u = before[i].root;
    const uint32_t slot = overlay.SlotOf(i);
    const RRView current = slot == RrSketchOverlay::kNotRepaired
                               ? base.View(i, u)
                               : overlay.View(slot, u);
    const RRGraph& want = i == *shared ? replacement : before[i];
    EXPECT_TRUE(GraphsEqual(current, want)) << "overlay, sketch " << i;
    EXPECT_TRUE(GraphsEqual(folded.View(i, u), want)) << "fold, sketch " << i;
  }
  const RrSketchPool packed =
      PackViews(folded.num_sketches(), RrSketchPool(n.graph),
                [&](size_t i) { return folded.View(i, before[i].root); });
  EXPECT_EQ(pool_image::PoolDifference(n, folded, packed), "");
}

}  // namespace
}  // namespace pitex
