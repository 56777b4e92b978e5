// Edge-cut pruning with inverted lists over RR-Graphs (Sec. 6.2) — the
// paper's "IndexEst+".
//
// For a query user u and each RR-Graph containing u, a small edge cut is
// chosen such that u can reach the root only if at least one cut edge is
// live under W. Two candidate cuts are compared (Example 7): u's out-edges
// inside the RR-Graph, and the root's in-edges inside it; the one with the
// higher pruning probability prod_e c(e)/p(e) wins. Cut edges are indexed
// by inverted lists sorted by c(e): given W, scanning a list stops at the
// first entry with c(e) > p(e|W), and every unvisited RR-Graph whose cut
// is entirely dead is pruned without traversal. Surviving candidates are
// verified by the Definition-3 BFS.
//
// Per-user filters are built lazily on first query and cached.

#ifndef PITEX_SRC_INDEX_EDGE_CUT_H_
#define PITEX_SRC_INDEX_EDGE_CUT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/index/rr_index.h"

namespace pitex {

/// Which edge cut to use as the per-RR-Graph filter. The paper picks the
/// better of the two candidates per graph (Example 7); the fixed policies
/// exist for the ablation bench.
enum class CutPolicy {
  kBestOfTwo,    // paper behaviour: higher pruning probability wins
  kOutEdges,     // always the query user's out-edges
  kRootInEdges,  // always the root's in-edges
};

class PrunedRrIndex final : public InfluenceOracle {
 public:
  /// `base` must outlive this object and be built.
  explicit PrunedRrIndex(const RrIndex* base, const InfluenceGraph* influence,
                         CutPolicy policy = CutPolicy::kBestOfTwo);

  Estimate EstimateInfluence(VertexId u, const EdgeProbFn& probs) override;
  const char* Name() const override { return "INDEXEST+"; }

  /// Statistics from the most recent estimation (for Fig. 7 analysis).
  struct FilterStats {
    uint64_t candidates = 0;
    uint64_t pruned = 0;
  };
  const FilterStats& last_stats() const { return last_stats_; }

 private:
  struct InvertedEntry {
    double threshold;   // c(e) in the owning RR-Graph
    uint32_t graph_id;  // position in the base index
    VertexId root;      // its root, in what would be padding
  };
  static_assert(sizeof(InvertedEntry) == 16);
  struct UserFilter {
    /// Distinct cut edges, paralleled by their inverted lists (sorted by
    /// ascending threshold).
    std::vector<EdgeId> cut_edges;
    std::vector<std::vector<InvertedEntry>> lists;
    /// How many RR-Graphs u roots: always reachable, never filtered.
    uint64_t trivial = 0;
    uint64_t num_graphs = 0;
  };

  const UserFilter& FilterFor(VertexId u);

  friend struct PrunedRrIndexPeer;  // tests hash the filters

  const RrIndex* base_;
  const InfluenceGraph* influence_;
  CutPolicy policy_;
  std::unordered_map<VertexId, UserFilter> cache_;
  FilterStats last_stats_;
  // Per-instance query scratch (a PrunedRrIndex is per-worker state, like
  // its filter cache): verification BFS scratch plus the surviving-
  // candidate buffer, both reused so estimation stops allocating once
  // warmed up.
  EstimateScratch scratch_;
  std::vector<RootedId> candidates_;
  DecodedSketch decoded_;  // FilterFor's sketch
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_EDGE_CUT_H_
