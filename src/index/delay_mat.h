// Delay materialization (Sec. 6.3, Algorithm 4) — the paper's "DelayMat".
//
// Instead of storing theta RR-Graphs, the index keeps only theta(u) = the
// number of RR-Graphs containing u, for every u (one counter per vertex —
// the Table-3 space win). At query time, theta(u) RR-Graphs are
// *recovered* with the correct conditional distribution (Theorem 3):
//   1. draw a forward live sample G' from u under the envelope p(e)
//      (every recovered graph must contain u, and conditioning a uniform
//      root on "contains u" is exactly "root uniform over R_g(u)");
//   2. pick the root v' uniformly from G' and keep the vertices of G'
//      that reach v' inside G';
//   3. re-draw c(e) ~ U(0, p(e)] for surviving edges (conditioned on
//      being live, the original c(e) had exactly this distribution):
//      each recovered graph draws one key from the query stream, and
//      its thresholds are a function of it (SketchThresholds in
//      src/index/rr_graph.h), computed where a walk probes them.
//
// Estimation note: conditioning an offline RR-Graph on "contains u"
// re-weights the live world g proportionally to |R_g(u)| (a uniform root
// lands inside R_g(u) with probability |R_g(u)|/|V|). The paper's
// Theorem-3 proof drops this size-bias term; plugging recovered graphs
// into the plain hits/theta * |V| estimator is therefore biased. We use
// the importance-corrected unbiased estimator instead:
//
//   E[I(u|W)] = E_g[ |R_g(u)| * Pr_{v' ~ U(R_g(u))}[u ~>_W v'] ]
//             ~ (1/m) * sum_i |R_{g_i}(u)| * 1[u ~>_W v'_i],
//
// with m = theta(u) recovered samples (the counters still calibrate the
// per-user sample size exactly as in the paper).

#ifndef PITEX_SRC_INDEX_DELAY_MAT_H_
#define PITEX_SRC_INDEX_DELAY_MAT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/index/rr_index.h"
#include "src/index/rr_sketch_pool.h"
#include "src/index/sketch_arena.h"

namespace pitex {

class DelayMatIndex final : public InfluenceOracle {
 public:
  DelayMatIndex(const SocialNetwork& network, const RrIndexOptions& options);

  /// Counts theta(u) for all u by sampling (and discarding) theta
  /// RR-Graphs.
  void Build();

  /// A built copy answering as a fresh Build() with the same options
  /// would: shared counters, fresh recovery state (empty cache, query RNG
  /// at its seed) whatever this index has served. Thread-safe.
  std::unique_ptr<DelayMatIndex> Replica() const;

  Estimate EstimateInfluence(VertexId u, const EdgeProbFn& probs) override;
  const char* Name() const override { return "DELAYMAT"; }

  uint64_t theta() const { return theta_; }
  size_t CountContaining(VertexId u) const { return (*counts_)[u]; }

  /// Index footprint: one counter per vertex (Table 3 metric), at 2
  /// bytes while every counter fits them.
  size_t SizeBytes() const;
  double build_seconds() const { return build_seconds_; }

 private:
  /// Recovers one RR-Graph conditioned on containing u (Algorithm 4):
  /// appends it to cached_graphs_ and its importance weight |R_g(u)|
  /// to cached_weights_.
  void RecoverRRGraph(VertexId u);

  /// Recovers (and caches) the theta(u) RR-Graphs for a query user; a
  /// PITEX query evaluates many tag sets against the same recovered
  /// graphs, exactly as Sec. 6.3 describes.
  void RecoverFor(VertexId u);

  const SocialNetwork& network_;
  RrIndexOptions options_;
  uint64_t theta_ = 0;
  /// theta(u) for every u: 2-byte counters while the largest fits
  /// them, else 4-byte ones.
  struct Counts {
    uint32_t operator[](VertexId u) const {
      return wide.empty() ? narrow[u] : wide[u];
    }
    std::vector<uint16_t> narrow;
    std::vector<uint32_t> wide;
  };

  // Null until built; immutable after, and shared by every Replica().
  std::shared_ptr<const Counts> counts_;
  Rng query_rng_;
  // Per-instance reachability scratch (DelayMat caches per query user, so
  // an instance is never shared across threads; workers serve Replica()s).
  EstimateScratch scratch_;
  double build_seconds_ = 0.0;
  bool has_cached_user_ = false;
  VertexId cached_user_ = 0;
  // Step 2 re-closes each recovered graph through the arena, straight
  // into cached_graphs_: one run holding the cached user's graphs.
  SketchArena arena_;
  RrSketchPool cached_graphs_;
  std::vector<uint64_t> cached_weights_;  // |R_g(u)| per cached graph
  std::vector<uint64_t> cached_keys_;     // threshold key per cached graph
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_DELAY_MAT_H_
