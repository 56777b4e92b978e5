// Bottom-k combined reachability sketches over envelope possible worlds —
// a constant-time influence screening oracle.
//
// Every PITEX method ultimately spends per-query work proportional to
// reach sizes. Some applications only need a *screening* answer first:
// "roughly how influential can user u ever be?" (the |W| = 0 root bound
// of best-effort exploration, Lemma 8 with p+(e|emptyset) = max_z
// p(e|z)), or "which users are worth a full PITEX query at all?". This
// module answers those in O(sketch size) per user after one offline
// pass, using the classic bottom-k reachability-set size estimator
// (Cohen) over L independent possible worlds sampled under the envelope
// probabilities p(e) = max_z p(e|z) — the same envelope the RR-Graph
// index samples (Definition 2), so the estimate targets E[I(u|*)], which
// dominates E[I(u|W)] for every tag set W.
//
// Construction: for each world, every vertex draws a uniform rank; a
// backward fix-point propagation merges bottom-k rank sets along live
// edges (u keeps the k smallest ranks among {(world, v) : u reaches v}).
// Estimation: with tau_k the k-th smallest rank of u's combined sketch,
// |{(i, v) : v in R_i(u)}| ~ (k-1)/tau_k, and dividing by L gives
// E[I(u|*)]. When fewer than k elements were ever seen the count is
// exact.
//
// The estimate is statistical: it concentrates around the envelope
// influence (an upper bound for every W) but is not a deterministic
// bound — callers screening for admissibility should inflate by a slack
// factor. bench/ablation_sketch.cc measures accuracy and speed against
// sampling the envelope directly.

#ifndef PITEX_SRC_SAMPLING_SKETCH_ORACLE_H_
#define PITEX_SRC_SAMPLING_SKETCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/model/influence_graph.h"

namespace pitex {

struct SketchOptions {
  /// Bottom-k sketch size per vertex. Relative error of the size
  /// estimator is O(1/sqrt(k)).
  size_t sketch_size = 64;
  /// Number of envelope possible worlds averaged over.
  size_t num_worlds = 32;
  uint64_t seed = 77;
};

class SketchOracle {
 public:
  /// `network` must outlive the oracle.
  explicit SketchOracle(const SocialNetwork* network,
                        const SketchOptions& options = {});

  /// Samples the worlds and builds all vertex sketches.
  void Build();

  /// Screening estimate of the envelope influence E[I(u|*)] — the spread
  /// when every edge fires with p(e) = max_z p(e|z). Concentrates on an
  /// upper bound of E[I(u|W)] for every tag set W. Requires Build().
  double EnvelopeInfluence(VertexId u) const;

  /// The `count` users with the largest screening estimates, descending
  /// (ties broken by smaller vertex id). Requires Build().
  std::vector<std::pair<VertexId, double>> TopInfluencers(size_t count) const;

  /// Approximate memory footprint of the sketches.
  size_t SizeBytes() const;
  double build_seconds() const { return build_seconds_; }

 private:
  const SocialNetwork* network_;
  SketchOptions options_;
  // All sketches in one rectangle: sketch of u occupies
  // [u * sketch_size, (u+1) * sketch_size), padded with +inf.
  std::vector<float> sketches_;
  std::vector<uint32_t> sketch_counts_;  // valid entries per vertex
  bool built_ = false;
  double build_seconds_ = 0.0;
};

}  // namespace pitex

#endif  // PITEX_SRC_SAMPLING_SKETCH_ORACLE_H_
