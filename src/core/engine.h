// PitexEngine: the library's top-level facade.
//
// Selects one of the paper's seven estimation methods, optionally builds
// the offline index, and answers PITEX queries via best-effort exploration
// (default) or plain enumeration. Typical use:
//
//   pitex::SocialNetwork network = ...;
//   pitex::EngineOptions options;
//   options.method = pitex::Method::kIndexEstPlus;
//   pitex::PitexEngine engine(&network, options);
//   engine.BuildIndex();  // no-op for online methods
//   pitex::PitexResult r = engine.Explore({.user = 42, .k = 3});

#ifndef PITEX_SRC_CORE_ENGINE_H_
#define PITEX_SRC_CORE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/best_effort_solver.h"
#include "src/core/query.h"
#include "src/core/upper_bound.h"
#include "src/index/delay_mat.h"
#include "src/index/edge_cut.h"
#include "src/index/rr_index.h"
#include "src/sampling/influence_estimator.h"
#include "src/sampling/sample_size.h"
#include "src/sampling/tim_estimator.h"

namespace pitex {

/// The estimation methods compared in Sec. 7.
enum class Method {
  kMc,           // Monte-Carlo sampling (Sec. 4)
  kRr,           // Reverse-reachable sampling (Sec. 4)
  kLazy,         // Lazy propagation sampling (Sec. 5.1)
  kTim,          // Tree-based baseline (Sec. 7.1)
  kIndexEst,     // RR-Graph index (Sec. 6.1)
  kIndexEstPlus, // + edge-cut pruning (Sec. 6.2)
  kDelayMat,     // delay materialization (Sec. 6.3)
  kLt,           // Linear Threshold sampling (footnote 1 extension)
};

/// Parses/prints method names as used in the paper's figures.
const char* MethodName(Method method);

struct EngineOptions {
  Method method = Method::kLazy;
  /// Accuracy knobs (defaults match Sec. 7.3: eps=0.7, delta=1000).
  double eps = 0.7;
  double delta = 1000.0;
  /// Use best-effort exploration (Sec. 5.2); all reported methods do.
  bool best_effort = true;
  /// Sampling caps (see SampleSizePolicy).
  uint64_t min_samples = 32;
  uint64_t max_samples = 1 << 15;
  /// Index parameters (methods kIndexEst / kIndexEstPlus / kDelayMat);
  /// cap_k, max_theta and the build's thread count keep RrIndexOptions'
  /// defaults.
  double index_theta_per_vertex = 1.0;
  /// TIM parameters.
  TimOptions tim;
  uint64_t seed = 1;
};

/// The index options an engine with `options` builds with: eps, delta,
/// theta_per_vertex and seed. The rest keep RrIndexOptions' defaults;
/// a caller may set num_build_threads for its own build.
RrIndexOptions IndexOptionsFor(const EngineOptions& options);

class PitexEngine {
 public:
  /// `network` must outlive the engine.
  PitexEngine(const SocialNetwork* network, const EngineOptions& options);
  ~PitexEngine();

  PitexEngine(const PitexEngine&) = delete;
  PitexEngine& operator=(const PitexEngine&) = delete;

  /// Builds the offline index when the method requires one; no-op (and
  /// zero cost) otherwise. Must be called before Explore for index
  /// methods.
  void BuildIndex();

  /// Serves kIndexEst / kIndexEstPlus from an externally owned, already
  /// built RR-Graph index instead of building one. RrIndex estimation is
  /// read-only after Build() and keeps its reachability scratch
  /// per-thread, so one index may back many engines concurrently — this
  /// is how PitexService shares the offline cost across workers and how a
  /// server adopts an index loaded via LoadRrIndex. `shared` must
  /// outlive the engine. Call before BuildIndex().
  void UseSharedRrIndex(RrIndex* shared);

  /// Serves kDelayMat from an externally built index, such as a
  /// DelayMatIndex::Replica() of a shared prototype (how PitexService
  /// binds its workers), never the prototype itself. DelayMat caches
  /// recovered graphs per query user, so an instance must never be
  /// shared across engines — ownership transfers. Call before
  /// BuildIndex().
  void AdoptDelayMatIndex(std::unique_ptr<DelayMatIndex> index);

  /// Answers a PITEX query: the size-k tag set maximizing the target
  /// user's estimated influence spread.
  PitexResult Explore(const PitexQuery& query);

  /// Top-N variant: up to `n` size-k tag sets in descending estimated
  /// influence (n = 1 matches Explore). Useful for exploration UIs that
  /// show alternatives, not just the argmax. Always uses best-effort
  /// search (pruning against the N-th incumbent). `stats` (optional)
  /// receives the execution counters -- including the `degraded` flag
  /// when the query carried a budget that expired mid-search.
  std::vector<RankedTagSet> ExploreTopN(const PitexQuery& query, size_t n,
                                        PitexResult* stats = nullptr);

  /// Estimates E[I(u|W)] for an explicit tag set (no search).
  Estimate EstimateInfluence(VertexId user, std::span<const TagId> tags);

  /// Index footprint in bytes (0 for online methods).
  size_t IndexSizeBytes() const;
  /// Index build wall-clock seconds (0 for online methods).
  double IndexBuildSeconds() const;

  const EngineOptions& options() const { return options_; }

 private:
  SampleSizePolicy PolicyFor(size_t k) const;
  InfluenceOracle* OracleFor(size_t k);

  const SocialNetwork* network_;
  EngineOptions options_;
  UpperBoundContext bound_context_;
  // Pooled best-effort state: queries after the first allocate nothing
  // inside the search loop.
  BestEffortScratch best_effort_scratch_;
  std::vector<RankedTagSet> best_effort_out_;

  // At most one of each, created on demand. `rr_index_ptr_` is the index
  // actually served (owned or shared).
  std::unique_ptr<RrIndex> rr_index_;
  RrIndex* rr_index_ptr_ = nullptr;
  std::unique_ptr<PrunedRrIndex> pruned_index_;
  std::unique_ptr<DelayMatIndex> delay_index_;
  std::unique_ptr<InfluenceOracle> online_oracle_;
  size_t online_oracle_k_ = 0;
};

}  // namespace pitex

#endif  // PITEX_SRC_CORE_ENGINE_H_
