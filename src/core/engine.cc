#include "src/core/engine.h"

#include "src/core/best_effort_solver.h"
#include "src/core/enumeration_solver.h"
#include "src/sampling/lazy_sampler.h"
#include "src/sampling/lt_sampler.h"
#include "src/sampling/mc_sampler.h"
#include "src/sampling/rr_sampler.h"
#include "src/util/check.h"

namespace pitex {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kMc: return "MC";
    case Method::kRr: return "RR";
    case Method::kLazy: return "LAZY";
    case Method::kTim: return "TIM";
    case Method::kIndexEst: return "INDEXEST";
    case Method::kIndexEstPlus: return "INDEXEST+";
    case Method::kDelayMat: return "DELAYMAT";
    case Method::kLt: return "LT";
  }
  return "?";
}

RrIndexOptions IndexOptionsFor(const EngineOptions& options) {
  RrIndexOptions index_options;
  index_options.eps = options.eps;
  index_options.delta = options.delta;
  index_options.theta_per_vertex = options.index_theta_per_vertex;
  index_options.seed = options.seed;
  return index_options;
}

PitexEngine::PitexEngine(const SocialNetwork* network,
                         const EngineOptions& options)
    : network_(network),
      options_(options),
      bound_context_(network->topics) {
  PITEX_CHECK(network != nullptr);
}

PitexEngine::~PitexEngine() = default;

SampleSizePolicy PitexEngine::PolicyFor(size_t k) const {
  SampleSizePolicy policy;
  policy.eps = options_.eps;
  policy.delta = options_.delta;
  policy.num_tags = static_cast<int64_t>(network_->topics.num_tags());
  policy.k = static_cast<int64_t>(k);
  // Best-effort explores partial sets too: the union bound must run over
  // phi_k = sum_i C(|Omega|, i) (Eq. 12 in Appendix C).
  policy.use_phi = options_.best_effort;
  policy.min_samples = options_.min_samples;
  policy.max_samples = options_.max_samples;
  return policy;
}

void PitexEngine::BuildIndex() {
  const RrIndexOptions index_options = IndexOptionsFor(options_);
  switch (options_.method) {
    case Method::kIndexEst:
    case Method::kIndexEstPlus:
      if (rr_index_ptr_ == nullptr) {
        rr_index_ = std::make_unique<RrIndex>(*network_, index_options);
        rr_index_->Build();
        rr_index_ptr_ = rr_index_.get();
      }
      if (options_.method == Method::kIndexEstPlus &&
          pruned_index_ == nullptr) {
        pruned_index_ = std::make_unique<PrunedRrIndex>(
            rr_index_ptr_, &network_->influence);
      }
      break;
    case Method::kDelayMat:
      if (delay_index_ == nullptr) {
        delay_index_ = std::make_unique<DelayMatIndex>(*network_,
                                                       index_options);
        delay_index_->Build();
      }
      break;
    default:
      break;  // online methods need no index
  }
}

void PitexEngine::UseSharedRrIndex(RrIndex* shared) {
  PITEX_CHECK(shared != nullptr);
  PITEX_CHECK_MSG(rr_index_ptr_ == nullptr, "index already set");
  rr_index_ptr_ = shared;
}

void PitexEngine::AdoptDelayMatIndex(std::unique_ptr<DelayMatIndex> index) {
  PITEX_CHECK(index != nullptr);
  PITEX_CHECK_MSG(delay_index_ == nullptr, "index already set");
  delay_index_ = std::move(index);
}

InfluenceOracle* PitexEngine::OracleFor(size_t k) {
  switch (options_.method) {
    case Method::kIndexEst:
      PITEX_CHECK_MSG(rr_index_ptr_ != nullptr, "call BuildIndex() first");
      return rr_index_ptr_;
    case Method::kIndexEstPlus:
      PITEX_CHECK_MSG(pruned_index_ != nullptr, "call BuildIndex() first");
      return pruned_index_.get();
    case Method::kDelayMat:
      PITEX_CHECK_MSG(delay_index_ != nullptr, "call BuildIndex() first");
      return delay_index_.get();
    default:
      break;
  }
  // Online oracles embed the k-dependent sample-size policy; rebuild when
  // k changes.
  if (online_oracle_ == nullptr || online_oracle_k_ != k) {
    const SampleSizePolicy policy = PolicyFor(k);
    switch (options_.method) {
      case Method::kMc:
        online_oracle_ = std::make_unique<McSampler>(network_->graph, policy,
                                                     options_.seed);
        break;
      case Method::kRr:
        online_oracle_ = std::make_unique<RrSampler>(network_->graph, policy,
                                                     options_.seed);
        break;
      case Method::kLazy:
        online_oracle_ = std::make_unique<LazySampler>(network_->graph,
                                                       policy, options_.seed);
        break;
      case Method::kLt:
        online_oracle_ = std::make_unique<LtSampler>(network_->graph, policy,
                                                     options_.seed);
        break;
      case Method::kTim:
        online_oracle_ = std::make_unique<TimEstimator>(network_->graph,
                                                        options_.tim);
        break;
      default:
        PITEX_CHECK_MSG(false, "unhandled method");
    }
    online_oracle_k_ = k;
  }
  return online_oracle_.get();
}

PitexResult PitexEngine::Explore(const PitexQuery& query) {
  InfluenceOracle* oracle = OracleFor(query.k);
  if (options_.best_effort) {
    // Route through the engine-owned scratch so repeated queries reuse
    // the search arena, bound scratch, and materialized-probability
    // table instead of re-allocating them.
    PitexResult stats;
    SolveTopNByBestEffort(*network_, query, bound_context_, oracle, 1,
                          &best_effort_out_, &stats, &best_effort_scratch_);
    return stats;
  }
  return SolveByEnumeration(*network_, query, oracle);
}

std::vector<RankedTagSet> PitexEngine::ExploreTopN(const PitexQuery& query,
                                                   size_t n,
                                                   PitexResult* stats) {
  InfluenceOracle* oracle = OracleFor(query.k);
  SolveTopNByBestEffort(*network_, query, bound_context_, oracle, n,
                        &best_effort_out_, stats, &best_effort_scratch_);
  return best_effort_out_;
}

Estimate PitexEngine::EstimateInfluence(VertexId user,
                                        std::span<const TagId> tags) {
  InfluenceOracle* oracle = OracleFor(std::max<size_t>(tags.size(), 1));
  const TopicPosterior posterior = network_->topics.Posterior(tags);
  const PosteriorProbs probs(network_->influence, posterior);
  return oracle->EstimateInfluence(user, probs);
}

size_t PitexEngine::IndexSizeBytes() const {
  if (rr_index_ptr_ != nullptr) return rr_index_ptr_->SizeBytes();
  if (delay_index_ != nullptr) return delay_index_->SizeBytes();
  return 0;
}

double PitexEngine::IndexBuildSeconds() const {
  if (rr_index_ptr_ != nullptr) return rr_index_ptr_->build_seconds();
  if (delay_index_ != nullptr) return delay_index_->build_seconds();
  return 0.0;
}

}  // namespace pitex
