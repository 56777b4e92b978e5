// Admission control for the serving tier (docs/robustness.md).
//
// PitexService's work-stealing scheduler is throughput-optimal but
// admission-blind: under a query storm every arrival is queued, sojourn
// times grow without bound, and the CPU the publish path needs to freeze
// a snapshot is burned serving queries that will miss any reasonable
// deadline anyway. The admission layer sits in front of the scheduler
// and decides, per query, admit or shed:
//
//   * bounded queue -- at most `max_queue_depth` admitted queries may be
//     in flight (queued or executing); arrivals beyond the bound are
//     shed immediately with ServeStatus::kShed, which keeps queue wait
//     (and hence every admitted query's latency) bounded;
//   * priority classes (publish > query) -- while a snapshot publish is
//     in flight the effective queue bound contracts by
//     `publish_headroom`, shedding query load early so the freeze+pack
//     never starves behind a storm. Publishes themselves are never shed:
//     they run on the caller thread + maintenance pool and only ever
//     *tighten* query admission;
//   * per-user token buckets -- a single hot user (or an abusive
//     client) is rate-limited to `user_rate_limit` queries/sec with
//     burst capacity `user_burst`, so one principal cannot monopolize
//     the admitted slots. Buckets live in a fixed hashed table
//     (bounded memory; colliding users share a bucket, which only ever
//     sheds *more* aggressively, never less).
//
// The controller is self-contained and lock-cheap (one short mutex hold
// per decision; see BM_AdmissionOverhead for the happy-path cost) so it
// is unit-testable with synthetic clocks and reusable by future
// front-ends (e.g. the sharded tier's scatter/gather router).

#ifndef PITEX_SRC_SERVE_ADMISSION_H_
#define PITEX_SRC_SERVE_ADMISSION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/model/influence_graph.h"
#include "src/obs/metrics.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pitex {

struct AdmissionOptions {
  /// Maximum admitted queries in flight (queued + executing); arrivals
  /// beyond it are shed. 0 = unbounded (no queue-based shedding).
  size_t max_queue_depth = 0;
  /// While a publish is in flight the effective queue bound is scaled by
  /// this factor (clamped to at least 1 slot), shedding query load early
  /// so publishes keep CPU headroom. 1.0 = no tightening.
  double publish_headroom = 0.5;
  /// Sustained per-user admission rate in queries/sec; 0 = unlimited.
  double user_rate_limit = 0.0;
  /// Token-bucket burst capacity (max queries admitted back-to-back for
  /// one user after an idle period).
  double user_burst = 8.0;
  /// Hashed token-bucket table size (fixed memory; users sharing a
  /// bucket share its budget).
  size_t user_buckets = 1024;
};

enum class AdmissionVerdict : uint8_t {
  kAdmit,
  kShedQueueFull,
  kShedRateLimited,
};

class AdmissionController {
 public:
  using Clock = std::chrono::steady_clock;

  /// `queue_depth` (optional, must outlive the controller) observes the
  /// in-flight count each arrival sees, before the decision, so its
  /// distribution describes offered load rather than admitted load.
  explicit AdmissionController(const AdmissionOptions& options,
                               obs::Histogram* queue_depth = nullptr);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// One admission decision for a query from `user` arriving at `now`
  /// (caller passes the timestamp so tests can drive a synthetic clock).
  /// kAdmit increments the in-flight count; the caller must pair it with
  /// Release() once the query leaves the system.
  AdmissionVerdict TryAdmit(VertexId user, Clock::time_point now)
      PITEX_EXCLUDES(mutex_);

  /// Returns `count` admitted queries' slots (served or abandoned).
  void Release(size_t count) PITEX_EXCLUDES(mutex_);

  /// Publish-priority window: between Begin and End the queue bound is
  /// tightened by `publish_headroom`. Nestable (concurrent publishers
  /// each count).
  void BeginPublish() PITEX_EXCLUDES(mutex_);
  void EndPublish() PITEX_EXCLUDES(mutex_);

  /// Admitted queries currently in flight.
  size_t in_flight() const PITEX_EXCLUDES(mutex_);

  const AdmissionOptions& options() const { return options_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    Clock::time_point refilled;
    bool touched = false;
  };

  AdmissionOptions options_;
  obs::Histogram* const queue_depth_;

  mutable Mutex mutex_;
  size_t in_flight_ PITEX_GUARDED_BY(mutex_) = 0;
  size_t publish_active_ PITEX_GUARDED_BY(mutex_) = 0;
  std::vector<Bucket> buckets_ PITEX_GUARDED_BY(mutex_);
};

}  // namespace pitex

#endif  // PITEX_SRC_SERVE_ADMISSION_H_
