#include "src/serve/admission.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace pitex {

namespace {

// Fibonacci-style mixing so consecutive VertexIds land in unrelated
// buckets (same multiplier as the serving layer's affinity hash).
size_t BucketIndex(VertexId user, size_t buckets) {
  const uint64_t mixed =
      (static_cast<uint64_t>(user) + 1) * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(mixed >> 32) % buckets;
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         obs::Histogram* queue_depth)
    : options_(options), queue_depth_(queue_depth) {
  PITEX_CHECK_MSG(options_.publish_headroom > 0.0 &&
                      options_.publish_headroom <= 1.0,
                  "publish_headroom must be in (0, 1]");
  PITEX_CHECK(options_.user_rate_limit >= 0.0);
  PITEX_CHECK(options_.user_burst >= 1.0);
  PITEX_CHECK(options_.user_buckets >= 1);
  if (options_.user_rate_limit > 0.0) {
    buckets_.resize(options_.user_buckets);
  }
}

AdmissionVerdict AdmissionController::TryAdmit(VertexId user,
                                               Clock::time_point now) {
  MutexLock lock(mutex_);
  if (queue_depth_ != nullptr) {
    queue_depth_->Observe(static_cast<double>(in_flight_));
  }

  if (options_.max_queue_depth > 0) {
    // Publish priority: while a publish is in flight the bound contracts
    // so query load sheds early and the freeze+pack keeps CPU headroom.
    size_t bound = options_.max_queue_depth;
    if (publish_active_ > 0) {
      bound = std::max<size_t>(
          1, static_cast<size_t>(std::floor(
                 static_cast<double>(bound) * options_.publish_headroom)));
    }
    if (in_flight_ >= bound) {
      return AdmissionVerdict::kShedQueueFull;
    }
  }

  if (options_.user_rate_limit > 0.0) {
    Bucket& bucket = buckets_[BucketIndex(user, buckets_.size())];
    if (!bucket.touched) {
      // First sighting: full burst allowance, clock anchored at `now`
      // (anchoring at time_point::min() would refill to +inf tokens).
      bucket.tokens = options_.user_burst;
      bucket.refilled = now;
      bucket.touched = true;
    } else if (now > bucket.refilled) {
      const double elapsed =
          std::chrono::duration<double>(now - bucket.refilled).count();
      bucket.tokens = std::min(options_.user_burst,
                               bucket.tokens +
                                   elapsed * options_.user_rate_limit);
      bucket.refilled = now;
    }
    if (bucket.tokens < 1.0) {
      return AdmissionVerdict::kShedRateLimited;
    }
    bucket.tokens -= 1.0;
  }

  ++in_flight_;
  return AdmissionVerdict::kAdmit;
}

void AdmissionController::Release(size_t count) {
  if (count == 0) return;
  MutexLock lock(mutex_);
  PITEX_CHECK_MSG(in_flight_ >= count, "Release without matching TryAdmit");
  in_flight_ -= count;
}

void AdmissionController::BeginPublish() {
  MutexLock lock(mutex_);
  ++publish_active_;
}

void AdmissionController::EndPublish() {
  MutexLock lock(mutex_);
  PITEX_CHECK_MSG(publish_active_ > 0, "EndPublish without BeginPublish");
  --publish_active_;
}

size_t AdmissionController::in_flight() const {
  MutexLock lock(mutex_);
  return in_flight_;
}

}  // namespace pitex
