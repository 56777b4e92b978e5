// Tests for the serving-tier admission controller
// (src/serve/admission.h): queue bounds, release pairing, token-bucket
// rate limiting against a synthetic clock, publish-priority headroom,
// and the queue-depth histogram.

#include "src/serve/admission.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

namespace pitex {
namespace {

using Clock = AdmissionController::Clock;

Clock::time_point At(double seconds) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds)));
}

TEST(AdmissionTest, UnlimitedByDefault) {
  AdmissionController controller(AdmissionOptions{});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(controller.TryAdmit(0, At(0.0)), AdmissionVerdict::kAdmit);
  }
  EXPECT_EQ(controller.in_flight(), 1000u);
}

TEST(AdmissionTest, QueueBoundSheds) {
  AdmissionOptions options;
  options.max_queue_depth = 4;
  AdmissionController controller(options);
  size_t admitted = 0, shed_queue_full = 0;
  for (int i = 0; i < 5; ++i) {
    const AdmissionVerdict verdict = controller.TryAdmit(i, At(0.0));
    admitted += verdict == AdmissionVerdict::kAdmit;
    shed_queue_full += verdict == AdmissionVerdict::kShedQueueFull;
    EXPECT_EQ(verdict, i < 4 ? AdmissionVerdict::kAdmit
                             : AdmissionVerdict::kShedQueueFull);
  }
  EXPECT_EQ(admitted, 4u);
  EXPECT_EQ(shed_queue_full, 1u);
  EXPECT_EQ(controller.in_flight(), 4u);
}

TEST(AdmissionTest, ReleaseFreesSlots) {
  AdmissionOptions options;
  options.max_queue_depth = 2;
  AdmissionController controller(options);
  EXPECT_EQ(controller.TryAdmit(0, At(0.0)), AdmissionVerdict::kAdmit);
  EXPECT_EQ(controller.TryAdmit(1, At(0.0)), AdmissionVerdict::kAdmit);
  EXPECT_EQ(controller.TryAdmit(2, At(0.0)),
            AdmissionVerdict::kShedQueueFull);
  controller.Release(2);
  EXPECT_EQ(controller.TryAdmit(3, At(0.0)), AdmissionVerdict::kAdmit);
  EXPECT_EQ(controller.in_flight(), 1u);
}

TEST(AdmissionTest, PublishTightensTheBound) {
  AdmissionOptions options;
  options.max_queue_depth = 8;
  options.publish_headroom = 0.5;
  AdmissionController controller(options);
  controller.BeginPublish();
  // Effective bound is floor(8 * 0.5) = 4 while the publish runs.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(controller.TryAdmit(i, At(0.0)), AdmissionVerdict::kAdmit);
  }
  EXPECT_EQ(controller.TryAdmit(9, At(0.0)),
            AdmissionVerdict::kShedQueueFull);
  controller.EndPublish();
  // Full bound is back.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(controller.TryAdmit(10 + i, At(0.0)),
              AdmissionVerdict::kAdmit);
  }
  EXPECT_EQ(controller.TryAdmit(99, At(0.0)),
            AdmissionVerdict::kShedQueueFull);
}

TEST(AdmissionTest, PublishHeadroomNeverReachesZeroSlots) {
  AdmissionOptions options;
  options.max_queue_depth = 3;
  options.publish_headroom = 0.01;  // floor(3 * 0.01) = 0, clamped to 1
  AdmissionController controller(options);
  controller.BeginPublish();
  EXPECT_EQ(controller.TryAdmit(0, At(0.0)), AdmissionVerdict::kAdmit);
  EXPECT_EQ(controller.TryAdmit(1, At(0.0)),
            AdmissionVerdict::kShedQueueFull);
  controller.EndPublish();
}

TEST(AdmissionTest, TokenBucketLimitsBurst) {
  AdmissionOptions options;
  options.user_rate_limit = 10.0;  // 10 qps sustained
  options.user_burst = 3.0;
  AdmissionController controller(options);
  size_t shed_rate_limited = 0;
  const auto admit = [&controller, &shed_rate_limited](double at) {
    const AdmissionVerdict verdict = controller.TryAdmit(7, At(at));
    shed_rate_limited += verdict == AdmissionVerdict::kShedRateLimited;
    return verdict;
  };
  // The burst allowance admits 3 back-to-back, then the bucket is dry.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(admit(0.0), AdmissionVerdict::kAdmit) << "i=" << i;
  }
  EXPECT_EQ(admit(0.0), AdmissionVerdict::kShedRateLimited);
  // 0.1 s later one token has refilled (10 qps).
  EXPECT_EQ(admit(0.1), AdmissionVerdict::kAdmit);
  EXPECT_EQ(admit(0.1), AdmissionVerdict::kShedRateLimited);
  // A long idle period refills at most the burst capacity.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(admit(100.0), AdmissionVerdict::kAdmit);
  }
  EXPECT_EQ(admit(100.0), AdmissionVerdict::kShedRateLimited);
  EXPECT_EQ(shed_rate_limited, 3u);
}

TEST(AdmissionTest, RateLimitIsPerUser) {
  AdmissionOptions options;
  options.user_rate_limit = 1.0;
  options.user_burst = 1.0;
  // A large table so the two test users land in distinct buckets.
  options.user_buckets = 4096;
  AdmissionController controller(options);
  EXPECT_EQ(controller.TryAdmit(1, At(0.0)), AdmissionVerdict::kAdmit);
  EXPECT_EQ(controller.TryAdmit(1, At(0.0)),
            AdmissionVerdict::kShedRateLimited);
  // A different user has their own budget.
  EXPECT_EQ(controller.TryAdmit(2, At(0.0)), AdmissionVerdict::kAdmit);
}

TEST(AdmissionTest, ClockGoingBackwardsIsHarmless) {
  AdmissionOptions options;
  options.user_rate_limit = 1.0;
  options.user_burst = 2.0;
  AdmissionController controller(options);
  EXPECT_EQ(controller.TryAdmit(5, At(10.0)), AdmissionVerdict::kAdmit);
  // An earlier timestamp must not mint tokens (or underflow).
  EXPECT_EQ(controller.TryAdmit(5, At(1.0)), AdmissionVerdict::kAdmit);
  EXPECT_EQ(controller.TryAdmit(5, At(1.0)),
            AdmissionVerdict::kShedRateLimited);
}

TEST(AdmissionTest, DepthHistogramTracksOfferedLoad) {
  AdmissionOptions options;
  options.max_queue_depth = 100;
  obs::Histogram depth({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  AdmissionController controller(options, &depth);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(controller.TryAdmit(i, At(0.0)), AdmissionVerdict::kAdmit);
  }
  // Samples are the depths observed at each arrival: 0, 1, ..., 9, one
  // per bucket and none past the largest.
  EXPECT_EQ(depth.TotalCount(), 10u);
  EXPECT_DOUBLE_EQ(depth.Sum(), 45.0);  // mean 4.5
  EXPECT_EQ(depth.Counts(), std::vector<uint64_t>({1, 1, 1, 1, 1, 1, 1, 1,
                                                   1, 1, 0}));
}

TEST(AdmissionTest, DepthHistogramCountsEveryDecision) {
  AdmissionOptions options;
  options.max_queue_depth = 1;
  obs::Histogram depth({0, 1});
  AdmissionController controller(options, &depth);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(controller.TryAdmit(0, At(0.0)), AdmissionVerdict::kAdmit);
    controller.Release(1);
  }
  // A shed arrival is observed too, at the depth that shed it.
  ASSERT_EQ(controller.TryAdmit(0, At(0.0)), AdmissionVerdict::kAdmit);
  ASSERT_EQ(controller.TryAdmit(1, At(0.0)),
            AdmissionVerdict::kShedQueueFull);
  EXPECT_EQ(depth.TotalCount(), 102u);
  EXPECT_EQ(depth.Counts(), std::vector<uint64_t>({101, 1, 0}));
}

}  // namespace
}  // namespace pitex
