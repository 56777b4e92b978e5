// Kill-9 crash drills for the durability subsystem (docs/robustness.md,
// "Durability"). Each drill forks a child that serves a durable
// PitexService and arms a kCrash fail point -- the process dies by
// SIGKILL mid-append, mid-fsync, mid-checkpoint-rename, or mid-replay,
// with no destructors, no stream flushes, no sanitizer teardown: the
// closest in-process stand-in for a power cut. The child reports every
// acknowledged batch through a pipe before it dies; the parent then
// recovers from the surviving directory and asserts the two durability
// invariants end to end:
//
//   1. zero acknowledged-update loss -- every batch acknowledged before
//      the kill is present in the recovered state;
//   2. bit-identical recovery -- the recovered service answers every
//      query exactly like a never-crashed reference that applied the
//      same batches (same tags, same influence doubles, same epoch).
//
// Fork discipline: the parent never spawns threads before forking, and
// the child never returns into gtest (it dies at the fail point, or
// _exit(42)s to flag a drill that failed to crash).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "running_example.h"
#include "src/serve/pitex_service.h"
#include "src/serve/recovery.h"
#include "src/serve/wal.h"
#include "src/util/failpoint.h"

namespace pitex {
namespace {

namespace fs = std::filesystem;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisableAll();
    dir_ = (fs::temp_directory_path() /
            ("pitex_crash_recovery_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisableAll();
    fs::remove_all(dir_);
  }

  static ServeOptions DurableOptions(const std::string& dir,
                                     uint64_t checkpoint_every = 2) {
    ServeOptions options;
    options.engine.method = Method::kIndexEst;
    options.engine.index_theta_per_vertex = 150.0;
    options.engine.seed = 5;
    options.num_threads = 2;
    options.mode = ScheduleMode::kWorkStealing;
    options.enable_updates = true;
    options.durability_dir = dir;
    options.checkpoint_every = checkpoint_every;
    return options;
  }

  static EdgeInfluenceUpdate MakeUpdate(const SocialNetwork& n,
                                        uint64_t round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>(round % n.num_edges());
    update.entries = {{static_cast<TopicId>(round % n.topics.num_topics()),
                       0.2 + 0.1 * static_cast<double>(round % 5)}};
    return update;
  }

  /// Child body: arm `point` to SIGKILL after `skip` evaluations, then
  /// serve updates until the kill lands. Never returns into gtest.
  [[noreturn]] static void ChildCrashRun(const SocialNetwork& n,
                                         const std::string& dir,
                                         const char* point, uint64_t skip,
                                         uint64_t checkpoint_every,
                                         int ack_fd) {
    FailpointConfig config;
    config.mode = FailpointMode::kCrash;
    config.skip = skip;
    FailpointRegistry::Instance().Enable(point, config);
    PitexService service(&n, DurableOptions(dir, checkpoint_every));
    service.Start();
    for (uint32_t round = 0; round < 64; ++round) {
      std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, round)};
      if (service.ApplyUpdates(batch) != 0) {
        // Acknowledge to the parent ONLY after ApplyUpdates returned:
        // this is the exact acknowledgement the durability guarantee
        // covers.
        (void)!::write(ack_fd, &round, sizeof(round));
      }
    }
    ::_exit(42);  // the armed point never fired: the parent fails the test
  }

  /// Forks the crash child, collects its acknowledgement stream, and
  /// asserts it died by SIGKILL at the fail point. Returns the rounds
  /// the child acknowledged before dying.
  std::vector<uint32_t> RunCrashChild(const SocialNetwork& n,
                                      const char* point, uint64_t skip,
                                      uint64_t checkpoint_every = 2) {
    int pipe_fds[2];
    EXPECT_EQ(::pipe(pipe_fds), 0);
    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipe_fds[0]);
      ChildCrashRun(n, dir_, point, skip, checkpoint_every, pipe_fds[1]);
    }
    ::close(pipe_fds[1]);
    std::vector<uint32_t> acked;
    uint32_t round = 0;
    while (::read(pipe_fds[0], &round, sizeof(round)) ==
           static_cast<ssize_t>(sizeof(round))) {
      acked.push_back(round);
    }
    ::close(pipe_fds[0]);
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child did not die at fail point " << point << " (status "
        << status << ")";
    return acked;
  }

  /// Recovers from dir_ and proves both durability invariants against a
  /// never-crashed reference.
  void VerifyRecoveredBitIdentical(const SocialNetwork& n, size_t acked,
                                   uint64_t checkpoint_every = 2) {
    PitexService recovered(&n, DurableOptions(dir_, checkpoint_every));
    recovered.Start();
    const uint64_t epoch = recovered.current_epoch();
    ASSERT_GE(epoch, 1u);
    // Epochs count the initial publish plus one per applied batch, so
    // the recovered epoch tells us exactly how much history survived.
    const uint64_t applied = epoch - 1;
    // Invariant 1: nothing acknowledged is lost. The one-past bound is
    // the batch that reached the log but died before its ack -- replay
    // may legally include it (durable, just never reported).
    ASSERT_GE(applied, acked) << "acknowledged updates lost";
    ASSERT_LE(applied, acked + 1);

    PitexService reference(&n, DurableOptions("", checkpoint_every));
    reference.Start();
    for (uint64_t i = 0; i < applied; ++i) {
      std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
      ASSERT_NE(reference.ApplyUpdates(batch), 0u);
    }
    ASSERT_EQ(recovered.current_epoch(), reference.current_epoch());

    // Invariant 2: bit-identical answers. Sequential submits place each
    // user on the same (deterministically seeded) worker in both
    // services, so tags AND the influence doubles must match exactly.
    for (VertexId user = 0; user < n.num_vertices(); ++user) {
      const PitexQuery query = {.user = user, .k = 2};
      const ServedResult got = recovered.Submit(query).get();
      const ServedResult want = reference.Submit(query).get();
      ASSERT_EQ(got.status, ServeStatus::kOk);
      ASSERT_EQ(got.result.tags, want.result.tags) << "user " << user;
      ASSERT_EQ(got.result.influence, want.result.influence)
          << "user " << user;
    }
  }

  std::string dir_;
};

TEST_F(CrashRecoveryTest, CleanRestartRecoversExactly) {
  // No faults at all: a clean shutdown + restart must resume with the
  // identical state and epoch (the baseline the crash drills refine).
  const SocialNetwork n = MakeRunningExample();
  constexpr size_t kRounds = 5;
  {
    PitexService service(&n, DurableOptions(dir_));
    service.Start();
    for (uint64_t i = 0; i < kRounds; ++i) {
      std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
      ASSERT_EQ(service.ApplyUpdates(batch), static_cast<uint64_t>(i + 2));
    }
    const obs::MetricsSnapshot snap = service.SnapshotMetrics();
    EXPECT_EQ(snap.CounterValue("pitex_wal_appends_total"), kRounds);
    EXPECT_GT(snap.CounterValue("pitex_wal_fsyncs_total"), 0u);
    EXPECT_EQ(snap.CounterValue("pitex_wal_append_failures_total"), 0u);
    // checkpoint_every = 2
    EXPECT_EQ(snap.CounterValue("pitex_checkpoints_total"), kRounds / 2);
    EXPECT_EQ(snap.CounterValue("pitex_checkpoint_failures_total"), 0u);
  }
  ASSERT_TRUE(fs::exists(dir_ + "/CHECKPOINT"));
  VerifyRecoveredBitIdentical(n, kRounds);

  // The replay counter reflects only the WAL tail past the checkpoint.
  PitexService again(&n, DurableOptions(dir_));
  again.Start();
  EXPECT_LE(again.SnapshotMetrics().CounterValue(
                "pitex_recovery_replayed_lsns_total"),
            kRounds - kRounds / 2 * 2 + 1);
}

TEST_F(CrashRecoveryTest, SigkillAtWalAppend) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  const SocialNetwork n = MakeRunningExample();
  // skip=3: the fourth append dies before its record reaches the file.
  const std::vector<uint32_t> acked = RunCrashChild(n, "wal/append", 3);
  EXPECT_EQ(acked.size(), 3u);
  VerifyRecoveredBitIdentical(n, acked.size());
}

TEST_F(CrashRecoveryTest, SigkillAtWalFsync) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  const SocialNetwork n = MakeRunningExample();
  // The fifth commit point dies AFTER the record's write(2): the batch
  // may survive in the log without ever having been acknowledged --
  // exactly the one-past case the verifier tolerates.
  const std::vector<uint32_t> acked = RunCrashChild(n, "wal/fsync", 4);
  EXPECT_EQ(acked.size(), 4u);
  VerifyRecoveredBitIdentical(n, acked.size());
}

TEST_F(CrashRecoveryTest, SigkillAtFirstWalSyncEver) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  const SocialNetwork n = MakeRunningExample();
  // Degenerate drill: death before ANY batch commits. Recovery must
  // come up empty-handed but serving, identical to a fresh build.
  const std::vector<uint32_t> acked = RunCrashChild(n, "wal/fsync", 0);
  EXPECT_TRUE(acked.empty());
  VerifyRecoveredBitIdentical(n, 0);
}

TEST_F(CrashRecoveryTest, SigkillAtCheckpointRename) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  const SocialNetwork n = MakeRunningExample();
  // checkpoint_every=2: the second checkpoint (after batch 4) dies
  // between manifest staging and its atomic rename. The first
  // checkpoint plus the WAL tail above it must carry recovery; the
  // half-written second checkpoint may leave only a *.tmp behind,
  // never a corrupt CHECKPOINT.
  const std::vector<uint32_t> acked =
      RunCrashChild(n, "checkpoint/rename", 1);
  EXPECT_EQ(acked.size(), 3u);  // batch 4's ack dies with the checkpoint
  VerifyRecoveredBitIdentical(n, acked.size());
}

TEST_F(CrashRecoveryTest, SigkillDuringRecoveryReplayThenRecoverAgain) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  const SocialNetwork n = MakeRunningExample();
  // First crash leaves a WAL with several records to replay
  // (checkpoint_every=0 keeps everything in the log).
  const std::vector<uint32_t> acked =
      RunCrashChild(n, "wal/fsync", 5, /*checkpoint_every=*/0);
  EXPECT_EQ(acked.size(), 5u);
  // Second child dies BY SIGKILL mid-replay, inside Start()'s recovery.
  // Replay only reads; the log must survive the second death unscathed.
  const std::vector<uint32_t> none =
      RunCrashChild(n, "recovery/replay", 2, /*checkpoint_every=*/0);
  EXPECT_TRUE(none.empty());
  // Third recovery completes and is still bit-identical.
  VerifyRecoveredBitIdentical(n, acked.size(), /*checkpoint_every=*/0);
}

TEST_F(CrashRecoveryTest, InjectedReplayErrorFailsRecoveryLoudly) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  const SocialNetwork n = MakeRunningExample();
  {
    PitexService service(&n, DurableOptions(dir_, /*checkpoint_every=*/0));
    service.Start();
    for (uint64_t i = 0; i < 3; ++i) {
      std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
      ASSERT_NE(service.ApplyUpdates(batch), 0u);
    }
  }
  FailpointConfig config;
  config.mode = FailpointMode::kError;
  config.fires = 1;
  FailpointRegistry::Instance().Enable("recovery/replay", config);
  RrIndexOptions index_options;
  index_options.theta_per_vertex = 150.0;
  index_options.seed = 5;
  RecoveredState state;
  std::string error;
  EXPECT_FALSE(RecoverServingState(n, index_options, dir_, &state, &error));
  EXPECT_NE(error.find("recovery/replay"), std::string::npos) << error;
  FailpointRegistry::Instance().DisableAll();
  // The fault was transient; the log itself is fine.
  EXPECT_TRUE(RecoverServingState(n, index_options, dir_, &state, &error))
      << error;
  EXPECT_EQ(state.replayed_records, 3u);
}

TEST_F(CrashRecoveryTest, PoisonRecordFailsRecoveryWithoutAborting) {
  // A record that bypassed the service's validation (written by an
  // older build, say) must fail recovery with an error the operator can
  // read, not abort the process on every restart.
  const SocialNetwork n = MakeRunningExample();
  {
    std::string error;
    const auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
    ASSERT_NE(wal, nullptr) << error;
    std::vector<EdgeInfluenceUpdate> poison{MakeUpdate(n, 0)};
    poison[0].entries = {{1, 0.2}, {1, 0.3}};
    ASSERT_EQ(wal->Append(poison), 1u);
    ASSERT_TRUE(wal->Sync());
  }
  RrIndexOptions index_options;
  index_options.theta_per_vertex = 150.0;
  index_options.seed = 5;
  RecoveredState state;
  std::string error;
  EXPECT_FALSE(RecoverServingState(n, index_options, dir_, &state, &error));
  EXPECT_NE(error.find("duplicate topic"), std::string::npos) << error;
}

TEST_F(CrashRecoveryTest, WalCommitFailureRejectsBatchWithoutApplying) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  // Error-mode (non-crash) flavor of the same boundary: when the WAL
  // cannot commit, the batch must be fully rejected -- no master
  // mutation, no epoch, and the log rolled back -- so a later retry is
  // the FIRST application, not a double one.
  const SocialNetwork n = MakeRunningExample();
  PitexService service(&n, DurableOptions(dir_));
  service.Start();

  FailpointConfig config;
  config.mode = FailpointMode::kError;
  config.fires = 1;
  FailpointRegistry::Instance().Enable("wal/fsync", config);
  std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, 0)};
  ApplyUpdatesOutcome outcome;
  EXPECT_EQ(service.ApplyUpdates(batch, &outcome), 0u);
  // kWalFailed is the retryable rejection: the caller is told the batch
  // was neither durable nor applied.
  EXPECT_EQ(outcome, ApplyUpdatesOutcome::kWalFailed);
  FailpointRegistry::Instance().DisableAll();
  {
    const obs::MetricsSnapshot snap = service.SnapshotMetrics();
    EXPECT_EQ(snap.CounterValue("pitex_wal_append_failures_total"), 1u);
    // Nothing applied or published.
    EXPECT_EQ(snap.GaugeValue("pitex_current_epoch"), 1);
  }
  // Retry commits cleanly at the first LSN. (The appends counter saw
  // both the rolled-back attempt and the retry.)
  EXPECT_EQ(service.ApplyUpdates(batch, &outcome), 2u);
  EXPECT_EQ(outcome, ApplyUpdatesOutcome::kPublished);
  EXPECT_EQ(service.SnapshotMetrics().CounterValue("pitex_wal_appends_total"),
            2u);
}

TEST_F(CrashRecoveryTest, MalformedBatchRejectedBeforeItPoisonsTheLog) {
  // An invalid batch must be rejected BEFORE the WAL append: were it
  // committed first, the abort it used to cause in the master would
  // recur as a recovery failure on every restart -- one bad call turned
  // into a permanent crash loop, with everything acknowledged since the
  // last checkpoint unreachable behind the poison record.
  const SocialNetwork n = MakeRunningExample();
  {
    PitexService service(&n, DurableOptions(dir_));
    service.Start();
    std::vector<EdgeInfluenceUpdate> good{MakeUpdate(n, 0)};
    ASSERT_EQ(service.ApplyUpdates(good), 2u);

    ApplyUpdatesOutcome outcome;
    std::vector<EdgeInfluenceUpdate> bad_edge{MakeUpdate(n, 0)};
    bad_edge[0].edge = static_cast<EdgeId>(n.num_edges());  // out of range
    EXPECT_EQ(service.ApplyUpdates(bad_edge, &outcome), 0u);
    EXPECT_EQ(outcome, ApplyUpdatesOutcome::kInvalidBatch);

    std::vector<EdgeInfluenceUpdate> bad_prob{MakeUpdate(n, 1)};
    bad_prob[0].entries[0].prob = 1.5;
    EXPECT_EQ(service.ApplyUpdates(bad_prob, &outcome), 0u);
    EXPECT_EQ(outcome, ApplyUpdatesOutcome::kInvalidBatch);

    std::vector<EdgeInfluenceUpdate> bad_nan{MakeUpdate(n, 2)};
    bad_nan[0].entries[0].prob = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(service.ApplyUpdates(bad_nan, &outcome), 0u);
    EXPECT_EQ(outcome, ApplyUpdatesOutcome::kInvalidBatch);

    // A topic named twice among the positive entries would abort in the
    // model fold; a topic past num_topics() would index the query
    // posterior out of bounds.
    std::vector<EdgeInfluenceUpdate> bad_duplicate{MakeUpdate(n, 3)};
    bad_duplicate[0].entries = {{1, 0.2}, {1, 0.3}};
    EXPECT_EQ(service.ApplyUpdates(bad_duplicate, &outcome), 0u);
    EXPECT_EQ(outcome, ApplyUpdatesOutcome::kInvalidBatch);

    std::vector<EdgeInfluenceUpdate> bad_topic{MakeUpdate(n, 4)};
    bad_topic[0].entries[0].topic =
        static_cast<TopicId>(n.topics.num_topics());
    EXPECT_EQ(service.ApplyUpdates(bad_topic, &outcome), 0u);
    EXPECT_EQ(outcome, ApplyUpdatesOutcome::kInvalidBatch);

    // Nothing reached the log or the master: epoch and append counters
    // only reflect the one good batch.
    const obs::MetricsSnapshot snap = service.SnapshotMetrics();
    EXPECT_EQ(snap.GaugeValue("pitex_current_epoch"), 2);
    EXPECT_EQ(snap.CounterValue("pitex_wal_appends_total"), 1u);
    EXPECT_EQ(snap.CounterValue("pitex_wal_append_failures_total"), 0u);

    // The service keeps accepting valid batches after the rejections.
    EXPECT_EQ(service.ApplyUpdates(good), 3u);
  }
  // The log holds only the two valid records, so restart recovers
  // cleanly and bit-identically -- the poison never became durable.
  PitexService recovered(&n, DurableOptions(dir_));
  recovered.Start();
  ASSERT_EQ(recovered.current_epoch(), 3u);
  PitexService reference(&n, DurableOptions(""));
  reference.Start();
  std::vector<EdgeInfluenceUpdate> good{MakeUpdate(n, 0)};
  ASSERT_EQ(reference.ApplyUpdates(good), 2u);
  ASSERT_EQ(reference.ApplyUpdates(good), 3u);
  for (VertexId user = 0; user < n.num_vertices(); ++user) {
    const PitexQuery query = {.user = user, .k = 2};
    const ServedResult got = recovered.Submit(query).get();
    const ServedResult want = reference.Submit(query).get();
    ASSERT_EQ(got.status, ServeStatus::kOk);
    ASSERT_EQ(got.result.tags, want.result.tags) << "user " << user;
    ASSERT_EQ(got.result.influence, want.result.influence)
        << "user " << user;
  }
}

}  // namespace
}  // namespace pitex
