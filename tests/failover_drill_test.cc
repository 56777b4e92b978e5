// Cross-process failover drills (docs/robustness.md, "Replication &
// failover"). Two drills, both forking a real primary process wired to
// an in-parent follower over a Unix socketpair:
//
//   1. SIGKILL drill — the primary ships WAL records semi-synchronously
//      (each drill round is acknowledged to the parent only after the
//      follower confirmed it applied), then blasts unacknowledged
//      rounds until the parent SIGKILLs it mid-stream. The follower
//      must detect the silence, promote itself, and end up
//      bit-identical to a never-crashed reference that applied the same
//      prefix — zero acknowledged-update loss, continuing service
//      included (a post-promotion write lands on the new primary).
//
//   2. SIGSTOP fencing drill — primary and follower share a file-backed
//      term authority (a TERM file, the stand-in for a coordination
//      service). The parent freezes the primary with SIGSTOP, waits for
//      the follower to win the election, then thaws it with SIGCONT:
//      the deposed primary's very next write must be rejected with
//      ApplyUpdatesOutcome::kFencedStaleTerm (child exits 43 to prove
//      it) instead of forking history — the no-split-brain invariant,
//      demonstrated across real process boundaries.
//
//   3. Election race — K candidate processes, released together, race
//      FileTermAuthority::Advance(t + 1) from the same term t, round
//      after round: exactly one may win each term.
//
// Fork discipline matches tests/crash_recovery_test.cc: fork first,
// spawn parent-side threads only after, and the child never returns
// into gtest (it is killed, or _exits a distinctive code).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "running_example.h"
#include "src/serve/pitex_service.h"
#include "src/serve/replication.h"
#include "src/serve/term_authority.h"
#include "src/util/failpoint.h"
#include "src/util/random.h"

namespace pitex {
namespace {

namespace fs = std::filesystem;

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 30000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

class FailoverDrillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisableAll();
    root_ = (fs::temp_directory_path() /
             ("pitex_failover_drill_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisableAll();
    fs::remove_all(root_);
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

  /// Bounded wait for the shipper's follower-confirmation watermark.
  static bool AwaitFollowerAck(const WalShipper& shipper, uint64_t lsn,
                               int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (shipper.acked_lsn() < lsn) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::string root_;
};

TEST_F(FailoverDrillTest, SigkillPrimaryPromotesFollowerBitIdentical) {
  const SocialNetwork n = MakeRunningExample();
  int sockets[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sockets), 0);
  int ack_pipe[2];
  ASSERT_EQ(::pipe(ack_pipe), 0);

  // Rounds the child acknowledges only after the FOLLOWER confirmed
  // them (semi-synchronous shipping): these are the ones the promoted
  // follower must never lose.
  constexpr uint64_t kSeedRounds = 4;    // applied before the shipper exists
  constexpr uint64_t kSyncedRounds = 3;  // follower-confirmed one by one

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // ----- child: the primary process -----
    ::close(sockets[0]);
    ::close(ack_pipe[0]);
    auto transport = MakeFdTransport(sockets[1]);
    PitexService primary(&n, DurableOptions(root_ + "/primary"));
    primary.Start();
    uint64_t round = 0;
    // Seed history BEFORE the shipper exists so a checkpoint is on disk
    // and the follower must bootstrap from a genuinely shipped one
    // (checkpoint_every=2 guarantees it).
    for (; round < kSeedRounds; ++round) {
      std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, round)};
      if (primary.ApplyUpdates(batch) == 0) ::_exit(44);
    }
    WalShipperOptions ship;
    ship.wal_dir = root_ + "/primary";
    WalShipper shipper(&primary, transport.get(), ship);
    shipper.Start();
    // The seed rounds count as acknowledged once the follower holds
    // them (checkpoint install + tail replay).
    if (!AwaitFollowerAck(shipper, kSeedRounds, 30000)) ::_exit(45);
    for (uint64_t i = 0; i < kSeedRounds; ++i) {
      (void)!::write(ack_pipe[1], &i, sizeof(i));
    }
    // Semi-synchronous rounds: apply, wait for the follower's ack, then
    // acknowledge to the parent.
    for (; round < kSeedRounds + kSyncedRounds; ++round) {
      std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, round)};
      if (primary.ApplyUpdates(batch) == 0) ::_exit(44);
      if (!AwaitFollowerAck(shipper, round + 1, 30000)) ::_exit(45);
      (void)!::write(ack_pipe[1], &round, sizeof(round));
    }
    // Blast unacknowledged rounds until the parent's SIGKILL lands:
    // the kill is guaranteed to catch the primary mid-stream.
    for (;;) {
      std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, round)};
      if (primary.ApplyUpdates(batch) == 0) ::_exit(44);
      ++round;
    }
  }

  // ----- parent: the follower process -----
  ::close(sockets[1]);
  ::close(ack_pipe[1]);
  auto transport = MakeFdTransport(sockets[0]);
  InProcessTermAuthority authority(1);
  FollowerOptions fo;
  fo.serve = DurableOptions(root_ + "/follower");
  fo.heartbeat_timeout_ms = 400;
  fo.authority = &authority;
  FollowerService follower(&n, transport.get(), fo);
  std::string error;
  ASSERT_TRUE(follower.Start(&error)) << error;

  uint64_t acked = 0;
  uint64_t value = 0;
  while (acked < kSeedRounds + kSyncedRounds &&
         ::read(ack_pipe[0], &value, sizeof(value)) ==
             static_cast<ssize_t>(sizeof(value))) {
    ++acked;
  }
  ASSERT_EQ(acked, kSeedRounds + kSyncedRounds);

  // Kill the primary mid-blast: no shutdown, no flush, no goodbye.
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die by SIGKILL (status " << status << ")";
  ::close(ack_pipe[0]);

  // Silence -> promotion.
  ASSERT_TRUE(WaitUntil([&] { return follower.promoted(); }))
      << "follower never promoted";
  EXPECT_EQ(follower.term(), 2u);
  EXPECT_EQ(authority.Current(), 2u);

  // Zero acknowledged-update loss: every follower-confirmed round
  // survived the crash. (The follower may legally hold a few more from
  // the unacknowledged blast.)
  const uint64_t applied = follower.applied_lsn();
  ASSERT_GE(applied, acked) << "acknowledged updates lost";

  // Bit-identical to a never-crashed reference that applied the same
  // prefix, including one post-promotion write on the new primary.
  PitexService reference(&n, DurableOptions(""));
  reference.Start();
  for (uint64_t i = 0; i < applied; ++i) {
    std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
    ASSERT_NE(reference.ApplyUpdates(batch), 0u);
  }
  std::vector<EdgeInfluenceUpdate> post{MakeUpdate(n, applied)};
  ASSERT_NE(follower.service().ApplyUpdates(post), 0u);
  ASSERT_NE(reference.ApplyUpdates(post), 0u);
  for (VertexId user = 0; user < n.num_vertices(); ++user) {
    const PitexQuery query = {.user = user, .k = 2};
    const ServedResult got = follower.service().Submit(query).get();
    const ServedResult want = reference.Submit(query).get();
    ASSERT_EQ(got.status, ServeStatus::kOk);
    ASSERT_EQ(got.result.tags, want.result.tags) << "user " << user;
    ASSERT_EQ(got.result.influence, want.result.influence)
        << "user " << user;
  }
  follower.Stop();
}

TEST_F(FailoverDrillTest, SigstopElectionFencesTheDeposedPrimary) {
  const SocialNetwork n = MakeRunningExample();
  const std::string term_file = root_ + "/TERM";
  int sockets[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sockets), 0);
  int ack_pipe[2];
  ASSERT_EQ(::pipe(ack_pipe), 0);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // ----- child: the primary, fenced through the shared TERM file -----
    ::close(sockets[0]);
    ::close(ack_pipe[0]);
    auto transport = MakeFdTransport(sockets[1]);
    FileTermAuthority authority(term_file, 1);
    ServeOptions options = DurableOptions(root_ + "/primary");
    options.term_authority = &authority;
    options.term = 1;
    PitexService primary(&n, options);
    WalShipperOptions ship;
    ship.wal_dir = root_ + "/primary";
    ship.term = 1;
    WalShipper shipper(&primary, transport.get(), ship);
    shipper.Start();  // starts the primary too
    for (uint64_t round = 0; round < 64; ++round) {
      std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, round)};
      ApplyUpdatesOutcome outcome;
      if (primary.ApplyUpdates(batch, &outcome) == 0) {
        if (outcome == ApplyUpdatesOutcome::kFencedStaleTerm) {
          ::_exit(43);  // fenced exactly as the invariant demands
        }
        ::_exit(44);  // any other failure is a drill bug
      }
      // Follower confirmation is best-effort here: after the election
      // the old term's records are ignored, so the wait must time out
      // rather than hang (the next ApplyUpdates then hits the fence).
      if (AwaitFollowerAck(shipper, round + 1, 2000)) {
        (void)!::write(ack_pipe[1], &round, sizeof(round));
      }
    }
    ::_exit(42);  // never fenced: the parent fails the test
  }

  // ----- parent: the follower sharing the TERM file -----
  ::close(sockets[1]);
  ::close(ack_pipe[1]);
  auto transport = MakeFdTransport(sockets[0]);
  FileTermAuthority authority(term_file, 1);
  FollowerOptions fo;
  fo.serve = DurableOptions(root_ + "/follower");
  fo.heartbeat_timeout_ms = 400;
  fo.authority = &authority;
  FollowerService follower(&n, transport.get(), fo);
  std::string error;
  ASSERT_TRUE(follower.Start(&error)) << error;

  // Let a few follower-confirmed rounds through, then freeze the
  // primary mid-reign.
  uint64_t acked = 0;
  uint64_t value = 0;
  while (acked < 3 && ::read(ack_pipe[0], &value, sizeof(value)) ==
                          static_cast<ssize_t>(sizeof(value))) {
    ++acked;
  }
  ASSERT_EQ(acked, 3u);
  ASSERT_EQ(::kill(pid, SIGSTOP), 0);

  // The frozen primary misses its heartbeats; the follower wins the
  // election and advances the shared TERM file.
  ASSERT_TRUE(WaitUntil([&] { return follower.promoted(); }))
      << "follower never promoted";
  EXPECT_EQ(follower.term(), 2u);
  EXPECT_EQ(authority.Current(), 2u);

  // Thaw the deposed primary. It still believes it is term 1; its next
  // write must die on the fence — proven by exit code 43.
  ASSERT_EQ(::kill(pid, SIGCONT), 0);
  while (::read(ack_pipe[0], &value, sizeof(value)) ==
         static_cast<ssize_t>(sizeof(value))) {
  }
  ::close(ack_pipe[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 43)
      << "deposed primary was not fenced (exit "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1) << ")";

  // The promoted follower is the legitimate writer under term 2.
  std::vector<EdgeInfluenceUpdate> post{MakeUpdate(n, 99)};
  ApplyUpdatesOutcome outcome;
  ASSERT_NE(follower.service().ApplyUpdates(post, &outcome), 0u);
  EXPECT_EQ(outcome, ApplyUpdatesOutcome::kPublished);
  follower.Stop();
}

TEST_F(FailoverDrillTest, RacingCandidatesWinEachTermExactlyOnce) {
  // Each round forks K candidates that block on a pipe until the parent
  // closes it, so they call Advance(t + 1) together, each after a short
  // spin drawn from the round's seed. A term two candidates both win is
  // two acknowledging writers: the split brain fencing exists to stop.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const std::string term_file = root_ + "/TERM" + std::to_string(seed);
    FileTermAuthority authority(term_file, 1);
    Rng rng(seed);
    for (int round = 0; round < 64; ++round) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                   std::to_string(round));
      const uint64_t term = authority.Current();
      ASSERT_EQ(term, 1u + static_cast<uint64_t>(round));
      const int candidates = 2 + static_cast<int>(rng.NextBounded(7));
      int start[2];
      int results[2];
      ASSERT_EQ(::pipe(start), 0);
      ASSERT_EQ(::pipe(results), 0);
      std::vector<pid_t> pids;
      for (int c = 0; c < candidates; ++c) {
        const uint64_t spin = rng.NextBounded(200);
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
          ::close(start[1]);
          ::close(results[0]);
          char byte;
          (void)!::read(start[0], &byte, 1);  // EOF: the race starts
          for (uint64_t i = 0; i < spin; ++i) {
            std::atomic_signal_fence(std::memory_order_seq_cst);
          }
          FileTermAuthority candidate(term_file, 1);
          const char won = candidate.Advance(term + 1) ? 1 : 0;
          (void)!::write(results[1], &won, 1);
          ::_exit(0);
        }
        pids.push_back(pid);
      }
      ::close(start[0]);
      ::close(results[1]);
      ::close(start[1]);  // releases every candidate at once
      int winners = 0;
      int reported = 0;
      char won;
      while (::read(results[0], &won, 1) == 1) {
        ++reported;
        winners += won;
      }
      ::close(results[0]);
      for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
      }
      ASSERT_EQ(reported, candidates);
      ASSERT_EQ(winners, 1) << candidates << " candidates";
      ASSERT_EQ(authority.Current(), term + 1);
    }
  }
}

}  // namespace
}  // namespace pitex
