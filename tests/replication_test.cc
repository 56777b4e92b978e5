// Replication unit + single-process failover tests
// (docs/robustness.md, "Replication & failover"). Pins, bottom-up:
// the frame codec's byte-level contracts (torn prefixes read as
// kNeedMore at every cut, like wal_test.cc's torn-tail sweep; damaged
// bytes never decode into a frame that was not sent), the in-process
// transport's close/drain semantics, and the full shipper->follower
// pipeline: bootstrap from a shipped checkpoint, dense replay,
// convergence under duplicated/dropped/reordered/torn shipments, and
// heartbeat-loss promotion with term fencing of the deposed primary.
// The cross-process SIGKILL/SIGSTOP drills live in
// tests/failover_drill_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/obs/journal.h"
#include "src/serve/pitex_service.h"
#include "src/serve/recovery.h"
#include "src/serve/replication.h"
#include "src/serve/term_authority.h"
#include "src/util/failpoint.h"
#include "src/util/serialize.h"

namespace pitex {
namespace {

namespace fs = std::filesystem;

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// A record's stored WAL payload (lsn u64 | batch), as ReadWalAfter hands
// it to the shipper.
std::string RecordBody(uint64_t lsn,
                       const std::vector<EdgeInfluenceUpdate>& updates) {
  std::ostringstream out;
  BinaryWriter writer(&out);
  WriteWalRecord(&writer, lsn, updates);
  return std::move(out).str();
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisableAll();
    root_ = (fs::temp_directory_path() /
             ("pitex_replication_" +
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

  static void ExpectBitIdentical(PitexService& got, PitexService& want,
                                 const SocialNetwork& n) {
    for (VertexId user = 0; user < n.num_vertices(); ++user) {
      const PitexQuery query = {.user = user, .k = 2};
      const ServedResult g = got.Submit(query).get();
      const ServedResult w = want.Submit(query).get();
      ASSERT_EQ(g.status, ServeStatus::kOk);
      ASSERT_EQ(g.result.tags, w.result.tags) << "user " << user;
      ASSERT_EQ(g.result.influence, w.result.influence) << "user " << user;
    }
  }

  std::string root_;
};

// ---------------------------------------------------------------------------
// Frame codec

TEST_F(ReplicationTest, TypedPayloadsRoundTrip) {
  const ReplFrame record_frame = EncodeRecordMsg(
      7, RecordBody(42, {EdgeInfluenceUpdate{3, {{1, 0.25}, {2, 0.5}}},
                         EdgeInfluenceUpdate{9, {}}}));
  ReplRecordMsg record2;
  ASSERT_TRUE(DecodeRecordMsg(record_frame, &record2));
  EXPECT_EQ(record2.term, 7u);
  EXPECT_EQ(record2.lsn, 42u);
  ASSERT_EQ(record2.updates.size(), 2u);
  EXPECT_EQ(record2.updates[0].edge, 3u);
  ASSERT_EQ(record2.updates[0].entries.size(), 2u);
  EXPECT_EQ(record2.updates[0].entries[1].topic, 2u);
  EXPECT_EQ(record2.updates[0].entries[1].prob, 0.5);
  EXPECT_TRUE(record2.updates[1].entries.empty());

  ReplCheckpointMsg cp;
  cp.term = 3;
  cp.checkpoint.present = true;
  cp.checkpoint.lsn = 11;
  cp.checkpoint.manifest_bytes = std::string("MAN\0IFEST", 9);
  cp.checkpoint.snapshot_name = "checkpoint-000b.idx";
  cp.checkpoint.snapshot_bytes = std::string(4096, '\x5a');
  ReplCheckpointMsg cp2;
  ASSERT_TRUE(DecodeCheckpointMsg(EncodeCheckpointMsg(cp), &cp2));
  EXPECT_TRUE(cp2.checkpoint.present);
  EXPECT_EQ(cp2.checkpoint.lsn, 11u);
  EXPECT_EQ(cp2.checkpoint.manifest_bytes, cp.checkpoint.manifest_bytes);
  EXPECT_EQ(cp2.checkpoint.snapshot_name, cp.checkpoint.snapshot_name);
  EXPECT_EQ(cp2.checkpoint.snapshot_bytes, cp.checkpoint.snapshot_bytes);

  ReplHeartbeatMsg beat{5, 99};
  ReplHeartbeatMsg beat2;
  ASSERT_TRUE(DecodeHeartbeatMsg(EncodeHeartbeatMsg(beat), &beat2));
  EXPECT_EQ(beat2.term, 5u);
  EXPECT_EQ(beat2.durable_lsn, 99u);

  uint64_t lsn = 0;
  ASSERT_TRUE(DecodeAckMsg(EncodeAckMsg(17), &lsn));
  EXPECT_EQ(lsn, 17u);
  ASSERT_TRUE(DecodeResyncMsg(EncodeResyncMsg(23), &lsn));
  EXPECT_EQ(lsn, 23u);

  // Type confusion is rejected, not misparsed.
  EXPECT_FALSE(DecodeAckMsg(EncodeResyncMsg(1), &lsn));
  EXPECT_FALSE(DecodeRecordMsg(EncodeHeartbeatMsg(beat), &record2));
}

TEST_F(ReplicationTest, WireFramesMatchPinnedBytes) {
  // One encoded frame of each wire type, hashed byte for byte. The
  // constants pin the wire format: a codec refactor that changes any
  // byte a peer sees fails here.
  const auto hash = [](const ReplFrame& frame) {
    const std::string bytes = EncodeReplFrame(frame);
    Fnv1a fnv;
    fnv.Update(bytes.data(), bytes.size());
    return fnv.digest();
  };
  const std::string record_body =
      RecordBody(1001, {EdgeInfluenceUpdate{7, {{0, 0.125}, {3, 0.75}}},
                        EdgeInfluenceUpdate{12, {{1, 0.5}}},
                        EdgeInfluenceUpdate{40000, {}}});
  ReplCheckpointMsg checkpoint;
  checkpoint.term = 4;
  checkpoint.checkpoint.present = true;
  checkpoint.checkpoint.lsn = 1000;
  checkpoint.checkpoint.manifest_bytes = std::string("MANIFEST\0\x01", 10);
  checkpoint.checkpoint.snapshot_name = "checkpoint-00000000000003e8.rridx";
  checkpoint.checkpoint.snapshot_bytes.resize(4096);
  for (size_t i = 0; i < 4096; ++i) {
    checkpoint.checkpoint.snapshot_bytes[i] = static_cast<char>(i * 31 + 7);
  }
  EXPECT_EQ(hash(EncodeRecordMsg(4, record_body)), 0x020248aa7e3ed114ull);
  EXPECT_EQ(hash(EncodeCheckpointMsg(checkpoint)), 0x7261798145fcac16ull);
  EXPECT_EQ(hash(EncodeHeartbeatMsg(ReplHeartbeatMsg{4, 1001})),
            0xa59a9bda88400e2cull);
  EXPECT_EQ(hash(EncodeAckMsg(999)), 0x47110c5a88ecd296ull);
  EXPECT_EQ(hash(EncodeResyncMsg(998)), 0x6ae6ed9e77799e53ull);
}

TEST_F(ReplicationTest, TornFrameAtEveryByteOffsetReadsAsNeedMore) {
  // The stream analogue of wal_test.cc's torn-tail sweep: a connection
  // can die after any byte, and every proper prefix of a valid frame
  // must read as "incomplete" -- never as damage, never as a frame.
  ReplHeartbeatMsg beat{1, 123456789};
  const std::string bytes = EncodeReplFrame(EncodeHeartbeatMsg(beat));
  ASSERT_GT(bytes.size(), 20u);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ReplFrame frame;
    size_t consumed = 0;
    EXPECT_EQ(DecodeReplFrame(std::string_view(bytes).substr(0, cut), &frame,
                              &consumed),
              ReplDecodeStatus::kNeedMore)
        << "cut at byte " << cut;
  }
  ReplFrame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeReplFrame(bytes, &frame, &consumed),
            ReplDecodeStatus::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  ReplHeartbeatMsg beat2;
  ASSERT_TRUE(DecodeHeartbeatMsg(frame, &beat2));
  EXPECT_EQ(beat2.durable_lsn, 123456789u);
}

TEST_F(ReplicationTest, FlippedByteNeverDecodesIntoAFrameThatWasNotSent) {
  // Corrupt every byte of a two-frame stream in turn and decode to
  // exhaustion. The decoder may lose frames (the resync protocol
  // resends those) but must never ACCEPT bytes that differ from what
  // the sender framed -- acceptance of damage would replicate garbage.
  const std::string a = EncodeReplFrame(EncodeAckMsg(1111));
  const std::string b = EncodeReplFrame(EncodeResyncMsg(2222));
  const std::string clean = a + b;
  for (size_t flip = 0; flip < clean.size(); ++flip) {
    for (const unsigned char delta : {0x01, 0x80}) {
      std::string bytes = clean;
      bytes[flip] = static_cast<char>(bytes[flip] ^ delta);
      size_t decoded = 0;
      bool damage_seen = false;
      std::string_view rest(bytes);
      while (!rest.empty()) {
        ReplFrame frame;
        size_t consumed = 0;
        const ReplDecodeStatus status =
            DecodeReplFrame(rest, &frame, &consumed);
        if (status == ReplDecodeStatus::kFrame) {
          const std::string reencoded = EncodeReplFrame(frame);
          EXPECT_TRUE(reencoded == a || reencoded == b)
              << "flip at byte " << flip << " decoded a frame nobody sent";
          rest.remove_prefix(consumed);
          ++decoded;
        } else if (status == ReplDecodeStatus::kBad) {
          damage_seen = true;
          rest.remove_prefix(ReplResyncSkip(rest));
        } else {
          break;  // kNeedMore at end of buffer: torn remainder
        }
      }
      EXPECT_TRUE(damage_seen || decoded < 2)
          << "flip at byte " << flip
          << " was consumed silently with both frames intact";
      EXPECT_LE(decoded, 2u);
    }
  }
}

// ---------------------------------------------------------------------------
// In-process transport

TEST_F(ReplicationTest, InProcessTransportDeliversBothDirections) {
  auto [a, b] = MakeInProcessTransportPair();
  ASSERT_TRUE(a->Send(EncodeAckMsg(5)));
  ASSERT_TRUE(b->Send(EncodeResyncMsg(9)));
  ReplFrame frame;
  ASSERT_EQ(b->Recv(&frame, std::chrono::milliseconds(1000)),
            ReplicationTransport::RecvStatus::kFrame);
  uint64_t lsn = 0;
  ASSERT_TRUE(DecodeAckMsg(frame, &lsn));
  EXPECT_EQ(lsn, 5u);
  ASSERT_EQ(a->Recv(&frame, std::chrono::milliseconds(1000)),
            ReplicationTransport::RecvStatus::kFrame);
  ASSERT_TRUE(DecodeResyncMsg(frame, &lsn));
  EXPECT_EQ(lsn, 9u);
  // Nothing pending: a short receive times out.
  EXPECT_EQ(a->Recv(&frame, std::chrono::milliseconds(5)),
            ReplicationTransport::RecvStatus::kTimeout);
}

TEST_F(ReplicationTest, InProcessTransportDrainsThenReportsClosed) {
  auto [a, b] = MakeInProcessTransportPair();
  ASSERT_TRUE(a->Send(EncodeAckMsg(1)));
  // A torn trailing frame (sender died mid-send) is discarded at close,
  // exactly like the WAL's torn tail.
  const std::string torn = EncodeReplFrame(EncodeAckMsg(2));
  ASSERT_TRUE(a->SendBytes(torn.substr(0, torn.size() / 2)));
  a->Close();
  ReplFrame frame;
  ASSERT_EQ(b->Recv(&frame, std::chrono::milliseconds(1000)),
            ReplicationTransport::RecvStatus::kFrame);
  uint64_t lsn = 0;
  ASSERT_TRUE(DecodeAckMsg(frame, &lsn));
  EXPECT_EQ(lsn, 1u);
  EXPECT_EQ(b->Recv(&frame, std::chrono::milliseconds(1000)),
            ReplicationTransport::RecvStatus::kClosed);
  EXPECT_FALSE(b->Send(EncodeAckMsg(3)));
}

// ---------------------------------------------------------------------------
// Shipper -> follower pipeline

struct ReplicaPair {
  InProcessTermAuthority authority;
  std::unique_ptr<ReplicationTransport> primary_end;
  std::unique_ptr<ReplicationTransport> follower_end;
  std::unique_ptr<PitexService> primary;
  std::unique_ptr<WalShipper> shipper;
  std::unique_ptr<FollowerService> follower;
};

TEST_F(ReplicationTest, FollowerBootstrapsReplaysAndMatchesBitForBit) {
  const SocialNetwork n = MakeRunningExample();
  ReplicaPair pair;
  std::tie(pair.primary_end, pair.follower_end) =
      MakeInProcessTransportPair();

  // Seed the primary with history BEFORE the shipper exists, so the
  // follower must bootstrap from a real checkpoint (checkpoint_every=2
  // guarantees one) plus a shipped WAL tail.
  ServeOptions primary_options = DurableOptions(root_ + "/primary");
  primary_options.term_authority = &pair.authority;
  primary_options.term = 1;
  pair.primary =
      std::make_unique<PitexService>(&n, primary_options);
  pair.primary->Start();
  constexpr uint64_t kSeedRounds = 5;
  for (uint64_t i = 0; i < kSeedRounds; ++i) {
    std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
    ASSERT_NE(pair.primary->ApplyUpdates(batch), 0u);
  }

  WalShipperOptions ship;
  ship.wal_dir = root_ + "/primary";
  ship.term = 1;
  pair.shipper = std::make_unique<WalShipper>(
      pair.primary.get(), pair.primary_end.get(), ship);
  pair.shipper->Start();

  FollowerOptions fo;
  fo.serve = DurableOptions(root_ + "/follower");
  fo.heartbeat_timeout_ms = 60000;  // no promotion in this test
  fo.authority = &pair.authority;
  pair.follower = std::make_unique<FollowerService>(
      &n, pair.follower_end.get(), fo);
  std::string error;
  ASSERT_TRUE(pair.follower->Start(&error)) << error;

  // More traffic while the link is live.
  constexpr uint64_t kLiveRounds = 4;
  for (uint64_t i = kSeedRounds; i < kSeedRounds + kLiveRounds; ++i) {
    std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
    ASSERT_NE(pair.primary->ApplyUpdates(batch), 0u);
  }
  const uint64_t total = kSeedRounds + kLiveRounds;
  ASSERT_TRUE(WaitUntil([&] {
    return pair.follower->applied_lsn() >= total;
  })) << "follower stuck at lsn " << pair.follower->applied_lsn();
  ASSERT_TRUE(WaitUntil([&] { return pair.shipper->acked_lsn() >= total; }));

  // The whole time the follower was also serving reads; now it must be
  // bit-identical to a never-replicated reference.
  PitexService reference(&n, DurableOptions(""));
  reference.Start();
  for (uint64_t i = 0; i < total; ++i) {
    std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
    ASSERT_NE(reference.ApplyUpdates(batch), 0u);
  }
  ExpectBitIdentical(pair.follower->service(), reference, n);

  // Replication observability: watermarks and lag export through the
  // metrics registries on both sides.
  const obs::MetricsSnapshot primary_metrics =
      pair.primary->metrics().Snapshot();
  EXPECT_GE(primary_metrics.CounterValue("pitex_repl_records_shipped_total"),
            kLiveRounds);
  EXPECT_EQ(primary_metrics.GaugeValue("pitex_repl_acked_lsn"),
            static_cast<int64_t>(total));
  EXPECT_EQ(primary_metrics.GaugeValue("pitex_term"), 1);
  const obs::MetricsSnapshot follower_metrics =
      pair.follower->service().metrics().Snapshot();
  EXPECT_EQ(follower_metrics.GaugeValue("pitex_repl_applied_lsn"),
            static_cast<int64_t>(total));
  EXPECT_EQ(follower_metrics.GaugeValue("pitex_repl_promoted"), 0);
  ASSERT_TRUE(WaitUntil([&] {
    return pair.follower->service()
               .metrics()
               .Snapshot()
               .GaugeValue("pitex_repl_lag_lsns") == 0;
  }));

  pair.shipper->Stop();
  pair.follower->Stop();
}

TEST_F(ReplicationTest, ShippedRecordIsTheTermAndTheStoredPayload) {
  // The shipper sends each record as it is stored: the kRecord payload
  // is the 8-byte term followed by the segment's kWalRecord payload,
  // byte for byte, with no decode and re-encode in between.
  const SocialNetwork n = MakeRunningExample();
  auto [primary_end, follower_end] = MakeInProcessTransportPair();
  InProcessTermAuthority authority;
  constexpr uint64_t kTerm = 3;
  ASSERT_TRUE(authority.Advance(kTerm));
  ServeOptions primary_options =
      DurableOptions(root_ + "/primary", /*checkpoint_every=*/100);
  primary_options.term_authority = &authority;
  primary_options.term = kTerm;
  PitexService primary(&n, primary_options);
  primary.Start();
  constexpr uint64_t kRounds = 3;
  for (uint64_t i = 0; i < kRounds; ++i) {
    std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i),
                                           MakeUpdate(n, i + 7)};
    ASSERT_NE(primary.ApplyUpdates(batch), 0u);
  }

  WalShipperOptions ship;
  ship.wal_dir = root_ + "/primary";
  ship.term = kTerm;
  WalShipper shipper(&primary, primary_end.get(), ship);
  shipper.Start();
  std::vector<std::string> shipped;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (shipped.size() < kRounds &&
         std::chrono::steady_clock::now() < deadline) {
    ReplFrame frame;
    if (follower_end->Recv(&frame, std::chrono::milliseconds(50)) ==
            ReplicationTransport::RecvStatus::kFrame &&
        frame.type == ReplFrameType::kRecord) {
      shipped.push_back(std::move(frame.payload));
    }
  }
  shipper.Stop();
  ASSERT_EQ(shipped.size(), kRounds);

  // The stored payloads, straight from the segment files.
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(root_ + "/primary")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  std::vector<std::string> stored;
  for (const std::string& path : segments) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    // Skip the segment header: magic, version and start LSN.
    std::string_view rest = std::string_view(bytes).substr(8 + 4 + 8);
    ReplFrame frame;
    size_t consumed = 0;
    while (DecodeReplFrame(rest, &frame, &consumed) ==
           ReplDecodeStatus::kFrame) {
      ASSERT_EQ(frame.type, ReplFrameType::kWalRecord);
      stored.push_back(std::move(frame.payload));
      rest.remove_prefix(consumed);
    }
  }
  ASSERT_EQ(stored.size(), kRounds);
  std::string term(sizeof(uint64_t), '\0');
  EncodeLe(kTerm, term.size(), reinterpret_cast<unsigned char*>(term.data()));
  for (size_t i = 0; i < kRounds; ++i) {
    EXPECT_EQ(shipped[i], term + stored[i]) << "record " << i + 1;
  }
}

TEST_F(ReplicationTest, UnparsableRecordFrameIsRejectedAndResynced) {
  // A kRecord frame whose checksum holds but whose body does not parse
  // (a term and an LSN, then no batch) comes from a broken peer: the
  // follower counts it as rejected, asks for everything after its last
  // applied LSN, and applies nothing.
  const SocialNetwork n = MakeRunningExample();
  auto [primary_end, follower_end] = MakeInProcessTransportPair();
  InProcessTermAuthority authority;
  ReplCheckpointMsg bootstrap;
  bootstrap.term = 1;
  ASSERT_TRUE(primary_end->Send(EncodeCheckpointMsg(bootstrap)));
  FollowerOptions fo;
  fo.serve = DurableOptions(root_ + "/follower");
  fo.heartbeat_timeout_ms = 60000;  // no promotion in this test
  fo.authority = &authority;
  FollowerService follower(&n, follower_end.get(), fo);
  std::string error;
  ASSERT_TRUE(follower.Start(&error)) << error;

  std::ostringstream payload;
  BinaryWriter writer(&payload);
  writer.WriteU64(/*term=*/1);
  writer.WriteU64(/*lsn=*/1);
  ASSERT_TRUE(primary_end->Send(
      ReplFrame{ReplFrameType::kRecord, std::move(payload).str()}));

  uint64_t resync_from = UINT64_MAX;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (resync_from == UINT64_MAX &&
         std::chrono::steady_clock::now() < deadline) {
    ReplFrame frame;
    if (primary_end->Recv(&frame, std::chrono::milliseconds(50)) ==
            ReplicationTransport::RecvStatus::kFrame &&
        frame.type == ReplFrameType::kResync) {
      ASSERT_TRUE(DecodeResyncMsg(frame, &resync_from));
    }
  }
  EXPECT_EQ(resync_from, 0u);
  const obs::MetricsSnapshot metrics =
      follower.service().metrics().Snapshot();
  EXPECT_EQ(metrics.CounterValue("pitex_repl_frames_rejected_total"), 1u);
  EXPECT_EQ(follower.applied_lsn(), 0u);
  EXPECT_EQ(follower.service().durable_lsn(), 0u);
  follower.Stop();
}

TEST_F(ReplicationTest, FollowerBootstrapsFromCheckpointOverOneMebibyte) {
  // Checkpoint strings were once read with the 1 MiB header-string cap,
  // so a follower could only join before the primary's first real
  // checkpoint. Ship one well past that size: at 200 sketches per
  // vertex it measured 2,655,306 bytes (index format v7), over twice
  // the cap, 627,071 at v14, whose records hold no thresholds, and
  // 720,658 at 400 per vertex at v15, whose repeated blocks share their
  // bytes, and 908,966 at 800 per vertex at v16, whose in-trees name
  // their vertices by parent and in-rank, so the index now samples 1,200
  // per vertex: 1,338,350 bytes.
  DatasetSpec spec = LastfmSpec(0.5);
  spec.seed = 11;
  const SocialNetwork n = GenerateDataset(spec);
  const auto options = [&](const std::string& dir) {
    ServeOptions serve = DurableOptions(dir);
    serve.engine.index_theta_per_vertex = 1200.0;
    return serve;
  };
  ReplicaPair pair;
  std::tie(pair.primary_end, pair.follower_end) =
      MakeInProcessTransportPair();
  ServeOptions primary_options = options(root_ + "/primary");
  primary_options.term_authority = &pair.authority;
  pair.primary = std::make_unique<PitexService>(&n, primary_options);
  pair.primary->Start();
  constexpr uint64_t kSeedRounds = 3;  // checkpoint after round 2
  for (uint64_t i = 0; i < kSeedRounds; ++i) {
    std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
    ASSERT_NE(pair.primary->ApplyUpdates(batch), 0u);
  }
  ShippedCheckpoint checkpoint;
  ASSERT_TRUE(ReadCheckpointForShipping(root_ + "/primary", &checkpoint));
  ASSERT_TRUE(checkpoint.present);
  ASSERT_GT(checkpoint.snapshot_bytes.size(), size_t{1} << 20);

  WalShipperOptions ship;
  ship.wal_dir = root_ + "/primary";
  ship.term = 1;
  pair.shipper = std::make_unique<WalShipper>(
      pair.primary.get(), pair.primary_end.get(), ship);
  pair.shipper->Start();
  FollowerOptions fo;
  fo.serve = options(root_ + "/follower");
  fo.heartbeat_timeout_ms = 60000;  // no promotion in this test
  fo.authority = &pair.authority;
  pair.follower = std::make_unique<FollowerService>(
      &n, pair.follower_end.get(), fo);
  std::string error;
  ASSERT_TRUE(pair.follower->Start(&error)) << error;

  const uint64_t total = kSeedRounds + 2;
  for (uint64_t i = kSeedRounds; i < total; ++i) {
    std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
    ASSERT_NE(pair.primary->ApplyUpdates(batch), 0u);
  }
  ASSERT_TRUE(WaitUntil([&] {
    return pair.follower->applied_lsn() >= total;
  })) << "follower stuck at lsn " << pair.follower->applied_lsn();

  for (VertexId user = 0; user < n.num_vertices(); user += 13) {
    const PitexQuery query = {.user = user, .k = 2};
    const ServedResult got = pair.follower->service().Submit(query).get();
    const ServedResult want = pair.primary->Submit(query).get();
    ASSERT_EQ(got.status, ServeStatus::kOk);
    ASSERT_EQ(got.result.tags, want.result.tags) << "user " << user;
    ASSERT_EQ(got.result.influence, want.result.influence) << "user " << user;
  }
  pair.shipper->Stop();
  pair.follower->Stop();
}

TEST_F(ReplicationTest, FollowerConvergesThroughTransportFaults) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  // Duplicate, drop, tear and reorder shipments (fail points in the
  // shipper's send path); the checksum + dense-LSN rules must detect
  // every one, the resync protocol must heal, and the converged
  // follower must still be bit-identical.
  const SocialNetwork n = MakeRunningExample();
  ReplicaPair pair;
  std::tie(pair.primary_end, pair.follower_end) =
      MakeInProcessTransportPair();
  ServeOptions primary_options =
      DurableOptions(root_ + "/primary", /*checkpoint_every=*/0);
  primary_options.term_authority = &pair.authority;
  pair.primary = std::make_unique<PitexService>(&n, primary_options);

  WalShipperOptions ship;
  ship.wal_dir = root_ + "/primary";
  pair.shipper = std::make_unique<WalShipper>(
      pair.primary.get(), pair.primary_end.get(), ship);
  pair.shipper->Start();

  FollowerOptions fo;
  fo.serve = DurableOptions(root_ + "/follower", /*checkpoint_every=*/0);
  fo.heartbeat_timeout_ms = 60000;  // faults must not trigger promotion
  fo.authority = &pair.authority;
  pair.follower = std::make_unique<FollowerService>(
      &n, pair.follower_end.get(), fo);
  std::string error;
  ASSERT_TRUE(pair.follower->Start(&error)) << error;

  // Four fault phases, each healed before the next. Every phase arms
  // its point for EVERY outbound frame, applies 3 records, and waits
  // until the shipper has (faultily) shipped them — so each fault is
  // guaranteed to hit real records, not just heartbeats — then disarms
  // and waits for the resync/dedup machinery to converge.
  uint64_t applied_rounds = 0;
  const auto run_phase = [&](const char* point) {
    FailpointConfig config;
    config.mode = FailpointMode::kError;
    FailpointRegistry::Instance().Enable(point, config);
    for (uint64_t i = 0; i < 3; ++i, ++applied_rounds) {
      std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, applied_rounds)};
      ASSERT_NE(pair.primary->ApplyUpdates(batch), 0u);
    }
    // The shipping cursor reaching the batch proves the armed fault bit
    // every one of these records (resync rewinds may bounce it briefly;
    // it must still get there).
    ASSERT_TRUE(WaitUntil([&] {
      return pair.shipper->shipped_lsn() >= applied_rounds;
    })) << point << ": shipper stuck at lsn " << pair.shipper->shipped_lsn();
    FailpointRegistry::Instance().Disable(point);
    ASSERT_TRUE(WaitUntil([&] {
      return pair.follower->applied_lsn() >= applied_rounds;
    })) << point << ": follower stuck at lsn "
        << pair.follower->applied_lsn();
  };
  run_phase("repl/ship_dup");    // replays dropped by the dense-LSN rule
  run_phase("repl/ship_torn");   // fragments rejected by checksum, resynced
  run_phase("repl/ship_drop");   // heartbeat-stall resync heals lost tails
  run_phase("repl/ship_reorder");  // held-back frames arrive as gaps
  const uint64_t kRounds = applied_rounds;
  ASSERT_TRUE(WaitUntil([&] { return pair.shipper->acked_lsn() >= kRounds; }));

  PitexService reference(&n, DurableOptions("", 0));
  reference.Start();
  for (uint64_t i = 0; i < kRounds; ++i) {
    std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
    ASSERT_NE(reference.ApplyUpdates(batch), 0u);
  }
  ExpectBitIdentical(pair.follower->service(), reference, n);

  // The fault ledger proves the faults actually bit: duplicates were
  // dropped, damage was rejected, resyncs were requested AND served.
  const obs::MetricsSnapshot fm =
      pair.follower->service().metrics().Snapshot();
  EXPECT_GT(fm.CounterValue("pitex_repl_duplicates_dropped_total"), 0u);
  EXPECT_GT(fm.CounterValue("pitex_repl_frames_rejected_total"), 0u);
  EXPECT_GT(fm.CounterValue("pitex_repl_resync_requests_total"), 0u);
  const obs::MetricsSnapshot pm = pair.primary->metrics().Snapshot();
  EXPECT_GT(pm.CounterValue("pitex_repl_resyncs_served_total"), 0u);
  EXPECT_EQ(fm.GaugeValue("pitex_repl_promoted"), 0);

  pair.shipper->Stop();
  pair.follower->Stop();
}

TEST_F(ReplicationTest, HeartbeatLossPromotesFollowerAndFencesDeposedPrimary) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  const SocialNetwork n = MakeRunningExample();
  ReplicaPair pair;
  std::tie(pair.primary_end, pair.follower_end) =
      MakeInProcessTransportPair();
  ServeOptions primary_options = DurableOptions(root_ + "/primary");
  primary_options.term_authority = &pair.authority;
  primary_options.term = 1;
  pair.primary = std::make_unique<PitexService>(&n, primary_options);

  WalShipperOptions ship;
  ship.wal_dir = root_ + "/primary";
  pair.shipper = std::make_unique<WalShipper>(
      pair.primary.get(), pair.primary_end.get(), ship);
  pair.shipper->Start();

  FollowerOptions fo;
  fo.serve = DurableOptions(root_ + "/follower");
  fo.heartbeat_timeout_ms = 150;
  fo.authority = &pair.authority;
  pair.follower = std::make_unique<FollowerService>(
      &n, pair.follower_end.get(), fo);
  std::string error;
  ASSERT_TRUE(pair.follower->Start(&error)) << error;

  constexpr uint64_t kRounds = 3;
  for (uint64_t i = 0; i < kRounds; ++i) {
    std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, i)};
    ASSERT_NE(pair.primary->ApplyUpdates(batch), 0u);
  }
  ASSERT_TRUE(WaitUntil([&] {
    return pair.follower->applied_lsn() >= kRounds;
  }));
  EXPECT_FALSE(pair.follower->promoted());

  // Partition the primary (every outbound frame dropped). The follower
  // hears silence, waits out the timeout, and promotes.
  FailpointRegistry::Instance().Enable("repl/partition",
                                       {.mode = FailpointMode::kError});
  ASSERT_TRUE(WaitUntil([&] { return pair.follower->promoted(); }))
      << "follower never promoted";
  EXPECT_EQ(pair.follower->term(), 2u);
  EXPECT_EQ(pair.authority.Current(), 2u);
  EXPECT_EQ(pair.follower->service().term(), 2u);

  // The deposed primary still *thinks* it is term 1: its next write
  // must be fenced -- rejected before it touches the WAL -- with its
  // own outcome code and journal event, not folded into kWalFailed.
  std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, kRounds)};
  ApplyUpdatesOutcome outcome;
  EXPECT_EQ(pair.primary->ApplyUpdates(batch, &outcome), 0u);
  EXPECT_EQ(outcome, ApplyUpdatesOutcome::kFencedStaleTerm);
  EXPECT_EQ(pair.primary->durable_lsn(), kRounds);  // nothing appended
  bool fenced_event = false;
  for (const obs::Event& event :
       pair.primary->mutable_journal().Snapshot()) {
    if (event.kind == obs::EventKind::kFencedWrite) {
      fenced_event = true;
      EXPECT_EQ(event.a, 2u);  // authority's term
      EXPECT_EQ(event.b, 1u);  // the deposed writer's term
    }
  }
  EXPECT_TRUE(fenced_event);
  EXPECT_GT(pair.primary->metrics().Snapshot().CounterValue(
                "pitex_fenced_writes_total"),
            0u);

  // The promoted follower is the writer now: it accepts updates and
  // serves them, seamlessly continuing the primary's history.
  bool promote_event = false;
  for (const obs::Event& event :
       pair.follower->service().mutable_journal().Snapshot()) {
    if (event.kind == obs::EventKind::kReplPromote) {
      promote_event = true;
      EXPECT_EQ(event.a, 2u);
      EXPECT_EQ(event.b, kRounds);
    }
  }
  EXPECT_TRUE(promote_event);
  ASSERT_NE(pair.follower->service().ApplyUpdates(batch), 0u);
  const obs::MetricsSnapshot fm =
      pair.follower->service().metrics().Snapshot();
  EXPECT_EQ(fm.GaugeValue("pitex_repl_promoted"), 1);
  EXPECT_EQ(fm.GaugeValue("pitex_term"), 2);

  PitexService reference(&n, DurableOptions(""));
  reference.Start();
  for (uint64_t i = 0; i <= kRounds; ++i) {
    std::vector<EdgeInfluenceUpdate> ref_batch{MakeUpdate(n, i)};
    ASSERT_NE(reference.ApplyUpdates(ref_batch), 0u);
  }
  ExpectBitIdentical(pair.follower->service(), reference, n);

  FailpointRegistry::Instance().DisableAll();
  pair.shipper->Stop();
  pair.follower->Stop();
}

TEST_F(ReplicationTest, LosingCandidateAdoptsWinnersTermInsteadOfPromoting) {
  // Two followers racing for the same election: the authority admits
  // exactly one Advance, so the loser must step back into follower
  // role under the winner's term (no dual-primary).
  InProcessTermAuthority authority(1);
  // Simulate the winner: term 2 is taken before the loser's attempt.
  EXPECT_TRUE(authority.Advance(2));
  EXPECT_FALSE(authority.Advance(2));  // the loser's CAS fails
  EXPECT_EQ(authority.Current(), 2u);
  // A later election (term 3) is still open.
  EXPECT_TRUE(authority.Advance(3));
}

TEST_F(ReplicationTest, GarbageTermFileFencesTheInitialTermWriter) {
  // Only an absent term file reads as the initial term. One that holds
  // no decimal term reads as a term no writer holds: a primary at the
  // initial term is fenced, and no candidate can advance past it.
  const std::string absent = root_ + "/ABSENT";
  FileTermAuthority fresh(absent, 1);
  EXPECT_EQ(fresh.Current(), 1u);
  EXPECT_TRUE(fresh.Advance(2));
  EXPECT_EQ(fresh.Current(), 2u);

  const std::string term_file = root_ + "/TERM";
  FileTermAuthority authority(term_file, 1);
  for (const char* garbage : {"garbage\n", "", "12abc\n", "-1\n"}) {
    std::ofstream(term_file, std::ios::trunc) << garbage;
    EXPECT_EQ(authority.Current(), FileTermAuthority::kUnreadableTerm)
        << "'" << garbage << "'";
    EXPECT_FALSE(authority.Advance(2)) << "'" << garbage << "'";
  }
  std::ofstream(term_file, std::ios::trunc) << "garbage\n";

  const SocialNetwork n = MakeRunningExample();
  ServeOptions options = DurableOptions(root_ + "/primary");
  options.term_authority = &authority;
  options.term = 1;
  PitexService primary(&n, options);
  primary.Start();
  std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, 0)};
  ApplyUpdatesOutcome outcome;
  EXPECT_EQ(primary.ApplyUpdates(batch, &outcome), 0u);
  EXPECT_EQ(outcome, ApplyUpdatesOutcome::kFencedStaleTerm);
}

TEST_F(ReplicationTest, ElectionTimerDuringUnreadableTermKeepsTheFollower) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  // The follower's election timer fires while the term file holds
  // garbage: no election is possible, and the follower must neither
  // promote nor adopt the unreadable value, or it would drop every
  // record of the live primary as stale once the file is repaired.
  const std::string term_file = root_ + "/TERM";
  FileTermAuthority authority(term_file, 1);
  const SocialNetwork n = MakeRunningExample();
  auto [primary_end, follower_end] = MakeInProcessTransportPair();
  ServeOptions primary_options = DurableOptions(root_ + "/primary");
  primary_options.term_authority = &authority;
  primary_options.term = 1;
  PitexService primary(&n, primary_options);
  WalShipperOptions ship;
  ship.wal_dir = root_ + "/primary";
  WalShipper shipper(&primary, primary_end.get(), ship);
  shipper.Start();
  FollowerOptions fo;
  fo.serve = DurableOptions(root_ + "/follower");
  fo.heartbeat_timeout_ms = 150;
  fo.authority = &authority;
  FollowerService follower(&n, follower_end.get(), fo);
  std::string error;
  ASSERT_TRUE(follower.Start(&error)) << error;
  std::vector<EdgeInfluenceUpdate> batch{MakeUpdate(n, 0)};
  ASSERT_NE(primary.ApplyUpdates(batch), 0u);
  ASSERT_TRUE(WaitUntil([&] { return follower.applied_lsn() >= 1; }));

  // Garbage in the term file and silence from the primary for several
  // timeouts.
  std::ofstream(term_file, std::ios::trunc) << "garbage\n";
  FailpointRegistry::Instance().Enable("repl/partition",
                                       {.mode = FailpointMode::kError});
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_FALSE(follower.promoted());
  EXPECT_EQ(follower.term(), 1u);

  // The primary comes back; once its heartbeats reach the follower
  // again, the file is repaired and its next record is applied.
  const auto heartbeats = [&] {
    return follower.service().metrics().Snapshot().CounterValue(
        "pitex_repl_heartbeats_seen_total");
  };
  const uint64_t heard = heartbeats();
  FailpointRegistry::Instance().DisableAll();
  ASSERT_TRUE(WaitUntil([&] { return heartbeats() > heard; }));
  std::ofstream(term_file, std::ios::trunc) << "1\n";
  batch = {MakeUpdate(n, 1)};
  ASSERT_NE(primary.ApplyUpdates(batch), 0u);
  ASSERT_TRUE(WaitUntil([&] { return follower.applied_lsn() >= 2; }));
  EXPECT_FALSE(follower.promoted());
  EXPECT_EQ(follower.term(), 1u);
  EXPECT_EQ(authority.Current(), 1u);

  shipper.Stop();
  follower.Stop();
}

}  // namespace
}  // namespace pitex
