// WriteAheadLog + checkpoint manifest unit tests: append/read
// roundtrips, segment rotation and truncation, the torn-tail rule at
// every byte offset, mid-log corruption refusal, fail-point rollback
// semantics, and crash-atomic manifest replacement. The full-process
// kill-9 drills live in tests/crash_recovery_test.cc; this suite pins
// the byte-level contracts those drills rely on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/serve/recovery.h"
#include "src/serve/wal.h"
#include "src/util/failpoint.h"
#include "src/util/serialize.h"

namespace pitex {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisableAll();
    dir_ = (fs::temp_directory_path() /
            ("pitex_wal_test_" +
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

  static EdgeInfluenceUpdate MakeUpdate(uint32_t salt) {
    EdgeInfluenceUpdate update;
    update.edge = salt % 17;
    update.entries = {{salt % 3, 0.125 * static_cast<double>(salt % 8)},
                      {(salt + 1) % 3, 0.5}};
    return update;
  }

  static std::vector<EdgeInfluenceUpdate> MakeBatch(uint32_t salt,
                                                    size_t size = 2) {
    std::vector<EdgeInfluenceUpdate> batch;
    for (size_t i = 0; i < size; ++i) {
      batch.push_back(MakeUpdate(salt + static_cast<uint32_t>(i) * 7));
    }
    return batch;
  }

  static void ExpectBatchEq(const std::vector<EdgeInfluenceUpdate>& got,
                            const std::vector<EdgeInfluenceUpdate>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].edge, want[i].edge);
      ASSERT_EQ(got[i].entries.size(), want[i].entries.size());
      for (size_t j = 0; j < got[i].entries.size(); ++j) {
        EXPECT_EQ(got[i].entries[j].topic, want[i].entries[j].topic);
        EXPECT_EQ(got[i].entries[j].prob, want[i].entries[j].prob);
      }
    }
  }

  static uint64_t HashFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    EXPECT_FALSE(bytes.empty()) << path;
    Fnv1a fnv;
    fnv.Update(bytes.data(), bytes.size());
    return fnv.digest();
  }

  // Appends raw bytes to the first segment, behind what the writer left.
  void AppendToSegment(const std::string& bytes) const {
    std::ofstream out(dir_ + "/" + WalSegmentName(1),
                      std::ios::binary | std::ios::app);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

TEST_F(WalTest, AppendSyncReadRoundTrip) {
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;

  std::vector<std::vector<EdgeInfluenceUpdate>> batches;
  for (uint32_t i = 0; i < 5; ++i) {
    batches.push_back(MakeBatch(i * 11, 1 + i % 3));
    EXPECT_EQ(wal->Append(batches.back()), static_cast<uint64_t>(i + 1));
    ASSERT_TRUE(wal->Sync());
  }
  EXPECT_EQ(wal->next_lsn(), 6u);
  EXPECT_EQ(wal->appends(), 5u);
  EXPECT_GT(wal->fsyncs(), 0u);
  wal.reset();

  std::vector<WalRecord> records;
  const WalReadResult read = ReadWalAfter(dir_, 0, &records);
  ASSERT_TRUE(read.ok()) << read.message;
  EXPECT_EQ(read.status, WalReadStatus::kOk);
  ASSERT_EQ(records.size(), 5u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, static_cast<uint64_t>(i + 1));
    ExpectBatchEq(records[i].updates, batches[i]);
  }

  // after_lsn filters the checkpointed prefix out.
  records.clear();
  ASSERT_TRUE(ReadWalAfter(dir_, 3, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 4u);
  EXPECT_EQ(records[1].lsn, 5u);

  // An absent directory is an empty log, not an error.
  records.clear();
  const WalReadResult absent = ReadWalAfter(dir_ + ".nope", 0, &records);
  EXPECT_EQ(absent.status, WalReadStatus::kOk);
  EXPECT_TRUE(records.empty());
}

TEST_F(WalTest, GroupCommitMakesWholeGroupsDurable) {
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;

  // Three appends, one Sync: one commit point for the whole group.
  const auto b1 = MakeBatch(1), b2 = MakeBatch(2), b3 = MakeBatch(3);
  EXPECT_EQ(wal->Append(b1), 1u);
  EXPECT_EQ(wal->Append(b2), 2u);
  EXPECT_EQ(wal->Append(b3), 3u);
  const uint64_t fsyncs_before = wal->fsyncs();
  ASSERT_TRUE(wal->Sync());
  EXPECT_EQ(wal->fsyncs(), fsyncs_before + 1);
  wal.reset();

  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWalAfter(dir_, 0, &records).ok());
  EXPECT_EQ(records.size(), 3u);
}

TEST_F(WalTest, RotationSpansSegmentsAndTruncateThroughDeletesThem) {
  WalOptions options;
  options.segment_bytes = 1;  // rotate at every commit boundary
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, options, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_EQ(wal->Append(MakeBatch(i)), static_cast<uint64_t>(i + 1));
    ASSERT_TRUE(wal->Sync());
  }

  size_t segment_count = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      ++segment_count;
    }
  }
  EXPECT_GE(segment_count, 3u);  // the log really did rotate

  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWalAfter(dir_, 0, &records).ok());
  ASSERT_EQ(records.size(), 6u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, static_cast<uint64_t>(i + 1));
  }

  // Truncation through LSN 4 must drop only segments every record of
  // which is <= 4, keep everything after, and never touch the active
  // segment.
  wal->TruncateThrough(4);
  records.clear();
  const WalReadResult read = ReadWalAfter(dir_, 4, &records);
  ASSERT_TRUE(read.ok()) << read.message;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 5u);
  EXPECT_EQ(records[1].lsn, 6u);

  // The truncated log still appends and reads coherently.
  ASSERT_EQ(wal->Append(MakeBatch(99)), 7u);
  ASSERT_TRUE(wal->Sync());
  wal.reset();
  records.clear();
  ASSERT_TRUE(ReadWalAfter(dir_, 4, &records).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.back().lsn, 7u);
}

TEST_F(WalTest, TornTailAtEveryByteOffsetReadsAsPrefix) {
  // Write a known log, then replay recovery against every possible
  // torn-write length: a crash can stop the final write(2) at any byte,
  // and every such file must read as SOME prefix of the committed
  // history -- never an error, never a record that was not written.
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_NE(wal->Append(MakeBatch(i * 5)), 0u);
    ASSERT_TRUE(wal->Sync());
  }
  wal.reset();

  const std::string segment = dir_ + "/" + WalSegmentName(1);
  std::string bytes;
  {
    std::ifstream in(segment, std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }

  size_t torn_tails = 0;
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    {
      std::ofstream out(segment, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    std::vector<WalRecord> records;
    const WalReadResult read = ReadWalAfter(dir_, 0, &records);
    ASSERT_TRUE(read.ok()) << "cut at byte " << cut << ": " << read.message;
    if (read.status == WalReadStatus::kTornTail) ++torn_tails;
    ASSERT_LE(records.size(), 3u) << "cut at byte " << cut;
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(records[i].lsn, static_cast<uint64_t>(i + 1))
          << "cut at byte " << cut;
    }
  }
  EXPECT_GT(torn_tails, 0u);  // mid-record cuts really exercised the rule
}

TEST_F(WalTest, MidLogDamageIsRefusedAsCorrupt) {
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_NE(wal->Append(MakeBatch(i)), 0u);
    ASSERT_TRUE(wal->Sync());
  }
  wal.reset();

  // Flip one payload byte in the middle of the log (well after the
  // header, well before the final record): a complete record now fails
  // its checksum with further data behind it -- bit rot, not a torn
  // tail. Recovery must refuse rather than guess.
  const std::string segment = dir_ + "/" + WalSegmentName(1);
  std::string bytes;
  {
    std::ifstream in(segment, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x40);
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::vector<WalRecord> records;
  const WalReadResult read = ReadWalAfter(dir_, 0, &records);
  EXPECT_EQ(read.status, WalReadStatus::kCorrupt) << read.message;
}

TEST_F(WalTest, FinalRecordFailingItsChecksumIsATornTail) {
  // Block-level write reordering can persist a record's tail before its
  // head: a complete final record that fails its checksum is the crash
  // artifact, not bit rot. The same record with a damaged frame header
  // is corruption.
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_NE(wal->Append(MakeBatch(i)), 0u);
    ASSERT_TRUE(wal->Sync());
  }
  wal.reset();
  const std::string segment = dir_ + "/" + WalSegmentName(1);
  std::string bytes;
  {
    std::ifstream in(segment, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  const auto read_with_flip = [&](size_t offset, std::vector<WalRecord>* out) {
    std::string damaged = bytes;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x40);
    std::ofstream file(segment, std::ios::binary | std::ios::trunc);
    file.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    file.close();
    return ReadWalAfter(dir_, 0, out);
  };
  // The final record's payload ends 8 checksum bytes before EOF.
  std::vector<WalRecord> records;
  const WalReadResult payload_flip = read_with_flip(bytes.size() - 9, &records);
  EXPECT_EQ(payload_flip.status, WalReadStatus::kTornTail)
      << payload_flip.message;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].lsn, 2u);

  // Locate the final frame's magic and damage it instead.
  const size_t last_frame = bytes.rfind("PXRP");
  ASSERT_NE(last_frame, std::string::npos);
  records.clear();
  EXPECT_EQ(read_with_flip(last_frame, &records).status,
            WalReadStatus::kCorrupt);
}

TEST_F(WalTest, ChecksumValidRecordThatDoesNotParseIsCorrupt) {
  // The frame checksum holds, so this is no torn tail: a record body
  // the batch codec cannot read is corruption, even as the final frame
  // of the newest segment.
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_EQ(wal->Append(MakeBatch(0)), 1u);
  ASSERT_TRUE(wal->Sync());
  wal.reset();

  std::ostringstream payload;
  BinaryWriter writer(&payload);
  writer.WriteU64(2);  // the LSN, then no batch
  AppendToSegment(EncodeReplFrame(
      ReplFrame{ReplFrameType::kWalRecord, std::move(payload).str()}));
  std::vector<WalRecord> records;
  const WalReadResult read = ReadWalAfter(dir_, 0, &records);
  EXPECT_EQ(read.status, WalReadStatus::kCorrupt) << read.message;
}

TEST_F(WalTest, FrameOfAnotherTypeInsideASegmentIsCorrupt) {
  // A segment holds only kWalRecord frames: a checksum-valid frame of
  // any other type between two records is corruption.
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_EQ(wal->Append(MakeBatch(0)), 1u);
  ASSERT_TRUE(wal->Sync());
  wal.reset();
  const std::string segment = dir_ + "/" + WalSegmentName(1);
  const uintmax_t one_record = fs::file_size(segment);
  const auto record_frame = [](uint64_t lsn, std::string* body) {
    std::ostringstream payload;
    BinaryWriter writer(&payload);
    WriteWalRecord(&writer, lsn, MakeBatch(static_cast<uint32_t>(lsn)));
    *body = std::move(payload).str();
    return EncodeReplFrame(ReplFrame{ReplFrameType::kWalRecord, *body});
  };

  // Record 2 appended by hand reads back, body and all...
  std::string body;
  AppendToSegment(record_frame(2, &body));
  std::vector<WalRecord> records;
  ASSERT_EQ(ReadWalAfter(dir_, 0, &records).status, WalReadStatus::kOk);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].body, body);

  // ...but a heartbeat in its place does not, although its payload
  // (term 2, durable LSN 0) would parse as an empty record 2.
  fs::resize_file(segment, one_record);
  std::ostringstream beat;
  BinaryWriter beat_writer(&beat);
  beat_writer.WriteU64(2);
  beat_writer.WriteU64(0);
  AppendToSegment(EncodeReplFrame(
      ReplFrame{ReplFrameType::kHeartbeat, std::move(beat).str()}));
  AppendToSegment(record_frame(3, &body));
  records.clear();
  const WalReadResult read = ReadWalAfter(dir_, 0, &records);
  EXPECT_EQ(read.status, WalReadStatus::kCorrupt) << read.message;
}

TEST_F(WalTest, LogStartingPastCheckpointIsRefused) {
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, /*next_lsn=*/10, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_EQ(wal->Append(MakeBatch(0)), 10u);
  ASSERT_TRUE(wal->Sync());
  wal.reset();

  // A reader resuming from LSN 5 needs records 6..9 -- they are gone.
  std::vector<WalRecord> records;
  EXPECT_EQ(ReadWalAfter(dir_, 5, &records).status, WalReadStatus::kCorrupt);
  // Resuming from 9 anchors exactly at the first segment: fine.
  records.clear();
  ASSERT_TRUE(ReadWalAfter(dir_, 9, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 10u);
}

TEST_F(WalTest, SupersededTornTailInOlderSegmentIsConsumed) {
  // Crash-restart-crash shape: segment A ends in a torn record, and a
  // later writer (post-recovery) opened segment B anchored exactly at
  // the first uncommitted LSN. The torn bytes in A are superseded
  // history and must be consumed -- a second recovery may not report
  // corruption.
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_EQ(wal->Append(MakeBatch(1)), 1u);
  ASSERT_EQ(wal->Append(MakeBatch(2)), 2u);
  ASSERT_TRUE(wal->Sync());
  ASSERT_EQ(wal->Append(MakeBatch(3)), 3u);  // appended, never committed
  wal.reset();  // bytes of record 3 are in the file

  // Tear record 3: chop the last byte of the segment.
  const std::string segment = dir_ + "/" + WalSegmentName(1);
  fs::resize_file(segment, fs::file_size(segment) - 1);

  // First recovery sees the torn tail...
  std::vector<WalRecord> records;
  WalReadResult read = ReadWalAfter(dir_, 0, &records);
  ASSERT_EQ(read.status, WalReadStatus::kTornTail) << read.message;
  ASSERT_EQ(records.size(), 2u);

  // ...reopens at LSN 3 (a fresh segment), commits new history...
  wal = WriteAheadLog::Open(dir_, 3, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_EQ(wal->Append(MakeBatch(4)), 3u);
  ASSERT_TRUE(wal->Sync());
  wal.reset();

  // ...and a SECOND recovery must read 1, 2, 3 cleanly across both
  // segments, consuming A's superseded torn bytes.
  records.clear();
  read = ReadWalAfter(dir_, 0, &records);
  ASSERT_TRUE(read.ok()) << read.message;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].lsn, 3u);
}

TEST_F(WalTest, AppendFailpointRejectsWithoutConsumingLsn) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_EQ(wal->Append(MakeBatch(1)), 1u);
  ASSERT_TRUE(wal->Sync());

  FailpointConfig config;
  config.mode = FailpointMode::kError;
  config.fires = 1;
  FailpointRegistry::Instance().Enable("wal/append", config);
  EXPECT_EQ(wal->Append(MakeBatch(2)), 0u);  // injected failure
  FailpointRegistry::Instance().DisableAll();

  // The LSN was not consumed; the log holds no trace of the failure.
  EXPECT_EQ(wal->Append(MakeBatch(3)), 2u);
  ASSERT_TRUE(wal->Sync());
  wal.reset();
  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWalAfter(dir_, 0, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  ExpectBatchEq(records[1].updates, MakeBatch(3));
}

TEST_F(WalTest, SyncFailpointRollsTheUncommittedGroupBack) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_EQ(wal->Append(MakeBatch(1)), 1u);
  ASSERT_TRUE(wal->Sync());

  // A whole group dies at its commit point: every record of the group
  // must be truncated back out and the LSN cursor rewound.
  ASSERT_EQ(wal->Append(MakeBatch(2)), 2u);
  ASSERT_EQ(wal->Append(MakeBatch(3)), 3u);
  FailpointConfig config;
  config.mode = FailpointMode::kError;
  config.fires = 1;
  FailpointRegistry::Instance().Enable("wal/fsync", config);
  EXPECT_FALSE(wal->Sync());
  FailpointRegistry::Instance().DisableAll();
  EXPECT_EQ(wal->next_lsn(), 2u);  // rewound

  // Retrying the batch reuses LSN 2 and commits cleanly.
  ASSERT_EQ(wal->Append(MakeBatch(2)), 2u);
  ASSERT_TRUE(wal->Sync());
  wal.reset();
  std::vector<WalRecord> records;
  const WalReadResult read = ReadWalAfter(dir_, 0, &records);
  ASSERT_TRUE(read.ok()) << read.message;
  EXPECT_EQ(read.status, WalReadStatus::kOk);  // no torn garbage left
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].lsn, 2u);
  ExpectBatchEq(records[1].updates, MakeBatch(2));
}

TEST_F(WalTest, ManifestRoundTripAndAtomicReplace) {
  fs::create_directories(dir_);
  bool present = true;
  CheckpointManifest read_back;
  std::string error;
  // Absent manifest: present=false, success.
  ASSERT_TRUE(ReadCheckpointManifest(dir_, &read_back, &present, &error));
  EXPECT_FALSE(present);

  CheckpointManifest manifest;
  manifest.lsn = 42;
  manifest.epoch = 7;
  manifest.index_version = 99;
  manifest.snapshot_file = "checkpoint-000000000000002a.rridx";
  manifest.model_delta = MakeBatch(5, 3);
  ASSERT_TRUE(WriteCheckpointManifest(dir_, manifest, &error)) << error;

  ASSERT_TRUE(ReadCheckpointManifest(dir_, &read_back, &present, &error))
      << error;
  ASSERT_TRUE(present);
  EXPECT_EQ(read_back.lsn, 42u);
  EXPECT_EQ(read_back.epoch, 7u);
  EXPECT_EQ(read_back.index_version, 99u);
  EXPECT_EQ(read_back.snapshot_file, manifest.snapshot_file);
  ExpectBatchEq(read_back.model_delta, manifest.model_delta);

#if PITEX_FAILPOINTS_ENABLED
  // A failure between staging and rename leaves the OLD manifest
  // authoritative and no temp litter behind.
  CheckpointManifest newer = manifest;
  newer.lsn = 50;
  FailpointConfig config;
  config.mode = FailpointMode::kError;
  config.fires = 1;
  FailpointRegistry::Instance().Enable("checkpoint/rename", config);
  EXPECT_FALSE(WriteCheckpointManifest(dir_, newer, &error));
  FailpointRegistry::Instance().DisableAll();
  ASSERT_TRUE(ReadCheckpointManifest(dir_, &read_back, &present, &error));
  ASSERT_TRUE(present);
  EXPECT_EQ(read_back.lsn, 42u);  // the old manifest survived intact
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), "")
        << "temp litter: " << entry.path();
  }
#endif

  // A corrupt manifest (flipped byte) is an error, not "absent".
  const std::string path = dir_ + "/CHECKPOINT";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ReadCheckpointManifest(dir_, &read_back, &present, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(WalTest, ManifestMatchesPinnedBytes) {
  // The CHECKPOINT file's bytes for a fixed manifest with a 3-edge
  // model delta: pins the manifest format, delta encoding included.
  fs::create_directories(dir_);
  CheckpointManifest manifest;
  manifest.lsn = 1000;
  manifest.epoch = 37;
  manifest.index_version = 5120;
  manifest.snapshot_file = "checkpoint-00000000000003e8.rridx";
  manifest.model_delta = {EdgeInfluenceUpdate{7, {{0, 0.125}, {3, 0.75}}},
                          EdgeInfluenceUpdate{12, {{1, 0.5}}},
                          EdgeInfluenceUpdate{40000, {}}};
  std::string error;
  ASSERT_TRUE(WriteCheckpointManifest(dir_, manifest, &error)) << error;
  EXPECT_EQ(HashFile(dir_ + "/CHECKPOINT"), 0x3913d241d5d4f5d4ull);
}

TEST_F(WalTest, TwoRecordSegmentMatchesPinnedBytes) {
  // A fixed two-record segment reads back and hashes to a constant:
  // pins the segment header and the record frame layout.
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, WalOptions{}, &error);
  ASSERT_NE(wal, nullptr) << error;
  const std::vector<EdgeInfluenceUpdate> first = {
      EdgeInfluenceUpdate{7, {{0, 0.125}, {3, 0.75}}}};
  const std::vector<EdgeInfluenceUpdate> second = {
      EdgeInfluenceUpdate{12, {{1, 0.5}}}, EdgeInfluenceUpdate{40000, {}}};
  ASSERT_EQ(wal->Append(first), 1u);
  ASSERT_EQ(wal->Append(second), 2u);
  ASSERT_TRUE(wal->Sync());
  wal.reset();

  std::vector<WalRecord> records;
  const WalReadResult read = ReadWalAfter(dir_, 0, &records);
  ASSERT_EQ(read.status, WalReadStatus::kOk) << read.message;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 1u);
  ExpectBatchEq(records[0].updates, first);
  EXPECT_EQ(records[1].lsn, 2u);
  ExpectBatchEq(records[1].updates, second);
  EXPECT_EQ(HashFile(dir_ + "/" + WalSegmentName(1)),
            0xb5f46dd39f432decull);
}

TEST_F(WalTest, RetentionHoldsTrackTheMinimumAcrossConsumers) {
  WalRetentionHolds holds;
  EXPECT_EQ(holds.Floor(), UINT64_MAX);  // unconstrained
  const uint64_t a = holds.Register(10);
  const uint64_t b = holds.Register(4);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(holds.Floor(), 4u);
  holds.Update(b, 25);  // advancing past the other hold exposes it
  EXPECT_EQ(holds.Floor(), 10u);
  holds.Update(a, 2);  // rewinding (a resyncing follower) is legal
  EXPECT_EQ(holds.Floor(), 2u);
  holds.Release(a);
  EXPECT_EQ(holds.Floor(), 25u);
  holds.Update(a, 1);  // stale id after release: ignored
  EXPECT_EQ(holds.Floor(), 25u);
  holds.Release(b);
  EXPECT_EQ(holds.Floor(), UINT64_MAX);
}

TEST_F(WalTest, RetentionHoldCapsTruncateThrough) {
  // The truncation/shipping race fix: a checkpoint may move past a
  // lagging follower, but TruncateThrough must never delete a record a
  // registered hold still needs — otherwise the follower is stranded
  // (ReadWalAfter refuses a log that starts past its cursor).
  WalOptions options;
  options.segment_bytes = 1;  // rotate at every commit boundary
  std::string error;
  auto wal = WriteAheadLog::Open(dir_, 1, options, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_EQ(wal->Append(MakeBatch(i)), static_cast<uint64_t>(i + 1));
    ASSERT_TRUE(wal->Sync());
  }

  // A consumer still needs LSN 3: truncation through 5 may only drop
  // records 1..2 no matter what the checkpoint says.
  const uint64_t hold = wal->retention().Register(3);
  wal->TruncateThrough(5);
  std::vector<WalRecord> records;
  ASSERT_TRUE(ReadWalAfter(dir_, 2, &records).ok());
  ASSERT_GE(records.size(), 4u);
  EXPECT_EQ(records.front().lsn, 3u);
  EXPECT_EQ(records.back().lsn, 6u);

  // A hold at 1 (nothing shipped yet) retains the whole log.
  const uint64_t everything = wal->retention().Register(1);
  wal->TruncateThrough(6);
  records.clear();
  ASSERT_TRUE(ReadWalAfter(dir_, 2, &records).ok());
  EXPECT_EQ(records.front().lsn, 3u);  // still there

  // Holds advanced past the checkpoint stop constraining it.
  wal->retention().Update(hold, 6);
  wal->retention().Update(everything, 7);
  wal->TruncateThrough(5);
  records.clear();
  ASSERT_TRUE(ReadWalAfter(dir_, 5, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().lsn, 6u);

  // Released holds lift the cap entirely.
  wal->retention().Release(hold);
  wal->retention().Release(everything);
  wal->TruncateThrough(5);
  records.clear();
  ASSERT_TRUE(ReadWalAfter(dir_, 5, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().lsn, 6u);
}

}  // namespace
}  // namespace pitex
