// libFuzzer harness for the write-ahead-log reader and the shared frame
// decoder (PITEX_FUZZ=ON, Clang only). Complements tests/wal_test.cc
// and tests/replication_test.cc: the gtest suites prove the torn-tail
// contract at every byte offset of well-formed input, while this
// harness lets coverage feedback drive arbitrary byte soup through the
// segment header, frame, record-body and update-batch parsers.
//
// Contract under test, for each input:
//
//   * As a segment file: ReadWalAfter either returns kOk/kTornTail with
//     a structurally valid record prefix (dense LSNs ascending from
//     after_lsn+1, at most one update or entry per 12 input bytes) or
//     refuses with kCorrupt/kIoError.
//   * As a replication byte stream: the receive loop (DecodeReplFrame,
//     then ReplResyncSkip on kBad) makes progress at every step, every
//     decoded frame re-encodes to exactly the bytes it consumed, no
//     payload exceeds kMaxReplPayloadBytes, and a decoded record body
//     respects the same payload-bytes / 12 bound.
//
// Any crash, sanitizer report, or invariant violation (enforced with
// abort() below) is a finding.
//
// Seed corpus: set PITEX_FUZZ_SEED_DIR=<dir> and the harness writes a
// real three-record segment and a two-frame replication stream there
// during LLVMFuzzerInitialize:
//
//   mkdir -p corpus
//   PITEX_FUZZ_SEED_DIR=corpus ./wal_fuzz -max_total_time=30 corpus

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/serve/wal.h"
#include "src/util/serialize.h"

namespace pitex {
namespace {

namespace fs = std::filesystem;

void Require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "wal_fuzz invariant violated: %s\n", what);
    std::abort();
  }
}

/// One scratch directory per process; each input rewrites the single
/// segment file in place.
const std::string& ScratchDir() {
  static const std::string dir = [] {
    const std::string d =
        (fs::temp_directory_path() / "pitex_wal_fuzz_scratch").string();
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

std::string ValidSegmentBytes() {
  const std::string dir =
      (fs::temp_directory_path() / "pitex_wal_fuzz_seed").string();
  fs::remove_all(dir);
  std::string error;
  auto wal = WriteAheadLog::Open(dir, /*next_lsn=*/1, WalOptions(), &error);
  Require(wal != nullptr, "seed WAL must open");
  for (uint32_t i = 0; i < 3; ++i) {
    std::vector<EdgeInfluenceUpdate> batch(1);
    batch[0].edge = i;
    batch[0].entries = {{i, 0.25 + 0.1 * i}, {i + 1, 0.5}};
    Require(wal->Append(batch) != 0, "seed append must succeed");
  }
  Require(wal->Sync(), "seed sync must succeed");
  wal.reset();
  std::ifstream in(dir + "/" + WalSegmentName(1), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  Require(!bytes.empty(), "seed segment must exist");
  fs::remove_all(dir);
  return bytes;
}

/// A replication stream seed: a wire record frame, then a heartbeat.
std::string ValidStreamBytes() {
  std::ostringstream record;
  BinaryWriter writer(&record);
  writer.WriteU64(/*term=*/2);
  const std::vector<EdgeInfluenceUpdate> batch = {
      EdgeInfluenceUpdate{3, {{0, 0.25}, {1, 0.5}}}};
  WriteWalRecord(&writer, /*lsn=*/7, batch);
  std::ostringstream beat;
  BinaryWriter beat_writer(&beat);
  beat_writer.WriteU64(2);
  beat_writer.WriteU64(7);
  return EncodeReplFrame(ReplFrame{ReplFrameType::kRecord, record.str()}) +
         EncodeReplFrame(ReplFrame{ReplFrameType::kHeartbeat, beat.str()});
}

uint64_t BatchItems(const std::vector<EdgeInfluenceUpdate>& updates) {
  uint64_t items = updates.size();
  for (const EdgeInfluenceUpdate& update : updates) {
    items += update.entries.size();
  }
  return items;
}

/// Feeds `bytes` through the replication receive loop.
void CheckStream(std::string_view bytes) {
  while (!bytes.empty()) {
    ReplFrame frame;
    size_t consumed = 0;
    const ReplDecodeStatus status = DecodeReplFrame(bytes, &frame, &consumed);
    if (status == ReplDecodeStatus::kNeedMore) return;  // torn remainder
    if (status == ReplDecodeStatus::kBad) {
      const size_t skip = ReplResyncSkip(bytes);
      Require(skip >= 1 && skip <= bytes.size(), "resync skip makes progress");
      bytes.remove_prefix(skip);
      continue;
    }
    Require(consumed >= 1 && consumed <= bytes.size(),
            "decoded frame makes progress");
    Require(frame.payload.size() <= kMaxReplPayloadBytes,
            "payload within the frame cap");
    Require(EncodeReplFrame(frame) == bytes.substr(0, consumed),
            "decoded frame re-encodes to the bytes it consumed");
    if (frame.type == ReplFrameType::kRecord ||
        frame.type == ReplFrameType::kWalRecord) {
      std::istringstream in(frame.payload);
      BinaryReader reader(&in);
      uint64_t term = 0;
      uint64_t lsn = 0;
      std::vector<EdgeInfluenceUpdate> updates;
      // A wire record carries the sender's term before the record body.
      if ((frame.type == ReplFrameType::kWalRecord || reader.ReadU64(&term)) &&
          ReadWalRecord(&reader, frame.payload.size(), &lsn, &updates)) {
        Require(BatchItems(updates) <= frame.payload.size() / 12,
                "record body bounded by its payload bytes / 12");
      }
    }
    bytes.remove_prefix(consumed);
  }
}

}  // namespace
}  // namespace pitex

extern "C" int LLVMFuzzerInitialize(int* /*argc*/, char*** /*argv*/) {
  using namespace pitex;
  // Self-check: the pristine seed must read back cleanly before any
  // fuzzing starts.
  const std::string seed = ValidSegmentBytes();
  {
    std::ofstream out(ScratchDir() + "/" + WalSegmentName(1),
                      std::ios::binary);
    out.write(seed.data(), static_cast<std::streamsize>(seed.size()));
  }
  std::vector<WalRecord> records;
  const WalReadResult result = ReadWalAfter(ScratchDir(), 0, &records);
  Require(result.status == WalReadStatus::kOk, "seed segment must read");
  Require(records.size() == 3, "seed segment must hold three records");
  if (const char* dir = std::getenv("PITEX_FUZZ_SEED_DIR")) {
    std::ofstream out(std::string(dir) + "/seed_segment.log",
                      std::ios::binary);
    out.write(seed.data(), static_cast<std::streamsize>(seed.size()));
    const std::string stream = ValidStreamBytes();
    std::ofstream stream_out(std::string(dir) + "/seed_stream.bin",
                             std::ios::binary);
    stream_out.write(stream.data(),
                     static_cast<std::streamsize>(stream.size()));
  }
  return 0;
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace pitex;
  {
    std::ofstream out(ScratchDir() + "/" + WalSegmentName(1),
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  std::vector<WalRecord> records;
  const WalReadResult result = ReadWalAfter(ScratchDir(), 0, &records);
  if (result.status == WalReadStatus::kOk ||
      result.status == WalReadStatus::kTornTail) {
    // Survivors must be a dense, ascending LSN prefix with sane bodies.
    uint64_t expected = 1;
    uint64_t items = 0;
    for (const WalRecord& record : records) {
      Require(record.lsn == expected, "LSNs dense from after_lsn+1");
      ++expected;
      items += BatchItems(record.updates);
    }
    // Every update and every entry costs at least 12 record bytes.
    Require(items <= size / 12, "records bounded by their bytes / 12");
  } else {
    Require(records.empty() || result.status == WalReadStatus::kCorrupt,
            "failed reads surface no phantom suffix");
  }
  CheckStream(std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}
