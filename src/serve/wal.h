// Write-ahead log of edge-update batches (docs/robustness.md,
// "Durability").
//
// PitexService::ApplyUpdates appends each batch here and makes it
// durable *before* repairing the master index or acknowledging the
// caller — so a SIGKILL at any instant loses no acknowledged update:
// restart replays the log tail over the newest checkpoint through the
// same deterministic repair path (src/serve/recovery.h) and republishes
// bit-identical state. The log doubles as the globally ordered update
// sequence the ROADMAP's sharded tier needs: every record carries a
// log sequence number (LSN, dense from 1), and replaying a prefix is
// replaying history.
//
// Framing — one format for every byte stream the tier writes or ships.
// A WAL segment and a replication connection (src/serve/replication.h)
// are both sequences of frames:
//
//   magic "PXRP" u32 LE | type u8 | payload-length u32 LE | payload |
//   fnv64(type | length | payload) u64 LE
//
// The frame's one checksum covers its type, length and payload. Every
// copy of an update batch (WAL record, wire record, checkpoint manifest
// delta) is written by WriteUpdateBatch and read by ReadUpdateBatch:
//
//   batch-size u64 | { edge u32 | n u64 | {topic u32, prob f64} * n }
//
// On-disk layout — a directory of segments:
//
//   wal-<start_lsn, 16 hex digits>.log
//     header : magic "PITEXWAL" | version u32 LE (2) | start_lsn u64 LE
//     record*: one kWalRecord frame, payload = lsn u64 | batch
//
// The stored payload is also the wire record: a replication kRecord
// payload is the term u64 followed by this payload, shipped as it is
// (ReadWalAfter hands it over in WalRecord::body), so no record is
// re-encoded on its way to a follower.
//
// Torn-tail rule: a frame whose bytes run out exactly at end-of-log
// (DecodeReplFrame says kNeedMore at the end of the *newest* segment)
// is the expected artifact of a crash mid-append — the reader consumes
// it as the end of history. So is a complete final frame that fails
// its checksum: block-level write reordering can persist a record's
// tail before its head. The same damage anywhere else (bytes follow
// the broken frame, bad magic, type or length) is corruption and
// recovery refuses the log rather than guess.
//
// Group commit: Append buffers through the OS; Sync() is the commit
// point — everything appended since the last Sync becomes durable (one
// fsync) or is rolled back together (the file is truncated back to the
// last committed offset, so the log never holds records the caller was
// told failed). The fsync policy knob trades the zero-acknowledged-
// loss guarantee for throughput: kNever acknowledges after write(2)
// and leaves durability to the page cache.
//
// Not thread-safe: the service owns exactly one writer and serializes
// it under its publisher mutex. The one exception is the retention-hold
// registry (retention()): it is internally synchronized so log
// consumers on other threads — the WAL shipper of
// src/serve/replication.h — can pin un-shipped LSNs against truncation
// without ever touching the publisher mutex.

#ifndef PITEX_SRC_SERVE_WAL_H_
#define PITEX_SRC_SERVE_WAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/index/dynamic_index.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pitex {

class BinaryReader;
class BinaryWriter;

// ---------------------------------------------------------------------------
// Frame codec

enum class ReplFrameType : uint8_t {
  /// Primary -> follower, once per connection before anything else:
  /// the bootstrap checkpoint (possibly "none yet"). Payload:
  /// term u64 | present u8 | manifest string | snapshot-name string |
  /// snapshot bytes string.
  kCheckpoint = 1,
  /// One committed WAL record on the wire. Payload: term u64 | the
  /// record's stored kWalRecord payload, byte for byte.
  kRecord = 2,
  /// Liveness + lag beacon. Payload: term u64 | durable-lsn u64.
  kHeartbeat = 3,
  /// Follower -> primary: records through this LSN are applied (and
  /// durable in the follower's own log). Payload: applied-lsn u64.
  kAck = 4,
  /// Follower -> primary: resend everything after this LSN (gap or
  /// damaged frame detected). Payload: from-lsn u64.
  kResync = 5,
  /// One WAL record on disk. Payload: record body (WriteWalRecord).
  kWalRecord = 6,
};

/// A length field above this is damage, not a real frame: without the
/// cap a corrupt header could make a receiver buffer gigabytes waiting
/// for a frame that never completes. A record is one ApplyUpdates
/// batch, far below it.
inline constexpr uint32_t kMaxReplPayloadBytes = 256u << 20;

/// Largest payload WriteAheadLog::Append stores: a shipped record is
/// its stored payload behind an 8-byte term, so anything longer would
/// be acknowledged and then refused as kBad by every follower.
inline constexpr uint32_t kMaxWalRecordBytes =
    kMaxReplPayloadBytes - sizeof(uint64_t);
static_assert(kMaxWalRecordBytes + sizeof(uint64_t) <= kMaxReplPayloadBytes,
              "a stored record behind its term must fit one kRecord frame");

struct ReplFrame {
  ReplFrameType type = ReplFrameType::kHeartbeat;
  std::string payload;
};

enum class ReplDecodeStatus : uint8_t {
  /// A complete, checksum-verified frame was decoded.
  kFrame,
  /// The bytes are a proper prefix of a plausible frame: read more.
  /// (A log or stream that ends here has a torn tail.)
  kNeedMore,
  /// Header or checksum mismatch: damaged bytes. Discard and realign
  /// (ReplResyncSkip) — the sender will be asked to resend.
  kBad,
};

/// Serializes one frame (header, payload, trailing checksum).
std::string EncodeReplFrame(const ReplFrame& frame);

/// Attempts to decode one frame from the front of `bytes`. On kFrame,
/// `*frame` holds the decoded frame and `*consumed` the bytes to
/// discard; on kNeedMore/kBad both outputs are untouched.
ReplDecodeStatus DecodeReplFrame(std::string_view bytes, ReplFrame* frame,
                                 size_t* consumed);

/// After kBad: bytes to discard so decoding resumes at the next
/// occurrence of the frame magic (>= 1; the whole buffer when no magic
/// candidate follows).
size_t ReplResyncSkip(std::string_view bytes);

// ---------------------------------------------------------------------------
// Update-batch and record-body codec

/// Writes `updates` in the batch layout above.
void WriteUpdateBatch(BinaryWriter* writer,
                      std::span<const EdgeInfluenceUpdate> updates);

/// Reads one batch into `*updates`. `max_bytes` is what the enclosing
/// frame payload or file holds: every update costs at least 12 bytes
/// (edge u32 + entry count u64) and every entry exactly 12 (topic u32 +
/// prob f64), so a count above max_bytes / 12 is damage and fails
/// before anything is allocated for it.
bool ReadUpdateBatch(BinaryReader* reader, uint64_t max_bytes,
                     std::vector<EdgeInfluenceUpdate>* updates);

/// The record body shared by the WAL and the wire: lsn u64 | batch.
void WriteWalRecord(BinaryWriter* writer, uint64_t lsn,
                    std::span<const EdgeInfluenceUpdate> updates);
bool ReadWalRecord(BinaryReader* reader, uint64_t max_bytes, uint64_t* lsn,
                   std::vector<EdgeInfluenceUpdate>* updates);

// ---------------------------------------------------------------------------
// Write-ahead log

enum class WalFsyncPolicy : uint8_t {
  /// fsync on every Sync(): acknowledged implies durable (the default;
  /// required for the zero-acknowledged-update-loss guarantee).
  kAlways,
  /// Never fsync: Sync() only marks the commit point. Durability is
  /// whatever the OS page cache provides — survives process crashes
  /// (the kill-9 drills) but not power loss.
  kNever,
};

struct WalOptions {
  /// Rotate to a fresh segment once the current one reaches this size
  /// (checked before an append, so segments overshoot by at most one
  /// record).
  uint64_t segment_bytes = 8ull << 20;
  WalFsyncPolicy fsync = WalFsyncPolicy::kAlways;
};

/// One decoded log record: batch `updates` was acknowledged as `lsn`.
/// `body` is the checksum-verified frame payload it was parsed from
/// (lsn u64 | batch), which the WAL shipper sends as it is.
struct WalRecord {
  uint64_t lsn = 0;
  std::vector<EdgeInfluenceUpdate> updates;
  std::string body;
};

/// Registered minimum-retained-LSN holds: the fix for the truncation /
/// shipping race. TruncateThrough was written when the checkpointer was
/// the log's only consumer; a WAL shipper tailing the log for a
/// follower is a second one, and deleting a segment the follower has
/// not caught up past would strand it permanently (ReadWalAfter
/// rightly refuses a log that starts past its cursor). Each consumer
/// registers a hold naming the first LSN it still needs; truncation
/// never deletes a record at or above the minimum across live holds.
///
/// Thread-safe (unlike its owning WriteAheadLog): holds are registered
/// and advanced from consumer threads while the publisher appends.
class WalRetentionHolds {
 public:
  /// Registers a hold: records with LSN >= `first_needed_lsn` survive
  /// truncation until the hold advances or is released. Returns the
  /// hold's id (never 0).
  uint64_t Register(uint64_t first_needed_lsn) PITEX_EXCLUDES(mutex_);
  /// Advances (or rewinds — a resyncing follower may need history back)
  /// an existing hold. Unknown ids are ignored.
  void Update(uint64_t id, uint64_t first_needed_lsn) PITEX_EXCLUDES(mutex_);
  /// Drops the hold; the consumer no longer constrains truncation.
  void Release(uint64_t id) PITEX_EXCLUDES(mutex_);
  /// Minimum first-needed LSN across live holds, or UINT64_MAX when no
  /// hold is registered (truncation unconstrained).
  uint64_t Floor() const PITEX_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::vector<std::pair<uint64_t, uint64_t>> holds_ PITEX_GUARDED_BY(mutex_);
  uint64_t next_id_ PITEX_GUARDED_BY(mutex_) = 1;
};

class WriteAheadLog {
 public:
  /// Opens `dir` (created if absent) for appending; the first record
  /// gets `next_lsn`. Always starts a fresh segment named after
  /// next_lsn — after recovery that overwrites at most a torn
  /// (never-acknowledged) tail, never committed records. Returns null
  /// with `*error` set on failure. Fail points: "wal/append",
  /// "wal/fsync".
  static std::unique_ptr<WriteAheadLog> Open(const std::string& dir,
                                             uint64_t next_lsn,
                                             const WalOptions& options,
                                             std::string* error = nullptr);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one batch (buffered; durable only after Sync). Returns the
  /// assigned LSN, or 0 on failure — a failed append is truncated back
  /// out of the file and the LSN is not consumed.
  uint64_t Append(std::span<const EdgeInfluenceUpdate> updates);

  /// Commit point for everything appended since the last Sync: fsyncs
  /// per policy and returns true, or rolls the uncommitted suffix back
  /// (truncate + LSN rewind) and returns false.
  bool Sync();

  /// Deletes segments every record of which has LSN <= `lsn` (called
  /// after a checkpoint at `lsn`). The active segment is never deleted,
  /// and registered retention holds (retention()) cap the truncation
  /// point: a record some consumer still needs is never deleted even
  /// when the checkpoint has moved past it.
  void TruncateThrough(uint64_t lsn);

  /// Retention-hold registry for secondary log consumers (shipping).
  /// Internally synchronized; safe to use from any thread while the
  /// owner appends. The reference stays valid for the log's lifetime.
  WalRetentionHolds& retention() { return retention_; }

  /// LSN the next Append will assign.
  uint64_t next_lsn() const { return next_lsn_; }
  /// Successful Append calls over this writer's lifetime.
  uint64_t appends() const { return appends_; }
  /// fsync(2) calls actually issued (0 under WalFsyncPolicy::kNever).
  uint64_t fsyncs() const { return fsyncs_; }

 private:
  WriteAheadLog(std::string dir, uint64_t next_lsn,
                const WalOptions& options)
      : dir_(std::move(dir)), options_(options), next_lsn_(next_lsn),
        committed_lsn_(next_lsn) {}

  bool OpenSegment(uint64_t start_lsn, std::string* error);
  bool RotateIfNeeded();
  /// Truncates the active segment back to `offset` and rewinds the
  /// write cursor (failed-append / failed-commit rollback). If the
  /// truncate/seek itself fails the writer is poisoned (fd_ = -1):
  /// appending after a failed rollback would interleave live records
  /// with stale uncommitted bytes, so every later Append/Sync fails
  /// instead and the on-disk committed prefix stays intact.
  void RollBackTo(uint64_t offset);

  std::string dir_;
  WalOptions options_;
  int fd_ = -1;
  std::string segment_path_;
  uint64_t segment_start_lsn_ = 0;
  uint64_t offset_ = 0;            // current end of the active segment
  uint64_t committed_offset_ = 0;  // end as of the last successful Sync
  uint64_t next_lsn_ = 1;
  uint64_t committed_lsn_ = 1;     // next_lsn as of the last Sync
  uint64_t appends_ = 0;
  uint64_t fsyncs_ = 0;
  WalRetentionHolds retention_;
};

enum class WalReadStatus : uint8_t {
  /// Read every record to a clean end of log.
  kOk,
  /// Read every committed record; a torn tail (crash mid-append) was
  /// detected and consumed as the end of history. Still a success.
  kTornTail,
  /// A broken frame with further data behind it, a bad frame header, a
  /// record that does not parse, or an LSN discontinuity: real
  /// corruption, the log must not be trusted.
  kCorrupt,
  /// The directory or a segment could not be read.
  kIoError,
};

struct WalReadResult {
  WalReadStatus status = WalReadStatus::kOk;
  std::string message;

  bool ok() const {
    return status == WalReadStatus::kOk || status == WalReadStatus::kTornTail;
  }
};

/// Decodes every record with LSN > `after_lsn`, in LSN order, across
/// all segments in `dir` (an absent or empty directory reads as an
/// empty log). Appends to `*records`.
WalReadResult ReadWalAfter(const std::string& dir, uint64_t after_lsn,
                           std::vector<WalRecord>* records);

/// Segment filename for a given starting LSN ("wal-<16 hex>.log").
std::string WalSegmentName(uint64_t start_lsn);

}  // namespace pitex

#endif  // PITEX_SRC_SERVE_WAL_H_
