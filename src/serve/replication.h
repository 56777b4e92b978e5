// Replicated serving: WAL shipping, follower replay, and health-checked
// failover (docs/robustness.md, "Replication & failover").
//
// PR 8 made replay deterministic — the repair RNG is keyed by
// (seed, lsn, version), so two services that apply the same
// acknowledged batches in LSN order are bit-identical by construction.
// This file turns that property into a hot standby: a WalShipper on the
// primary tails the committed WAL and streams records to a
// FollowerService, which bootstraps from a shipped checkpoint, applies
// the records through the ordinary deterministic replay path, serves
// read queries the whole time, and promotes itself to primary when the
// primary's heartbeats stop. Term fencing keeps a deposed primary from
// acknowledging writes after the promotion (no split-brain
// dual-writers).
//
// The pieces, bottom-up:
//
//   * Frame codec (src/serve/wal.h) — every message on the wire is one
//     frame of the same format the WAL stores its records in, and a
//     kRecord payload is term u64 followed by the record's stored WAL
//     payload, shipped as it is (never decoded and re-encoded).
//     DecodeReplFrame distinguishes "incomplete" (a prefix of a valid
//     frame: wait for more bytes — the WAL's torn tail) from "damaged"
//     (checksum or header mismatch: discard and realign at the next
//     magic). tests/replication_test.cc pins both byte-by-byte, like
//     wal_test.cc's torn-tail sweep.
//
//   * ReplicationTransport — a duplex byte pipe with framed receive.
//     Two implementations: an in-process pair (two mutex+condvar byte
//     queues; unit tests, single-process drills) and an fd transport
//     over a Unix-domain socket(pair) for the fork-based SIGKILL
//     drills. Both carry raw bytes, not parsed frames, so injected
//     damage (torn prefixes, duplicated or reordered frames) exercises
//     the same realignment path real corruption would.
//
//   * TermAuthority (src/serve/term_authority.h) — the fencing oracle:
//     a monotonic term counter both sides consult. A write is acknowledged only while the writer's
//     term matches the authority's current term; promotion advances the
//     term, so a deposed primary's late writes fail with
//     ApplyUpdatesOutcome::kFencedStaleTerm instead of forking history.
//     In-process (atomic) for tests, file-backed (TERM file, atomic
//     replace) for cross-process drills. This models the third-party
//     coordination service a production deployment would consult; the
//     single-writer guarantee is only as strong as the authority's
//     Advance atomicity (the file variant assumes one candidate per
//     election, which the drills arrange).
//
//   * WalShipper — primary side. Sends the current checkpoint (raw
//     manifest + snapshot bytes, src/serve/recovery.h) as a bootstrap,
//     then tails the WAL directory and ships every record up to the
//     primary's durable LSN, heartbeating in between. Registers a
//     retention hold (WalRetentionHolds) pinning every un-acked LSN so
//     checkpoint truncation can never race a lagging follower out of
//     catch-up range, and rewinds its cursor on a follower's resync
//     request. All shipping fail points live in its send path so the
//     same faults drill both transports:
//
//       repl/ship_drop      frame silently dropped
//       repl/ship_dup       frame sent twice
//       repl/ship_reorder   frame held and sent after its successor
//       repl/ship_torn      only a prefix of the frame is sent
//       repl/heartbeat_drop heartbeats dropped (promotion drills)
//       repl/partition      every outbound frame dropped
//
//   * FollowerService — replica side. Installs the shipped checkpoint
//     into its own durability directory, starts an inner PitexService
//     there (recovery re-validates everything: manifest checksum,
//     snapshot fingerprint), then applies shipped records through
//     PitexService::ApplyUpdates — the follower is itself durable, and
//     its answers are bit-identical to the primary's by the determinism
//     argument above. Records must arrive densely: lsn <= applied is a
//     duplicate (dropped), lsn == applied + 1 applies, a gap or a
//     damaged frame triggers a resync request naming the last applied
//     LSN. When no primary traffic arrives for heartbeat_timeout the
//     follower advances the term authority, adopts the new term, and
//     keeps serving — now as the primary. Replication lag (primary
//     durable LSN − applied LSN), the current term, and the full
//     duplicate/resync/reject ledger export through the inner service's
//     metrics registry (docs/observability.md).

#ifndef PITEX_SRC_SERVE_REPLICATION_H_
#define PITEX_SRC_SERVE_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/index/dynamic_index.h"
#include "src/obs/metrics.h"
#include "src/serve/pitex_service.h"
#include "src/serve/recovery.h"
#include "src/serve/term_authority.h"
#include "src/serve/wal.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pitex {

// ---------------------------------------------------------------------------
// Typed payloads

// Typed payload encode/decode over the frame codec of src/serve/wal.h.
// Decoders return false on short, corrupt or oversized payloads (damage
// the outer checksum did not catch only arises from a buggy or
// malicious peer — rejecting is the response either way).

struct ReplCheckpointMsg {
  uint64_t term = 0;
  ShippedCheckpoint checkpoint;
};
/// A kRecord frame as the follower decodes it (the primary sends the
/// stored bytes through EncodeRecordMsg and never builds one).
struct ReplRecordMsg {
  uint64_t term = 0;
  uint64_t lsn = 0;
  std::vector<EdgeInfluenceUpdate> updates;
};
struct ReplHeartbeatMsg {
  uint64_t term = 0;
  uint64_t durable_lsn = 0;
};

ReplFrame EncodeCheckpointMsg(const ReplCheckpointMsg& msg);
/// `body` is a record's stored WAL payload (WalRecord::body): the frame
/// is term u64 LE | body, and DecodeRecordMsg parses it into a
/// ReplRecordMsg on the follower.
ReplFrame EncodeRecordMsg(uint64_t term, std::string_view body);
ReplFrame EncodeHeartbeatMsg(const ReplHeartbeatMsg& msg);
ReplFrame EncodeAckMsg(uint64_t applied_lsn);
ReplFrame EncodeResyncMsg(uint64_t from_lsn);
bool DecodeCheckpointMsg(const ReplFrame& frame, ReplCheckpointMsg* msg);
bool DecodeRecordMsg(const ReplFrame& frame, ReplRecordMsg* msg);
bool DecodeHeartbeatMsg(const ReplFrame& frame, ReplHeartbeatMsg* msg);
bool DecodeAckMsg(const ReplFrame& frame, uint64_t* applied_lsn);
bool DecodeResyncMsg(const ReplFrame& frame, uint64_t* from_lsn);

// ---------------------------------------------------------------------------
// Transport

class ReplicationTransport {
 public:
  enum class RecvStatus : uint8_t {
    /// `*frame` holds a complete, checksum-verified frame.
    kFrame,
    /// No complete frame arrived within the timeout.
    kTimeout,
    /// Damaged bytes were discarded (checksum/header mismatch). The
    /// caller should request a resync; the next Recv resumes at the
    /// realignment point.
    kBadFrame,
    /// Peer closed and every decodable frame has been drained. A torn
    /// trailing frame (peer died mid-send) is silently discarded — the
    /// stream analogue of the WAL torn-tail rule.
    kClosed,
  };

  virtual ~ReplicationTransport() = default;

  /// Frame-level send (encode + SendBytes).
  bool Send(const ReplFrame& frame) { return SendBytes(EncodeReplFrame(frame)); }

  /// Raw byte send — the fault-injection seam: the shipper mangles the
  /// encoded bytes (torn prefix, duplicate, reorder) before handing
  /// them here, so both transports carry the damage identically.
  /// Returns false when the peer is gone.
  virtual bool SendBytes(std::string bytes) = 0;

  /// Blocks up to `timeout` for one frame. Thread-safe against a
  /// concurrent sender on the same endpoint; a single receiver is
  /// assumed.
  virtual RecvStatus Recv(ReplFrame* frame,
                          std::chrono::milliseconds timeout) = 0;

  /// Shuts the endpoint down; the peer's Recv drains then sees kClosed,
  /// its sends fail. Idempotent.
  virtual void Close() = 0;
};

/// Two connected in-process endpoints (a <-> b). Either side may be
/// used from different threads; each endpoint is one sender + one
/// receiver.
std::pair<std::unique_ptr<ReplicationTransport>,
          std::unique_ptr<ReplicationTransport>>
MakeInProcessTransportPair();

/// Wraps a connected stream fd (socketpair(AF_UNIX, SOCK_STREAM) or a
/// connected Unix-domain socket) — the transport for fork-based drills,
/// where primary and follower are separate processes. Takes ownership
/// of the fd.
std::unique_ptr<ReplicationTransport> MakeFdTransport(int fd);

// ---------------------------------------------------------------------------
// WalShipper (primary side)

struct WalShipperOptions {
  /// The primary's durability directory (WAL segments + checkpoints).
  std::string wal_dir;
  /// The primary's current term, stamped on every shipped frame.
  uint64_t term = 1;
};

/// Tails the primary's committed WAL and streams it to one follower.
/// Owns a background thread between Start() and Stop(). Shipping is
/// asynchronous: ApplyUpdates acknowledges on local durability, and the
/// acked_lsn() watermark tells callers how far the follower has
/// confirmed — a caller wanting semi-synchronous replication waits on
/// it (the failover drill does exactly that for its acknowledged
/// rounds).
class WalShipper {
 public:
  /// `primary` and `transport` must outlive the shipper. Metrics
  /// register into the primary's registry
  /// (pitex_repl_records_shipped_total, pitex_repl_shipped_lsn,
  /// pitex_repl_acked_lsn, ...).
  WalShipper(PitexService* primary, ReplicationTransport* transport,
             const WalShipperOptions& options);
  ~WalShipper();

  WalShipper(const WalShipper&) = delete;
  WalShipper& operator=(const WalShipper&) = delete;

  /// Starts the primary (if needed), registers the retention hold,
  /// ships the bootstrap checkpoint, and launches the shipping thread.
  /// Idempotent.
  void Start();
  /// Stops the thread and releases the retention hold. Idempotent;
  /// the destructor calls it.
  void Stop();

  /// Highest LSN handed to the transport so far.
  uint64_t shipped_lsn() const {
    return shipped_lsn_.load(std::memory_order_acquire);
  }
  /// Highest LSN the follower has acknowledged as applied.
  uint64_t acked_lsn() const {
    return acked_lsn_.load(std::memory_order_acquire);
  }

 private:
  void Loop();
  /// Send with the repl/* fail points applied (drop, dup, reorder,
  /// torn, partition; heartbeat_drop for heartbeats only).
  bool SendFrameWithFaults(const ReplFrame& frame);
  void HandleInbound(const ReplFrame& frame, uint64_t* cursor);

  PitexService* primary_;
  ReplicationTransport* transport_;
  WalShipperOptions options_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  WalRetentionHolds* retention_ = nullptr;  // owned by the primary's WAL
  uint64_t hold_id_ = 0;

  std::atomic<uint64_t> shipped_lsn_{0};
  std::atomic<uint64_t> acked_lsn_{0};
  /// Frame held back by an armed repl/ship_reorder (sent after its
  /// successor). Shipping-thread-only.
  std::string reordered_;

  obs::Counter* records_shipped_ = nullptr;
  obs::Counter* heartbeats_sent_ = nullptr;
  obs::Counter* resyncs_served_ = nullptr;
  obs::Gauge* shipped_gauge_ = nullptr;
  obs::Gauge* acked_gauge_ = nullptr;
};

// ---------------------------------------------------------------------------
// FollowerService (replica side)

struct FollowerOptions {
  /// Options for the inner PitexService. Must enable updates, name a
  /// durability directory private to this follower, and otherwise match
  /// the primary's engine options — determinism makes the replica
  /// bit-identical only when both sides run the same configuration.
  ServeOptions serve;
  /// Promote after this long without any primary frame. Should be a
  /// small multiple of the shipper's 20 ms heartbeat interval.
  double heartbeat_timeout_ms = 250.0;
  /// Fencing oracle shared with the primary. Required: promotion
  /// without fencing would be a split-brain generator.
  TermAuthority* authority = nullptr;
};

/// A continuously-serving replica: applies shipped records through the
/// inner service's deterministic replay, answers read queries from it
/// the whole time, and promotes itself when the primary goes quiet.
class FollowerService {
 public:
  /// `network`, `transport` and `options.authority` must outlive the
  /// follower.
  FollowerService(const SocialNetwork* network,
                  ReplicationTransport* transport,
                  const FollowerOptions& options);
  ~FollowerService();

  FollowerService(const FollowerService&) = delete;
  FollowerService& operator=(const FollowerService&) = delete;

  /// Launches the replication loop and blocks until the bootstrap
  /// checkpoint is installed and the inner service is serving (or the
  /// bootstrap times out / the transport dies: false with `*error`).
  bool Start(std::string* error = nullptr);
  /// Stops the loop thread. The inner service keeps serving (a promoted
  /// follower outlives its replication link). Idempotent.
  void Stop();

  /// The inner serving instance: read queries before promotion, full
  /// primary duties after. Valid once Start() returned true.
  PitexService& service() { return *inner_; }

  bool promoted() const { return promoted_.load(std::memory_order_acquire); }
  /// Highest densely-applied LSN.
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }
  /// The term this follower currently operates under (the primary's
  /// until promotion, its own after).
  uint64_t term() const { return term_.load(std::memory_order_acquire); }

 private:
  void Loop();
  bool Bootstrap(const ReplCheckpointMsg& msg, std::string* error);
  void FailBootstrap(std::string message);
  void HandleRecord(const ReplRecordMsg& msg,
                    std::chrono::steady_clock::time_point now);
  /// Gap, damaged frame, or local apply failure: ask the shipper to
  /// resend everything after the last applied LSN.
  void RequestResync();
  void MaybePromote(std::chrono::steady_clock::time_point now);
  void RegisterMetrics();

  const SocialNetwork* network_;
  ReplicationTransport* transport_;
  FollowerOptions options_;
  std::unique_ptr<PitexService> inner_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> promoted_{false};
  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<uint64_t> term_{0};

  Mutex bootstrap_mutex_;
  CondVar bootstrap_cv_;
  bool bootstrapped_ PITEX_GUARDED_BY(bootstrap_mutex_) = false;
  std::string bootstrap_error_ PITEX_GUARDED_BY(bootstrap_mutex_);
  bool bootstrap_failed_ PITEX_GUARDED_BY(bootstrap_mutex_) = false;

  // Loop-thread-only state (no lock needed).
  std::chrono::steady_clock::time_point last_traffic_;
  /// Applied LSN as of the last heartbeat that showed lag; a second
  /// lagging heartbeat with no progress in between means the missing
  /// records are not merely in flight — request a resync. (A dropped
  /// FINAL record leaves no later frame to expose the gap; heartbeats
  /// are the liveness prod that heals it.)
  uint64_t stalled_applied_ = UINT64_MAX;

  obs::Counter* records_applied_ = nullptr;
  obs::Counter* duplicates_dropped_ = nullptr;
  obs::Counter* resync_requests_ = nullptr;
  obs::Counter* frames_rejected_ = nullptr;
  obs::Counter* stale_term_frames_ = nullptr;
  obs::Counter* heartbeats_seen_ = nullptr;
  obs::Gauge* applied_gauge_ = nullptr;
  obs::Gauge* primary_lsn_gauge_ = nullptr;
  obs::Gauge* lag_gauge_ = nullptr;
  obs::Gauge* promoted_gauge_ = nullptr;
};

}  // namespace pitex

#endif  // PITEX_SRC_SERVE_REPLICATION_H_
