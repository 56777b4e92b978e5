#include "src/serve/replication.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "src/obs/journal.h"
#include "src/serve/wal.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/serialize.h"

namespace pitex {

// ---------------------------------------------------------------------------
// Typed payloads

ReplFrame EncodeCheckpointMsg(const ReplCheckpointMsg& msg) {
  std::ostringstream out;
  BinaryWriter writer(&out);
  writer.WriteU64(msg.term);
  writer.WriteU8(msg.checkpoint.present ? 1 : 0);
  writer.WriteU64(msg.checkpoint.lsn);
  writer.WriteString(msg.checkpoint.manifest_bytes);
  writer.WriteString(msg.checkpoint.snapshot_name);
  writer.WriteString(msg.checkpoint.snapshot_bytes);
  return ReplFrame{ReplFrameType::kCheckpoint, std::move(out).str()};
}

bool DecodeCheckpointMsg(const ReplFrame& frame, ReplCheckpointMsg* msg) {
  if (frame.type != ReplFrameType::kCheckpoint) return false;
  std::istringstream in(frame.payload);
  BinaryReader reader(&in);
  // The snapshot is a whole index file (megabytes), so each string is
  // bounded by what is left of the frame's payload, which the frame
  // codec already caps at kMaxReplPayloadBytes.
  const auto read_rest = [&](std::string* value) {
    const std::streamoff offset = in.tellg();
    return offset >= 0 &&
           reader.ReadString(value, frame.payload.size() -
                                        static_cast<uint64_t>(offset));
  };
  uint8_t present = 0;
  if (!reader.ReadU64(&msg->term) || !reader.ReadU8(&present) ||
      !reader.ReadU64(&msg->checkpoint.lsn) ||
      !read_rest(&msg->checkpoint.manifest_bytes) ||
      !read_rest(&msg->checkpoint.snapshot_name) ||
      !read_rest(&msg->checkpoint.snapshot_bytes)) {
    return false;
  }
  msg->checkpoint.present = present != 0;
  return true;
}

ReplFrame EncodeRecordMsg(uint64_t term, std::string_view body) {
  std::string payload(sizeof(term) + body.size(), '\0');
  EncodeLe(term, sizeof(term),
           reinterpret_cast<unsigned char*>(payload.data()));
  std::memcpy(payload.data() + sizeof(term), body.data(), body.size());
  return ReplFrame{ReplFrameType::kRecord, std::move(payload)};
}

bool DecodeRecordMsg(const ReplFrame& frame, ReplRecordMsg* msg) {
  if (frame.type != ReplFrameType::kRecord) return false;
  std::istringstream in(frame.payload);
  BinaryReader reader(&in);
  return reader.ReadU64(&msg->term) &&
         ReadWalRecord(&reader, frame.payload.size(), &msg->lsn,
                       &msg->updates);
}

ReplFrame EncodeHeartbeatMsg(const ReplHeartbeatMsg& msg) {
  std::ostringstream out;
  BinaryWriter writer(&out);
  writer.WriteU64(msg.term);
  writer.WriteU64(msg.durable_lsn);
  return ReplFrame{ReplFrameType::kHeartbeat, std::move(out).str()};
}

bool DecodeHeartbeatMsg(const ReplFrame& frame, ReplHeartbeatMsg* msg) {
  if (frame.type != ReplFrameType::kHeartbeat) return false;
  std::istringstream in(frame.payload);
  BinaryReader reader(&in);
  return reader.ReadU64(&msg->term) && reader.ReadU64(&msg->durable_lsn);
}

ReplFrame EncodeAckMsg(uint64_t applied_lsn) {
  std::ostringstream out;
  BinaryWriter writer(&out);
  writer.WriteU64(applied_lsn);
  return ReplFrame{ReplFrameType::kAck, std::move(out).str()};
}

bool DecodeAckMsg(const ReplFrame& frame, uint64_t* applied_lsn) {
  if (frame.type != ReplFrameType::kAck) return false;
  std::istringstream in(frame.payload);
  BinaryReader reader(&in);
  return reader.ReadU64(applied_lsn);
}

ReplFrame EncodeResyncMsg(uint64_t from_lsn) {
  std::ostringstream out;
  BinaryWriter writer(&out);
  writer.WriteU64(from_lsn);
  return ReplFrame{ReplFrameType::kResync, std::move(out).str()};
}

bool DecodeResyncMsg(const ReplFrame& frame, uint64_t* from_lsn) {
  if (frame.type != ReplFrameType::kResync) return false;
  std::istringstream in(frame.payload);
  BinaryReader reader(&in);
  return reader.ReadU64(from_lsn);
}

// ---------------------------------------------------------------------------
// In-process transport

namespace {

/// Receiver-side reassembly shared by both transports (receiver-thread
/// only): the bytes read so far, and whether the peer is gone.
struct FrameReassembler {
  std::string buffer;
  bool eof = false;

  /// Decodes the next frame from the front of `buffer` (kFrame), skips
  /// damaged bytes to the next magic (kBadFrame), or, once the peer is
  /// gone, discards a torn trailing frame (kClosed): the peer died
  /// mid-send and never committed it, like the WAL's torn tail. False
  /// when `buffer` holds at most a frame prefix: read more.
  bool Next(ReplFrame* frame, ReplicationTransport::RecvStatus* status) {
    size_t consumed = 0;
    switch (DecodeReplFrame(buffer, frame, &consumed)) {
      case ReplDecodeStatus::kFrame:
        buffer.erase(0, consumed);
        *status = ReplicationTransport::RecvStatus::kFrame;
        return true;
      case ReplDecodeStatus::kBad:
        buffer.erase(0, ReplResyncSkip(buffer));
        *status = ReplicationTransport::RecvStatus::kBadFrame;
        return true;
      case ReplDecodeStatus::kNeedMore:
        break;
    }
    if (!eof) return false;
    buffer.clear();
    *status = ReplicationTransport::RecvStatus::kClosed;
    return true;
  }
};

/// One direction of the in-process pipe: a byte-chunk queue under a
/// mutex. Chunks preserve send boundaries only incidentally — the
/// receiver concatenates them into its reassembly buffer, exactly as a
/// stream socket would.
struct InProcessDirection {
  Mutex mutex;
  CondVar cv;
  std::deque<std::string> chunks PITEX_GUARDED_BY(mutex);
  bool closed PITEX_GUARDED_BY(mutex) = false;
};

struct InProcessShared {
  // directions[0]: endpoint A sends, endpoint B receives; [1] reverse.
  InProcessDirection directions[2];
};

class InProcessTransport final : public ReplicationTransport {
 public:
  InProcessTransport(std::shared_ptr<InProcessShared> shared, int send_index)
      : shared_(std::move(shared)), send_index_(send_index) {}
  ~InProcessTransport() override { Close(); }

  bool SendBytes(std::string bytes) override {
    InProcessDirection& dir = shared_->directions[send_index_];
    {
      MutexLock lock(dir.mutex);
      if (dir.closed) return false;
      dir.chunks.push_back(std::move(bytes));
    }
    dir.cv.NotifyAll();
    return true;
  }

  RecvStatus Recv(ReplFrame* frame,
                  std::chrono::milliseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    InProcessDirection& dir = shared_->directions[1 - send_index_];
    for (;;) {
      RecvStatus status;
      if (in_.Next(frame, &status)) return status;
      MutexLock lock(dir.mutex);
      while (dir.chunks.empty() && !dir.closed) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) return RecvStatus::kTimeout;
        dir.cv.WaitFor(lock, deadline - now);
      }
      while (!dir.chunks.empty()) {
        in_.buffer += dir.chunks.front();
        dir.chunks.pop_front();
      }
      // A closed direction never receives another chunk.
      in_.eof = dir.closed;
    }
  }

  void Close() override {
    for (InProcessDirection& dir : shared_->directions) {
      {
        MutexLock lock(dir.mutex);
        dir.closed = true;
      }
      dir.cv.NotifyAll();
    }
  }

 private:
  std::shared_ptr<InProcessShared> shared_;
  const int send_index_;
  FrameReassembler in_;
};

}  // namespace

std::pair<std::unique_ptr<ReplicationTransport>,
          std::unique_ptr<ReplicationTransport>>
MakeInProcessTransportPair() {
  auto shared = std::make_shared<InProcessShared>();
  return {std::make_unique<InProcessTransport>(shared, 0),
          std::make_unique<InProcessTransport>(shared, 1)};
}

// ---------------------------------------------------------------------------
// Fd transport

namespace {

class FdTransport final : public ReplicationTransport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override {
    Close();
    // pitex-check: allow(io-checked): teardown; shutdown already flushed
    if (fd_ >= 0) ::close(fd_);
  }

  bool SendBytes(std::string bytes) override {
    size_t sent = 0;
    while (sent < bytes.size()) {
      // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a process-wide
      // SIGPIPE — the shipper treats send failure as "follower gone".
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  RecvStatus Recv(ReplFrame* frame,
                  std::chrono::milliseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      RecvStatus status;
      if (in_.Next(frame, &status)) return status;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return RecvStatus::kTimeout;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int pr =
          ::poll(&pfd, 1, static_cast<int>(std::max<int64_t>(left.count(), 1)));
      if (pr < 0) {
        if (errno == EINTR) continue;
        return RecvStatus::kClosed;
      }
      if (pr == 0) return RecvStatus::kTimeout;
      char tmp[65536];
      const ssize_t n = ::read(fd_, tmp, sizeof tmp);
      if (n > 0) {
        in_.buffer.append(tmp, static_cast<size_t>(n));
      } else if (n == 0) {
        in_.eof = true;
      } else if (errno != EINTR && errno != EAGAIN) {
        return RecvStatus::kClosed;
      }
    }
  }

  void Close() override {
    if (!shutdown_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  const int fd_;
  std::atomic<bool> shutdown_{false};
  FrameReassembler in_;
};

}  // namespace

std::unique_ptr<ReplicationTransport> MakeFdTransport(int fd) {
  PITEX_CHECK_MSG(fd >= 0, "MakeFdTransport requires a valid fd");
  return std::make_unique<FdTransport>(fd);
}

// ---------------------------------------------------------------------------
// WalShipper

WalShipper::WalShipper(PitexService* primary, ReplicationTransport* transport,
                       const WalShipperOptions& options)
    : primary_(primary), transport_(transport), options_(options) {
  PITEX_CHECK_MSG(primary_ != nullptr && transport_ != nullptr,
                  "WalShipper requires a primary service and a transport");
  PITEX_CHECK_MSG(!options_.wal_dir.empty(),
                  "WalShipper requires the primary's durability directory");
  obs::MetricsRegistry& metrics = primary_->metrics();
  records_shipped_ = metrics.RegisterCounter(
      "pitex_repl_records_shipped_total",
      "WAL records handed to the replication transport");
  heartbeats_sent_ = metrics.RegisterCounter(
      "pitex_repl_heartbeats_sent_total", "Heartbeats sent to the follower");
  resyncs_served_ = metrics.RegisterCounter(
      "pitex_repl_resyncs_served_total",
      "Follower resync requests honored (shipping cursor rewinds)");
  shipped_gauge_ = metrics.RegisterGauge(
      "pitex_repl_shipped_lsn",
      "Highest LSN handed to the replication transport");
  acked_gauge_ = metrics.RegisterGauge(
      "pitex_repl_acked_lsn",
      "Highest LSN the follower acknowledged as applied");
}

WalShipper::~WalShipper() { Stop(); }

void WalShipper::Start() {
  if (started_) return;
  started_ = true;
  // Pin the whole log BEFORE reading the checkpoint: a checkpoint that
  // lands between "read manifest" and "register hold" could otherwise
  // truncate records the follower will need. The hold advances to
  // checkpoint_lsn + 1 once the bootstrap frame is on the wire.
  primary_->Start();
  retention_ = primary_->WalRetention();
  if (retention_ != nullptr) hold_id_ = retention_->Register(1);
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void WalShipper::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (retention_ != nullptr) {
    retention_->Release(hold_id_);
    retention_ = nullptr;
  }
}

bool WalShipper::SendFrameWithFaults(const ReplFrame& frame) {
  std::string bytes = EncodeReplFrame(frame);
  // A fault "succeeds" from the shipper's view — the network ate the
  // frame, the resync/ack machinery is what heals it.
  if (PITEX_FAILPOINT("repl/partition")) return true;
  if (frame.type == ReplFrameType::kHeartbeat &&
      PITEX_FAILPOINT("repl/heartbeat_drop")) {
    return true;
  }
  if (PITEX_FAILPOINT("repl/ship_drop")) return true;
  if (PITEX_FAILPOINT("repl/ship_torn")) {
    bytes.resize(bytes.size() / 2);  // a torn shipment: prefix only
  }
  if (PITEX_FAILPOINT("repl/ship_reorder") && reordered_.empty()) {
    // Hold this frame back; it goes out after its successor.
    reordered_ = std::move(bytes);
    return true;
  }
  bool ok = transport_->SendBytes(bytes);
  if (PITEX_FAILPOINT("repl/ship_dup")) {
    ok = transport_->SendBytes(std::move(bytes)) && ok;
  }
  if (!reordered_.empty()) {
    ok = transport_->SendBytes(std::move(reordered_)) && ok;
    reordered_.clear();
  }
  return ok;
}

void WalShipper::HandleInbound(const ReplFrame& frame, uint64_t* cursor) {
  if (frame.type == ReplFrameType::kAck) {
    uint64_t applied = 0;
    if (!DecodeAckMsg(frame, &applied)) return;
    if (applied > acked_lsn_.load(std::memory_order_relaxed)) {
      acked_lsn_.store(applied, std::memory_order_release);
      acked_gauge_->Set(static_cast<int64_t>(applied));
      // Everything through `applied` is durable on the follower; the
      // resend floor only needs min(acked, cursor) + 1 — the cursor
      // term covers a resync rewind that outran the latest ack.
      if (retention_ != nullptr) {
        retention_->Update(hold_id_, std::min(applied, *cursor) + 1);
      }
    }
  } else if (frame.type == ReplFrameType::kResync) {
    uint64_t from = 0;
    if (!DecodeResyncMsg(frame, &from)) return;
    if (from < *cursor) {
      *cursor = from;
      shipped_lsn_.store(from, std::memory_order_release);
      shipped_gauge_->Set(static_cast<int64_t>(from));
      // Re-pin the resend range: acks may have advanced the hold past
      // the rewound cursor (e.g. the follower lost frames after a
      // partial apply).
      if (retention_ != nullptr) retention_->Update(hold_id_, from + 1);
      resyncs_served_->Inc();
      primary_->mutable_journal().Record(obs::EventKind::kReplResync, from);
    }
  }
}

void WalShipper::Loop() {
  // Bootstrap: ship the newest checkpoint (or "none yet") so the
  // follower can install it and start serving before replay begins.
  ShippedCheckpoint checkpoint;
  std::string error;
  uint64_t cursor = 0;
  if (ReadCheckpointForShipping(options_.wal_dir, &checkpoint, &error) &&
      checkpoint.present) {
    cursor = checkpoint.lsn;
  }
  ReplCheckpointMsg bootstrap;
  bootstrap.term = options_.term;
  bootstrap.checkpoint = std::move(checkpoint);
  SendFrameWithFaults(EncodeCheckpointMsg(bootstrap));
  primary_->mutable_journal().Record(obs::EventKind::kReplShipCheckpoint,
                                     cursor, options_.term);
  if (retention_ != nullptr) retention_->Update(hold_id_, cursor + 1);
  shipped_lsn_.store(cursor, std::memory_order_release);
  shipped_gauge_->Set(static_cast<int64_t>(cursor));

  // Heartbeat cadence (a follower's heartbeat_timeout_ms should be a
  // small multiple of it), the idle poll for new WAL records and inbound
  // acks, and the records shipped per poll wake (bounds the burst after
  // a follower reconnects far behind).
  constexpr std::chrono::milliseconds kHeartbeatInterval{20};
  constexpr std::chrono::milliseconds kPollInterval{2};
  constexpr size_t kMaxRecordsPerPoll = 256;
  auto last_heartbeat = std::chrono::steady_clock::time_point{};

  while (!stop_.load(std::memory_order_acquire)) {
    // Ship committed records past the cursor. durable_lsn is the
    // primary's group-commit watermark — records beyond it exist in the
    // log buffer but are not yet acknowledged, so they must not ship.
    const uint64_t durable = primary_->durable_lsn();
    if (durable > cursor) {
      std::vector<WalRecord> records;
      const WalReadResult read =
          ReadWalAfter(options_.wal_dir, cursor, &records);
      // A failed read here is transient (a rollback or truncation
      // caught mid-scan): skip this round and re-tail on the next.
      if (read.ok()) {
        size_t sent = 0;
        for (const WalRecord& record : records) {
          if (record.lsn > durable || sent >= kMaxRecordsPerPoll) {
            break;
          }
          SendFrameWithFaults(EncodeRecordMsg(options_.term, record.body));
          cursor = record.lsn;
          records_shipped_->Inc();
          ++sent;
        }
        shipped_lsn_.store(cursor, std::memory_order_release);
        shipped_gauge_->Set(static_cast<int64_t>(cursor));
      }
    }

    const auto now = std::chrono::steady_clock::now();
    if (now - last_heartbeat >= kHeartbeatInterval) {
      ReplHeartbeatMsg beat;
      beat.term = options_.term;
      beat.durable_lsn = durable;
      SendFrameWithFaults(EncodeHeartbeatMsg(beat));
      heartbeats_sent_->Inc();
      last_heartbeat = now;
    }

    ReplFrame inbound;
    switch (transport_->Recv(&inbound, kPollInterval)) {
      case ReplicationTransport::RecvStatus::kFrame:
        HandleInbound(inbound, &cursor);
        break;
      case ReplicationTransport::RecvStatus::kClosed:
        // Follower gone. Keep looping at poll cadence so Stop() still
        // lands promptly; sends fail harmlessly in the meantime.
        std::this_thread::sleep_for(kPollInterval);
        break;
      case ReplicationTransport::RecvStatus::kBadFrame:
      case ReplicationTransport::RecvStatus::kTimeout:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// FollowerService

FollowerService::FollowerService(const SocialNetwork* network,
                                 ReplicationTransport* transport,
                                 const FollowerOptions& options)
    : network_(network), transport_(transport), options_(options) {
  PITEX_CHECK_MSG(network_ != nullptr && transport_ != nullptr,
                  "FollowerService requires a network and a transport");
  PITEX_CHECK_MSG(options_.authority != nullptr,
                  "FollowerService requires a term authority (promotion "
                  "without fencing is a split-brain generator)");
  PITEX_CHECK_MSG(
      options_.serve.enable_updates && !options_.serve.durability_dir.empty(),
      "the follower's inner service must be durable "
      "(enable_updates + durability_dir)");
  options_.serve.term_authority = options_.authority;
  // The follower's adopted term tracks the shipped frames: start at 0
  // (fenced off — nothing may write through us) until Bootstrap adopts
  // the primary's term.
  options_.serve.term = 0;
  inner_ = std::make_unique<PitexService>(network_, options_.serve);
  RegisterMetrics();
}

FollowerService::~FollowerService() { Stop(); }

void FollowerService::RegisterMetrics() {
  obs::MetricsRegistry& metrics = inner_->metrics();
  records_applied_ = metrics.RegisterCounter(
      "pitex_repl_records_applied_total",
      "Shipped records applied through deterministic replay");
  duplicates_dropped_ = metrics.RegisterCounter(
      "pitex_repl_duplicates_dropped_total",
      "Shipped records dropped as duplicates (LSN <= applied)");
  resync_requests_ = metrics.RegisterCounter(
      "pitex_repl_resync_requests_total",
      "Resyncs requested after a gap, damaged frame, or apply failure");
  frames_rejected_ = metrics.RegisterCounter(
      "pitex_repl_frames_rejected_total",
      "Frames discarded for checksum or framing damage");
  stale_term_frames_ = metrics.RegisterCounter(
      "pitex_repl_stale_term_frames_total",
      "Frames ignored because their term predates the follower's");
  heartbeats_seen_ = metrics.RegisterCounter(
      "pitex_repl_heartbeats_seen_total", "Primary heartbeats received");
  applied_gauge_ = metrics.RegisterGauge("pitex_repl_applied_lsn",
                                         "Highest densely applied LSN");
  primary_lsn_gauge_ =
      metrics.RegisterGauge("pitex_repl_primary_lsn",
                            "Primary durable LSN from its last heartbeat");
  lag_gauge_ = metrics.RegisterGauge(
      "pitex_repl_lag_lsns",
      "Replication lag: primary durable LSN minus applied LSN");
  promoted_gauge_ = metrics.RegisterGauge(
      "pitex_repl_promoted",
      "1 after this follower promoted itself to primary");
}

bool FollowerService::Start(std::string* error) {
  if (!thread_.joinable()) {
    stop_.store(false, std::memory_order_release);
    thread_ = std::thread([this] { Loop(); });
  }
  // How long Start() waits for the bootstrap checkpoint frame.
  constexpr std::chrono::seconds kBootstrapTimeout{60};
  const auto deadline = std::chrono::steady_clock::now() + kBootstrapTimeout;
  MutexLock lock(bootstrap_mutex_);
  while (!bootstrapped_ && !bootstrap_failed_) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      if (error != nullptr) {
        *error = "follower bootstrap timed out waiting for the shipped "
                 "checkpoint";
      }
      return false;
    }
    bootstrap_cv_.WaitFor(lock, deadline - now);
  }
  if (bootstrap_failed_) {
    if (error != nullptr) *error = bootstrap_error_;
    return false;
  }
  return true;
}

void FollowerService::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    MutexLock lock(bootstrap_mutex_);
    if (!bootstrapped_ && !bootstrap_failed_) {
      bootstrap_failed_ = true;
      bootstrap_error_ = "follower stopped before bootstrap completed";
    }
  }
  bootstrap_cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void FollowerService::FailBootstrap(std::string message) {
  {
    MutexLock lock(bootstrap_mutex_);
    if (!bootstrapped_) {
      bootstrap_failed_ = true;
      bootstrap_error_ = std::move(message);
    }
  }
  bootstrap_cv_.NotifyAll();
}

bool FollowerService::Bootstrap(const ReplCheckpointMsg& msg,
                                std::string* error) {
  // A follower restarting with local state AHEAD of the shipped
  // checkpoint keeps its own files: installing an older manifest over
  // them would point recovery at a log prefix that may already be
  // truncated. Duplicate shipped records are dropped by the dense-LSN
  // rule either way.
  CheckpointManifest local;
  bool local_present = false;
  (void)ReadCheckpointManifest(options_.serve.durability_dir, &local,
                               &local_present, nullptr);
  const bool keep_local =
      local_present && msg.checkpoint.present && local.lsn >= msg.checkpoint.lsn;
  if (!keep_local &&
      !InstallShippedCheckpoint(options_.serve.durability_dir, msg.checkpoint,
                                error)) {
    return false;
  }
  // Adopt the primary's term before starting: replayed writes must pass
  // the inner service's own fence while the primary still reigns.
  inner_->AdoptTerm(msg.term);
  term_.store(msg.term, std::memory_order_release);
  // Ordinary recovery re-validates everything the wire delivered:
  // manifest checksum, snapshot fingerprint, then replays the
  // follower's OWN WAL tail (non-empty only after a follower restart).
  inner_->Start();
  const uint64_t applied = inner_->durable_lsn();
  applied_lsn_.store(applied, std::memory_order_release);
  applied_gauge_->Set(static_cast<int64_t>(applied));
  // Tell the shipper where replay must begin; this also advances the
  // primary-side retention hold past the shipped checkpoint.
  transport_->Send(EncodeAckMsg(applied));
  {
    MutexLock lock(bootstrap_mutex_);
    bootstrapped_ = true;
  }
  bootstrap_cv_.NotifyAll();
  return true;
}

void FollowerService::RequestResync() {
  const uint64_t applied = applied_lsn_.load(std::memory_order_relaxed);
  resync_requests_->Inc();
  inner_->mutable_journal().Record(obs::EventKind::kReplResync, applied);
  transport_->Send(EncodeResyncMsg(applied));
}

void FollowerService::HandleRecord(const ReplRecordMsg& msg,
                                   std::chrono::steady_clock::time_point now) {
  if (msg.term < term_.load(std::memory_order_relaxed)) {
    // A deposed primary's late shipment (it does not yet know it lost
    // the election): not live-primary traffic, so it must neither apply
    // nor reset the promotion timer.
    stale_term_frames_->Inc();
    return;
  }
  last_traffic_ = now;
  const uint64_t applied = applied_lsn_.load(std::memory_order_relaxed);
  if (msg.lsn <= applied) {
    // Duplicate (a ship_dup fault, or a resend overlapping the ack).
    duplicates_dropped_->Inc();
    transport_->Send(EncodeAckMsg(applied));
    return;
  }
  if (msg.lsn > applied + 1) {
    // Dense-LSN violation: a dropped or reordered shipment. Ask for
    // everything after the last applied record.
    RequestResync();
    return;
  }
  if (inner_->ApplyUpdates(msg.updates) == 0) {
    // Local WAL trouble (or a fence, if an election raced this apply):
    // the record is NOT durable here, so it must not be acked. A resync
    // lets a transient failure heal by resend.
    RequestResync();
    return;
  }
  applied_lsn_.store(msg.lsn, std::memory_order_release);
  records_applied_->Inc();
  applied_gauge_->Set(static_cast<int64_t>(msg.lsn));
  transport_->Send(EncodeAckMsg(msg.lsn));
}

void FollowerService::MaybePromote(std::chrono::steady_clock::time_point now) {
  if (promoted_.load(std::memory_order_relaxed)) return;
  const double quiet_ms =
      std::chrono::duration<double, std::milli>(now - last_traffic_).count();
  if (quiet_ms < options_.heartbeat_timeout_ms) return;
  const uint64_t current = options_.authority->Current();
  if (current == TermAuthority::kUnreadableTerm) {
    // No election while the authority cannot tell the term: keep
    // following at the adopted term and look again a timeout later.
    last_traffic_ = now;
    return;
  }
  const uint64_t observed =
      std::max(term_.load(std::memory_order_relaxed), current);
  const uint64_t new_term = observed + 1;
  if (options_.authority->Advance(new_term)) {
    // Election won: from here on the inner service's fence admits OUR
    // writes and rejects the deposed primary's.
    inner_->AdoptTerm(new_term);
    term_.store(new_term, std::memory_order_release);
    promoted_.store(true, std::memory_order_release);
    promoted_gauge_->Set(1);
    lag_gauge_->Set(0);  // no primary left to lag behind
    inner_->mutable_journal().Record(
        obs::EventKind::kReplPromote, new_term,
        applied_lsn_.load(std::memory_order_relaxed));
  } else {
    // Lost the election to another candidate: adopt the winner's term
    // as its follower and restart the quiet timer. A term that turned
    // unreadable since is not adopted.
    const uint64_t winner = options_.authority->Current();
    if (winner != TermAuthority::kUnreadableTerm) {
      term_.store(winner, std::memory_order_release);
    }
    last_traffic_ = now;
  }
}

void FollowerService::Loop() {
  // Transport receive granularity; also bounds how stale the promotion
  // check can be.
  constexpr std::chrono::milliseconds kRecvTimeout{5};

  // Phase 1: wait for the bootstrap checkpoint frame.
  bool up = false;
  while (!stop_.load(std::memory_order_acquire)) {
    ReplFrame frame;
    const auto status = transport_->Recv(&frame, kRecvTimeout);
    if (status == ReplicationTransport::RecvStatus::kClosed) {
      FailBootstrap("transport closed before the bootstrap checkpoint "
                    "arrived");
      return;
    }
    if (status != ReplicationTransport::RecvStatus::kFrame) continue;
    if (frame.type != ReplFrameType::kCheckpoint) continue;  // stray frame
    ReplCheckpointMsg msg;
    if (!DecodeCheckpointMsg(frame, &msg)) {
      FailBootstrap("malformed bootstrap checkpoint frame");
      return;
    }
    std::string error;
    if (!Bootstrap(msg, &error)) {
      FailBootstrap(std::move(error));
      return;
    }
    up = true;
    break;
  }
  if (!up) return;  // stopped before the checkpoint arrived

  // Phase 2: apply shipped records, watch for primary silence.
  last_traffic_ = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    ReplFrame frame;
    const auto status = transport_->Recv(&frame, kRecvTimeout);
    const auto now = std::chrono::steady_clock::now();
    switch (status) {
      case ReplicationTransport::RecvStatus::kFrame:
        switch (frame.type) {
          case ReplFrameType::kRecord: {
            ReplRecordMsg msg;
            if (DecodeRecordMsg(frame, &msg)) {
              HandleRecord(msg, now);
            } else {
              frames_rejected_->Inc();
              RequestResync();
            }
            break;
          }
          case ReplFrameType::kHeartbeat: {
            ReplHeartbeatMsg msg;
            if (!DecodeHeartbeatMsg(frame, &msg)) {
              frames_rejected_->Inc();
              break;
            }
            if (msg.term < term_.load(std::memory_order_relaxed)) {
              stale_term_frames_->Inc();
              break;
            }
            last_traffic_ = now;
            heartbeats_seen_->Inc();
            primary_lsn_gauge_->Set(static_cast<int64_t>(msg.durable_lsn));
            const uint64_t applied =
                applied_lsn_.load(std::memory_order_relaxed);
            if (msg.durable_lsn > applied) {
              lag_gauge_->Set(
                  static_cast<int64_t>(msg.durable_lsn - applied));
              // Two lagging heartbeats with zero progress in between:
              // the missing records were lost, not in flight (a dropped
              // FINAL record has no later record to expose its gap, so
              // heartbeats are the liveness prod).
              if (applied == stalled_applied_) RequestResync();
              stalled_applied_ = applied;
            } else {
              lag_gauge_->Set(0);
              stalled_applied_ = UINT64_MAX;
            }
            break;
          }
          default:
            // Late checkpoint or stray ack/resync frames: ignore.
            break;
        }
        break;
      case ReplicationTransport::RecvStatus::kBadFrame:
        // Damaged bytes (a torn or corrupted shipment). The decoder
        // realigned at the next magic; ask for a resend of everything
        // after the last applied record.
        frames_rejected_->Inc();
        RequestResync();
        break;
      case ReplicationTransport::RecvStatus::kClosed:
        std::this_thread::sleep_for(kRecvTimeout);
        break;
      case ReplicationTransport::RecvStatus::kTimeout:
        break;
    }
    MaybePromote(std::chrono::steady_clock::now());
  }
}

}  // namespace pitex
