// Always-on structured event journal for the serving tier
// (docs/observability.md, "Journal events").
//
// Answers "what happened in the 2s before the publish stalled?":
// counters say HOW OFTEN the serving tier shed, degraded or failed; the
// journal says WHEN and in WHAT ORDER. It is a fixed-size
// lock-free ring of small structured events -- kind + monotonic
// timestamp + two integer payload slots -- recorded on the rare-event
// paths (shed, degraded, WAL failure, fenced write, epoch swap,
// recovery replay), never on the per-query happy path. Treating these
// as structured data instead of log lines keeps recording allocation-
// free and makes the buffer queryable after the fact.
//
// Concurrency: Record() is wait-free -- one fetch_add claims a slot,
// then a per-slot seqlock (stamp 0 while the fields are in flight, the
// claim index + 1 when complete) publishes it. Snapshot() validates
// each slot's stamp before and after reading the fields and simply
// skips slots a concurrent writer is mid-flight on; with the ring
// sized well above the event rate, a skipped slot means the event was
// about to be overwritten anyway.
//
// Dumping: DumpTo(stderr) renders the ring oldest-first, and
// PitexService invokes it automatically on its crash-adjacent paths
// (recovery failure, a WAL that will not open) so the flight recorder is
// on the console exactly when the process is about to abort.

#ifndef PITEX_SRC_OBS_JOURNAL_H_
#define PITEX_SRC_OBS_JOURNAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace pitex {
namespace obs {

enum class EventKind : uint8_t {
  /// Query refused at admission. a = user, b = verdict
  /// (1 = queue full, 2 = rate limited).
  kShed = 0,
  /// Budget expired mid-search (best-so-far answer). a = user, b = worker.
  kDegraded,
  /// Budget already gone at pickup (no search run). a = user, b = worker.
  kDeadlineExpired,
  /// WAL append/commit failed; the batch was rejected. a = batch size.
  kWalFailure,
  /// A new epoch became visible to queries. a = epoch, b = durable LSN.
  kEpochSwap,
  /// Checkpoint written and WAL truncated. a = LSN, b = epoch.
  kCheckpoint,
  /// Checkpoint attempt failed (non-fatal). a = LSN.
  kCheckpointFailure,
  /// Start() replayed the WAL tail over a checkpoint. a = replayed
  /// records, b = last LSN.
  kRecoveryReplay,
  /// A worker rebuilt its engine for a new epoch. a = worker, b = epoch.
  kWorkerRebind,
  /// The WAL shipper sent its bootstrap checkpoint to a follower.
  /// a = checkpoint LSN (0 = none existed), b = shipper term.
  kReplShipCheckpoint,
  /// A follower requested (or the shipper served) a resync: the shipping
  /// cursor rewinds and records are resent. a = resync-from LSN.
  kReplResync,
  /// A follower promoted itself to primary after heartbeat loss.
  /// a = new term, b = last applied LSN at promotion.
  kReplPromote,
  /// A write was rejected because this writer's term is stale (a newer
  /// primary was elected). a = authority's current term, b = this
  /// writer's (deposed) term.
  kFencedWrite,
  kEventKindCount,
};

const char* EventKindName(EventKind kind);

struct Event {
  int64_t t_ns = 0;  // steady_clock (obs::NowNs)
  EventKind kind = EventKind::kShed;
  uint64_t a = 0;
  uint64_t b = 0;
};

class EventJournal {
 public:
  /// `capacity` is rounded up to a power of two (slot indexing is a
  /// mask). The ring is allocated once here; Record never allocates.
  explicit EventJournal(size_t capacity = 1024);

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Wait-free append; overwrites the oldest event when full.
  void Record(EventKind kind, uint64_t a = 0, uint64_t b = 0);

  /// Stable events oldest-first (mid-write slots skipped).
  std::vector<Event> Snapshot() const;

  /// Renders Snapshot() to `out`, one line per event.
  void DumpTo(std::FILE* out) const;

  /// Events recorded over the journal's lifetime (>= ring occupancy).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    // Seqlock stamp: 0 = never written or write in flight; otherwise
    // claim index + 1. Fields are only meaningful when the stamp reads
    // identically (and nonzero) before and after.
    std::atomic<uint64_t> stamp{0};
    std::atomic<int64_t> t_ns{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace obs
}  // namespace pitex

#endif  // PITEX_SRC_OBS_JOURNAL_H_
