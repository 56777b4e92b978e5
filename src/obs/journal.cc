#include "src/obs/journal.h"

#include <algorithm>

#include "src/obs/trace.h"  // NowNs
#include "src/util/check.h"

namespace pitex {
namespace obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kShed:
      return "shed";
    case EventKind::kDegraded:
      return "degraded";
    case EventKind::kDeadlineExpired:
      return "deadline_expired";
    case EventKind::kWalFailure:
      return "wal_failure";
    case EventKind::kEpochSwap:
      return "epoch_swap";
    case EventKind::kCheckpoint:
      return "checkpoint";
    case EventKind::kCheckpointFailure:
      return "checkpoint_failure";
    case EventKind::kRecoveryReplay:
      return "recovery_replay";
    case EventKind::kWorkerRebind:
      return "worker_rebind";
    case EventKind::kReplShipCheckpoint:
      return "repl_ship_checkpoint";
    case EventKind::kReplResync:
      return "repl_resync";
    case EventKind::kReplPromote:
      return "repl_promote";
    case EventKind::kFencedWrite:
      return "fenced_write";
    case EventKind::kEventKindCount:
      break;
  }
  return "unknown";
}

EventJournal::EventJournal(size_t capacity) {
  size_t rounded = 1;
  while (rounded < capacity) rounded <<= 1;
  slots_ = std::vector<Slot>(rounded);
  mask_ = rounded - 1;
}

void EventJournal::Record(EventKind kind, uint64_t a, uint64_t b) {
  const uint64_t claim = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim & mask_];
  // Seqlock write: stamp 0 marks the fields in flight; the final
  // release-store of claim+1 publishes them. Two writers lapping onto
  // the same slot can interleave -- the reader's stamp re-check
  // discards such torn slots, which is the overwrite-oldest policy
  // anyway.
  slot.stamp.store(0, std::memory_order_release);
  slot.t_ns.store(NowNs(), std::memory_order_relaxed);
  slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.stamp.store(claim + 1, std::memory_order_release);
}

std::vector<Event> EventJournal::Snapshot() const {
  struct Stamped {
    uint64_t seq;
    Event event;
  };
  std::vector<Stamped> stable;
  stable.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const uint64_t before = slot.stamp.load(std::memory_order_acquire);
    if (before == 0) continue;
    Event event;
    event.t_ns = slot.t_ns.load(std::memory_order_relaxed);
    event.kind = static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
    event.a = slot.a.load(std::memory_order_relaxed);
    event.b = slot.b.load(std::memory_order_relaxed);
    const uint64_t after = slot.stamp.load(std::memory_order_acquire);
    if (after != before) continue;  // torn by a concurrent writer
    stable.push_back(Stamped{before - 1, event});
  }
  std::sort(stable.begin(), stable.end(),
            [](const Stamped& x, const Stamped& y) { return x.seq < y.seq; });
  std::vector<Event> out;
  out.reserve(stable.size());
  for (const Stamped& s : stable) out.push_back(s.event);
  return out;
}

void EventJournal::DumpTo(std::FILE* out) const {
  PITEX_CHECK(out != nullptr);
  const std::vector<Event> events = Snapshot();
  std::fprintf(out, "-- event journal (%zu events, %llu recorded) --\n",
               events.size(),
               static_cast<unsigned long long>(total_recorded()));
  for (const Event& event : events) {
    std::fprintf(out, "t=%lldns %s a=%llu b=%llu\n",
                 static_cast<long long>(event.t_ns), EventKindName(event.kind),
                 static_cast<unsigned long long>(event.a),
                 static_cast<unsigned long long>(event.b));
  }
}

}  // namespace obs
}  // namespace pitex
