#include "src/serve/snapshot_registry.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"

namespace pitex {

std::shared_ptr<const IndexSnapshot> IndexSnapshot::Wrap(
    const SocialNetwork* network, std::unique_ptr<RrIndex> rr_index,
    uint64_t epoch, std::unique_ptr<const DelayMatIndex> delay_index) {
  PITEX_CHECK(network != nullptr);
  auto snapshot = std::shared_ptr<IndexSnapshot>(new IndexSnapshot());
  // Non-owning alias: the control block holds nothing, the pointer is
  // the caller's network (which outlives the snapshot by contract).
  snapshot->network_ =
      std::shared_ptr<const SocialNetwork>(std::shared_ptr<void>(), network);
  snapshot->rr_index_ = std::move(rr_index);
  snapshot->delay_index_ = std::move(delay_index);
  snapshot->epoch_ = epoch;
  return snapshot;
}

std::shared_ptr<const IndexSnapshot> IndexSnapshot::FromDynamic(
    DynamicRrIndex& master, uint64_t epoch, bool compact) {
  // Delay hook: a delay-armed fail point stalls the freeze so tests can
  // watch the publish watchdog and staleness gauges mid-publish. An
  // error-armed one is ignored — the freeze cannot fail.
  (void)PITEX_FAILPOINT("serve/publish_freeze");
  // The pack span (overlay freeze plus any compaction) attributes to
  // whichever trace is current on this thread (the publish trace during
  // ApplyUpdates); with no current trace the span is inert.
  PITEX_SPAN(kPack);
  auto snapshot = std::shared_ptr<IndexSnapshot>(new IndexSnapshot());
  // The network must live in the snapshot (stable address) before the
  // RrIndex replica can reference it.
  auto network = std::make_shared<const SocialNetwork>(master.network());
  snapshot->rr_index_ = master.Freeze(*network, compact);
  snapshot->network_ = std::move(network);
  snapshot->epoch_ = epoch;
  return snapshot;
}

void IndexSnapshotRegistry::Publish(
    std::shared_ptr<const IndexSnapshot> snapshot) {
  PITEX_CHECK(snapshot != nullptr);
  MutexLock lock(mutex_);
  if (current_ != nullptr) {
    PITEX_CHECK_MSG(snapshot->epoch() > current_->epoch(),
                    "published epoch must increase");
    retired_.push_back(current_);
  }
  current_ = std::move(snapshot);
  ++epochs_published_;
}

std::shared_ptr<const IndexSnapshot> IndexSnapshotRegistry::Current() const {
  MutexLock lock(mutex_);
  return current_;
}

uint64_t IndexSnapshotRegistry::current_epoch() const {
  MutexLock lock(mutex_);
  return current_ == nullptr ? 0 : current_->epoch();
}

uint64_t IndexSnapshotRegistry::epochs_published() const {
  MutexLock lock(mutex_);
  return epochs_published_;
}

size_t IndexSnapshotRegistry::AliveSnapshots() {
  MutexLock lock(mutex_);
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const std::weak_ptr<const IndexSnapshot>& w) {
                                  return w.expired();
                                }),
                 retired_.end());
  return retired_.size();
}

}  // namespace pitex
