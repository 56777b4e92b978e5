// Immutable, refcounted index snapshots with atomic hot swap.
//
// The serving layer must answer queries while the underlying index
// evolves (DynamicRrIndex repairs as the influence model drifts). The
// classic lock answer — a reader/writer lock around the index — stalls
// every in-flight query for the duration of a repair batch. Instead the
// registry versions the index into immutable *snapshots*:
//
//   * an IndexSnapshot is a frozen (network, shared index) pair stamped
//     with a monotonically increasing epoch: an RrIndex or a built
//     DelayMat prototype (neither for online methods). It is never
//     mutated after construction, so any number of workers read it
//     without synchronization (RrIndex estimation is const + per-thread
//     scratch; DelayMat workers each serve a Replica() of the prototype);
//   * repairs run on the writer's private master DynamicRrIndex — state
//     no reader ever sees — and publishing freezes only what changed:
//     the snapshot shares the master's topology, influence CSR and base
//     sketch pool, and owns just an immutable copy of the master's
//     overlay of repaired sketches. The registry's current pointer swaps
//     under a mutex held for nanoseconds, not for the repair;
//   * reclamation is refcount-by-epoch: each query pins the snapshot it
//     started on via shared_ptr, so an old epoch stays alive exactly
//     until its last in-flight reader finishes, then frees itself. The
//     registry keeps weak observers of retired epochs purely for
//     stats/tests (AliveSnapshots).
//
// The registry stores snapshots only; the writer-side master and the
// publish cadence live in PitexService (src/serve/pitex_service.h).

#ifndef PITEX_SRC_SERVE_SNAPSHOT_REGISTRY_H_
#define PITEX_SRC_SERVE_SNAPSHOT_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/index/delay_mat.h"
#include "src/index/dynamic_index.h"
#include "src/index/rr_index.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pitex {

/// One immutable serving version of the index. Workers bind engine
/// replicas to a snapshot's network + index and keep a shared_ptr pin
/// for as long as any engine references it.
class IndexSnapshot {
 public:
  /// The influence model the index was sampled from, frozen at this
  /// epoch; posterior probabilities for queries served from this
  /// snapshot must be computed against it.
  const SocialNetwork& network() const { return *network_; }
  /// Shared RR-Graph replica (kIndexEst / kIndexEstPlus), else null.
  /// Read-only after build; safe for concurrent engines (see
  /// PitexEngine::UseSharedRrIndex).
  RrIndex* rr_index() const { return rr_index_.get(); }
  /// Built DelayMat prototype (kDelayMat), else null. It never serves
  /// queries itself: each worker adopts its own Replica().
  const DelayMatIndex* delay_index() const { return delay_index_.get(); }
  uint64_t epoch() const { return epoch_; }

  /// Aliases `network` without copying (initial snapshot on a caller-
  /// owned network; `network` must outlive the snapshot). At most one
  /// index is non-null; neither is for online methods.
  static std::shared_ptr<const IndexSnapshot> Wrap(
      const SocialNetwork* network, std::unique_ptr<RrIndex> rr_index,
      uint64_t epoch, std::unique_ptr<const DelayMatIndex> delay_index = {});

  /// Freezes the master's current state — the publish path for
  /// serve-during-update. The snapshot's network is an O(1) copy of the
  /// master's (topology and influence storage shared), and its RrIndex
  /// replica shares the master's base pool beside a frozen copy of its
  /// overlay (DynamicRrIndex::Freeze). With `compact` (the publish a
  /// checkpoint will save) the master first folds its overlay into a
  /// new base, as it also does once the overlay grows past
  /// kOverlayCompactFraction of theta. Never returns null. The
  /// "serve/publish_freeze" fail point (src/util/failpoint.h) can only
  /// delay the freeze.
  static std::shared_ptr<const IndexSnapshot> FromDynamic(
      DynamicRrIndex& master, uint64_t epoch, bool compact = false);

 private:
  IndexSnapshot() = default;

  std::shared_ptr<const SocialNetwork> network_;
  std::unique_ptr<RrIndex> rr_index_;
  std::unique_ptr<const DelayMatIndex> delay_index_;
  uint64_t epoch_ = 0;
};

class IndexSnapshotRegistry {
 public:
  IndexSnapshotRegistry() = default;

  IndexSnapshotRegistry(const IndexSnapshotRegistry&) = delete;
  IndexSnapshotRegistry& operator=(const IndexSnapshotRegistry&) = delete;

  /// Atomically makes `snapshot` the version new queries are served
  /// from. Its epoch must exceed the current one. In-flight readers of
  /// older snapshots are unaffected; the displaced snapshot is retired
  /// and reclaimed when its last reader unpins it.
  void Publish(std::shared_ptr<const IndexSnapshot> snapshot)
      PITEX_EXCLUDES(mutex_);

  /// The snapshot new queries should pin, or null before first Publish.
  std::shared_ptr<const IndexSnapshot> Current() const PITEX_EXCLUDES(mutex_);

  /// Epoch of the current snapshot (0 before first Publish).
  uint64_t current_epoch() const PITEX_EXCLUDES(mutex_);
  uint64_t epochs_published() const PITEX_EXCLUDES(mutex_);

  /// Retired snapshots still pinned by in-flight readers. Expired
  /// observers are pruned as a side effect (epoch-based reclamation is
  /// the shared_ptr refcount; this is the observability hook).
  size_t AliveSnapshots() PITEX_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::shared_ptr<const IndexSnapshot> current_ PITEX_GUARDED_BY(mutex_);
  std::vector<std::weak_ptr<const IndexSnapshot>> retired_
      PITEX_GUARDED_BY(mutex_);
  uint64_t epochs_published_ PITEX_GUARDED_BY(mutex_) = 0;
};

}  // namespace pitex

#endif  // PITEX_SRC_SERVE_SNAPSHOT_REGISTRY_H_
