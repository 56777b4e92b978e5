// Checkpointing and crash recovery for the serving tier
// (docs/robustness.md, "Durability").
//
// A checkpoint is two crash-atomically written files in the durability
// directory:
//
//   checkpoint-<lsn, 16 hex>.rridx — the published snapshot's RrIndex,
//     saved through index_io (temp file + fsync + rename), carrying the
//     NetworkFingerprint of the *evolved* influence model;
//   CHECKPOINT — the manifest: {snapshot filename, last-applied LSN,
//     epoch, DynamicRrIndex version counter, model delta}, checksummed
//     and atomically replaced, so the newest valid checkpoint is always
//     exactly the one the manifest names.
//
// The model delta is the current topic vector of every edge that has
// diverged from the base network. It must live here, not in the log:
// after the WAL is truncated below the checkpoint the update history
// needed to rebuild the evolved influence CSR is gone, while "final
// entries per touched edge" is compact and — because ReplaceEdgeTopics
// folds are last-writer-wins per edge — exact.
//
// Recovery inverts the pipeline: restore the base network + delta into
// a fresh DynamicRrIndex (RestoreModel), load the snapshot against the
// restored model (LoadRrIndex's fingerprint check *proves* the model
// restore is bit-identical — a mismatch fails recovery rather than
// serving subtly wrong answers), adopt its pool as the master's shared
// base (AdoptSketches), then replay the WAL tail through the ordinary
// deterministic repair path. The repair RNG is stateless per (seed,
// sketch, version), so replaying records in LSN order from the restored
// version counter re-draws exactly the coins the crashed process drew:
// the recovered master is bit-identical to a never-crashed reference.
//
// Fail points: "checkpoint/rename" (between manifest staging and its
// atomic publication) and "recovery/replay" (before each replayed
// record).

#ifndef PITEX_SRC_SERVE_RECOVERY_H_
#define PITEX_SRC_SERVE_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/index/dynamic_index.h"
#include "src/index/rr_index.h"

namespace pitex {

/// The durable pointer to the newest checkpoint (file "CHECKPOINT").
struct CheckpointManifest {
  /// Last LSN folded into the checkpointed snapshot; recovery replays
  /// the WAL strictly after this.
  uint64_t lsn = 0;
  /// Epoch the snapshot was published at (recovery republishes at
  /// epoch + replayed records, matching a fault-free reference).
  uint64_t epoch = 0;
  /// DynamicRrIndex::version() at checkpoint time (repair-RNG salt).
  uint64_t index_version = 0;
  /// Snapshot filename, relative to the durability directory.
  std::string snapshot_file;
  /// Current topic vector of every edge diverged from the base network.
  std::vector<EdgeInfluenceUpdate> model_delta;
};

/// Atomically persists `manifest` as `dir`/CHECKPOINT (temp + fsync +
/// rename). The "checkpoint/rename" fail point fires between staging
/// and publication — a hit (or crash there) leaves the previous
/// manifest authoritative.
bool WriteCheckpointManifest(const std::string& dir,
                             const CheckpointManifest& manifest,
                             std::string* error = nullptr);

/// Reads `dir`/CHECKPOINT. Returns false with `*error` on a corrupt
/// manifest; an absent file is not an error (`*present` = false).
bool ReadCheckpointManifest(const std::string& dir,
                            CheckpointManifest* manifest, bool* present,
                            std::string* error = nullptr);

/// Full checkpoint: saves `snapshot_index` crash-atomically as the
/// manifest's snapshot file, publishes the manifest, then deletes
/// superseded checkpoint files. On failure the previous checkpoint
/// remains fully intact and authoritative.
bool WriteCheckpoint(const std::string& dir, const RrIndex& snapshot_index,
                     const CheckpointManifest& manifest,
                     std::string* error = nullptr);

/// Everything a restarting service needs from disk.
struct RecoveredState {
  /// The reconstructed master, bit-identical to a never-crashed
  /// reference that applied the same acknowledged batches.
  std::unique_ptr<DynamicRrIndex> master;
  /// LSN of the last applied record; the reopened WAL appends from
  /// last_lsn + 1.
  uint64_t last_lsn = 0;
  /// Epoch the recovered state should be republished at.
  uint64_t publish_epoch = 1;
  /// WAL records replayed over the checkpoint.
  uint64_t replayed_records = 0;
  /// True when the log ended in a torn (never-acknowledged) tail.
  bool torn_tail = false;
  /// Whether a checkpoint existed (false: fresh Build + full replay).
  bool had_checkpoint = false;
  /// Edges diverged from the base network (checkpoint delta plus every
  /// replayed edge), sorted and unique — seeds the service's
  /// touched-edge tracking for the next checkpoint.
  std::vector<EdgeId> touched_edges;
};

/// A checkpoint read back as raw bytes for shipping to a follower
/// (src/serve/replication.h). The follower installs the two files
/// verbatim into its own durability directory and then recovers through
/// the ordinary RecoverServingState path — the manifest checksum and
/// the snapshot's NetworkFingerprint re-validate everything on the
/// receiving side, so shipping adds no trust the recovery path did not
/// already demand.
struct ShippedCheckpoint {
  /// False when the primary has not checkpointed yet: the follower
  /// starts from a fresh Build and replays the log from LSN 1.
  bool present = false;
  /// manifest.lsn — the follower needs records strictly after this.
  uint64_t lsn = 0;
  /// Raw bytes of the CHECKPOINT manifest file.
  std::string manifest_bytes;
  /// The manifest's snapshot filename and that file's raw bytes.
  std::string snapshot_name;
  std::string snapshot_bytes;
};

/// Reads the newest checkpoint's files from `dir` as raw bytes. Safe to
/// call while the owning service keeps checkpointing: a checkpoint that
/// supersedes the manifest mid-read (deleting the snapshot file under
/// us) is retried against the fresh manifest. An absent checkpoint is
/// success with `out->present` false.
bool ReadCheckpointForShipping(const std::string& dir, ShippedCheckpoint* out,
                               std::string* error = nullptr);

/// Installs a shipped checkpoint into `dir` (created if absent),
/// snapshot file first, manifest last, each via temp + atomic rename —
/// a crash mid-install leaves either no checkpoint or a complete one,
/// never a manifest naming a missing snapshot. With `cp.present` false
/// only the directory is created.
bool InstallShippedCheckpoint(const std::string& dir,
                              const ShippedCheckpoint& cp,
                              std::string* error = nullptr);

/// Recovers serving state from `dir`: loads the newest valid checkpoint
/// (or falls back to a fresh Build when none exists), replays the WAL
/// tail, and returns the reconstructed master. Returns false with
/// `*error` on unrecoverable state (corrupt log/checkpoint, fingerprint
/// mismatch, injected replay fault) — the caller must not serve.
bool RecoverServingState(const SocialNetwork& base,
                         const RrIndexOptions& options,
                         const std::string& dir, RecoveredState* state,
                         std::string* error = nullptr);

}  // namespace pitex

#endif  // PITEX_SRC_SERVE_RECOVERY_H_
