#include "src/serve/recovery.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/index/index_io.h"
#include "src/serve/wal.h"
#include "src/util/failpoint.h"
#include "src/util/file_sync.h"
#include "src/util/serialize.h"

namespace pitex {

namespace {

constexpr char kManifestMagic[] = "PITEXMAN";
constexpr uint32_t kManifestVersion = 1;
constexpr char kManifestFile[] = "CHECKPOINT";

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

bool WriteCheckpointManifest(const std::string& dir,
                             const CheckpointManifest& manifest,
                             std::string* error) {
  const std::string path = dir + "/" + kManifestFile;
  const std::string tmp = TempPathFor(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Fail(error, "cannot open manifest temp file: " + tmp);
    }
    BinaryWriter writer(&out);
    writer.WriteString(kManifestMagic);
    writer.WriteU32(kManifestVersion);
    writer.WriteU64(manifest.lsn);
    writer.WriteU64(manifest.epoch);
    writer.WriteU64(manifest.index_version);
    writer.WriteString(manifest.snapshot_file);
    WriteUpdateBatch(&writer, manifest.model_delta);
    writer.WriteChecksum();
    out.close();
    if (!writer.ok() || !out) {
      std::remove(tmp.c_str());
      return Fail(error, "I/O failure while staging checkpoint manifest");
    }
  }
  if (PITEX_FAILPOINT("checkpoint/rename")) {
    std::remove(tmp.c_str());
    return Fail(error, "fault injected: checkpoint/rename");
  }
  if (!AtomicReplaceFile(tmp, path)) {
    return Fail(error, "cannot publish checkpoint manifest: " + path);
  }
  return true;
}

bool ReadCheckpointManifest(const std::string& dir,
                            CheckpointManifest* manifest, bool* present,
                            std::string* error) {
  if (present != nullptr) *present = false;
  const std::string path = dir + "/" + kManifestFile;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      return Fail(error, "cannot open checkpoint manifest: " + path);
    }
    return true;  // no checkpoint yet: recover from scratch
  }
  BinaryReader reader(&in);
  std::string magic;
  uint32_t version = 0;
  if (!reader.ReadString(&magic) || magic != kManifestMagic ||
      !reader.ReadU32(&version) || version != kManifestVersion) {
    return Fail(error, "bad checkpoint manifest header");
  }
  if (!reader.ReadU64(&manifest->lsn) || !reader.ReadU64(&manifest->epoch) ||
      !reader.ReadU64(&manifest->index_version) ||
      !reader.ReadString(&manifest->snapshot_file) ||
      manifest->snapshot_file.empty() ||
      manifest->snapshot_file.find('/') != std::string::npos) {
    return Fail(error, "truncated checkpoint manifest");
  }
  std::error_code ec;
  const uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec || !ReadUpdateBatch(&reader, file_bytes, &manifest->model_delta)) {
    return Fail(error, "truncated checkpoint delta");
  }
  if (!reader.VerifyChecksum()) {
    return Fail(error, "checkpoint manifest checksum mismatch");
  }
  if (present != nullptr) *present = true;
  return true;
}

bool WriteCheckpoint(const std::string& dir, const RrIndex& snapshot_index,
                     const CheckpointManifest& manifest, std::string* error) {
  IndexIoError io_error;
  const std::string snapshot_path = dir + "/" + manifest.snapshot_file;
  if (!SaveRrIndex(snapshot_index, snapshot_path, &io_error)) {
    return Fail(error, "cannot save checkpoint snapshot (" +
                           std::string(IndexIoCodeName(io_error.code)) +
                           "): " + io_error.message);
  }
  if (!WriteCheckpointManifest(dir, manifest, error)) {
    // The new snapshot file is an orphan until the next successful
    // checkpoint's cleanup; the previous manifest stays authoritative.
    return false;
  }
  // Superseded snapshots are garbage now that the manifest moved on.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 && name != manifest.snapshot_file) {
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
    }
  }
  return true;
}

namespace {

bool ReadFileBytes(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return false;
  *bytes = buffer.str();
  return true;
}

bool WriteFileBytesAtomic(const std::string& path, const std::string& bytes,
                          std::string* error) {
  const std::string tmp = TempPathFor(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Fail(error, "cannot open temp file: " + tmp);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return Fail(error, "I/O failure while staging: " + tmp);
    }
  }
  if (!AtomicReplaceFile(tmp, path)) {
    return Fail(error, "cannot publish file: " + path);
  }
  return true;
}

}  // namespace

bool ReadCheckpointForShipping(const std::string& dir, ShippedCheckpoint* out,
                               std::string* error) {
  // The snapshot file named by the manifest can be deleted between the
  // manifest read and the file read when a concurrent checkpoint
  // supersedes it (WriteCheckpoint's cleanup pass). Retrying re-reads
  // the fresh manifest, which names a file that again exists; two
  // checkpoints racing one bootstrap read is already pathological, so a
  // small retry budget is plenty.
  for (int attempt = 0; attempt < 3; ++attempt) {
    *out = ShippedCheckpoint{};
    CheckpointManifest manifest;
    bool present = false;
    if (!ReadCheckpointManifest(dir, &manifest, &present, error)) {
      return false;
    }
    if (!present) return true;  // out->present stays false
    const std::string manifest_path = std::string(dir) + "/" + kManifestFile;
    if (!ReadFileBytes(manifest_path, &out->manifest_bytes)) {
      continue;  // replaced mid-read; retry
    }
    if (!ReadFileBytes(dir + "/" + manifest.snapshot_file,
                       &out->snapshot_bytes)) {
      continue;  // superseded and deleted; retry against the new manifest
    }
    out->present = true;
    out->lsn = manifest.lsn;
    out->snapshot_name = manifest.snapshot_file;
    return true;
  }
  return Fail(error,
              "checkpoint files kept changing under the shipping read: " +
                  dir);
}

bool InstallShippedCheckpoint(const std::string& dir,
                              const ShippedCheckpoint& cp, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Fail(error, "cannot create follower directory: " + dir);
  }
  if (!cp.present) return true;
  // The snapshot name came off the wire: re-apply the manifest reader's
  // own constraint (a bare filename) before using it in a path.
  if (cp.snapshot_name.empty() ||
      cp.snapshot_name.find('/') != std::string::npos) {
    return Fail(error, "shipped checkpoint has a bad snapshot name");
  }
  // Snapshot first, manifest last: the manifest is the durable pointer,
  // so it must never (even transiently) name a file that is not fully
  // on disk.
  if (!WriteFileBytesAtomic(dir + "/" + cp.snapshot_name, cp.snapshot_bytes,
                            error)) {
    return false;
  }
  return WriteFileBytesAtomic(std::string(dir) + "/" + kManifestFile,
                              cp.manifest_bytes, error);
}

bool RecoverServingState(const SocialNetwork& base,
                         const RrIndexOptions& options,
                         const std::string& dir, RecoveredState* state,
                         std::string* error) {
  CheckpointManifest manifest;
  bool have_checkpoint = false;
  std::string manifest_error;
  if (!ReadCheckpointManifest(dir, &manifest, &have_checkpoint,
                              &manifest_error)) {
    // The manifest is atomically replaced, so a corrupt one is real
    // damage, not a crash artifact — and the WAL below it is already
    // truncated, so silently rebuilding would lose acknowledged
    // updates. Refuse.
    return Fail(error, "unrecoverable checkpoint manifest: " + manifest_error);
  }

  auto master = std::make_unique<DynamicRrIndex>(base, options);
  uint64_t after_lsn = 0;
  uint64_t base_epoch = 1;  // the epoch Start()'s initial publish uses
  std::vector<EdgeId> touched;
  if (have_checkpoint) {
    for (const EdgeInfluenceUpdate& update : manifest.model_delta) {
      if (const char* why = InvalidUpdateReason(update, base)) {
        return Fail(error, std::string("invalid checkpoint delta: ") + why);
      }
      touched.push_back(update.edge);
    }
    master->RestoreModel(manifest.model_delta, manifest.index_version);
    // The snapshot file embeds the fingerprint of the evolved model it
    // was saved against; loading it against the restored model proves
    // the delta fold reproduced that model bit-identically.
    IndexIoError io_error;
    auto snapshot = LoadRrIndex(master->network(),
                                dir + "/" + manifest.snapshot_file, &io_error);
    if (snapshot == nullptr) {
      return Fail(error, "checkpoint snapshot unreadable (" +
                             std::string(IndexIoCodeName(io_error.code)) +
                             "): " + io_error.message);
    }
    master->AdoptSketches(*snapshot);
    after_lsn = manifest.lsn;
    base_epoch = manifest.epoch;
  } else {
    master->Build();
  }

  std::vector<WalRecord> records;
  const WalReadResult read = ReadWalAfter(dir, after_lsn, &records);
  if (!read.ok()) {
    return Fail(error, "unrecoverable WAL: " + read.message);
  }
  uint64_t last_lsn = after_lsn;
  for (const WalRecord& record : records) {
    if (PITEX_FAILPOINT("recovery/replay")) {
      return Fail(error, "fault injected: recovery/replay");
    }
    for (const EdgeInfluenceUpdate& update : record.updates) {
      if (const char* why = InvalidUpdateReason(update, base)) {
        return Fail(error, std::string("invalid WAL record: ") + why);
      }
      touched.push_back(update.edge);
    }
    master->ApplyUpdates(record.updates);
    last_lsn = record.lsn;
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  state->master = std::move(master);
  state->last_lsn = last_lsn;
  state->replayed_records = records.size();
  state->publish_epoch = base_epoch + records.size();
  state->torn_tail = read.status == WalReadStatus::kTornTail;
  state->had_checkpoint = have_checkpoint;
  state->touched_edges = std::move(touched);
  return true;
}

}  // namespace pitex
