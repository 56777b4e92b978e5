#include "src/serve/wal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/util/failpoint.h"
#include "src/util/file_sync.h"
#include "src/util/serialize.h"

// The writer needs fd-level fsync control, so this file is POSIX-only
// (matching src/util/file_sync.cc, which degrades to no-ops elsewhere).
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pitex {

namespace {

constexpr char kSegmentMagic[9] = "PITEXWAL";  // 8 bytes on disk
constexpr uint32_t kFormatVersion = 2;
constexpr size_t kSegmentHeaderBytes = 8 + 4 + 8;

// "PXRP" as raw bytes; the decoder matches prefixes of this during
// realignment, so it is kept as an array rather than a packed u32.
constexpr char kReplMagic[4] = {'P', 'X', 'R', 'P'};
constexpr size_t kReplMagicBytes = sizeof(kReplMagic);
constexpr size_t kReplHeaderBytes = kReplMagicBytes + 1 + 4;  // magic|type|len
constexpr size_t kReplChecksumBytes = 8;

bool ValidReplFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(ReplFrameType::kCheckpoint) &&
         type <= static_cast<uint8_t>(ReplFrameType::kWalRecord);
}

// True when `bytes` starts with a WAL record frame header whose length
// spans exactly `bytes`: after DecodeReplFrame said kBad, that frame is
// complete and failed only its checksum.
bool RecordFrameSpans(std::string_view bytes) {
  if (bytes.size() < kReplHeaderBytes ||
      bytes.compare(0, kReplMagicBytes, kReplMagic, kReplMagicBytes) != 0 ||
      static_cast<uint8_t>(bytes[kReplMagicBytes]) !=
          static_cast<uint8_t>(ReplFrameType::kWalRecord)) {
    return false;
  }
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  return kReplHeaderBytes + DecodeLe(data + kReplMagicBytes + 1, 4) +
             kReplChecksumBytes ==
         bytes.size();
}

// write(2) the whole buffer, resuming partial writes and EINTR.
bool WriteFully(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    written += static_cast<size_t>(n);
  }
  return true;
}

struct SegmentFile {
  uint64_t start_lsn = 0;
  std::string path;
};

// Segments in `dir`, sorted by the start LSN encoded in the filename
// (the header restates it; ReadWalAfter cross-checks the two). A
// failing listing must not read as an empty log — an I/O error during
// recovery would silently discard acknowledged history — so iteration
// errors are surfaced through `io_error` (callers that only delete,
// like TruncateThrough, may pass nullptr and skip the pass instead).
std::vector<SegmentFile> ListSegments(const std::string& dir,
                                      std::error_code* io_error) {
  std::vector<SegmentFile> segments;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  for (; !ec && it != std::filesystem::directory_iterator();
       it.increment(ec)) {
    const auto& entry = *it;
    const std::string name = entry.path().filename().string();
    if (name.size() != 4 + 16 + 4 || name.rfind("wal-", 0) != 0 ||
        name.compare(name.size() - 4, 4, ".log") != 0) {
      continue;
    }
    uint64_t lsn = 0;
    bool valid = true;
    for (size_t i = 4; i < 4 + 16; ++i) {
      const char c = name[i];
      uint64_t digit;
      if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a') + 10;
      else { valid = false; break; }
      lsn = (lsn << 4) | digit;
    }
    if (!valid) continue;
    segments.push_back(SegmentFile{lsn, entry.path().string()});
  }
  if (ec && io_error != nullptr) *io_error = ec;
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.start_lsn < b.start_lsn;
            });
  return segments;
}

WalReadResult MakeResult(WalReadStatus status, std::string message) {
  WalReadResult result;
  result.status = status;
  result.message = std::move(message);
  return result;
}

}  // namespace

std::string EncodeReplFrame(const ReplFrame& frame) {
  const size_t payload_len = frame.payload.size();
  std::string out(kReplHeaderBytes + payload_len + kReplChecksumBytes, '\0');
  auto* bytes = reinterpret_cast<unsigned char*>(out.data());
  std::memcpy(bytes, kReplMagic, kReplMagicBytes);
  bytes[kReplMagicBytes] = static_cast<unsigned char>(frame.type);
  EncodeLe(payload_len, 4, bytes + kReplMagicBytes + 1);
  std::memcpy(bytes + kReplHeaderBytes, frame.payload.data(), payload_len);
  Fnv1a hash;
  hash.Update(bytes + kReplMagicBytes, 1 + 4 + payload_len);
  EncodeLe(hash.digest(), kReplChecksumBytes,
           bytes + kReplHeaderBytes + payload_len);
  return out;
}

ReplDecodeStatus DecodeReplFrame(std::string_view bytes, ReplFrame* frame,
                                 size_t* consumed) {
  // Magic first: a short buffer that is still a prefix of the magic may
  // become a frame once more bytes arrive; anything else is damage.
  const size_t magic_have = std::min(bytes.size(), kReplMagicBytes);
  if (bytes.compare(0, magic_have, kReplMagic, magic_have) != 0) {
    return ReplDecodeStatus::kBad;
  }
  if (bytes.size() < kReplHeaderBytes) return ReplDecodeStatus::kNeedMore;
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const uint8_t type = data[kReplMagicBytes];
  const uint64_t payload_len = DecodeLe(data + kReplMagicBytes + 1, 4);
  if (!ValidReplFrameType(type) || payload_len > kMaxReplPayloadBytes) {
    return ReplDecodeStatus::kBad;
  }
  const size_t total = kReplHeaderBytes + payload_len + kReplChecksumBytes;
  if (bytes.size() < total) return ReplDecodeStatus::kNeedMore;
  Fnv1a hash;
  hash.Update(data + kReplMagicBytes, 1 + 4 + payload_len);
  const uint64_t stored =
      DecodeLe(data + kReplHeaderBytes + payload_len, kReplChecksumBytes);
  if (stored != hash.digest()) return ReplDecodeStatus::kBad;
  frame->type = static_cast<ReplFrameType>(type);
  frame->payload.assign(bytes.data() + kReplHeaderBytes, payload_len);
  *consumed = total;
  return ReplDecodeStatus::kFrame;
}

size_t ReplResyncSkip(std::string_view bytes) {
  for (size_t i = 1; i < bytes.size(); ++i) {
    const size_t have = std::min(bytes.size() - i, kReplMagicBytes);
    if (bytes.compare(i, have, kReplMagic, have) == 0) return i;
  }
  return std::max<size_t>(bytes.size(), 1);
}

void WriteUpdateBatch(BinaryWriter* writer,
                      std::span<const EdgeInfluenceUpdate> updates) {
  writer->WriteU64(updates.size());
  for (const EdgeInfluenceUpdate& update : updates) {
    writer->WriteU32(update.edge);
    writer->WriteU64(update.entries.size());
    for (const EdgeTopicEntry& entry : update.entries) {
      writer->WriteU32(entry.topic);
      writer->WriteF64(entry.prob);
    }
  }
}

bool ReadUpdateBatch(BinaryReader* reader, uint64_t max_bytes,
                     std::vector<EdgeInfluenceUpdate>* updates) {
  // Declared counts are untrusted (a manifest's checksum is verified
  // only after the batch is read), so each one is bounded by what the
  // enclosing bytes could physically encode before it sizes a reserve.
  constexpr uint64_t kMinItemBytes = 12;
  const uint64_t max_items = max_bytes / kMinItemBytes;
  uint64_t count = 0;
  if (!reader->ReadU64(&count) || count > max_items) return false;
  updates->clear();
  updates->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    EdgeInfluenceUpdate& update = updates->emplace_back();
    uint64_t entries = 0;
    if (!reader->ReadU32(&update.edge) || !reader->ReadU64(&entries) ||
        entries > max_items) {
      return false;
    }
    update.entries.reserve(entries);
    for (uint64_t j = 0; j < entries; ++j) {
      EdgeTopicEntry& entry = update.entries.emplace_back();
      if (!reader->ReadU32(&entry.topic) || !reader->ReadF64(&entry.prob)) {
        return false;
      }
    }
  }
  return true;
}

void WriteWalRecord(BinaryWriter* writer, uint64_t lsn,
                    std::span<const EdgeInfluenceUpdate> updates) {
  writer->WriteU64(lsn);
  WriteUpdateBatch(writer, updates);
}

bool ReadWalRecord(BinaryReader* reader, uint64_t max_bytes, uint64_t* lsn,
                   std::vector<EdgeInfluenceUpdate>* updates) {
  return reader->ReadU64(lsn) && ReadUpdateBatch(reader, max_bytes, updates);
}

std::string WalSegmentName(uint64_t start_lsn) {
  char buf[4 + 16 + 4 + 1];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.log",
                static_cast<unsigned long long>(start_lsn));
  return std::string(buf);
}

std::unique_ptr<WriteAheadLog> WriteAheadLog::Open(const std::string& dir,
                                                   uint64_t next_lsn,
                                                   const WalOptions& options,
                                                   std::string* error) {
  if (next_lsn == 0) next_lsn = 1;  // LSNs are dense from 1
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create WAL directory: " + ec.message();
    }
    return nullptr;
  }
  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(dir, next_lsn, options));
  std::string open_error;
  if (!wal->OpenSegment(next_lsn, &open_error)) {
    if (error != nullptr) *error = open_error;
    return nullptr;
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    if (options_.fsync == WalFsyncPolicy::kAlways && ::fsync(fd_) == 0) {
      ++fsyncs_;
    }
    // pitex-check: allow(io-checked): best-effort close on teardown
    ::close(fd_);
  }
}

bool WriteAheadLog::OpenSegment(uint64_t start_lsn, std::string* error) {
  segment_path_ = dir_ + "/" + WalSegmentName(start_lsn);
  // O_TRUNC is safe: a pre-existing segment named start_lsn can only
  // hold a torn (never-acknowledged) tail — recovery computed start_lsn
  // as one past the last *committed* record.
  fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    if (error != nullptr) {
      *error = "cannot open WAL segment " + segment_path_ + ": " +
               std::strerror(errno);
    }
    return false;
  }
  unsigned char header[kSegmentHeaderBytes];
  std::memcpy(header, kSegmentMagic, 8);
  EncodeLe(kFormatVersion, 4, header + 8);
  EncodeLe(start_lsn, 8, header + 12);
  bool ok = WriteFully(fd_, reinterpret_cast<const char*>(header),
                       sizeof(header));
  if (ok && options_.fsync == WalFsyncPolicy::kAlways) {
    ok = ::fsync(fd_) == 0;
    if (ok) {
      ++fsyncs_;
      // The segment's existence must survive a crash too.
      ok = SyncParentDir(segment_path_);
    }
  }
  if (!ok) {
    if (error != nullptr) {
      *error = "cannot initialize WAL segment " + segment_path_;
    }
    // pitex-check: allow(io-checked): error path, fd abandoned anyway
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  segment_start_lsn_ = start_lsn;
  offset_ = sizeof(header);
  committed_offset_ = offset_;
  return true;
}

void WriteAheadLog::RollBackTo(uint64_t offset) {
  // If the truncate (or the seek back to the new end) fails, the file
  // still holds the rolled-back bytes while the writer's accounting
  // says they are gone: the next append would land after the stale
  // frames, and the reader would see either never-acknowledged records
  // replayed or a duplicate-LSN sequence it rightly refuses as corrupt.
  // Poison the writer instead — every later Append/Sync fails, the
  // committed prefix on disk stays exactly as acknowledged, and the
  // service degrades to rejecting updates rather than corrupting its
  // own log.
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
    // pitex-check: allow(io-checked): poisoning; the fd is abandoned
    ::close(fd_);
    fd_ = -1;
    return;  // offset_ is stale but unreachable: fd_ < 0 gates all writes
  }
  offset_ = offset;
}

bool WriteAheadLog::RotateIfNeeded() {
  if (offset_ < options_.segment_bytes) return true;
  // Rotate only at a commit boundary so rollback never has to cross a
  // segment; mid-group-commit appends stay in the active segment.
  if (offset_ != committed_offset_) return true;
  if (options_.fsync == WalFsyncPolicy::kAlways) {
    if (::fsync(fd_) != 0) return false;
    ++fsyncs_;
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    return false;
  }
  fd_ = -1;
  std::string error;
  return OpenSegment(next_lsn_, &error);
}

uint64_t WriteAheadLog::Append(std::span<const EdgeInfluenceUpdate> updates) {
  if (fd_ < 0) return 0;
  if (PITEX_FAILPOINT("wal/append")) return 0;
  if (!RotateIfNeeded()) return 0;

  const uint64_t lsn = next_lsn_;
  std::ostringstream payload;
  BinaryWriter writer(&payload);
  WriteWalRecord(&writer, lsn, updates);
  if (!writer.ok() ||
      static_cast<uint64_t>(payload.tellp()) > kMaxWalRecordBytes) {
    return 0;
  }
  const std::string frame =
      EncodeReplFrame(ReplFrame{ReplFrameType::kWalRecord,
                                std::move(payload).str()});
  if (!WriteFully(fd_, frame.data(), frame.size())) {
    RollBackTo(offset_);
    return 0;
  }
  offset_ += frame.size();
  ++next_lsn_;
  ++appends_;
  return lsn;
}

bool WriteAheadLog::Sync() {
  if (fd_ < 0) return false;
  bool failed = PITEX_FAILPOINT("wal/fsync");
  if (!failed && options_.fsync == WalFsyncPolicy::kAlways &&
      offset_ != committed_offset_) {
    failed = ::fsync(fd_) != 0;
    if (!failed) ++fsyncs_;
  }
  if (failed) {
    // Roll the whole uncommitted group back out of the file and rewind
    // the LSN cursor: the log must never hold records whose append the
    // caller was told failed (they were never applied to the master).
    RollBackTo(committed_offset_);
    next_lsn_ = committed_lsn_;
    return false;
  }
  committed_offset_ = offset_;
  committed_lsn_ = next_lsn_;
  return true;
}

uint64_t WalRetentionHolds::Register(uint64_t first_needed_lsn) {
  MutexLock lock(mutex_);
  const uint64_t id = next_id_++;
  holds_.emplace_back(id, first_needed_lsn);
  return id;
}

void WalRetentionHolds::Update(uint64_t id, uint64_t first_needed_lsn) {
  MutexLock lock(mutex_);
  for (auto& hold : holds_) {
    if (hold.first == id) {
      hold.second = first_needed_lsn;
      return;
    }
  }
}

void WalRetentionHolds::Release(uint64_t id) {
  MutexLock lock(mutex_);
  for (size_t i = 0; i < holds_.size(); ++i) {
    if (holds_[i].first == id) {
      holds_[i] = holds_.back();
      holds_.pop_back();
      return;
    }
  }
}

uint64_t WalRetentionHolds::Floor() const {
  MutexLock lock(mutex_);
  uint64_t floor = UINT64_MAX;
  for (const auto& hold : holds_) {
    floor = std::min(floor, hold.second);
  }
  return floor;
}

void WriteAheadLog::TruncateThrough(uint64_t lsn) {
  // A registered hold names the first LSN its consumer still needs;
  // nothing at or above the minimum across holds may be deleted, even
  // when the checkpoint has advanced past it (the shipping/truncation
  // race of docs/robustness.md, "Replication & failover").
  const uint64_t floor = retention_.Floor();
  if (floor != UINT64_MAX) {
    if (floor == 0) return;  // a hold at 0 retains the whole log
    lsn = std::min(lsn, floor - 1);
  }
  // Deletion is best effort (a skipped pass only delays reclamation),
  // so a listing error is ignored rather than surfaced.
  const std::vector<SegmentFile> segments = ListSegments(dir_, nullptr);
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    // Segment i's records all precede segment i+1's start; the active
    // segment (always last) is never deleted.
    if (segments[i + 1].start_lsn > lsn + 1) break;
    if (segments[i].path == segment_path_) break;
    std::error_code ec;
    std::filesystem::remove(segments[i].path, ec);
  }
}

WalReadResult ReadWalAfter(const std::string& dir, uint64_t after_lsn,
                           std::vector<WalRecord>* records) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    return MakeResult(WalReadStatus::kOk, "");  // absent dir == empty log
  }
  std::error_code list_error;
  const std::vector<SegmentFile> segments = ListSegments(dir, &list_error);
  if (list_error) {
    // A failed listing is indistinguishable from "some segments
    // invisible" — reporting kOk with whatever subset survived would
    // present an I/O error as a shorter history.
    return MakeResult(WalReadStatus::kIoError,
                      "cannot list WAL directory " + dir + ": " +
                          list_error.message());
  }
  uint64_t expected = 0;  // next LSN demanded by continuity; 0 = unanchored
  for (size_t s = 0; s < segments.size(); ++s) {
    const bool last_segment = s + 1 == segments.size();
    std::ifstream in(segments[s].path, std::ios::binary);
    if (!in) {
      return MakeResult(WalReadStatus::kIoError,
                        "cannot open WAL segment " + segments[s].path);
    }
    // A segment is at most segment_bytes plus one record: read it whole.
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (bytes.size() < kSegmentHeaderBytes) {
      if (last_segment) {
        // Crash during rotation: the fresh segment's header never made
        // it out. Nothing was committed past the previous segment.
        return MakeResult(WalReadStatus::kTornTail,
                          "torn segment header at end of log");
      }
      return MakeResult(WalReadStatus::kCorrupt,
                        "short segment header mid-log: " + segments[s].path);
    }
    const auto* header = reinterpret_cast<const unsigned char*>(bytes.data());
    if (std::memcmp(header, kSegmentMagic, 8) != 0 ||
        DecodeLe(header + 8, 4) != kFormatVersion ||
        DecodeLe(header + 12, 8) != segments[s].start_lsn) {
      return MakeResult(WalReadStatus::kCorrupt,
                        "bad segment header: " + segments[s].path);
    }
    if (expected != 0 && segments[s].start_lsn != expected) {
      return MakeResult(WalReadStatus::kCorrupt,
                        "LSN gap between segments: " + segments[s].path);
    }
    if (expected == 0) {
      // The oldest surviving segment must reach back to the reader's
      // resume point: records (after_lsn, start_lsn) missing means the
      // log was truncated past its checkpoint.
      if (segments[s].start_lsn > after_lsn + 1) {
        return MakeResult(WalReadStatus::kCorrupt,
                          "log starts past the checkpoint LSN");
      }
      expected = segments[s].start_lsn;
    }

    std::string_view rest = std::string_view(bytes).substr(kSegmentHeaderBytes);
    while (!rest.empty()) {
      ReplFrame frame;
      size_t consumed = 0;
      const ReplDecodeStatus status = DecodeReplFrame(rest, &frame, &consumed);
      if (status != ReplDecodeStatus::kFrame) {
        // Torn: the bytes run out mid-frame, or the final record frame
        // is complete but fails its checksum (block-level write
        // reordering can persist a record's tail before its head).
        // Still the crash artifact, not bit rot.
        const bool torn = status == ReplDecodeStatus::kNeedMore ||
                          RecordFrameSpans(rest);
        if (torn && last_segment) {
          return MakeResult(WalReadStatus::kTornTail,
                            "torn record at end of log");
        }
        // A torn record at the *physical end* of an older segment is
        // legal in exactly one shape: the writer crashed mid-append,
        // restarted, and recovery reopened a fresh segment at the first
        // uncommitted LSN — which is precisely the LSN the torn record
        // would have carried. The successor segment anchoring there
        // proves the damage was superseded, never acknowledged.
        if (torn && segments[s + 1].start_lsn == expected) break;
        return MakeResult(WalReadStatus::kCorrupt,
                          "record checksum/framing failure mid-log");
      }
      if (frame.type != ReplFrameType::kWalRecord) {
        return MakeResult(WalReadStatus::kCorrupt, "unexpected frame type");
      }
      const uint64_t payload_bytes = frame.payload.size();
      std::istringstream payload(std::move(frame.payload));
      BinaryReader reader(&payload);
      WalRecord record;
      if (!ReadWalRecord(&reader, payload_bytes, &record.lsn,
                         &record.updates)) {
        return MakeResult(WalReadStatus::kCorrupt, "unparsable record");
      }
      record.body = std::move(payload).str();
      if (record.lsn != expected) {
        return MakeResult(WalReadStatus::kCorrupt,
                          "record LSN out of sequence");
      }
      ++expected;
      if (record.lsn > after_lsn) records->push_back(std::move(record));
      rest.remove_prefix(consumed);
    }
  }
  return MakeResult(WalReadStatus::kOk, "");
}

}  // namespace pitex
