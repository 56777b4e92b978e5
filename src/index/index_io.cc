#include "src/index/index_io.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/file_sync.h"
#include "src/util/serialize.h"

namespace pitex {

namespace {

constexpr char kMagic[] = "PITEXIDX";
// v17's RR-Graph payload is the RrSketchPool image, its sketches in
// root order: each vertex's count of rooted sketches, packed at the bits
// the largest takes, which sets the root ranges; its directory as the
// pool holds it, each group's mask of blocks and a word per block, its
// start less its group's base in two's complement, packed at the bits
// the words take; and its body bytes as they are stored, padding
// included: each first copy's block of bit-granular fields: an
// in-tree's, a parent tree, each vertex but the root as its parent's
// local id and its edge's rank in the parent's in-list; any other's, at
// the widths its network and its own vertex count call for, its root's
// vertex id left out, each edge record its edge's rank in its tail's
// out-list. A block byte-equal to an earlier one of its root range
// stores no bytes: its word names that first copy's start.
// Thresholds are not stored: they are a function of the header's seed,
// the sketch's id and the network's model. (v1, one record per graph,
// v2, a wire format of per-sketch CSRs packed into a pool on load, v3,
// whose edge records were a third array, v4, whose blocks kept every
// vertex at 4 bytes, v5, whose body was word-padded u32 words with
// 4-byte headers and edge ids, v6, whose blocks all stored their
// offsets, v7, whose directory held a u32 per sketch, v8, whose blocks
// stored whole bytes per field, v9, whose records held global edge ids,
// v10, whose records held every threshold's f32 bits at 30, v11, whose
// sketches were in sample order, v12, whose blocks stored their root's
// vertex id, v13, whose records stored their thresholds and whose
// directory held a word per sketch, a singleton's its root, and v14,
// whose words were unsigned and whose repeated blocks each stored their
// bytes, v15, whose in-tree blocks stored their vertex ids and out-list
// ranks, and v16, whose root counts took 1, 2 or 4 bytes and whose block
// words 2 or 4, are no longer read.)
constexpr uint32_t kVersionCurrent = 17;
constexpr uint8_t kKindRrGraphs = 1;

void SetError(IndexIoError* error, IndexIoCode code, const char* message) {
  if (error != nullptr) {
    error->code = code;
    error->message = message;
  }
}

// Plausibility bound for cap_k: the search never selects more tags than
// this, and a header claiming more is corruption, not configuration.
constexpr uint64_t kMaxPlausibleCapK = 1u << 20;

// Writes the header (magic, version, kind, fingerprint, options).
void WriteHeader(BinaryWriter* writer, uint64_t fingerprint,
                 const RrIndexOptions& options) {
  writer->WriteString(kMagic);
  writer->WriteU32(kVersionCurrent);
  writer->WriteU8(kKindRrGraphs);
  writer->WriteU64(fingerprint);
  writer->WriteF64(options.eps);
  writer->WriteF64(options.delta);
  writer->WriteU64(static_cast<uint64_t>(options.cap_k));
  writer->WriteU64(options.seed);
}

// Reads and validates the header; fills `options` fields that are
// persisted. Returns false with `*error` set on any mismatch.
bool ReadHeader(BinaryReader* reader, uint64_t expected_fingerprint,
                RrIndexOptions* options, IndexIoError* error) {
  std::string magic;
  uint32_t version = 0;
  uint8_t kind = 0;
  uint64_t fingerprint = 0;
  if (!reader->ReadString(&magic) || magic != kMagic) {
    SetError(error, IndexIoCode::kBadMagic, "not a PITEX index file");
    return false;
  }
  if (!reader->ReadU32(&version) || version != kVersionCurrent) {
    SetError(error, IndexIoCode::kBadVersion,
             "unsupported index file version");
    return false;
  }
  if (!reader->ReadU8(&kind) || kind != kKindRrGraphs) {
    SetError(error, IndexIoCode::kWrongKind,
             "index file holds a different index kind");
    return false;
  }
  if (!reader->ReadU64(&fingerprint) || fingerprint != expected_fingerprint) {
    SetError(error, IndexIoCode::kFingerprintMismatch,
             "index was built from a different network");
    return false;
  }
  uint64_t cap_k = 0;
  if (!reader->ReadF64(&options->eps) || !reader->ReadF64(&options->delta) ||
      !reader->ReadU64(&cap_k) || !reader->ReadU64(&options->seed)) {
    SetError(error, IndexIoCode::kTruncated, "truncated index header");
    return false;
  }
  // The options steer sample-size formulas downstream; a NaN eps or an
  // absurd cap_k used to flow through silently and only misbehave at
  // query time. Reject implausible values as header corruption here.
  if (!std::isfinite(options->eps) || options->eps <= 0.0 ||
      !std::isfinite(options->delta) || options->delta <= 0.0) {
    SetError(error, IndexIoCode::kBadOptions,
             "implausible accuracy options: corrupt header");
    return false;
  }
  if (cap_k == 0 || cap_k > kMaxPlausibleCapK) {
    SetError(error, IndexIoCode::kBadOptions,
             "implausible cap_k: corrupt header");
    return false;
  }
  options->cap_k = static_cast<int64_t>(cap_k);
  return true;
}

}  // namespace

uint64_t NetworkFingerprint(const SocialNetwork& network) {
  Fnv1a hash;
  auto fold_u64 = [&hash](uint64_t v) { hash.Update(&v, sizeof(v)); };
  fold_u64(network.num_vertices());
  fold_u64(network.num_edges());
  for (EdgeId e = 0; e < network.num_edges(); ++e) {
    fold_u64(network.graph.Tail(e));
    fold_u64(network.graph.Head(e));
    for (const auto& [z, p] : network.influence.EdgeTopics(e)) {
      fold_u64(z);
      hash.Update(&p, sizeof(p));
    }
  }
  fold_u64(network.topics.num_topics());
  fold_u64(network.topics.num_tags());
  for (TopicId z = 0; z < network.topics.num_topics(); ++z) {
    const double prior = network.topics.prior()[z];
    hash.Update(&prior, sizeof(prior));
    for (TagId w = 0; w < network.topics.num_tags(); ++w) {
      const double p = network.topics.TagTopic(w, z);
      if (p > 0.0) {
        fold_u64(w);
        hash.Update(&p, sizeof(p));
      }
    }
  }
  return hash.digest();
}

// Befriended by RrIndex and RrSketchPool: reads/writes their private
// payloads.
class IndexIo {
 public:
  static bool WriteRr(const RrIndex& index, std::ostream& out,
                      IndexIoError* error) {
    if (PITEX_FAILPOINT("index_io/save")) {
      SetError(error, IndexIoCode::kFaultInjected,
               "fault injected: index_io/save");
      return false;
    }
    if (!index.built_) {
      SetError(error, IndexIoCode::kNotBuilt,
               "index not built; call Build() before saving");
      return false;
    }
    // The payload is the base pool's arrays. An index with repairs saves
    // as its compaction: the pool its overlay folds the base into. The
    // root ranges are written as each vertex's count of rooted sketches,
    // at the bits the largest takes, and the containing index not at
    // all: the loader rebuilds it.
    std::optional<RrSketchPool> folded;
    if (const RrSketchOverlay* overlay = index.repairs()) {
      folded = overlay->Fold(*index.pool_);
    }
    const RrSketchPool& pool = folded ? *folded : *index.pool_;
    const RrSketchPool::FileDirectory directory = pool.SaveDirectory();
    BinaryWriter writer(&out);
    WriteHeader(&writer, NetworkFingerprint(index.network_), index.options_);
    writer.WriteU64(index.theta_);
    writer.WriteU8(static_cast<uint8_t>(directory.count_width));
    writer.WriteVector<uint8_t>(directory.counts);
    writer.WriteVector<uint64_t>(directory.masks);
    writer.WriteU8(static_cast<uint8_t>(directory.width));
    writer.WriteVector<uint8_t>(directory.words);
    writer.WriteVector<uint8_t>(pool.body_);
    writer.WriteF64(index.build_seconds_);
    writer.WriteChecksum();
    if (!writer.ok()) {
      SetError(error, IndexIoCode::kWriteFailed,
               "I/O failure while writing index");
      return false;
    }
    return true;
  }

  // A read failure at EOF means the file is a valid prefix cut short --
  // a torn write left by an interrupted writer, not bit rot. Upgrade
  // the code so callers can react (fall back to an older checkpoint)
  // without parsing the message. Validation failures with bytes still
  // present (reader.ok() or no EOF) keep their specific code.
  static void UpgradeTornWrite(const BinaryReader& reader,
                               IndexIoError* error) {
    if (error == nullptr || reader.ok() || !reader.at_end_of_stream()) return;
    if (error->code == IndexIoCode::kTruncated ||
        error->code == IndexIoCode::kChecksumMismatch ||
        error->code == IndexIoCode::kCorruptPayload) {
      error->code = IndexIoCode::kTornWrite;
      error->message =
          "file ends mid-payload: torn write (interrupted writer)";
    }
  }

  // A file ends at its checksum: reads and checks it, then requires the
  // end of the input.
  static bool VerifyTrailer(BinaryReader* reader, IndexIoError* error) {
    if (!reader->VerifyChecksum()) {
      SetError(error, IndexIoCode::kChecksumMismatch,
               "checksum mismatch: file truncated or corrupted");
      return false;
    }
    if (!reader->NoBytesLeft()) {
      SetError(error, IndexIoCode::kCorruptPayload,
               "trailing bytes after the checksum");
      return false;
    }
    return true;
  }

  static std::unique_ptr<RrIndex> ReadRr(const SocialNetwork& network,
                                         std::istream& in,
                                         IndexIoError* error) {
    if (PITEX_FAILPOINT("index_io/load")) {
      SetError(error, IndexIoCode::kFaultInjected,
               "fault injected: index_io/load");
      return nullptr;
    }
    BinaryReader reader(&in);
    auto index = ReadRrBody(network, &reader, error);
    if (index == nullptr) UpgradeTornWrite(reader, error);
    return index;
  }

  static std::unique_ptr<RrIndex> ReadRrBody(const SocialNetwork& network,
                                             BinaryReader* reader_ptr,
                                             IndexIoError* error) {
    BinaryReader& reader = *reader_ptr;
    RrIndexOptions options;
    if (!ReadHeader(&reader, NetworkFingerprint(network), &options, error)) {
      return nullptr;
    }
    uint64_t theta = 0;
    // theta == 0 would make RrIndex derive its own theta: no writer
    // produces it, and the loaded index could not save the file back.
    // Sketch ids are u32.
    if (!reader.ReadU64(&theta) || theta == 0 || theta >= UINT32_MAX) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt index payload header");
      return nullptr;
    }
    options.theta_override = theta;
    auto index = std::unique_ptr<RrIndex>(new RrIndex(network, options));
    RrSketchPool pool;
    // A root count per vertex of the network and at most theta words,
    // each array packed at a width of at most 32 bits (FinishLoaded
    // checks that the counts sum to theta, that there is a word per mask
    // bit, each array's exact length and its zero pad bits), and a mask
    // per 64 sketches. Block offsets fit 31 bits, so the body holds at
    // most 2^31 bytes of blocks and then its padding.
    RrSketchPool::FileDirectory file;
    file.num_sketches = theta;
    uint8_t count_width = 0;
    uint8_t width = 0;
    if (!reader.ReadU8(&count_width) || count_width > 32 ||
        !reader.ReadVector(
            &file.counts,
            (uint64_t{network.num_vertices()} * count_width + 7) / 8) ||
        !reader.ReadVector(&file.masks, (theta + 63) / 64) ||
        !reader.ReadU8(&width) || width > 32 ||
        !reader.ReadVector(&file.words, (theta * width + 7) / 8) ||
        !reader.ReadVector(&pool.body_,
                           (uint64_t{1} << 31) + kBitPadding)) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt pooled sketch arrays");
      return nullptr;
    }
    pool.body_.shrink_to_fit();
    if (!reader.ReadF64(&index->build_seconds_)) {
      SetError(error, IndexIoCode::kTruncated, "truncated index trailer");
      return nullptr;
    }
    if (!VerifyTrailer(&reader, error)) return nullptr;
    file.count_width = count_width;
    file.width = width;
    if (!pool.FinishLoaded(network.graph, file)) {
      SetError(error, IndexIoCode::kCorruptPayload,
               "pooled sketches are not a packed pool of this network");
      return nullptr;
    }
    index->pool_ = std::make_shared<const RrSketchPool>(std::move(pool));
    index->built_ = true;
    return index;
  }
};

const char* IndexIoCodeName(IndexIoCode code) {
  switch (code) {
    case IndexIoCode::kNone: return "ok";
    case IndexIoCode::kOpenFailed: return "open-failed";
    case IndexIoCode::kNotBuilt: return "not-built";
    case IndexIoCode::kWriteFailed: return "write-failed";
    case IndexIoCode::kBadMagic: return "bad-magic";
    case IndexIoCode::kBadVersion: return "bad-version";
    case IndexIoCode::kWrongKind: return "wrong-kind";
    case IndexIoCode::kFingerprintMismatch: return "fingerprint-mismatch";
    case IndexIoCode::kBadOptions: return "bad-options";
    case IndexIoCode::kCorruptPayload: return "corrupt-payload";
    case IndexIoCode::kTruncated: return "truncated";
    case IndexIoCode::kChecksumMismatch: return "checksum-mismatch";
    case IndexIoCode::kTornWrite: return "torn-write";
    case IndexIoCode::kFaultInjected: return "fault-injected";
  }
  return "?";
}

namespace {

// Crash-atomic path save: stream the payload into `path + ".tmp"`,
// fsync, rename over `path`, fsync the directory (src/util/file_sync.h).
// A crash at any point leaves the previous file intact; a failure
// removes the temp file so no orphan survives. `write` streams the
// payload and sets `*error` itself when it fails.
template <typename WriteFn>
bool SaveAtomically(const std::string& path, IndexIoError* error,
                    WriteFn&& write) {
  const std::string tmp = TempPathFor(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      SetError(error, IndexIoCode::kOpenFailed,
               "cannot open temp file for writing");
      return false;
    }
    if (!write(out)) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      SetError(error, IndexIoCode::kWriteFailed,
               "I/O failure while flushing index");
      return false;
    }
  }
  if (!AtomicReplaceFile(tmp, path)) {
    SetError(error, IndexIoCode::kWriteFailed,
             "failed to fsync+rename index into place");
    return false;
  }
  return true;
}

}  // namespace

bool SaveRrIndex(const RrIndex& index, std::ostream& out,
                 IndexIoError* error) {
  return IndexIo::WriteRr(index, out, error);
}

bool SaveRrIndex(const RrIndex& index, const std::string& path,
                 IndexIoError* error) {
  return SaveAtomically(path, error, [&](std::ostream& out) {
    return IndexIo::WriteRr(index, out, error);
  });
}

std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     std::istream& in, IndexIoError* error) {
  return IndexIo::ReadRr(network, in, error);
}

std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     const std::string& path,
                                     IndexIoError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, IndexIoCode::kOpenFailed, "cannot open file for reading");
    return nullptr;
  }
  return IndexIo::ReadRr(network, in, error);
}

}  // namespace pitex
