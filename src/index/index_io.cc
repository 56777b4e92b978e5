#include "src/index/index_io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "src/util/failpoint.h"
#include "src/util/file_sync.h"
#include "src/util/serialize.h"

namespace pitex {

namespace {

constexpr char kMagic[] = "PITEXIDX";
// v1 stored RR-Graphs one record per graph; v2 stores the pooled
// CSR-of-CSRs arrays (RrSketchPool) in bulk. v1 files remain readable:
// their graphs are re-packed into a pool on load. The DelayMat payload is
// identical in both versions.
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersionCurrent = 2;
constexpr uint8_t kKindRrGraphs = 1;
constexpr uint8_t kKindDelayMat = 2;

void SetError(IndexIoError* error, IndexIoCode code, const char* message) {
  if (error != nullptr) {
    error->code = code;
    error->message = message;
  }
}

// Plausibility bound for cap_k: the search never selects more tags than
// this, and a header claiming more is corruption, not configuration.
constexpr uint64_t kMaxPlausibleCapK = 1u << 20;

// a * b, saturating at UINT64_MAX (bounds for ReadVector guards built
// from untrusted counts).
uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  if (b != 0 && a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

// Writes the shared header (magic, version, kind, fingerprint, options).
void WriteHeader(BinaryWriter* writer, uint8_t kind, uint64_t fingerprint,
                 const RrIndexOptions& options) {
  writer->WriteString(kMagic);
  writer->WriteU32(kVersionCurrent);
  writer->WriteU8(kind);
  writer->WriteU64(fingerprint);
  writer->WriteF64(options.eps);
  writer->WriteF64(options.delta);
  writer->WriteU64(static_cast<uint64_t>(options.cap_k));
  writer->WriteU64(options.seed);
}

// Reads and validates the shared header; fills `options` fields that are
// persisted and reports the file's format version through `*version`.
// Returns false with `*error` set on any mismatch.
bool ReadHeader(BinaryReader* reader, uint8_t expected_kind,
                uint64_t expected_fingerprint, RrIndexOptions* options,
                uint32_t* version, IndexIoError* error) {
  std::string magic;
  uint8_t kind = 0;
  uint64_t fingerprint = 0;
  if (!reader->ReadString(&magic) || magic != kMagic) {
    SetError(error, IndexIoCode::kBadMagic, "not a PITEX index file");
    return false;
  }
  if (!reader->ReadU32(version) ||
      (*version != kVersionV1 && *version != kVersionCurrent)) {
    SetError(error, IndexIoCode::kBadVersion,
             "unsupported index file version");
    return false;
  }
  if (!reader->ReadU8(&kind) || kind != expected_kind) {
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

// Befriended by RrIndex and DelayMatIndex: reads/writes their private
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
    // A snapshot still carrying repairs is saved as the pool its
    // compaction would pack: the same bytes in either case.
    RrSketchPool compacted;
    if (index.repairs() != nullptr) {
      compacted = RrSketchPool::Pack(
          index.num_graphs(), index.num_vertices(),
          [&index](size_t i) { return index.graph(i); });
    }
    const RrSketchPool& pool =
        index.repairs() != nullptr ? compacted : *index.pool_;
    BinaryWriter writer(&out);
    WriteHeader(&writer, kKindRrGraphs,
                NetworkFingerprint(index.network_), index.options_);
    writer.WriteU64(index.theta_);
    writer.WriteU64(pool.num_sketches());
    // v2 payload: the pooled arrays verbatim (the containing index is
    // rebuilt on load — it is a permutation of the vertex array). Edges
    // are written field-wise so the encoding stays layout-independent.
    writer.WriteVector<VertexId>(pool.roots_);
    writer.WriteVector<uint64_t>(pool.vertex_starts_);
    writer.WriteVector<VertexId>(pool.vertices_);
    writer.WriteVector<uint32_t>(pool.offsets_);
    writer.WriteVector<uint64_t>(pool.edge_starts_);
    writer.WriteU64(pool.edges_.size());
    for (const RRLocalEdge& edge : pool.edges_) {
      writer.WriteU32(edge.head_local);
      writer.WriteU32(edge.edge);
      writer.WriteF32(edge.threshold);
    }
    writer.WriteF64(index.build_seconds_);
    writer.WriteChecksum();
    if (!writer.ok()) {
      SetError(error, IndexIoCode::kWriteFailed,
               "I/O failure while writing index");
      return false;
    }
    return true;
  }

  // v1 payload: one record per graph. Read into staging RRGraphs, then
  // packed into the pool by the caller.
  static bool ReadRrGraphsV1(BinaryReader* reader, uint64_t num_graphs,
                             uint64_t max_vertices, uint64_t max_edges,
                             std::vector<RRGraph>* staging,
                             IndexIoError* error) {
    // num_graphs is bounded only by the file's own theta, so grow the
    // staging area as records actually parse instead of resizing up
    // front -- a fabricated count then costs only the bytes present in
    // the stream before the first corrupt record is rejected.
    staging->clear();
    for (uint64_t g = 0; g < num_graphs; ++g) {
      RRGraph& rr = staging->emplace_back();
      uint32_t root = 0;
      if (!reader->ReadU32(&root) || root >= max_vertices) {
        SetError(error, IndexIoCode::kCorruptPayload, "corrupt RR-Graph root");
        return false;
      }
      rr.root = root;
      if (!reader->ReadVector(&rr.vertices, max_vertices) ||
          !reader->ReadVector(&rr.offsets, max_vertices + 1)) {
        SetError(error, IndexIoCode::kCorruptPayload, "corrupt RR-Graph vertex data");
        return false;
      }
      uint64_t num_local_edges = 0;
      if (!reader->ReadU64(&num_local_edges) || num_local_edges > max_edges) {
        SetError(error, IndexIoCode::kCorruptPayload, "corrupt RR-Graph edge count");
        return false;
      }
      rr.edges.resize(num_local_edges);
      for (RRLocalEdge& edge : rr.edges) {
        if (!reader->ReadU32(&edge.head_local) ||
            !reader->ReadU32(&edge.edge) ||
            !reader->ReadF32(&edge.threshold) ||
            edge.head_local >= rr.vertices.size() || edge.edge >= max_edges) {
          SetError(error, IndexIoCode::kCorruptPayload, "corrupt RR-Graph edge data");
          return false;
        }
      }
      if (rr.offsets.size() != rr.vertices.size() + 1 ||
          (rr.offsets.empty() ? 0 : rr.offsets.back()) != rr.edges.size()) {
        SetError(error, IndexIoCode::kCorruptPayload, "inconsistent RR-Graph CSR layout");
        return false;
      }
      // Same structural guarantees the v2 loader enforces — the pooled
      // consumers (BuildContaining, LocalIndex, IsReachable) rely on
      // in-range sorted vertices, a member root and monotone offsets.
      for (size_t j = 0; j < rr.vertices.size(); ++j) {
        if (rr.vertices[j] >= max_vertices ||
            (j > 0 && rr.vertices[j] <= rr.vertices[j - 1])) {
          SetError(error, IndexIoCode::kCorruptPayload, "corrupt RR-Graph vertex array");
          return false;
        }
      }
      if (!std::binary_search(rr.vertices.begin(), rr.vertices.end(),
                              rr.root)) {
        SetError(error, IndexIoCode::kCorruptPayload, "RR-Graph root not a member");
        return false;
      }
      for (size_t j = 0; j + 1 < rr.offsets.size(); ++j) {
        if (rr.offsets[j] > rr.offsets[j + 1]) {
          SetError(error, IndexIoCode::kCorruptPayload, "non-monotone RR-Graph CSR offsets");
          return false;
        }
      }
    }
    return true;
  }

  // v2 payload: the pooled arrays, validated wholesale (per-sketch CSR
  // consistency, sorted vertex arrays, in-range edge ids).
  static bool ReadRrPoolV2(BinaryReader* reader, uint64_t num_sketches,
                           uint64_t max_vertices, uint64_t max_edges,
                           RrSketchPool* pool, IndexIoError* error) {
    const uint64_t max_total_vertices =
        SaturatingMul(num_sketches, max_vertices);
    if (!reader->ReadVector(&pool->roots_, num_sketches) ||
        pool->roots_.size() != num_sketches ||
        !reader->ReadVector(&pool->vertex_starts_, num_sketches + 1) ||
        pool->vertex_starts_.size() != num_sketches + 1 ||
        !reader->ReadVector(&pool->vertices_, max_total_vertices) ||
        !reader->ReadVector(&pool->offsets_,
                            SaturatingMul(num_sketches, max_vertices + 1)) ||
        !reader->ReadVector(&pool->edge_starts_, num_sketches + 1) ||
        pool->edge_starts_.size() != num_sketches + 1) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt pooled sketch arrays");
      return false;
    }
    uint64_t num_edges = 0;
    if (!reader->ReadU64(&num_edges) ||
        num_edges > SaturatingMul(num_sketches, max_edges)) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt pooled edge count");
      return false;
    }
    // The num_edges guard saturates (num_sketches * max_edges can hit
    // UINT64_MAX), so never allocate it up front: append edges as they
    // parse and let a truncated or fabricated stream fail on its first
    // missing field.
    pool->edges_.clear();
    for (uint64_t j = 0; j < num_edges; ++j) {
      RRLocalEdge edge;
      if (!reader->ReadU32(&edge.head_local) || !reader->ReadU32(&edge.edge) ||
          !reader->ReadF32(&edge.threshold) || edge.edge >= max_edges) {
        SetError(error, IndexIoCode::kCorruptPayload, "corrupt pooled edge data");
        return false;
      }
      pool->edges_.push_back(edge);
    }

    // Structural validation of the CSR-of-CSRs.
    if (pool->vertex_starts_.front() != 0 ||
        pool->vertex_starts_.back() != pool->vertices_.size() ||
        pool->edge_starts_.front() != 0 ||
        pool->edge_starts_.back() != pool->edges_.size() ||
        pool->offsets_.size() != pool->vertices_.size() + num_sketches) {
      SetError(error, IndexIoCode::kCorruptPayload, "inconsistent pooled sketch layout");
      return false;
    }
    for (uint64_t i = 0; i < num_sketches; ++i) {
      const uint64_t vb = pool->vertex_starts_[i];
      const uint64_t ve = pool->vertex_starts_[i + 1];
      const uint64_t eb = pool->edge_starts_[i];
      const uint64_t ee = pool->edge_starts_[i + 1];
      if (ve < vb || ve > pool->vertices_.size() || ee < eb ||
          ee > pool->edges_.size()) {
        SetError(error, IndexIoCode::kCorruptPayload, "inconsistent pooled sketch bounds");
        return false;
      }
      const uint64_t n = ve - vb;
      const uint64_t m = ee - eb;
      if (n == 0 || n > max_vertices) {
        SetError(error, IndexIoCode::kCorruptPayload, "corrupt sketch vertex count");
        return false;
      }
      // Vertices sorted strictly ascending and in range (LocalIndex
      // binary-searches them); root must be a member.
      for (uint64_t j = vb; j < ve; ++j) {
        if (pool->vertices_[j] >= max_vertices ||
            (j > vb && pool->vertices_[j] <= pool->vertices_[j - 1])) {
          SetError(error, IndexIoCode::kCorruptPayload, "corrupt sketch vertex array");
          return false;
        }
      }
      if (!std::binary_search(pool->vertices_.begin() + vb,
                              pool->vertices_.begin() + ve,
                              pool->roots_[i])) {
        SetError(error, IndexIoCode::kCorruptPayload, "sketch root not a sketch member");
        return false;
      }
      // Local CSR: starts at 0, non-decreasing, ends at the edge count;
      // edge heads stay inside the sketch.
      const uint64_t ob = vb + i;
      if (pool->offsets_[ob] != 0 || pool->offsets_[ob + n] != m) {
        SetError(error, IndexIoCode::kCorruptPayload, "inconsistent sketch CSR offsets");
        return false;
      }
      for (uint64_t j = 0; j < n; ++j) {
        if (pool->offsets_[ob + j] > pool->offsets_[ob + j + 1]) {
          SetError(error, IndexIoCode::kCorruptPayload, "non-monotone sketch CSR offsets");
          return false;
        }
      }
      for (uint64_t j = eb; j < ee; ++j) {
        if (pool->edges_[j].head_local >= n) {
          SetError(error, IndexIoCode::kCorruptPayload, "sketch edge head out of range");
          return false;
        }
      }
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
    uint32_t version = 0;
    if (!ReadHeader(&reader, kKindRrGraphs, NetworkFingerprint(network),
                    &options, &version, error)) {
      return nullptr;
    }
    uint64_t theta = 0, num_graphs = 0;
    if (!reader.ReadU64(&theta) || !reader.ReadU64(&num_graphs) ||
        num_graphs > theta) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt index payload header");
      return nullptr;
    }
    options.theta_override = theta;
    auto index = std::unique_ptr<RrIndex>(new RrIndex(network, options));
    const uint64_t max_vertices = network.num_vertices();
    const uint64_t max_edges = network.num_edges();

    std::vector<RRGraph> staging;  // v1 only
    RrSketchPool pool;
    if (version == kVersionV1) {
      if (!ReadRrGraphsV1(&reader, num_graphs, max_vertices, max_edges,
                          &staging, error)) {
        return nullptr;
      }
    } else {
      if (!ReadRrPoolV2(&reader, num_graphs, max_vertices, max_edges, &pool,
                        error)) {
        return nullptr;
      }
    }
    if (!reader.ReadF64(&index->build_seconds_)) {
      SetError(error, IndexIoCode::kTruncated, "truncated index trailer");
      return nullptr;
    }
    if (!reader.VerifyChecksum()) {
      SetError(error,
               IndexIoCode::kChecksumMismatch,
               "checksum mismatch: file truncated or corrupted");
      return nullptr;
    }
    if (version == kVersionV1) {
      pool = RrSketchPool::Pack(staging, network.num_vertices());
    } else {
      // The containing index is a permutation of the vertex array:
      // cheaper to recompute than to store.
      pool.BuildContaining(network.num_vertices());
    }
    index->pool_ = std::make_shared<const RrSketchPool>(std::move(pool));
    index->built_ = true;
    return index;
  }

  static bool WriteDelay(const DelayMatIndex& index, std::ostream& out,
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
    BinaryWriter writer(&out);
    WriteHeader(&writer, kKindDelayMat,
                NetworkFingerprint(index.network_), index.options_);
    writer.WriteU64(index.theta_);
    writer.WriteVector<uint32_t>(index.counts_);
    writer.WriteF64(index.build_seconds_);
    writer.WriteChecksum();
    if (!writer.ok()) {
      SetError(error, IndexIoCode::kWriteFailed,
               "I/O failure while writing index");
      return false;
    }
    return true;
  }

  static std::unique_ptr<DelayMatIndex> ReadDelay(
      const SocialNetwork& network, std::istream& in, IndexIoError* error) {
    if (PITEX_FAILPOINT("index_io/load")) {
      SetError(error, IndexIoCode::kFaultInjected,
               "fault injected: index_io/load");
      return nullptr;
    }
    BinaryReader reader(&in);
    auto index = ReadDelayBody(network, &reader, error);
    if (index == nullptr) UpgradeTornWrite(reader, error);
    return index;
  }

  static std::unique_ptr<DelayMatIndex> ReadDelayBody(
      const SocialNetwork& network, BinaryReader* reader_ptr,
      IndexIoError* error) {
    BinaryReader& reader = *reader_ptr;
    RrIndexOptions options;
    uint32_t version = 0;  // DelayMat payload is identical in v1 and v2
    if (!ReadHeader(&reader, kKindDelayMat, NetworkFingerprint(network),
                    &options, &version, error)) {
      return nullptr;
    }
    uint64_t theta = 0;
    if (!reader.ReadU64(&theta)) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt index payload header");
      return nullptr;
    }
    options.theta_override = theta;
    auto index =
        std::unique_ptr<DelayMatIndex>(new DelayMatIndex(network, options));
    if (!reader.ReadVector(&index->counts_, network.num_vertices()) ||
        index->counts_.size() != network.num_vertices()) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt counter payload");
      return nullptr;
    }
    for (uint32_t count : index->counts_) {
      if (count > theta) {
        SetError(error, IndexIoCode::kCorruptPayload, "counter exceeds theta: corrupt payload");
        return nullptr;
      }
    }
    if (!reader.ReadF64(&index->build_seconds_)) {
      SetError(error, IndexIoCode::kTruncated, "truncated index trailer");
      return nullptr;
    }
    if (!reader.VerifyChecksum()) {
      SetError(error,
               IndexIoCode::kChecksumMismatch,
               "checksum mismatch: file truncated or corrupted");
      return nullptr;
    }
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

// The std::string overloads keep their historical contract (message
// only) by delegating to the typed implementations and copying the
// message out.
void CopyMessage(const IndexIoError& typed, std::string* error) {
  if (error != nullptr) *error = typed.message;
}

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

// --- typed overloads (primary implementations) ---

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

bool SaveDelayMatIndex(const DelayMatIndex& index, std::ostream& out,
                       IndexIoError* error) {
  return IndexIo::WriteDelay(index, out, error);
}

bool SaveDelayMatIndex(const DelayMatIndex& index, const std::string& path,
                       IndexIoError* error) {
  return SaveAtomically(path, error, [&](std::ostream& out) {
    return IndexIo::WriteDelay(index, out, error);
  });
}

std::unique_ptr<DelayMatIndex> LoadDelayMatIndex(const SocialNetwork& network,
                                                 std::istream& in,
                                                 IndexIoError* error) {
  return IndexIo::ReadDelay(network, in, error);
}

std::unique_ptr<DelayMatIndex> LoadDelayMatIndex(const SocialNetwork& network,
                                                 const std::string& path,
                                                 IndexIoError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, IndexIoCode::kOpenFailed, "cannot open file for reading");
    return nullptr;
  }
  return IndexIo::ReadDelay(network, in, error);
}

// --- string-message compatibility overloads ---

bool SaveRrIndex(const RrIndex& index, std::ostream& out, std::string* error) {
  IndexIoError typed;
  const bool ok = SaveRrIndex(index, out, &typed);
  if (!ok) CopyMessage(typed, error);
  return ok;
}

bool SaveRrIndex(const RrIndex& index, const std::string& path,
                 std::string* error) {
  IndexIoError typed;
  const bool ok = SaveRrIndex(index, path, &typed);
  if (!ok) CopyMessage(typed, error);
  return ok;
}

std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     std::istream& in, std::string* error) {
  IndexIoError typed;
  auto index = LoadRrIndex(network, in, &typed);
  if (index == nullptr) CopyMessage(typed, error);
  return index;
}

std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     const std::string& path,
                                     std::string* error) {
  IndexIoError typed;
  auto index = LoadRrIndex(network, path, &typed);
  if (index == nullptr) CopyMessage(typed, error);
  return index;
}

bool SaveDelayMatIndex(const DelayMatIndex& index, std::ostream& out,
                       std::string* error) {
  IndexIoError typed;
  const bool ok = SaveDelayMatIndex(index, out, &typed);
  if (!ok) CopyMessage(typed, error);
  return ok;
}

bool SaveDelayMatIndex(const DelayMatIndex& index, const std::string& path,
                       std::string* error) {
  IndexIoError typed;
  const bool ok = SaveDelayMatIndex(index, path, &typed);
  if (!ok) CopyMessage(typed, error);
  return ok;
}

std::unique_ptr<DelayMatIndex> LoadDelayMatIndex(const SocialNetwork& network,
                                                 std::istream& in,
                                                 std::string* error) {
  IndexIoError typed;
  auto index = LoadDelayMatIndex(network, in, &typed);
  if (index == nullptr) CopyMessage(typed, error);
  return index;
}

std::unique_ptr<DelayMatIndex> LoadDelayMatIndex(const SocialNetwork& network,
                                                 const std::string& path,
                                                 std::string* error) {
  IndexIoError typed;
  auto index = LoadDelayMatIndex(network, path, &typed);
  if (index == nullptr) CopyMessage(typed, error);
  return index;
}

}  // namespace pitex
