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
// v2 is a wire format, independent of the in-memory pool: the RR-Graph
// payload is theta sketches as a CSR of per-sketch CSRs with u64
// directories and every sketch written out in full. It is written by
// streaming the index's sketch views and packed into an RrSketchPool on
// load. (v1, one record per graph, is no longer read.)
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
// persisted. Returns false with `*error` set on any mismatch.
bool ReadHeader(BinaryReader* reader, uint8_t expected_kind,
                uint64_t expected_fingerprint, RrIndexOptions* options,
                IndexIoError* error) {
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

// The v2 RR-Graph payload as it travels: a CSR of per-sketch CSRs with
// u64 directories, every sketch written out in full. Sketch i's offsets
// start at vertex_starts[i] + i (each earlier sketch has n_j + 1).
struct WireSketches {
  std::vector<VertexId> roots;          // num_sketches
  std::vector<uint32_t> root_locals;    // filled by validation
  std::vector<uint64_t> vertex_starts;  // num_sketches + 1
  std::vector<VertexId> vertices;
  std::vector<uint32_t> offsets;        // vertices + num_sketches
  std::vector<uint64_t> edge_starts;    // num_sketches + 1
  std::vector<uint32_t> heads;          // one per edge
  std::vector<RRLocalEdge> edges;

  RRView View(size_t i) const {
    const uint64_t vb = vertex_starts[i];
    const uint64_t n = vertex_starts[i + 1] - vb;
    const uint64_t eb = edge_starts[i];
    const uint64_t m = edge_starts[i + 1] - eb;
    return RRView{root_locals[i],
                  4,
                  {vertices.data() + vb, n},
                  reinterpret_cast<const std::byte*>(offsets.data() + vb + i),
                  reinterpret_cast<const std::byte*>(heads.data() + eb),
                  {edges.data() + eb, m}};
  }
};

// Reads the v2 RR-Graph payload and validates it wholesale (per-sketch
// CSR consistency, sorted vertex arrays, in-range edge ids, totals that
// fit the pool's 32-bit arrays).
bool ReadWireSketches(BinaryReader* reader, uint64_t num_sketches,
                      uint64_t max_vertices, uint64_t max_edges,
                      WireSketches* wire, IndexIoError* error) {
  const uint64_t max_total_vertices =
      SaturatingMul(num_sketches, max_vertices);
  if (!reader->ReadVector(&wire->roots, num_sketches) ||
      wire->roots.size() != num_sketches ||
      !reader->ReadVector(&wire->vertex_starts, num_sketches + 1) ||
      wire->vertex_starts.size() != num_sketches + 1 ||
      !reader->ReadVector(&wire->vertices, max_total_vertices) ||
      !reader->ReadVector(&wire->offsets,
                          SaturatingMul(num_sketches, max_vertices + 1)) ||
      !reader->ReadVector(&wire->edge_starts, num_sketches + 1) ||
      wire->edge_starts.size() != num_sketches + 1) {
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
  wire->heads.clear();
  wire->edges.clear();
  for (uint64_t j = 0; j < num_edges; ++j) {
    uint32_t head = 0;
    RRLocalEdge edge;
    if (!reader->ReadU32(&head) || !reader->ReadU32(&edge.edge) ||
        !reader->ReadF32(&edge.threshold) || edge.edge >= max_edges) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt pooled edge data");
      return false;
    }
    wire->heads.push_back(head);
    wire->edges.push_back(edge);
  }

  // Structural validation of the CSR-of-CSRs.
  wire->root_locals.clear();
  wire->root_locals.reserve(num_sketches);
  if (wire->vertex_starts.front() != 0 ||
      wire->vertex_starts.back() != wire->vertices.size() ||
      wire->edge_starts.front() != 0 ||
      wire->edge_starts.back() != wire->edges.size() ||
      wire->offsets.size() != wire->vertices.size() + num_sketches) {
    SetError(error, IndexIoCode::kCorruptPayload, "inconsistent pooled sketch layout");
    return false;
  }
  for (uint64_t i = 0; i < num_sketches; ++i) {
    const uint64_t vb = wire->vertex_starts[i];
    const uint64_t ve = wire->vertex_starts[i + 1];
    const uint64_t eb = wire->edge_starts[i];
    const uint64_t ee = wire->edge_starts[i + 1];
    if (ve < vb || ve > wire->vertices.size() || ee < eb ||
        ee > wire->edges.size()) {
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
    // binary-searches them); the root must be a member, and its place
    // among them is its local id.
    for (uint64_t j = vb; j < ve; ++j) {
      if (wire->vertices[j] >= max_vertices ||
          (j > vb && wire->vertices[j] <= wire->vertices[j - 1])) {
        SetError(error, IndexIoCode::kCorruptPayload, "corrupt sketch vertex array");
        return false;
      }
    }
    const auto first = wire->vertices.begin() + vb;
    const auto last = wire->vertices.begin() + ve;
    const auto root_at = std::lower_bound(first, last, wire->roots[i]);
    if (root_at == last || *root_at != wire->roots[i]) {
      SetError(error, IndexIoCode::kCorruptPayload, "sketch root not a sketch member");
      return false;
    }
    wire->root_locals.push_back(static_cast<uint32_t>(root_at - first));
    // Local CSR: starts at 0, non-decreasing, ends at the edge count;
    // edge heads stay inside the sketch.
    const uint64_t ob = vb + i;
    if (wire->offsets[ob] != 0 || wire->offsets[ob + n] != m) {
      SetError(error, IndexIoCode::kCorruptPayload, "inconsistent sketch CSR offsets");
      return false;
    }
    for (uint64_t j = 0; j < n; ++j) {
      if (wire->offsets[ob + j] > wire->offsets[ob + j + 1]) {
        SetError(error, IndexIoCode::kCorruptPayload, "non-monotone sketch CSR offsets");
        return false;
      }
    }
    for (uint64_t j = eb; j < ee; ++j) {
      if (wire->heads[j] >= n) {
        SetError(error, IndexIoCode::kCorruptPayload, "sketch edge head out of range");
        return false;
      }
    }
  }
  if (!RrSketchPool::Fits(num_sketches, [wire](size_t i) {
        return wire->View(i);
      })) {
    SetError(error, IndexIoCode::kCorruptPayload,
             "sketch totals or vertex ids exceed the pool's arrays");
    return false;
  }
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
    // The v2 payload is streamed from the index's sketch views (overlay
    // repairs included), one wire array at a time; each array carries
    // the u64 length prefix WriteVector would give it. The containing
    // index is not written: the loader rebuilds it.
    BinaryWriter writer(&out);
    const uint64_t s = index.num_graphs();
    const auto for_each_sketch = [&index, s](auto&& fn) {
      for (size_t i = 0; i < s; ++i) fn(index.graph(i));
    };
    const auto write_starts = [&](auto&& count_of) {
      uint64_t start = 0;
      writer.WriteU64(s + 1);
      writer.WriteU64(start);
      for_each_sketch(
          [&](const RRView& rr) { writer.WriteU64(start += count_of(rr)); });
      return start;
    };
    WriteHeader(&writer, kKindRrGraphs,
                NetworkFingerprint(index.network_), index.options_);
    writer.WriteU64(index.theta_);
    writer.WriteU64(s);
    writer.WriteU64(s);
    for_each_sketch([&](const RRView& rr) { writer.WriteU32(rr.root()); });
    const uint64_t num_vertices =
        write_starts([](const RRView& rr) { return rr.vertices.size(); });
    writer.WriteU64(num_vertices);
    for_each_sketch([&](const RRView& rr) {
      for (const VertexId v : rr.vertices) writer.WriteU32(v);
    });
    // Offsets and heads go out at 4 bytes whatever the pool's width.
    writer.WriteU64(num_vertices + s);
    for_each_sketch([&](const RRView& rr) {
      rr.VisitCsr([&](const auto& csr) {
        for (size_t j = 0; j <= rr.vertices.size(); ++j) {
          writer.WriteU32(csr.offset(j));
        }
      });
    });
    writer.WriteU64(
        write_starts([](const RRView& rr) { return rr.edges.size(); }));
    for_each_sketch([&](const RRView& rr) {
      rr.VisitCsr([&](const auto& csr) {
        for (size_t k = 0; k < rr.edges.size(); ++k) {
          writer.WriteU32(csr.head(k));
          writer.WriteU32(rr.edges[k].edge);
          writer.WriteF32(rr.edges[k].threshold);
        }
      });
    });
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
    if (!ReadHeader(&reader, kKindRrGraphs, NetworkFingerprint(network),
                    &options, error)) {
      return nullptr;
    }
    uint64_t theta = 0, num_graphs = 0;
    // theta == 0 would make RrIndex derive its own theta: no writer
    // produces it, and the loaded index could not save the file back.
    if (!reader.ReadU64(&theta) || !reader.ReadU64(&num_graphs) ||
        theta == 0 || num_graphs > theta) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt index payload header");
      return nullptr;
    }
    options.theta_override = theta;
    auto index = std::unique_ptr<RrIndex>(new RrIndex(network, options));
    WireSketches wire;
    if (!ReadWireSketches(&reader, num_graphs, network.num_vertices(),
                          network.num_edges(), &wire, error)) {
      return nullptr;
    }
    if (!reader.ReadF64(&index->build_seconds_)) {
      SetError(error, IndexIoCode::kTruncated, "truncated index trailer");
      return nullptr;
    }
    if (!VerifyTrailer(&reader, error)) return nullptr;
    // The containing index is a permutation of the vertex array: Pack
    // recomputes it rather than the file storing it.
    index->pool_ = std::make_shared<const RrSketchPool>(RrSketchPool::Pack(
        num_graphs, network.num_vertices(),
        [&wire](size_t i) { return wire.View(i); }));
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
    if (!ReadHeader(&reader, kKindDelayMat, NetworkFingerprint(network),
                    &options, error)) {
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
    if (!VerifyTrailer(&reader, error)) return nullptr;
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
