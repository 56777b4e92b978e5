// Persistence for the RR-Graph index (Sec. 6) that IndexEst and
// IndexEst+ serve. DelayMat's counters have no file: every process
// builds them.
//
// The paper's Table 3 charges index construction as a one-time offline
// cost; a production deployment amortizes it by building once and
// serving every process restart from disk. This module provides that:
//
//   SaveRrIndex(index, "dblp.rridx");
//   IndexIoError error;
//   auto loaded = LoadRrIndex(network, "dblp.rridx", &error);
//
// File format (binary little-endian, src/util/serialize.h):
//
//   magic "PITEXIDX" | version u32 | kind u8 | network fingerprint u64
//   options (eps f64, delta f64, cap_k u64, seed u64) | payload | fnv64
//
// Version 17 is the only version read or written; a v1 to v16 header is
// refused with kBadVersion. Its RR-Graph payload is the RrSketchPool
// image (src/index/rr_sketch_pool.h), its sketches in root order (by
// root, and among one root's by sample):
//
//   theta u64 | count width u8 (bits, 0 to 32) | root counts (u64
//   count = ceil(|V| * count width / 8), bytes) | group masks (u64
//   count = ceil(theta / 64), u64 each) | directory width u8 (bits, 0
//   to 32) | block words (u64 count = ceil(blocks * width / 8), bytes) |
//   body (u64 count, bytes) | build_seconds f64
//
// The root counts and the block words are packed arrays (PackedWords,
// src/util/bits.h): word i is bits [i w, (i + 1) w) at the array's width
// w, LSB-first, and the bits after the last word, to its byte's end,
// are zero. The root counts hold each vertex's count of rooted
// sketches, at the bits the largest takes: they set the root ranges,
// and a sketch's root is the vertex whose range holds it. Counts that
// do not sum to theta are kCorruptPayload. The directory is the pool's
// own: a mask per 64 sketches, bit j set when sketch 64g + j is a
// block, and a word per block, the start of its block less its group's
// base, in two's complement at the bits the words take. The bases are
// not saved: the loader derives each as the offset where the next first
// copy must start when its walk reaches the group's first sketch. A
// mask bit set past theta, or masks whose set bits are not the block
// words' count, are kCorruptPayload, and so is either array at a width
// above 32 or wider than its largest word takes, of any length but
// ceil(count * width / 8) bytes, or with a bit set after its last
// word. A singleton, whose one vertex is its root, takes its clear mask
// bit and nothing else. Shared shapes: a block byte-equal to an earlier block of its
// root range is a *repeat*; it stores no bytes, and its word names the
// start of the range's first block of those bytes, its *first copy*.
// Every other block is a first copy, stored where the one before it
// ended. So a word either starts a new block at that running offset, or
// equals the start of an earlier first copy of the same root range; a
// word that points into another range, into a block's middle, forward,
// or a new block equal to an earlier first copy of its range, is
// kCorruptPayload. The body is stored as the pool holds it, each first
// copy once: each block a varint header (n and the in-tree flag, and m
// for a block that is not an in-tree) and then bit-granular fields to
// the next byte. An in-tree's block is a parent tree: its root is local
// 0 and its vertices come in the sampler's order, every parent before
// its children, and each vertex but the root holds its parent's local
// id at bit_width(n - 2) bits and the rank of its edge in the parent's
// in-list at bit_width(d - 1) bits, d the parent's in-degree: the
// network names the vertex and the edge. Any other block holds its
// vertices but its root at bit_width(|V| - 1) bits, its root id (where
// its range's root goes among them) and heads at bit_width(n - 1), its
// CSR offsets at bit_width(m), and its records, each the edge's rank in
// its tail's out-list at bit_width(D - 1) bits, D the network's largest
// out-degree. |V|, D and the in-degrees are the network's the file is
// loaded against, so the file names no pool-wide width. Seven
// zero bytes of padding end a body with blocks. No threshold is
// stored: a record's threshold is a function of the header's seed, the
// sketch's id and the network's model (SketchThresholds in
// src/index/rr_graph.h), which the fingerprint pins.
//
// An index with repairs saves as its compaction (RrSketchOverlay::Fold,
// a copy of the base's blocks and of each repaired sketch's current
// block). The containing index is not stored: the loader rebuilds it.
// A loaded image must be canonical, exactly what appending its own
// views to a run and finishing it writes (RrSketchPool::FinishLoaded
// checks it: each word is its block's start less its base, each repeat
// shared with its range's first copy, each packed array at the bits its
// largest word takes; a parent tree's parents each come before their children,
// its ranks lie below their parents' in-degrees, no vertex comes twice
// and its order is the sampler's; any other block's vertices, its root
// among them, strictly ascend, its shape is not an in-tree's, and each
// rank lies below its tail's out-degree and names an out-edge that ends
// at the record's head), so a file that loads saves back to the same
// bytes. A change to the pool's layout is a new
// version. The directory's masks are stored in the host's byte order, so
// a file reads back right only on a host of the writer's byte order; the
// packed arrays' and the body's bits are little-endian.
//
// The fingerprint binds an index file to the network it was sampled
// from: loading against a different graph (changed topology, edge count,
// or influence entries) is rejected, because RR-Graphs reference edges
// by their ranks in the graph's in- and out-lists and are meaningless — and
// silently wrong — on any other graph.
// It only catches an accidental mismatch: it is an unkeyed hash, not a
// MAC, and a file crafted to match a network's fingerprint loads. A
// trailing FNV-1a checksum rejects truncated or corrupted files.
//
// IndexEst+ needs no file of its own: PrunedRrIndex derives its edge-cut
// filters lazily from a (possibly loaded) RrIndex.

#ifndef PITEX_SRC_INDEX_INDEX_IO_H_
#define PITEX_SRC_INDEX_INDEX_IO_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "src/index/rr_index.h"

namespace pitex {

/// Deterministic fingerprint of the network's topology and influence
/// model; indexes are only loadable against the network they were built
/// from. Tag names are excluded (renaming a tag does not invalidate
/// sampled RR-Graphs).
uint64_t NetworkFingerprint(const SocialNetwork& network);

/// Failure taxonomy for index persistence. A free-form string tells a
/// human what went wrong; the code tells a *program* what to do about it
/// — retry (transient), rebuild (corrupt file), or fix the call site
/// (wrong network / unbuilt index). Every failure path sets exactly one
/// code; kNone means success.
enum class IndexIoCode : uint8_t {
  kNone = 0,
  /// The file could not be opened (missing path, permissions). Retryable
  /// in the sense that the environment, not the bytes, is at fault.
  kOpenFailed,
  /// Save called on an index whose Build() never ran — caller bug.
  kNotBuilt,
  /// The output stream failed mid-write (disk full, closed pipe).
  kWriteFailed,
  /// The magic string is absent: not a PITEX index file at all.
  kBadMagic,
  /// A PITEX file, but a format version this build cannot read.
  kBadVersion,
  /// A PITEX file of a kind this build does not read; kind 2 was
  /// DelayMat's counters.
  kWrongKind,
  /// Built from a different network than the one supplied to Load.
  kFingerprintMismatch,
  /// Header options are implausible (non-finite eps/delta, absurd
  /// cap_k): the header itself is corrupt even if well-framed.
  kBadOptions,
  /// Structurally invalid payload (out-of-range ids, broken CSR).
  kCorruptPayload,
  /// The stream ended before the payload did.
  kTruncated,
  /// Framing parsed but the trailing FNV-1a digest does not match.
  kChecksumMismatch,
  /// The file is a valid prefix cut short at EOF: an interrupted writer
  /// (crash mid-save) left a torn file. Distinct from kTruncated /
  /// kChecksumMismatch so operators know to fall back to an older file
  /// rather than suspect bit rot. Save paths in this module are
  /// crash-atomic (temp file + fsync + rename), so a torn file at a
  /// final path means some *other* writer skipped the protocol.
  kTornWrite,
  /// A fail point ("index_io/load" / "index_io/save") fired — chaos
  /// testing only; treat as transient and retryable.
  kFaultInjected,
};

/// Stable identifier string for logs/metrics (e.g. "checksum-mismatch").
const char* IndexIoCodeName(IndexIoCode code);

/// Error report for the Save*/Load* functions below.
struct IndexIoError {
  IndexIoCode code = IndexIoCode::kNone;
  std::string message;

  bool ok() const { return code == IndexIoCode::kNone; }
  /// True for failures where retrying the same call can succeed
  /// (environmental or injected); false when the bytes themselves are
  /// wrong and every retry must fail identically.
  bool retryable() const {
    return code == IndexIoCode::kOpenFailed ||
           code == IndexIoCode::kWriteFailed ||
           code == IndexIoCode::kFaultInjected;
  }
};

/// Writes a built RR-Graph index. Returns false (and sets `*error` when
/// non-null) on I/O failure or when the index is not built. There is one
/// overload per destination, each reporting a typed IndexIoError; a
/// caller that wants only the text reads `.message`. The path overloads
/// are crash-atomic: the payload goes to `path + ".tmp"`, is fsynced, and
/// is renamed over `path` (src/util/file_sync.h) -- a crash mid-save
/// leaves the old file intact and never a torn file at the final path.
bool SaveRrIndex(const RrIndex& index, const std::string& path,
                 IndexIoError* error = nullptr);
bool SaveRrIndex(const RrIndex& index, std::ostream& out,
                 IndexIoError* error = nullptr);

/// Loads an RR-Graph index previously written by SaveRrIndex. `network`
/// must be the network the index was built from (checked via
/// fingerprint). The file, or the rest of the stream, must end at the
/// index's checksum: trailing bytes are kCorruptPayload. Returns nullptr
/// and sets `*error` on failure.
std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     const std::string& path,
                                     IndexIoError* error = nullptr);
std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     std::istream& in,
                                     IndexIoError* error = nullptr);

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_INDEX_IO_H_
