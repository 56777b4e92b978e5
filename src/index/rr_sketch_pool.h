// Pooled storage for the offline RR-Graph index (Sec. 6.1): all theta
// sketches flattened into a few contiguous arrays (a CSR of per-sketch
// CSRs), numbered in root order, plus an inverted "containing" index
// whose per-vertex lists name each root once, as a Rice-coded gap, with
// a mask over its root range.
//
// The IndexEst estimate path walks theta(u) tiny sketches per query; with
// one heap object per sketch (three vectors each) those walks chase
// pointers all over the heap and the allocator dominates build time. The
// pool keeps each sketch in one contiguous block, hands out non-owning
// RRViews, and answers which sketches contain u from a root range and
// one exact-size bit array — no per-sketch or per-vertex heap objects at
// all, and SizeBytes() is O(1).
//
// Root order. A finished pool numbers its sketches by root, and among
// sketches with the same root by sample index, so the sketches rooted at
// u are the ids [RootStart(u), RootStart(u + 1)) (RootRange). IndexEst
// counts the sketches containing u in which u reaches the root, so a
// sketch rooted at u is always a hit: the root range answers those with
// two reads, and u's containing list holds only the others. A sketch's
// root is the vertex whose range holds its id, and is stored nowhere
// else: every reader passes it to the view (RootedView), from the root
// range it walks or the containing list's entry.
//
// Layout for sketch i (n_i vertices, m_i edges), every total checked to
// fit:
//   groups_          the directory's first level: one 16-byte Group per
//                    64 sketches, aligned to 16 bytes so that none
//                    straddles a cache line: a u32 base, the byte offset
//                    in body_ where the next first copy (below) starts
//                    when sketch 64g is appended; a u32 rank, the blocks
//                    before sketch 64g; and a u64 mask whose bit j is set
//                    when sketch 64g + j has a block
//   block_words_     its second level: one signed word per block, its
//                    start less its group's base in two's complement
//                    (a repeat's start may lie before the base). Sketch
//                    i's word is word rank + popcount(mask & the bits
//                    below i's) of its group's. Every word takes the
//                    bits the widest takes in two's complement, and is
//                    read sign-extended (PackedWords)
//   body_[start ..]  a header, the LEB128 varint (PutVarint) of
//                    n_i << 1 | in-tree (one byte while n_i <= 63), then
//                    bit-granular fields, LSB-first from the next byte
//                    (src/util/bits.h), in one of two forms (below), then
//                    zero bits to the next byte
//   body_[end ..]    kBitPadding zero bytes after the last block, so
//                    every field is one shifted 8-byte load (LoadBits)
// A block holds no length: blocks tile the body, so a first copy ends
// where the next first copy starts (BlockEnds), and its reader decodes
// it from its header.
//
// Parent trees. An *in-tree*, whose CSR gives the root no out-edge and
// every other vertex exactly one, to its *parent* (IsInTree), is stored
// as a *parent tree* (the in-tree flag set; m_i = n_i - 1): its root is
// local 0, and its vertices are in the order the sampler meets them
// (SketchArena::Generate): over a stack that starts with the root, the
// vertex popped gives its children, in ascending in-rank, the next
// local ids and pushes them in that order. So every parent comes before its
// children, and a shape has one order. For j = 1 .. n_i - 1 the block
// holds vertex j's parent's local id at bit_width(n_i - 2) bits, then
// the rank of its edge in the parent's in-list (Graph::InEdges) at
// bit_width(d - 1) bits, d the parent's in-degree: InEdges(parent)[rank]
// names both the vertex and the edge. The widths come from the
// topology, so no width is stored, and a reader decodes the tree
// top-down from the root (DecodeTree). A walk from u reads its group's
// record, its word, the block up to u's fields and, per vertex decoded,
// its parent's in-list offsets and entry; the chase from u to the root
// then reads nothing more. On pitexbench's network all but
// 5 of the 85,966 blocks are parent trees, and 17,016 of its 25,000
// vertices have at most one in-edge, so a rank of 0 bits under them.
// A pool without a topology (layout checks at any width) stores no
// parent tree: its in-trees keep the general form.
//
// The general form, every other block: the varint of m_i after the
// header, then the n_i - 1 sorted vertex ids other than the root's at V
// bits each, the root's local id (where the root goes among them) at
// L_i = bit_width(n_i - 1) bits, the n_i + 1 local CSR offsets (0 ..
// m_i) at bit_width(m_i) bits, the m_i local edge heads at L_i bits, and
// the m_i records, each the edge's rank in its tail's out-list at R
// bits. V = bit_width(|V| - 1) and R = bit_width(D - 1), D the network's
// largest out-degree, are the pool's, set from the network it samples
// when it is constructed or loaded, with no option: on pitexbench's
// network (25,000 vertices, at most 18 out-edges each) V = 15 and R = 5.
// A record's edge always leaves its own tail, the local vertex whose
// CSR range holds it, so its rank in that tail's out-list
// (Graph::OutEdges) names it (RRView::Edge). No record stores its
// threshold: it is computed where the record is probed, from the
// index's seed, the sketch's id and the edge's current envelope
// (SketchThresholds in src/index/rr_graph.h), so a pool holds sketch
// shapes only. On pitexbench's network (200,000 sketches, 85,966 of them
// blocks) the block starts less their bases run from -80 to 483 B, so
// the directory takes 3,125 records and 10-bit words: 157,465 B.
// Shared shapes. A finished pool stores each shape once per root range:
// a block byte-equal to an earlier block of its root range is a
// *repeat*, which stores nothing in body_, and its word names the start
// of the range's first block of those bytes, its *first copy*. Every
// other block is a first copy, stored where the first copy before it
// ended. The rule is canonical: a repeat must be shared, and with its
// range's first copy. Sharing within the range keeps the root: a block
// does not store its root's vertex, and every id of a range has one
// root. A record's threshold is keyed by its sketch's id, not stored, so
// ids that share a block still draw their own thresholds. On
// pitexbench's network 41,710 of the 85,966 blocks are repeats, and the
// body holds the 44,256 first copies: 182,439 B, against 596,679 B with
// in-trees in the general form less their offsets.
// Vertex ids and block offsets fit 31 bits, so the body holds at most
// 2 GiB, a block's fields take fewer than 2^32 bits, and its header fits
// 32 bits (kMaxBlockVertices).
// An *implicit singleton* — one vertex (necessarily the root) and no
// edges; 57% of the sketches on pitexbench's network — has no block and
// no word, only its clear mask bit. Its root, like a block's, is the
// vertex whose root range holds it, and its view is a one-vertex parent
// tree. A reader views sketch i as RootedView(i, root), or as View(i,
// u), u a vertex the sketch contains, which finds a block's root from a
// run's record or a search of a finished pool's root starts (RootOf):
// for the cold paths (repairs, the loader, the saver and tests). A
// singleton is in no containing list: the estimate counts it, with
// every other sketch of u's root range, a hit from the range's size
// alone, and every sketch a list names is a block. A run (below) records
// each sketch's root in append order; a finished pool holds none.
//
// Root ranges: RootStart(u), the first sketch rooted at u or after it,
// for u in [0, |V|], in root_starts_, a GroupWords (below) of sketch
// ids: on pitexbench's network its largest word is 573, so its words
// take 10 bits and the array 32,823 B.
//
// Containing lists, for vertex u:
//   bits [start(u), start(u + 1)) of containing_
// hold the sketches containing u that u does not root, by root: for
// each root r one of them has, ascending, an *entry*, the Rice code of
// r's gap, then a mask of RootRange(r).size() raw bits, bit j set when
// sketch RootStart(r) + j contains u (PutRootList). The first root's
// gap is r itself, and each later root's the root less the one before
// less 1 (the roots strictly ascend). A gap x at parameter k is x >> k
// one-bits, a zero, then the low k bits of x, LSB-first as in
// little-endian 64-bit words; the array ends in kBitPadding bytes of
// padding, so the decoder's 8-byte loads stay inside it. The decoder
// (ContainingList) reads the masks against the root starts and yields
// the ids ascending, each with its root, and a count is the masks' set
// bits. Since root order makes a root's sketches adjacent ids, a vertex
// in several of them names the root once: on pitexbench's network
// (theta = 200,000, |V| = 25,000) the lists' 254,185 ids, the 200,000
// root incidences left out, are 101,074 entries, and no root range
// holds more than 25 sketches, so one load nearly always reads an
// entry's code and mask. One k serves the whole pool, chosen from its
// own gaps with no option: the k at which their codes take the fewest
// bits, the smallest of a tie (RiceParameter), as the masks take the
// same bits at any k. There k = 10, and the lists take 2,081,217 bits,
// 260,160 B with padding: 8.2 bits per id, against 15.2 for the same
// ids coded as gaps between ids and 32 for a u32 list. With E entries
// over |V| lists, the mean-gap parameter k' = bit_width(floor(|V|^2 /
// E)) - 1 codes the gaps in fewer than E * (k' + 3) bits, which bounds
// the lists at that plus their masks. An overlay codes its replacement
// lists at its base pool's k against its root starts, so one decoder
// reads both.
// The starts are bit offsets, stored in two levels: start(u) is
// containing_starts_'s base for u's group of 64 vertices, start(64g),
// plus u's word, at the bits the largest word takes: on pitexbench's
// network the largest is 11,799, so 14 bits, and the array 45,323 B.
//
// The arrays are two-level, as FST stores its succinct arrays: sparse
// absolute samples, narrow relative entries read in place, and for the
// directory a rank over a bitmap, so that only blocks take a word. Both
// starts use GroupWords, a base per 64 entries and a word per entry;
// the directory its Group records and block_words_. All keep their
// words in a PackedWords (src/util/bits.h), as FST stores its relative
// entries at exactly the bits they need: every word of an array at the
// bit_width of its largest (0 to 32 bits; the directory's in two's
// complement), LSB-first, read in place with one LoadBits and a mask.
// Each pool chooses each array's width from its own data, with no
// option.
//
// Every pool is written one way: sketches are appended in this layout
// (AppendTree, which the generator calls for an in-tree, and
// AppendSketch, which Append, repairs and the generator's other
// sketches call; each field put in order through one BitWriter) to
// *runs*, pools without a containing index that record each sketch's
// root, already at their final ids, and FromRuns copies the runs' blocks
// in id order, one at a time, its length from the run's directory
// (BlockEnds), into a finished pool's exact-size arrays: it compares each block with the earlier first copies of its
// root range (FirstCopies, src/index/first_copies.h, a table sized to
// the range), and shares it with the one it equals, or else stores it as
// a first copy; it takes the root starts from its caller, and builds the
// containing index once, serially, from the blocks' vertices but their
// roots, decoded.
// It reads no root and sorts no sketch: the build's sampler draws every
// sample's root first (the first draw of its stream), counting-sorts the
// samples by root into their final ids, and generates each sketch at its
// id, into one run per worker slot; its pre-pass counts are the root
// starts. Compaction and the save of an index with repairs finish base
// + overlay the same way (RrSketchOverlay::Fold): each stretch of
// unrepaired sketches is a segment of the base, and each repaired
// sketch's current copy a segment of the overlay's store; a repair keeps
// its sketch's root (RrSketchOverlay::Put checks it), so the fold keeps
// every id and passes the base's root starts. Runs share nothing, and a
// repair is copy-on-write per id (an overlay's copy replaces one id's
// view alone), so the fold re-shares: a repeat whose first copy was
// repaired is stored again, as the new first copy. A run's block words
// start at 0 bits and widen, every word in place, when a word first
// fails to fit them (PackedWords::Push). FromRuns gathers its block
// words in a scratch array and packs them once, at their final width,
// as GroupWords::Assign packs the starts and the loader the file's
// words, so a finished pool's arrays are exact-size.
// The index file (src/index/index_io.h, v17) keeps each vertex's count
// of rooted sketches, packed at the bits the largest takes, and the
// directory as the pool holds it: each group's mask and a signed word
// per block, its start less its group's base, at the pool's width. A
// loaded pool was written this way before it was saved: FinishLoaded
// builds the root ranges from the counts, which must sum to the sketch
// count, and accepts the file's masks, words and body only if they are
// exactly what appending the pool's own views to a run, finishing it and
// saving it writes (a parent tree's order is the sampler's, a general
// block's vertices, its root among them at its root id, strictly ascend;
// every repeat is shared with its range's first copy), then builds the
// directory from them and the containing index from the blocks. An
// overlay's sketch store is a run that Fold copies from but never
// finishes, and the two other runs SketchArena writes are never finished
// either: the one-sketch run DynamicRrIndex re-closes each repaired
// sketch into before the overlay re-encodes it (Append), and the run of
// graphs DelayMat recovers for its cached query user. Every run takes
// its network's widths and topology, and a block's bits are relative to
// its own first byte, so a copied block is exactly the block a
// re-encoding of its view would write.
//
// A finished pool is immutable. DynamicRrIndex, which repairs
// individual sketches, never mutates it: it shares one pool as its
// *base* with every snapshot it publishes and records repairs in an
// RrSketchOverlay (below) until compaction folds base + overlay into a
// new pool.

#ifndef PITEX_SRC_INDEX_RR_SKETCH_POOL_H_
#define PITEX_SRC_INDEX_RR_SKETCH_POOL_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <ranges>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/util/bits.h"
#include "src/util/check.h"

namespace pitex {

/// Bytes the LEB128 varint of x takes: one per started group of seven
/// bits.
inline size_t VarintLength(uint64_t x) {
  return 1 + static_cast<size_t>(std::bit_width(x | 1) - 1) / 7;
}

/// Writes the LEB128 varint of x at `out` and returns the byte after it:
/// seven bits in each byte, low bits first, and the top bit set on every
/// byte except the last.
inline uint8_t* PutVarint(uint64_t x, uint8_t* out) {
  for (; x >= 0x80; x >>= 7) *out++ = static_cast<uint8_t>(x | 0x80);
  *out++ = static_cast<uint8_t>(x);
  return out;
}

/// Reads the varint PutVarint wrote at `at` into *x and returns the byte
/// after it. It trusts the bytes: only this module's coder writes them,
/// and the index loader checks a block's header before any view reads
/// it.
inline const uint8_t* GetVarint(const uint8_t* at, uint32_t* x) {
  uint32_t value = 0;
  for (unsigned shift = 0;; shift += 7) {
    const uint8_t byte = *at++;
    value |= uint32_t{byte & 0x7fu} << shift;
    if (byte < 0x80) break;
  }
  *x = value;
  return at;
}

/// The write side of one general-form pool block's CSR, as
/// RrSketchPool::AppendSketch hands it to its fill: the fill puts the
/// block's n + 1 offsets (none for an in-tree, whose offsets the pool
/// knows), then its m heads, then its m edge records (out-list ranks),
/// each in order, and each field goes straight into the block's bits at
/// its width.
class BlockWriter {
 public:
  BlockWriter(BitWriter* bits, uint32_t offset_bits, uint32_t head_bits,
              uint32_t rank_bits)
      : bits_(bits),
        offset_bits_(offset_bits),
        head_bits_(head_bits),
        rank_bits_(rank_bits) {}

  void PutOffset(uint32_t offset) {
    PITEX_DCHECK(offset <= LowMask(offset_bits_));
    bits_->Put(offset, offset_bits_);
  }
  void PutHead(uint32_t head) {
    PITEX_DCHECK(head <= LowMask(head_bits_));
    bits_->Put(head, head_bits_);
  }
  /// An edge record: the edge's rank in its tail's out-list.
  void PutRank(uint32_t rank) {
    PITEX_DCHECK(rank <= LowMask(rank_bits_));
    bits_->Put(rank, rank_bits_);
  }

 private:
  BitWriter* bits_;
  uint32_t offset_bits_;
  uint32_t head_bits_;
  uint32_t rank_bits_;
};

/// The write side of a parent tree, as RrSketchPool::AppendTree hands it
/// to its fill: for each vertex but the root, in the tree's order, its
/// parent's local id and the rank of its edge in the parent's in-list,
/// whose length `in_degree` sets the rank's width.
class TreeWriter {
 public:
  TreeWriter(BitWriter* bits, uint32_t parent_bits)
      : bits_(bits), parent_bits_(parent_bits) {}

  void PutChild(uint32_t parent, uint32_t rank, size_t in_degree) {
    PITEX_DCHECK(parent <= LowMask(parent_bits_) && rank < in_degree);
    bits_->Put(parent, parent_bits_);
    bits_->Put(rank, IdBits(in_degree));
  }

 private:
  BitWriter* bits_;
  uint32_t parent_bits_;
};

/// A u32 array in two levels: one 32-bit base per group of 64 entries
/// and one word per entry, what it adds to its base, packed at the bits
/// the largest word takes.
struct GroupWords {
  static constexpr unsigned kGroupBits = 6;
  static constexpr size_t kGroup = size_t{1} << kGroupBits;  // 64

  size_t size() const { return words.size(); }
  /// Bits per word.
  uint32_t width() const { return words.width(); }
  /// A reader of the entries that holds the arrays' addresses by value,
  /// so a loop that also stores bytes need not reload them.
  struct Reader {
    /// Entry i: its group's base plus its word.
    uint32_t operator[](size_t i) const {
      return bases[i >> kGroupBits] + words[i];
    }
    const uint32_t* bases = nullptr;
    PackedWords::Reader words;
  };
  Reader reader() const { return {bases.data(), words.reader()}; }
  uint32_t operator[](size_t i) const { return reader()[i]; }
  /// Makes the array exactly `values` (ascending, each below 2^32), its
  /// words at the bits the largest group's last value less its first
  /// takes.
  template <typename T>
  void Assign(std::span<const T> values) {
    bases.clear();
    bases.reserve((values.size() + kGroup - 1) / kGroup);
    for (size_t v = 0; v < values.size(); v += kGroup) {
      bases.push_back(static_cast<uint32_t>(values[v]));
    }
    words.Assign(values.size(), [&](size_t v) {
      return values[v] - values[v & ~(kGroup - 1)];
    });
  }
  size_t SizeBytes() const {
    return bases.capacity() * sizeof(uint32_t) + words.SizeBytes();
  }

  std::vector<uint32_t> bases;
  PackedWords words;
};

/// Rice codes, as the containing lists store their root gaps: x at
/// parameter k is x >> k one-bits, a zero, then the low k bits of x, in
/// a bit array (src/util/bits.h).

/// Appends the Rice code of x at parameter k (at most 31) to `out`.
inline void PutRice(uint32_t x, uint32_t k, BitWriter* out) {
  constexpr uint32_t kRun = 31;  // ones per Put, so a code fits 63 bits
  uint32_t q = x >> k;
  for (; q > kRun; q -= kRun) out->Put((uint64_t{1} << kRun) - 1, kRun);
  const uint64_t low = x & LowMask(k);
  out->Put(((uint64_t{1} << q) - 1) | low << (q + 1), q + 1 + k);
}

/// Reads the Rice code at bit *at of `data` at parameter k and steps *at
/// past it. A load holds kBitWindow bits: a unary run of that many ones
/// or more takes further loads, and low bits past the window one more.
/// Only this module's coder writes the bits, so it trusts them.
inline uint32_t GetRice(const uint8_t* data, uint64_t* at, uint32_t k) {
  uint64_t window = LoadBits(data, *at);
  uint64_t q = 0;
  uint32_t ones;
  while ((ones = static_cast<uint32_t>(std::countr_one(window))) >=
         kBitWindow) {
    q += kBitWindow;
    *at += kBitWindow;
    window = LoadBits(data, *at);
  }
  q += ones;
  *at += ones + 1;
  const uint64_t mask = LowMask(k);
  const uint64_t low = ones + 1 + k <= kBitWindow
                           ? (window >> (ones + 1)) & mask
                           : LoadBits(data, *at) & mask;
  *at += k;
  return static_cast<uint32_t>(q << k | low);
}

/// The values a set of Rice codes holds, each below a bound, tallied by
/// value: enough to give exactly how many bits the codes take at every
/// parameter. Adding a value is one increment, with no branch.
class RiceTally {
 public:
  /// A tally of values below `bound`.
  explicit RiceTally(size_t bound) : counts_(bound, 0) {}
  /// Adds `times` codes of x.
  void Add(uint32_t x, uint32_t times = 1) {
    PITEX_DCHECK(x < counts_.size());
    counts_[x] += times;
    total_ += times;
  }
  /// Bits the codes take at parameter k: the sum of x >> k, plus 1 + k
  /// per code. It fits 64 bits: fewer than 2^32 values, each x >> k
  /// below 2^32.
  uint64_t Bits(uint32_t k) const {
    uint64_t bits = total_ * (1 + k);
    for (size_t x = 0; x < counts_.size(); ++x) {
      bits += uint64_t{counts_[x]} * (x >> k);
    }
    return bits;
  }

 private:
  std::vector<uint32_t> counts_;  // codes of each value
  uint64_t total_ = 0;
};

/// The Rice parameter of a pool's containing lists, chosen from their
/// root gaps with no option: the k in [0, 31] at which the gaps' codes
/// take the fewest bits (RiceTally::Bits), the smallest such k on a tie,
/// and 0 with no gap. A list's masks take the same bits at every k, so
/// this k codes the lists in the fewest bits. PutRice needs k <= 31.
/// Past the bound's width every gap's quotient is 0, and a larger k only
/// adds bits, so the search stops there.
inline uint32_t RiceParameter(const RiceTally& gaps, size_t bound) {
  uint32_t best = 0;
  uint64_t fewest = gaps.Bits(0);
  const auto last = std::min<uint32_t>(
      31, static_cast<uint32_t>(std::bit_width(bound)));
  for (uint32_t k = 1; k <= last; ++k) {
    const uint64_t bits = gaps.Bits(k);
    if (bits < fewest) {
      best = k;
      fewest = bits;
    }
  }
  return best;
}

/// One sketch of a containing list: its id and its root.
struct RootedId {
  VertexId root = 0;
  uint32_t id = 0;
  bool operator==(const RootedId&) const = default;
};

/// Bits a containing list of `ids` (ascending by id) takes at parameter
/// k, the sketches rooted at v being [root_starts[v], root_starts[v +
/// 1]): per root, its gap's Rice code and a bit per sketch it roots.
inline uint64_t RootListBits(std::span<const RootedId> ids, uint32_t k,
                             const GroupWords& root_starts) {
  uint64_t bits = 0;
  VertexId last = UINT32_MAX;  // one before vertex 0
  for (const RootedId& sketch : ids) {
    if (sketch.root == last) continue;
    bits += ((sketch.root - last - 1) >> k) + 1 + k +
            root_starts[sketch.root + 1] - root_starts[sketch.root];
    last = sketch.root;
  }
  return bits;
}

/// Appends the containing list of `ids` (ascending by id) at parameter k
/// (at most 31) to `out`: per root r, the Rice code of its gap, r less
/// the root before less 1 (the first root as itself), then a mask of one
/// bit per sketch r roots, bit j set when sketch root_starts[r] + j is
/// in the list.
inline void PutRootList(std::span<const RootedId> ids, uint32_t k,
                        const GroupWords& starts, BitWriter* out) {
  const GroupWords::Reader root_starts = starts.reader();
  VertexId last = UINT32_MAX;  // one before vertex 0
  const RootedId* at = ids.data();
  const RootedId* const end = at + ids.size();
  while (at != end) {
    const VertexId root = at->root;
    const uint32_t start = root_starts[root];
    const uint32_t size = root_starts[root + 1] - start;
    const uint32_t gap = root - last - 1;
    last = root;
    if (uint64_t{gap >> k} + 1 + k + size < 64) {
      // The code and the mask in one Put, as nearly every entry takes.
      const uint32_t q = gap >> k;
      uint64_t bits = 0;
      for (; at != end && at->id < start + size; ++at) {
        bits |= uint64_t{1} << (at->id - start);
      }
      out->Put(((uint64_t{1} << q) - 1) | uint64_t{gap & LowMask(k)}
                                              << (q + 1) |
                   bits << (q + 1 + k),
               q + 1 + k + size);
      continue;
    }
    PutRice(gap, k, out);
    // The mask in pieces of up to 32 bits.
    for (uint32_t piece = start; piece < start + size; piece += 32) {
      const uint32_t width = std::min<uint32_t>(32, start + size - piece);
      uint64_t bits = 0;
      for (; at != end && at->id < piece + width; ++at) {
        bits |= uint64_t{1} << (at->id - piece);
      }
      out->Put(bits, width);
    }
  }
}

/// One vertex's containing list as stored, in a pool or an overlay, bits
/// [begin, end) of a coded array (PutRootList): for each root whose
/// sketches the list names, ascending, the Rice code at the pool's
/// parameter k of its gap, then a mask over the root's range, read
/// against the pool's root starts. A read-only forward range of sketch
/// ids, ascending, that decodes as it iterates, without allocating; its
/// iterator also names each id's root. Only this module's coder writes
/// the bits (a loaded pool rebuilds its lists, they are not saved), so
/// the decoder trusts them.
class ContainingList {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using reference = uint32_t;
    using pointer = void;

    Iterator() = default;
    uint32_t operator*() const { return id_; }
    /// The root of the current sketch.
    VertexId root() const { return root_; }
    Iterator& operator++() {
      Next();
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    /// Ids strictly ascend in a list, so an id names a place in it; the
    /// end's is kEnd.
    bool operator==(const Iterator& other) const { return id_ == other.id_; }

   private:
    friend class ContainingList;
    static constexpr uint32_t kEnd = UINT32_MAX;  // no sketch has this id

    Iterator(const uint8_t* data, uint64_t at, uint64_t end, uint32_t k,
             GroupWords::Reader root_starts)
        : data_(data),
          root_starts_(root_starts),
          next_(at),
          end_(end),
          k_(k) {
      Next();
    }
    /// Steps to the next set mask bit: through the rest of the current
    /// piece, then the mask's next piece of up to kBitWindow bits, then
    /// the next root's entry.
    void Next() {
      while (piece_ == 0) {
        if (left_ == 0) {
          if (next_ == end_) {
            id_ = kEnd;
            return;
          }
          NextEntry();
          continue;
        }
        const uint32_t take = std::min(left_, kBitWindow);
        piece_ = LoadBits(data_, next_) & LowMask(take);
        piece_id_ = next_id_;
        next_ += take;
        next_id_ += take;
        left_ -= take;
      }
      id_ = piece_id_ + static_cast<uint32_t>(std::countr_zero(piece_));
      piece_ &= piece_ - 1;
    }
    /// Reads the next root's code and opens its mask. An entry whose
    /// code and mask fit one load, as nearly all do, takes that load as
    /// its first piece.
    void NextEntry() {
      const uint64_t window = LoadBits(data_, next_);
      const auto ones = static_cast<uint32_t>(std::countr_one(window));
      const uint32_t code = ones + 1 + k_;
      if (code > kBitWindow) [[unlikely]] {
        root_ += GetRice(data_, &next_, k_) + 1;
        next_id_ = root_starts_[root_];
        left_ = root_starts_[root_ + 1] - next_id_;
        return;
      }
      root_ += (ones << k_ | ((window >> (ones + 1)) & LowMask(k_))) + 1;
      next_ += code;
      next_id_ = root_starts_[root_];
      left_ = root_starts_[root_ + 1] - next_id_;
      if (code + left_ <= kBitWindow) {
        piece_ = (window >> code) & LowMask(left_);
        piece_id_ = next_id_;
        next_ += left_;
        left_ = 0;
      }
    }

    const uint8_t* data_ = nullptr;
    GroupWords::Reader root_starts_{};
    uint64_t next_ = 0;   // the first bit not yet read
    uint64_t end_ = 0;
    uint64_t piece_ = 0;  // the mask bits loaded and not yet visited
    uint32_t piece_id_ = 0;  // the id of the piece's bit 0
    uint32_t next_id_ = 0;   // the id of the mask's next bit to load
    uint32_t left_ = 0;      // the mask's bits not yet loaded
    uint32_t k_ = 0;
    VertexId root_ = UINT32_MAX;  // one before vertex 0: a first root
                                  // codes as itself
    uint32_t id_ = kEnd;
  };

  ContainingList(const uint8_t* data, uint64_t begin, uint64_t end,
                 uint32_t k, const GroupWords& root_starts)
      : data_(data),
        root_starts_(root_starts.reader()),
        begin_(begin),
        end_(end),
        k_(k) {}

  Iterator begin() const { return {data_, begin_, end_, k_, root_starts_}; }
  Iterator end() const { return {}; }
  /// How many ids the list holds: its masks' set bits, counted a piece
  /// at a time in O(roots + mask bits / 57).
  size_t count() const {
    size_t ids = 0;
    VertexId root = UINT32_MAX;
    for (uint64_t at = begin_; at != end_;) {
      root += GetRice(data_, &at, k_) + 1;
      uint32_t left = root_starts_[root + 1] - root_starts_[root];
      while (left != 0) {
        const uint32_t take = std::min(left, kBitWindow);
        ids += PopCount(LoadBits(data_, at) & LowMask(take));
        at += take;
        left -= take;
      }
    }
    return ids;
  }
  /// Bits the list's codes and masks take.
  uint64_t bits() const { return end_ - begin_; }

 private:
  const uint8_t* data_ = nullptr;
  GroupWords::Reader root_starts_{};
  uint64_t begin_ = 0;
  uint64_t end_ = 0;
  uint32_t k_ = 0;
};

/// Appends the ids of `list`, ascending, each with its root, to `out`.
inline void AppendRooted(const ContainingList& list,
                         std::vector<RootedId>* out) {
  for (auto it = list.begin(); it != list.end(); ++it) {
    out->push_back({it.root(), *it});
  }
}

class RrSketchPool {
 public:
  /// A block header is Header(n, in-tree): n above the in-tree flag
  /// (bit 0).
  static constexpr uint32_t kHeaderFlagBits = 1;
  /// The header fits 32 bits (GetVarint reads a u32), so a block holds
  /// at most this many vertices. A block's fields fit 2^32 bits, which
  /// already keeps n below it (n * bit_width(n - 1) < 2^32).
  static constexpr uint64_t kMaxBlockVertices =
      (uint64_t{1} << (32 - kHeaderFlagBits)) - 1;
  static_assert((kMaxBlockVertices << kHeaderFlagBits |
                 LowMask(kHeaderFlagBits)) == UINT32_MAX);

  /// A finished pool's sketches [id, id + count), stored in order as
  /// sketches [first, first + count) of run `run`: what FromRuns copies.
  struct Segment {
    uint64_t id = 0;
    const RrSketchPool* run = nullptr;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  /// A pool whose fields hold any vertex id (below 2^31) and any rank:
  /// 31- and 32-bit fields, and no topology.
  RrSketchPool() : RrSketchPool(kIdLimit, uint64_t{1} << 32) {}
  /// A pool of sketches of `topology`: its vertex fields take
  /// IdBits(|V|) bits, its ranks IdBits(largest out-degree), and its
  /// views decode ranks against it (the pool keeps a copy, which shares
  /// the graph's storage).
  explicit RrSketchPool(const Graph& topology);
  /// A pool of a network with `num_vertices` vertices and no out-list
  /// longer than `max_out_degree`, as the graph constructor sizes it,
  /// but holding no topology: its ranks are stored and read as they
  /// are, and its views decode none (layout checks at any width).
  RrSketchPool(uint64_t num_vertices, uint64_t max_out_degree);

  /// An empty pool of this pool's network: its widths and topology.
  RrSketchPool EmptyLike() const;

  /// Finishes a pool from runs, each a pool of `network`'s network (its
  /// widths and the topology it shares, which FromRuns checks), whose
  /// sketches are already at their final ids: `root_starts` holds
  /// RootStart(v) for v in [0, |V|], ascending from 0 to the sketch
  /// count, and the segments must cover those ids exactly once, in any
  /// order. Copies the blocks in id order, one at a time, into exact-size
  /// arrays: a block byte-equal to an earlier first copy of its root
  /// range shares that copy's bytes, and any other is stored as a first
  /// copy. Takes the root ranges as given, and builds the containing
  /// index from the blocks' stored vertices. It reads no root: the
  /// caller put each sketch in its root's range (the sampler draws every
  /// root first; Fold keeps its base's ids and roots). A run may be a
  /// finished pool, whose repeats share their bytes (Fold's base).
  static RrSketchPool FromRuns(std::span<const Segment> segments,
                               std::span<const uint32_t> root_starts,
                               const RrSketchPool& network);

  /// Appends one sketch in the pooled layout without touching the
  /// containing index: a pool appended to is a run, which only FromRuns
  /// reads besides View(), and which records the sketch's root. The
  /// block takes this pool's widths and the form its shape calls for
  /// whatever widths and form `sketch` is stored in; its ranks are
  /// copied as they are, so `sketch` must sample this pool's network.
  /// `sketch` must not view this pool.
  void Append(const RRView& sketch);
  /// Appends the sketch with `vertices` (sorted), rooted at
  /// vertices[root_local], and m edges, given in the general form:
  /// fill(out) puts its n + 1 offsets unless `in_tree`, then its m
  /// heads, then its m out-list ranks, in order, through a BlockWriter&
  /// `out`. `in_tree` says whether those offsets are an in-tree's
  /// (IsInTree). In a pool with a topology an in-tree is stored as a
  /// parent tree: the fill's fields are gathered first, and its vertices
  /// put in the tree's order (AppendTree). Any other sketch, and every
  /// sketch of a pool without a topology, is stored in the general form,
  /// every vertex but the root. The run records the root. An implicit
  /// singleton (one vertex, no edges) has nothing to write and calls no
  /// fill.
  template <typename Fill>
  void AppendSketch(uint32_t root_local, std::span<const VertexId> vertices,
                    size_t m, bool in_tree, Fill&& fill);
  /// Appends the parent tree rooted at `root` with n vertices: fill(out)
  /// puts, for each vertex but the root in the tree's order, its
  /// parent's local id and its edge's rank in that parent's in-list
  /// through a TreeWriter& `out`, and `rank_bits` is the sum of those
  /// ranks' widths. The tree's order is the sampler's: the root is local
  /// 0; then, over a stack that starts with the root, the vertex popped
  /// takes its children, in ascending in-rank, as the next local ids and
  /// pushes them in that order. The pool must hold a topology unless the
  /// sketch is a singleton (n = 1), which calls no fill.
  template <typename Fill>
  void AppendTree(VertexId root, size_t n, uint64_t rank_bits, Fill&& fill);
  /// Drops every sketch, keeping every array's capacity: a cleared run
  /// takes appends without allocating up to its high-water mark.
  void Clear();

  size_t num_sketches() const { return num_sketches_; }
  bool empty() const { return num_sketches() == 0; }

  /// The network counts the fields' widths come from.
  uint64_t num_network_vertices() const { return num_vertices_; }
  uint64_t max_out_degree() const { return max_out_degree_; }
  /// Bits per vertex id and per rank: IdBits of those counts.
  uint32_t vertex_bits() const { return vertex_bits_; }
  uint32_t rank_bits() const { return rank_bits_; }
  /// The graph the ranks decode against: empty for a pool built from
  /// counts.
  const Graph& topology() const { return topology_; }

  /// True when sketch i is an implicit singleton: its mask bit is clear.
  bool IsSingleton(size_t i) const {
    return ((groups_[i >> kGroupBits].mask >> (i & kGroupMask)) & 1) == 0;
  }

  /// Non-owning view of sketch i (valid while the pool is alive), `u` a
  /// vertex the sketch contains. A singleton's only vertex is its root,
  /// which its view takes from u. A block's view reads its fields from
  /// its block and its root from the id: a run's record, or a finished
  /// pool's root range that holds i (RootOf, a binary search): for the
  /// cold paths and tests. The estimate walks take RootedView.
  RRView View(size_t i, VertexId u) const {
    if (IsSingleton(i)) {
      PITEX_DCHECK(RootOf(i) == u);
      return SingletonView(u);
    }
    return ViewAt(BlockAt(i), RootOf(i));
  }
  /// The view of sketch i, whose root the caller knows: from a root
  /// range, or a containing list's entry (ContainingList::Iterator::
  /// root). It searches nothing: the estimate walks take it.
  RRView RootedView(size_t i, VertexId root) const {
    PITEX_DCHECK(RootOf(i) == root);
    return IsSingleton(i) ? SingletonView(root) : ViewAt(BlockAt(i), root);
  }

  /// The root of sketch i: a run's record, or the vertex whose root
  /// range holds i, found from the root starts' group bases and one
  /// group's words.
  VertexId RootOf(size_t i) const;

  /// Ids (sketch positions) of the sketches rooted at u, one range: a
  /// finished pool numbers its sketches in root order.
  std::ranges::iota_view<uint32_t, uint32_t> RootRange(VertexId u) const {
    return {RootStart(u), RootStart(u + 1)};
  }
  /// Ids of the sketches containing u that u does not root, ascending:
  /// u's containing list. With RootRange(u), every sketch containing u.
  ContainingList NonRootContaining(VertexId u) const {
    return ContainingList(containing_.data(), containing_starts_[u],
                          containing_starts_[u + 1], containing_k_,
                          root_starts_);
  }
  /// theta(u): how many sketches contain u (Sec. 6.3 notation): its root
  /// range's size and its list's masks' set bits.
  size_t CountContaining(VertexId u) const {
    return RootRange(u).size() + NonRootContaining(u).count();
  }
  /// Number of vertices the containing index covers.
  size_t num_universe_vertices() const {
    return containing_starts_.size() == 0 ? 0 : containing_starts_.size() - 1;
  }

  /// Largest per-sketch vertex count (scratch pre-sizing).
  size_t max_sketch_vertices() const { return max_sketch_vertices_; }

  /// The Rice parameter k every containing list's root gaps are coded at
  /// (RiceParameter), chosen from the pool's own gaps.
  uint32_t containing_k() const { return containing_k_; }

  /// Bits per block word, per containing start and per root start: the
  /// bits the array's largest word takes.
  uint32_t directory_width() const { return block_words_.width(); }
  uint32_t containing_start_width() const {
    return containing_starts_.width();
  }
  uint32_t root_start_width() const { return root_starts_.width(); }

  /// Exact footprint of the pooled arrays, computed in O(1).
  size_t SizeBytes() const;
  /// The directory's share of it: the group records and the block words.
  size_t DirectoryBytes() const {
    return groups_.capacity() * sizeof(Group) + block_words_.SizeBytes();
  }

 private:
  static constexpr unsigned kGroupBits = GroupWords::kGroupBits;
  static constexpr size_t kGroup = GroupWords::kGroup;  // 64
  static constexpr uint32_t kGroupMask = kGroup - 1;

  /// The directory's record of sketches 64g .. 64g + 63.
  struct alignas(16) Group {
    uint32_t base;  // where the next block starts at sketch 64g
    uint32_t rank;  // blocks before sketch 64g: its first block's word
    uint64_t mask;  // bit j set: sketch 64g + j is a block
  };

  /// The directory as the index file holds it: each vertex's count of
  /// rooted sketches at `count_width` bits, each group's mask, then one
  /// word per block at `width` bits, each array's words packed as a
  /// PackedWords holds them (PackedWords::packed), and, read from the
  /// file's header, `num_sketches`.
  struct FileDirectory {
    uint64_t num_sketches = 0;
    uint32_t count_width = 0;
    std::vector<uint8_t> counts;
    std::vector<uint64_t> masks;
    uint32_t width = 0;
    std::vector<uint8_t> words;
  };

  /// The header flag of a parent tree, which stores no edge count
  /// (m = n - 1).
  static constexpr uint32_t kInTree = 1;
  /// Vertex ids and block offsets stay below it: 31 bits.
  static constexpr uint32_t kIdLimit = 1u << 31;
  /// The header of a block of n vertices, a parent tree or not.
  static uint64_t Header(uint64_t n, bool in_tree) {
    return n << kHeaderFlagBits | (in_tree ? kInTree : 0);
  }
  /// Bits of a general-form block's fields after its header, with n
  /// vertices and m edges: the vertices but the root, the root id, the
  /// offsets, the heads and the ranks.
  uint64_t FieldBits(uint64_t n, uint64_t m) const {
    const uint64_t id_bits = IdBits(n);
    return (n - 1) * vertex_bits_ + id_bits + (n + 1) * IdBits(m + 1) +
           m * (id_bits + rank_bits_);
  }
  /// body_ bytes of a general-form sketch with n vertices and m edges:
  /// none for an implicit singleton, else the header, the edge count and
  /// the fields' bytes.
  uint64_t BodyLength(uint64_t n, uint64_t m) const {
    if (n == 1 && m == 0) return 0;
    return VarintLength(Header(n, false)) + VarintLength(m) +
           (FieldBits(n, m) + 7) / 8;
  }
  /// Where block i starts in body_: its group's base plus its signed
  /// word, summed in u32 arithmetic.
  const uint8_t* BlockAt(size_t i) const {
    const Group& group = groups_[i >> kGroupBits];
    const auto j = static_cast<uint32_t>(i & kGroupMask);
    const size_t word = group.rank + PopCount(group.mask & LowMask(j));
    const uint32_t start = group.base + block_words_[word];
    return body_.data() + start;
  }
  /// The view of an implicit singleton rooted at `root`: a parent tree
  /// of one vertex, whose fields none read (kZeroWord).
  RRView SingletonView(VertexId root) const {
    return RRView{0,           VertexIds(PackedIds{}, 1, 0, root),
                  PackedIds{}, PackedIds{},
                  PackedIds{}, &topology_,
                  SketchThresholds{}, kZeroWord};
  }
  /// The view of the block at `at`, whose root is `root`.
  RRView ViewAt(const uint8_t* at, VertexId root) const {
    uint32_t header;
    at = GetVarint(at, &header);
    const uint32_t n = header >> kHeaderFlagBits;
    if ((header & kInTree) != 0) [[likely]] {
      return RRView{0,           VertexIds(PackedIds{}, n, 0, root),
                    PackedIds{}, PackedIds{},
                    PackedIds{}, &topology_,
                    SketchThresholds{}, at};
    }
    uint32_t m;
    at = GetVarint(at, &m);
    // Where each field starts, in bits from `at`: every block's fields
    // take fewer than 2^32 bits (AppendBlock, FinishLoaded).
    const auto id_bits = static_cast<uint32_t>(std::bit_width(n - 1));
    const auto offset_bits = static_cast<uint32_t>(std::bit_width(m));
    const uint32_t root_at = (n - 1) * vertex_bits_;
    const uint32_t offsets_at = root_at + id_bits;
    const uint32_t heads_at = offsets_at + (n + 1) * offset_bits;
    const uint32_t root_local = PackedIds{at, root_at, id_bits}[0];
    // Every member given, so no member is first zeroed.
    return RRView{
        root_local,
        VertexIds({at, 0, vertex_bits_}, n, root_local, root),
        // Edgeless, the offsets take 0 bits and may start at the block's
        // last bit: they are read at its first, inside the body.
        PackedIds{at, m == 0 ? 0 : offsets_at, offset_bits},
        PackedIds{at, heads_at, id_bits},
        PackedIds{at, heads_at + m * id_bits, rank_bits_},
        &topology_,
        SketchThresholds{},
        nullptr};
  }

  /// Where the blocks end in body_: before its padding.
  uint64_t BodyEnd() const {
    return body_.empty() ? 0 : body_.size() - kBitPadding;
  }

  /// True for a pool FromRuns or the loader finished: it has root ranges
  /// and a containing index, and records no roots. Any other pool is a
  /// run.
  bool finished() const { return containing_starts_.size() != 0; }

  /// The first sketch rooted at v or after it, for v <= |V|.
  uint32_t RootStart(size_t v) const { return root_starts_[v]; }

  /// The blocks before sketch i, for i <= num_sketches(): the word of
  /// the first block at or after it.
  size_t BlockRank(size_t i) const {
    if ((i >> kGroupBits) == groups_.size()) return block_words_.size();
    const Group& group = groups_[i >> kGroupBits];
    return group.rank +
           PopCount(group.mask &
                    LowMask(static_cast<uint32_t>(i & kGroupMask)));
  }

  /// Calls fn(block, start) for sketches first .. last - 1 in order:
  /// start is where a block starts in body_, and 0 for a singleton. A
  /// loop that keeps the arrays' addresses in registers whatever fn
  /// stores.
  template <typename Fn>
  void ForEachSketch(size_t first, size_t last, Fn&& fn) const {
    const PackedWords::Reader words = block_words_.reader();
    const Group* groups = groups_.data();
    size_t block = BlockRank(first);
    for (size_t i = first; i < last; ++i) {
      const Group& group = groups[i >> kGroupBits];
      if (((group.mask >> (i & kGroupMask)) & 1) != 0) {
        fn(true, uint64_t{group.base + words[block++]});
      } else {
        fn(false, uint64_t{0});
      }
    }
  }

  /// Opens sketch num_sketches()'s group if it starts one, with the
  /// blocks before it as its rank and `base` as its base.
  void OpenGroup(uint64_t base) {
    if (num_sketches_ % kGroup == 0) {
      const uint32_t rank =
          groups_.empty() ? 0
                          : groups_.back().rank + PopCount(groups_.back().mask);
      groups_.push_back({static_cast<uint32_t>(base), rank, 0});
    }
  }
  /// Appends sketch num_sketches() to the directory as a singleton, or
  /// as a block (MarkBlock sets its mask bit alone, for a writer that
  /// packs the words itself). PushBlock's block starts at `start` in
  /// body_ (below 2^31): its word is `start` less its group's base, the
  /// last, in two's complement.
  void PushSingleton() { ++num_sketches_; }
  void MarkBlock() {
    groups_.back().mask |= uint64_t{1} << (num_sketches_ & kGroupMask);
    ++num_sketches_;
  }
  void PushBlock(uint64_t start) {
    block_words_.Push(static_cast<uint32_t>(start) - groups_.back().base);
    MarkBlock();
  }

  /// Sets the network counts and the fields' widths they call for.
  void SetNetwork(uint64_t num_vertices, uint64_t max_out_degree);

  /// The end of each block in body_, by block word: blocks tile the body
  /// in storage order, so a first copy ends where the next first copy
  /// starts (or at the body's end), and a repeat where its first copy
  /// does. A first copy's start exceeds every start before it, and a
  /// repeat's equals an earlier one's, so the words alone give every
  /// length: blocks store none.
  std::vector<uint32_t> BlockEnds() const;

  /// AppendSketch's general form.
  template <typename Fill>
  void AppendBlock(uint32_t root_local, std::span<const VertexId> vertices,
                   size_t m, bool in_tree, Fill&& fill);
  /// AppendSketch's parent tree: its vertices, rooted at
  /// vertices[root_local], and its m = n - 1 edges, each tail's one edge
  /// given as its local head `heads`[k] and its out-list rank `ranks`[k],
  /// k = InTreeOffset(tail, root_local), are put in the tree's order.
  void AppendInTree(uint32_t root_local, std::span<const VertexId> vertices,
                    const PackedIds& heads, const PackedIds& ranks);

  /// The index file's root counts, group masks and block words of this
  /// finished pool.
  FileDirectory SaveDirectory() const;

  /// Checks a pool whose body_ was read from a file (src/index/
  /// index_io.h), with the file's directory `file`, against `topology`,
  /// the network it samples, which sets its fields' widths and becomes
  /// the pool's; if they hold, builds its directory, its root ranges
  /// and its containing index. The file's counts hold each vertex's
  /// count of rooted sketches, packed at the bits the largest takes,
  /// and must sum to the sketch count: they set the root ranges, and
  /// each sketch's root is the vertex whose range holds it. The file
  /// holds one mask per group of 64 sketches, with no bit set past the
  /// last sketch, and one signed word per set bit, packed at the bits
  /// the widest takes. Walking the sketches in order, each group's base
  /// is where the next first copy must start,
  /// and a block's word (its start less its base) either starts a new
  /// block where the first copy before it ended, or equals the start of
  /// an earlier first copy of the same root range, which the block then
  /// shares; any other word fails, and so does a new block byte-equal to
  /// an earlier first copy of its range. Each new block's header (and a
  /// general block's edge count) must be a varint of no more bytes than
  /// its value needs, with 0 < n <= kMaxBlockVertices and not a
  /// singleton's shape, and its fields must end before the padding. A
  /// parent tree, decoded top-down from its range's root, must give
  /// each vertex a parent before it and a rank below that parent's
  /// in-degree, name no vertex twice, and keep the sampler's order: each
  /// vertex's children come, in ascending rank, when it is popped off
  /// the stack of vertices met (AppendTree). A general block's vertices,
  /// its stored ones and its root at its root id, must strictly ascend
  /// and lie below |V|, its shape must not be an in-tree's (an in-tree
  /// is a parent tree), its root id and heads lie below n, its offsets
  /// rise from 0 to m, and each rank lies below its tail's out-degree and
  /// names an out-edge whose head is the record's head vertex. The bits
  /// after a block's last field are zero; the blocks end at body_'s
  /// padding, whose bytes are zero. So a pool that passes is exactly
  /// what appending its own views to a run, finishing it (FromRuns) and
  /// saving it writes. False on the first check that fails.
  bool FinishLoaded(const Graph& topology, const FileDirectory& file);

  /// Rebuilds containing_starts_ and containing_ from the blocks'
  /// vertices but their roots and the root starts: a pass over the
  /// blocks in id order decodes each first copy's vertices once into a
  /// scratch array (a repeat takes its first copy's), with each block's
  /// root from a cursor that only moves forward; two passes over them
  /// sort each vertex's ids into another (the first counts them, and
  /// recounts max_sketch_vertices_; the second pairs each id with its
  /// root), a pass over the lists tallies their root gaps, which set
  /// containing_k_, then a BitWriter codes the lists in vertex order into
  /// an exact-size array. The starts' words take the bits the largest
  /// takes.
  void BuildContaining(size_t num_vertices);

  /// FromRuns with the root starts already in their array: Fold passes
  /// its base's.
  static RrSketchPool FromRuns(std::span<const Segment> segments,
                               GroupWords root_starts,
                               const RrSketchPool& network);

  friend class IndexIo;  // saves and loads the directory's words and body_
  friend class RrSketchOverlay;  // Fold keeps its base's root starts

  std::vector<Group> groups_;  // the directory: a record per 64 sketches
  PackedWords block_words_{/*is_signed=*/true};  // and a word per block
  std::vector<VertexId> roots_;  // a run's sketches' roots, in order
  std::vector<uint8_t> body_;    // blocks, then kBitPadding zero bytes
  GroupWords root_starts_;       // num_vertices + 1 sketch ids
  GroupWords containing_starts_;     // num_vertices + 1 bit offsets
  std::vector<uint8_t> containing_;  // Rice-coded lists, by vertex
  Graph topology_;             // what ranks decode against; may be empty
  uint64_t num_vertices_ = 0;  // the network's, at most kIdLimit
  uint64_t max_out_degree_ = 0;  // the network's, at most 2^32
  uint32_t num_sketches_ = 0;
  uint32_t vertex_bits_ = 0;
  uint32_t rank_bits_ = 0;
  // Fits 32 bits: a block holds under 2^31 vertices.
  uint32_t max_sketch_vertices_ = 0;
  uint32_t containing_k_ = 0;
};

template <typename Fill>
void RrSketchPool::AppendSketch(uint32_t root_local,
                                std::span<const VertexId> vertices, size_t m,
                                bool in_tree, Fill&& fill) {
  if (!in_tree || vertices.size() == 1 || topology_.num_vertices() == 0) {
    AppendBlock(root_local, vertices, m, in_tree, std::forward<Fill>(fill));
    return;
  }
  // The fill's heads and ranks, gathered at 32 bits each.
  PITEX_DCHECK(m + 1 == vertices.size());
  thread_local std::vector<uint8_t> fields;
  fields.assign(8 * m + kBitPadding, 0);
  BitWriter bits(fields.data());
  BlockWriter out(&bits, 0, 32, 32);
  fill(out);
  bits.Finish();
  AppendInTree(root_local, vertices, PackedIds{fields.data(), 0, 32},
               PackedIds{fields.data(), static_cast<uint32_t>(32 * m), 32});
}

template <typename Fill>
void RrSketchPool::AppendTree(VertexId root, size_t n, uint64_t rank_bits,
                              Fill&& fill) {
  PITEX_CHECK_MSG(root < num_vertices_,
                  "sketch vertex lies outside the pool's network");
  // Sketch ids are u32 (containing_).
  PITEX_CHECK_MSG(num_sketches_ < UINT32_MAX - 1,
                  "sketch pool exceeds its directory words");
  const uint64_t start = BodyEnd();
  OpenGroup(start);
  roots_.push_back(root);
  if (n == 1) {
    // Implicit singleton: the directory holds only its clear mask bit.
    PushSingleton();
  } else {
    PITEX_DCHECK(topology_.num_vertices() != 0);
    const uint32_t parent_bits = IdBits(n - 1);
    const uint64_t bits = (n - 1) * parent_bits + rank_bits;
    PITEX_CHECK_MSG(n <= kMaxBlockVertices && bits <= UINT32_MAX,
                    "sketch exceeds the block header's counts");
    const uint64_t length = VarintLength(Header(n, true)) + (bits + 7) / 8;
    // The old padding becomes the block's first bytes; new padding
    // follows it, zero.
    body_.resize(start + length + kBitPadding);
    BitWriter writer(PutVarint(Header(n, true), body_.data() + start));
    TreeWriter out(&writer, parent_bits);
    fill(out);
    [[maybe_unused]] const uint64_t written = writer.Finish();
    PITEX_DCHECK(written == bits);
    PushBlock(start);
  }
  // Every block's start stays below 2^31.
  PITEX_CHECK_MSG(BodyEnd() <= kIdLimit,
                  "sketch pool exceeds its directory words");
  max_sketch_vertices_ =
      std::max(max_sketch_vertices_, static_cast<uint32_t>(n));
}

template <typename Fill>
void RrSketchPool::AppendBlock(uint32_t root_local,
                               std::span<const VertexId> vertices, size_t m,
                               bool in_tree, Fill&& fill) {
  const size_t n = vertices.size();
  PITEX_DCHECK(root_local < n);
  PITEX_DCHECK(!in_tree || m + 1 == n);
  // Sorted, so the last vertex is the largest.
  PITEX_CHECK_MSG(vertices[n - 1] < num_vertices_,
                  "sketch vertex lies outside the pool's network");
  // Sketch ids are u32 (containing_).
  PITEX_CHECK_MSG(num_sketches_ < UINT32_MAX - 1,
                  "sketch pool exceeds its directory words");
  const uint64_t start = BodyEnd();
  OpenGroup(start);
  roots_.push_back(vertices[root_local]);
  const uint64_t length = BodyLength(n, m);
  if (length == 0) {
    // Implicit singleton: the directory holds only its clear mask bit.
    PushSingleton();
  } else {
    PITEX_CHECK_MSG(n <= kMaxBlockVertices && m <= UINT32_MAX &&
                        FieldBits(n, m) <= UINT32_MAX,
                    "sketch exceeds the block header's counts");
    // The old padding becomes the block's first bytes; new padding
    // follows it, zero.
    body_.resize(start + length + kBitPadding);
    uint8_t* fields = PutVarint(Header(n, false), body_.data() + start);
    fields = PutVarint(m, fields);
    BitWriter bits(fields);
    for (size_t j = 0; j < n; ++j) {
      if (j != root_local) bits.Put(vertices[j], vertex_bits_);
    }
    const uint32_t id_bits = IdBits(n);
    bits.Put(root_local, id_bits);
    BlockWriter out(&bits, IdBits(uint64_t{m} + 1), id_bits, rank_bits_);
    // An in-tree's fill puts no offsets: they are its InTreeOffsets.
    if (in_tree) {
      for (size_t j = 0; j <= n; ++j) {
        out.PutOffset(InTreeOffset(j, root_local));
      }
    }
    fill(out);
    [[maybe_unused]] const uint64_t written = bits.Finish();
    PITEX_DCHECK(written == FieldBits(n, m));
    PushBlock(start);
  }
  // Every block's start stays below 2^31.
  PITEX_CHECK_MSG(BodyEnd() <= kIdLimit,
                  "sketch pool exceeds its directory words");
  max_sketch_vertices_ =
      std::max(max_sketch_vertices_, static_cast<uint32_t>(n));
}

/// The repairs a DynamicRrIndex has made since its base pool was built,
/// as a copyable value: the master edits its own overlay, and each
/// published snapshot serves an immutable copy beside the shared base
/// (RrIndex::FromPool). It holds
///   * repaired sketches, appended to a run in pool layout at the base
///     pool's widths (a sketch repaired twice keeps its superseded copy
///     until compaction);
///   * a sketch-id redirect to each repaired sketch's current copy;
///   * replacement containing lists, coded at the base pool's k against
///     its root starts, for the vertices whose membership changed.
class RrSketchOverlay {
 public:
  static constexpr uint32_t kNotRepaired = UINT32_MAX;

  /// An overlay of no base: its sketches take a default pool's widths
  /// (any network's), Put checks no root, and it holds no list.
  RrSketchOverlay() = default;
  /// An overlay of `base`, which must outlive it: its sketches take the
  /// base's widths and topology and its lists the base's k
  /// (RrSketchPool::containing_k) and root starts, so one decoder reads
  /// both, and each copy Put stores must keep its id's root in the base.
  explicit RrSketchOverlay(const RrSketchPool& base)
      : store_(base.EmptyLike()),
        base_(&base),
        containing_k_(base.containing_k()) {}

  /// Sketch copies stored, superseded ones included: the size
  /// compaction bounds.
  size_t num_stored() const { return store_.num_sketches(); }
  bool empty() const { return num_stored() == 0; }

  /// Store slot of sketch `id`'s current copy, or kNotRepaired.
  uint32_t SlotOf(uint32_t id) const {
    // The bitmap answers the common case (never repaired) without
    // hashing; the map holds the slot of the few repaired ids.
    const size_t word = id >> 6;
    if (word >= repaired_bits_.size() ||
        ((repaired_bits_[word] >> (id & 63)) & 1) == 0) {
      return kNotRepaired;
    }
    return slot_of_.find(id)->second;
  }
  /// The copy in store slot `slot`, `u` a vertex it contains
  /// (RrSketchPool::View).
  RRView View(uint32_t slot, VertexId u) const {
    return store_.View(slot, u);
  }

  /// u's replacement containing list (the sketches containing u that u
  /// does not root: a repair never changes a root), or nothing while
  /// u's membership is still the base's.
  std::optional<ContainingList> NonRootContaining(VertexId u) const {
    const auto it = containing_.find(u);
    if (it == containing_.end()) return std::nullopt;
    const CodedList& list = it->second;
    return ContainingList(list.bytes.data(), 0, list.bits, containing_k_,
                          base_->root_starts_);
  }

  size_t max_sketch_vertices() const { return store_.max_sketch_vertices(); }
  /// Approximate footprint.
  size_t SizeBytes() const;

  /// Appends `sketch` as sketch `id`'s current copy. `sketch` must not
  /// view this overlay, and a repair keeps its sketch's root: in an
  /// overlay of a base, sketch.root() must be id's root there.
  void Put(uint32_t id, const RRView& sketch);
  /// The pool of every current sketch over `base`, the pool this
  /// overlay's sketches take their widths from: FromRuns of `base`'s
  /// stretches of unrepaired sketches and of each repaired sketch's
  /// current copy in the store, so no block is re-encoded and superseded
  /// copies are left out. A repair keeps its sketch's id and root (Put),
  /// so the fold takes `base`'s root starts, and every sketch keeps its
  /// id. Compaction, and the index writer for an index with repairs,
  /// finish base + overlay this way.
  RrSketchPool Fold(const RrSketchPool& base) const;
  /// Replaces u's containing list with `ids` (ascending by id, each with
  /// its root in the base, none rooted at u), coded. The overlay must
  /// have a finished base.
  void SetContaining(VertexId u, std::span<const RootedId> ids);

 private:
  /// One coded list: its bits from bit 0 of `bytes`, padded as a pool's.
  struct CodedList {
    std::vector<uint8_t> bytes;
    uint64_t bits = 0;
  };

  RrSketchPool store_;
  const RrSketchPool* base_ = nullptr;  // whose roots each copy keeps
  std::vector<uint64_t> repaired_bits_;  // bit id set <=> id in slot_of_
  std::unordered_map<uint32_t, uint32_t> slot_of_;
  std::unordered_map<VertexId, CodedList> containing_;
  uint32_t containing_k_ = 0;
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_RR_SKETCH_POOL_H_
