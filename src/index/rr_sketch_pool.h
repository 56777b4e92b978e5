// Pooled storage for the offline RR-Graph index (Sec. 6.1): all theta
// sketches flattened into a few contiguous arrays (a CSR of per-sketch
// CSRs), plus an inverted "containing" index whose per-vertex lists are
// Rice-coded gaps.
//
// The IndexEst estimate path walks theta(u) tiny sketches per query; with
// one heap object per sketch (three vectors each) those walks chase
// pointers all over the heap and the allocator dominates build time. The
// pool keeps each sketch in one contiguous block, hands out non-owning
// RRViews, and answers Containing(u) from one exact-size bit array — no
// per-sketch or per-vertex heap objects at all, and SizeBytes() is O(1).
//
// Layout for sketch i (n_i vertices, m_i edges), with no padding
// anywhere, and every total checked to fit:
//   slots_           the directory, two levels (GroupWords): one u32
//                    base per group of 64 sketches, the byte offset in
//                    body_ where the next block starts when sketch 64g
//                    is appended, and one word per sketch: the root
//                    vertex id of an implicit singleton (top bit
//                    clear), else top bit | the start of sketch i's
//                    block less its group's base. Every word takes 2
//                    bytes (flag bit 15) while each singleton's root
//                    and each block's start less its base are below
//                    2^15, else every word takes 4 (flag bit 31)
//   body_[start ..]  a header, the LEB128 varint (PutVarint) of
//                    n_i << 4 | in-tree << 3 |
//                    edge ids wide << 2 | vertices wide << 1 |
//                    ids wide: one byte while n_i <= 7, two while
//                    n_i <= 1,023; then the n_i sorted vertex ids at
//                    v_i bytes each, then the root's local id, the
//                    n_i + 1 local CSR offsets (0 .. m_i) unless the
//                    block is an in-tree, and the m_i local edge heads
//                    at w_i bytes each; then the m_i records of
//                    e_i + 4 bytes, the edge id at e_i bytes and the
//                    threshold's bits
// A sketch's walk therefore reads its directory word, its group's base
// (a 12.5 KB array for 200,000 sketches) and one block. On pitexbench's
// network the largest singleton root is 24,999 and the largest block
// start less its base 1,713 B, so the directory takes 2-byte words.
// An *in-tree* block is one whose CSR gives the root no out-edge and
// every other vertex exactly one (IsInTree): m_i = n_i - 1 and offset j
// is j, less one past the root (InTreeOffset), so the block stores no
// offsets and its view hands readers a TreeCsr. On pitexbench's network
// all but 5 of the 85,966 blocks are in-trees. Like the widths, the
// form is chosen from the block's own data, and a block of an in-tree's
// shape is never stored with offsets.
// Vertex ids and block offsets fit 31 bits, so the body holds at most
// 2 GiB. All three widths are chosen from the block's own data, with no
// option. w_i is 1 byte while the block's local ids fit one (IdWidth:
// n_i <= 256 and m_i <= 255), else 4; v_i is 2 bytes while its largest
// vertex fits 16 bits (VertexWidth), else 4; e_i is 3 bytes while its
// largest edge id fits 24 bits (EdgeWidth), else 4. On pitexbench's
// network (25,000 vertices, 297,497 edges) every block takes 1, 2 and 3
// bytes; a graph past 65,536 vertices or 2^24 edges keeps the wider
// field in the blocks that reach beyond it. A view carries every width:
// its CSR readers dispatch on the id width once per sketch
// (RRView::VisitCsr), a vertex search on the vertex width once
// (VertexIds::LocalIndex), and its records step by e_i + 4 bytes
// (EdgeRecords).
// An *implicit singleton* — one vertex (necessarily the root) and no
// edges; 57% of the sketches on pitexbench's network — has no block:
// its directory word is its vertex, and View() serves its header and
// root id from a static in-tree block, so the estimate walk over it
// reads only its directory word. The static block reads the vertex at
// 2 bytes while it fits them, so a graph whose vertices all fit 16
// bits reads every sketch at one vertex width, and nearly every sketch
// in one CSR form. A 2-byte word is exactly the 2-byte vertex.
//
// Containing lists, for vertex u:
//   bits [start(u), start(u + 1)) of containing_
// hold the ids of the sketches containing u, ascending, as Rice codes
// (ContainingList): the first id as itself, then each gap to the next
// less 1 (the ids strictly ascend). A value x at parameter k is x >> k
// one-bits, a zero, then the low k bits of x, LSB-first as in
// little-endian 64-bit words; the array ends in 7 bytes of padding, so
// the decoder's 8-byte loads stay inside it. One k serves the whole
// pool, chosen from its own totals with no option: the log of the mean
// gap, bit_width(floor(theta * |V| / occurrences)) - 1 (RiceParameter),
// which bounds the lists at occurrences * (k + 3) bits. The gaps are
// close to geometric, for which Rice coding at the mean is near the
// entropy: on pitexbench's network (theta = 200,000, |V| = 25,000,
// 454,185 ids) k = 13 and the lists take 14.8 bits per id, against
// 17.4 for LEB128 gaps and 32 for a u32 list. An overlay codes its
// replacement lists at its base pool's k, so one decoder reads both.
// The starts are bit offsets, stored in two levels like the directory:
// start(u) is containing_starts_'s base for u's group of 64 vertices,
// start(64g), plus u's word, at 2 bytes while every group's words fit
// 16 bits (the largest on pitexbench's network is 31,428), else at 4.
//
// Both arrays use one two-level store, GroupWords, as FST stores its
// succinct arrays: sparse absolute samples and narrow relative entries,
// read in place. Each pool chooses each array's word width from its own
// data, as each block chooses its widths, with no option.
//
// Every pool is written one way: sketches are appended in this layout
// (AppendSketch, which Append and the generator call) into exact-size
// arrays, then the containing index is built once, serially. The
// build's generator appends to *runs* — pools without a containing
// index, one per worker slot — and FromRuns copies their segments, in
// sample order, into the finished pool. Pack (compaction, saving an
// index with repairs) sizes its arrays in one pass over its views and
// appends straight into them. Every writer starts the directory at
// 2-byte words and widens it once, in place, when a word first fails to
// fit them (PushSlot); the widening doubles the words' room, so Pack's
// and FromRuns' exact-size arrays stay exact. A loaded pool was written
// this way before it was saved: the index loader (src/index/index_io.h)
// reads the directory's words and the body back as they are, and
// FinishLoaded derives the directory's bases and accepts the arrays
// only if they are exactly what Pack writes for their own views. An
// overlay's sketch store is a run that is never finished, and so are
// the two other runs SketchArena writes: the one-sketch run DynamicRrIndex re-closes each repaired sketch
// into before the overlay copies it, and the run of graphs DelayMat
// recovers for its cached query user.
//
// A finished pool is immutable. DynamicRrIndex, which repairs
// individual sketches, never mutates it: it shares one pool as its
// *base* with every snapshot it publishes and records repairs in an
// RrSketchOverlay (below) until compaction packs base + overlay into a
// new pool.

#ifndef PITEX_SRC_INDEX_RR_SKETCH_POOL_H_
#define PITEX_SRC_INDEX_RR_SKETCH_POOL_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/util/check.h"

namespace pitex {

/// Writes entry j of a packed array of T: the inverse of LoadId.
template <typename T>
inline void StoreId(std::byte* data, size_t j, uint32_t id) {
  const auto narrow = static_cast<T>(id);
  std::memcpy(data + j * sizeof(T), &narrow, sizeof(T));
}

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

/// The write side of LocalCsr: one pool block's packed offsets and heads
/// at id width T, and its edge records at the block's edge width, as
/// RrSketchPool::AppendSketch hands them to its fill. An in-tree block
/// stores no offsets, so set_offset only checks the ones it is given.
template <typename T>
struct LocalCsrOut {
  std::byte* offsets;   // n + 1 entries; null in an in-tree block
  std::byte* heads;     // m entries
  std::byte* records;   // m records (EdgeRecords' layout)
  uint32_t edge_width;  // bytes per edge id: 3 or 4
  uint32_t root_local;  // the root's local id

  void set_offset(size_t j, uint32_t id) const {
    if (offsets == nullptr) {
      PITEX_DCHECK(id == InTreeOffset(j, root_local));
      return;
    }
    StoreId<T>(offsets, j, id);
  }
  void set_head(size_t k, uint32_t id) const { StoreId<T>(heads, k, id); }
  void set_edge(size_t k, RRLocalEdge edge) const {
    PITEX_DCHECK(edge_width == 4 || edge.edge < (uint32_t{1} << 24));
    EdgeRecords::Store(records + k * (edge_width + sizeof(float)), edge_width,
                       edge);
  }
};

/// Rice codes, as the containing lists store their ids: x at parameter
/// k is x >> k one-bits, a zero, then the low k bits of x. Bits go
/// LSB-first, as in little-endian 64-bit words. A list codes its first
/// id as itself and each later id as its gap to the one before less 1,
/// as the ids strictly ascend. A coded array ends in kRicePadding bytes
/// past its last coded byte, so an 8-byte load at any of its coded bits
/// stays inside it, and a load holds the array's next kRiceWindow bits
/// whatever the bit's place in its byte.
inline constexpr size_t kRicePadding = 7;
inline constexpr uint32_t kRiceWindow = 57;

/// Bytes a coded array of `bits` bits takes, its padding included (none
/// when it codes nothing).
inline size_t RiceBytes(uint64_t bits) {
  return bits == 0 ? 0 : static_cast<size_t>((bits + 7) / 8) + kRicePadding;
}

/// Bits the Rice codes of the ascending `ids` take at parameter k.
inline uint64_t RiceListBits(std::span<const uint32_t> ids, uint32_t k) {
  uint64_t bits = 0;
  uint32_t last = UINT32_MAX;  // one before id 0
  for (const uint32_t id : ids) {
    bits += ((id - last - 1) >> k) + 1 + k;
    last = id;
  }
  return bits;
}

/// The 8 bytes of a coded array from bit `pos`'s byte, shifted down to
/// bit `pos`: its low kRiceWindow bits are the array's.
inline uint64_t LoadRiceBits(const uint8_t* data, uint64_t pos) {
  uint64_t word;
  std::memcpy(&word, data + (pos >> 3), sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word >> (pos & 7);
}

/// Writes lists of Rice codes one after another from bit 0 of an array
/// of RiceBytes(bits) bytes, a 64-bit word at a time: codes gather in a
/// register, so each byte is stored once and never read back.
class RiceWriter {
 public:
  explicit RiceWriter(uint8_t* out) : out_(out) {}

  /// Appends the codes of the ascending `ids` at parameter k (at most
  /// 31).
  void PutList(std::span<const uint32_t> ids, uint32_t k) {
    constexpr uint32_t kRun = 31;  // ones per Put, so a code fits 63 bits
    uint32_t last = UINT32_MAX;    // one before id 0
    for (const uint32_t id : ids) {
      const uint32_t x = id - last - 1;
      last = id;
      uint32_t q = x >> k;
      for (; q > kRun; q -= kRun) Put((uint64_t{1} << kRun) - 1, kRun);
      const uint64_t low = x & ((uint64_t{1} << k) - 1);
      Put(((uint64_t{1} << q) - 1) | low << (q + 1), q + 1 + k);
    }
  }
  /// Stores the last, partial word and returns the bits written.
  uint64_t Finish() {
    if ((pos_ & 63) != 0) Store(pos_ >> 6);
    return pos_;
  }

 private:
  /// Appends the low n (< 64) bits of `bits`.
  void Put(uint64_t bits, uint32_t n) {
    const uint32_t used = pos_ & 63;
    word_ |= bits << used;
    if (used + n >= 64) {
      Store(pos_ >> 6);
      // used > 0 here, as n < 64: the bits the stored word had no room
      // for.
      word_ = bits >> (64 - used);
    }
    pos_ += n;
  }
  /// Stores word_ as 64-bit word w of the array.
  void Store(uint64_t w) {
    uint64_t word = word_;
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(out_ + w * sizeof(word), &word, sizeof(word));
  }

  uint8_t* out_;
  uint64_t pos_ = 0;
  uint64_t word_ = 0;  // the bits of word pos_ >> 6 written so far
};

/// The Rice parameter of a pool's containing lists: the log of their
/// mean gap, k = bit_width(floor(theta * |V| / occurrences)) - 1, where
/// `occurrences` is the total of the sketches' vertex counts (0 when
/// there are none). A gap's quotients then sum, over one list, to at
/// most theta >> k, and theta * |V| / 2^k < 2 * occurrences, so the
/// lists take at most occurrences * (k + 3) bits. Ids fit 32 bits, so a
/// larger k saves nothing, and k stays at most 31, as RiceWriter needs.
inline uint32_t RiceParameter(uint64_t theta, uint64_t num_vertices,
                              uint64_t occurrences) {
  if (occurrences == 0) return 0;
  // Every sketch holds at least one of fewer than 2^32 vertices and
  // none twice, so the product fits 64 bits and 1 <= mean <= |V|.
  const uint64_t mean = theta * num_vertices / occurrences;
  return std::min<uint32_t>(31, static_cast<uint32_t>(std::bit_width(mean)) -
                                    1);
}

/// One vertex's containing list as stored, in a pool or an overlay: its
/// sketch ids, ascending, as Rice codes at the pool's parameter k
/// (RiceWriter), bits [begin, end) of a coded array. A read-only
/// forward range that decodes as it iterates, without allocating. Only
/// this module's coder writes the bits (a loaded pool rebuilds its
/// lists, they are not saved), so the decoder trusts them.
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
    Iterator& operator++() {
      at_ = next_;
      if (at_ != end_) Decode();
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const { return at_ == other.at_; }

   private:
    friend class ContainingList;
    Iterator(const uint8_t* data, uint64_t at, uint64_t end, uint32_t k)
        : data_(data), at_(at), next_(at), end_(end), k_(k) {
      if (at_ != end_) Decode();
    }
    /// Adds the code at next_, plus 1, to id_ and steps next_ past it.
    /// A load holds kRiceWindow bits: a unary run of that many ones or
    /// more takes further loads, and low bits past the window one more.
    void Decode() {
      uint64_t window = LoadRiceBits(data_, next_);
      uint64_t q = 0;
      uint32_t ones;
      while ((ones = static_cast<uint32_t>(std::countr_one(window))) >=
             kRiceWindow) {
        q += kRiceWindow;
        next_ += kRiceWindow;
        window = LoadRiceBits(data_, next_);
      }
      q += ones;
      next_ += ones + 1;
      const uint64_t mask = (uint64_t{1} << k_) - 1;
      const uint64_t low = ones + 1 + k_ <= kRiceWindow
                               ? (window >> (ones + 1)) & mask
                               : LoadRiceBits(data_, next_) & mask;
      next_ += k_;
      id_ += static_cast<uint32_t>(q << k_ | low) + 1;
    }

    const uint8_t* data_ = nullptr;
    uint64_t at_ = 0;    // the current id's first bit
    uint64_t next_ = 0;  // the next id's first bit
    uint64_t end_ = 0;
    uint32_t k_ = 0;
    uint32_t id_ = UINT32_MAX;  // one before id 0: a first id codes as itself
  };

  ContainingList(const uint8_t* data, uint64_t begin, uint64_t end,
                 uint32_t k)
      : data_(data), begin_(begin), end_(end), k_(k) {}

  Iterator begin() const { return {data_, begin_, end_, k_}; }
  Iterator end() const { return {data_, end_, end_, k_}; }
  /// How many ids the list holds, decoded in O(ids).
  size_t count() const {
    size_t ids = 0;
    for (Iterator it = begin(); it != end(); ++it) ++ids;
    return ids;
  }
  /// Bits the list's codes take.
  uint64_t bits() const { return end_ - begin_; }

 private:
  const uint8_t* data_ = nullptr;
  uint64_t begin_ = 0;
  uint64_t end_ = 0;
  uint32_t k_ = 0;
};

class RrSketchPool {
 public:
  /// Samples [sample, sample + count) stored in order as sketches
  /// [first, first + count) of run `run`: what FromRuns copies.
  struct Segment {
    uint64_t sample = 0;
    uint32_t run = 0;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  RrSketchPool() = default;

  /// Packs sketches view_of(0), ..., view_of(num_sketches - 1): sizes
  /// every array exactly, appends each view, then builds the containing
  /// index. `num_vertices` is the global vertex universe; every sketch
  /// vertex must lie inside it. DynamicRrIndex compaction, and the
  /// index writer for an index with repairs, pack this way.
  template <typename ViewOf>
  static RrSketchPool Pack(size_t num_sketches, size_t num_vertices,
                           ViewOf&& view_of);

  /// Finishes a pool from runs: copies every segment, in sample order,
  /// into exact-size arrays (rebasing each explicit directory word), then
  /// builds the containing index. The segments must cover samples
  /// [0, num_sketches) exactly once, so sketch i of the result is sample
  /// i whatever the runs and segments were: the pool is identical for
  /// any thread count and claim interleaving.
  static RrSketchPool FromRuns(std::span<const RrSketchPool> runs,
                               std::span<const Segment> segments,
                               uint64_t num_sketches, size_t num_vertices);

  /// Appends one sketch in the pooled layout without touching the
  /// containing index: a pool appended to is a run, which only FromRuns
  /// reads besides View(). The block takes its own widths and form
  /// whatever widths and form `sketch` is stored in. `sketch` must not
  /// view this pool.
  void Append(const RRView& sketch);
  /// Appends the sketch with `vertices` (sorted), rooted at
  /// vertices[root_local], and m edges whose largest id is `max_edge` (0
  /// when m = 0), as Append does: fill(out) writes its n + 1 offsets, m
  /// heads and m edge records through a LocalCsrOut<T> at the block's
  /// widths. `in_tree` says whether those offsets are an in-tree's
  /// (IsInTree), and the block then stores none of them. An implicit
  /// singleton (one vertex, no edges) has nothing to write and calls no
  /// fill.
  template <typename Fill>
  void AppendSketch(uint32_t root_local, std::span<const VertexId> vertices,
                    size_t m, EdgeId max_edge, bool in_tree, Fill&& fill) {
    AppendBlock(root_local, vertices, m, EdgeWidth(max_edge), in_tree,
                std::forward<Fill>(fill));
  }
  /// Drops every sketch, keeping every array's capacity: a cleared run
  /// takes appends without allocating up to its high-water mark.
  void Clear();

  size_t num_sketches() const { return slots_.size(); }
  bool empty() const { return num_sketches() == 0; }

  /// Non-owning view of sketch i (valid while the pool is alive).
  RRView View(size_t i) const {
    const uint32_t slot = slots_.word(i);
    const uint32_t flag = slots_.top_bit();
    // Selects, not branches: the packing passes and the estimate walk
    // meet singletons and explicit blocks interleaved at random, so the
    // base is loaded for a singleton too, keeping the block's address
    // free of a load that only one side of a branch makes. On a graph
    // of up to 65,536 vertices every sketch, singletons too, then reads
    // its vertices at 2 bytes, and singletons are in-trees like nearly
    // every block, so the walk's one dispatch per sketch almost always
    // goes the same way.
    const uint8_t* block = body_.data() + slots_.base(i) + (slot & ~flag);
    const uint8_t* singleton =
        slot <= UINT16_MAX ? kNarrowSingleton : kWideSingleton;
    uint32_t header;
    const auto* region = reinterpret_cast<const std::byte*>(
        GetVarint((slot & flag) != 0 ? block : singleton, &header));
    const uint32_t n = header >> kHeaderFlagBits;
    const bool in_tree = (header & kInTree) != 0;
    const uint32_t width = (header & kIdsWide) != 0 ? 4 : 1;
    const uint32_t vertex_width = (header & kVerticesWide) != 0 ? 4 : 2;
    const uint32_t edge_width = (header & kEdgesWide) != 0 ? 4 : 3;
    // After the vertices, the root's local id, then the offsets, whose
    // last is the edge count, then the heads and the records. An
    // in-tree block has n - 1 edges and no offsets.
    const std::byte* ids = region + n * vertex_width;
    const std::byte* offsets = ids + width;
    const bool narrow = width == 1;
    const uint32_t root_local =
        narrow ? LoadId<uint8_t>(ids, 0) : LoadId<uint32_t>(ids, 0);
    const uint32_t m = in_tree  ? n - 1
                       : narrow ? LoadId<uint8_t>(offsets, n)
                                : LoadId<uint32_t>(offsets, n);
    const std::byte* heads = in_tree ? offsets : offsets + (n + 1) * width;
    // A singleton's vertex is the low-order bytes of its directory word
    // (all of a 2-byte word).
    return RRView{root_local,
                  width,
                  {(slot & flag) != 0
                       ? region
                       : slots_.word_data(i) +
                             (std::endian::native == std::endian::big
                                  ? slots_.width() - vertex_width
                                  : 0),
                   n, vertex_width},
                  in_tree ? nullptr : offsets,
                  heads,
                  {heads + m * width, m, edge_width}};
  }

  /// Ids (sketch positions) of the sketches containing u, ascending.
  ContainingList Containing(VertexId u) const {
    const auto start = [this](size_t v) {
      return containing_starts_.base(v) + containing_starts_.word(v);
    };
    return ContainingList(containing_.data(), start(u), start(u + 1),
                          containing_k_);
  }
  /// theta(u): how many sketches contain u (Sec. 6.3 notation).
  size_t CountContaining(VertexId u) const { return Containing(u).count(); }
  /// Number of vertices the containing index covers.
  size_t num_universe_vertices() const {
    return containing_starts_.size() == 0 ? 0 : containing_starts_.size() - 1;
  }

  /// Largest per-sketch vertex count (scratch pre-sizing).
  size_t max_sketch_vertices() const { return max_sketch_vertices_; }

  /// The Rice parameter k every containing list is coded at
  /// (RiceParameter), chosen from the pool's own totals.
  uint32_t containing_k() const { return containing_k_; }

  /// Bytes per word of the directory and of the containing starts: 2
  /// while every word fits them, else 4.
  uint32_t directory_width() const { return slots_.width(); }
  uint32_t containing_start_width() const {
    return containing_starts_.width();
  }

  /// Exact footprint of the pooled arrays, computed in O(1).
  size_t SizeBytes() const;

 private:
  /// A u32 array in two levels: one 32-bit base per group of 64 entries
  /// and one word per entry, every word 2 bytes or every word 4, in the
  /// host's byte order. What a word adds to its base is the owner's to
  /// say: the directory's words are block offsets behind a flag or
  /// singleton vertices, the containing starts' are plain offsets.
  /// Writers open each group before its first word (OpenGroup), so the
  /// bases always cover the words. The words are kept as 2-byte units,
  /// two to a 4-byte word, so an append is a push_back.
  struct GroupWords {
    static constexpr unsigned kGroupBits = 6;
    static constexpr size_t kGroup = size_t{1} << kGroupBits;  // 64

    size_t size() const { return units.size() >> (shift - 1); }
    /// Bytes per word: 2 or 4.
    uint32_t width() const { return 1u << shift; }
    /// A word's top bit.
    uint32_t top_bit() const { return top; }
    uint32_t base(size_t i) const { return bases[i >> kGroupBits]; }
    const std::byte* word_data(size_t i) const {
      return reinterpret_cast<const std::byte*>(units.data()) + (i << shift);
    }
    uint32_t word(size_t i) const {
      return shift == 1 ? units[i] : LoadId<uint32_t>(word_data(i), 0);
    }
    /// The words' bytes, as the index file stores them.
    std::span<const uint8_t> bytes() const {
      return {reinterpret_cast<const uint8_t*>(units.data()),
              units.size() * sizeof(uint16_t)};
    }

    /// Makes room for exactly `count` words at `width` bytes: an empty
    /// array's writers then never regrow it.
    void Reserve(size_t count, uint32_t width) {
      SetWidth(width);
      bases.reserve((count + kGroup - 1) / kGroup);
      units.reserve(count << (shift - 1));
    }
    /// Opens the group of entry size() at `base` if that entry starts
    /// one.
    void OpenGroup(uint64_t base) {
      if (size() % kGroup == 0) bases.push_back(static_cast<uint32_t>(base));
    }
    /// Appends a word, which must fit the width.
    void Push(uint32_t word) {
      if (shift == 1) {
        PITEX_DCHECK(word <= UINT16_MAX);
        units.push_back(static_cast<uint16_t>(word));
        return;
      }
      uint16_t halves[2];
      std::memcpy(halves, &word, sizeof(word));
      units.push_back(halves[0]);
      units.push_back(halves[1]);
    }
    /// Rewrites 2-byte words at 4 bytes, word w as wide(w), in place:
    /// back to front, so no word is overwritten before it is read. The
    /// room doubles, so an array reserved exactly stays exact.
    template <typename Wide>
    void Widen(Wide&& wide) {
      PITEX_DCHECK(shift == 1);
      const size_t count = size();
      units.reserve(2 * units.capacity());
      units.resize(2 * count);
      auto* data = reinterpret_cast<std::byte*>(units.data());
      for (size_t i = count; i-- > 0;) {
        StoreId<uint32_t>(data, i, wide(LoadId<uint16_t>(data, i)));
      }
      SetWidth(4);
    }
    /// Drops every entry, keeping capacity, and returns to 2-byte
    /// words.
    void Clear() {
      bases.clear();
      units.clear();
      SetWidth(2);
    }
    /// Sets the word width, 2 or 4 bytes, of an empty or loaded array.
    void SetWidth(uint32_t width) {
      shift = width == 2 ? 1 : 2;
      top = 1u << (8 * width - 1);
    }
    size_t SizeBytes() const {
      return bases.capacity() * sizeof(uint32_t) +
             units.capacity() * sizeof(uint16_t);
    }

    std::vector<uint32_t> bases;
    std::vector<uint16_t> units;
    uint32_t shift = 1;        // log2 of the word width
    uint32_t top = 1u << 15;   // the words' top bit
  };

  /// The header packs n << kHeaderFlagBits with three width flags and
  /// the in-tree flag into 32 bits, so a block holds at most this many
  /// vertices.
  static constexpr uint32_t kHeaderFlagBits = 4;
  static constexpr uint64_t kMaxBlockVertices =
      (uint64_t{1} << (32 - kHeaderFlagBits)) - 1;
  /// Header flags: the local ids take 4 bytes (else 1), the vertices 4
  /// bytes (else 2), the edge ids 4 bytes (else 3); the block is an
  /// in-tree and stores no offsets.
  static constexpr uint32_t kIdsWide = 1;
  static constexpr uint32_t kVerticesWide = 2;
  static constexpr uint32_t kEdgesWide = 4;
  static constexpr uint32_t kInTree = 8;
  /// A wide directory word's top bit, the flag of a block offset: vertex
  /// ids and block offsets stay below it. A narrow word's flag is bit
  /// 15, and its vertex ids and offsets stay below that.
  static constexpr uint32_t kExplicit = 1u << 31;
  static constexpr uint32_t kNarrowExplicit = 1u << 15;
  /// The blocks implicit singletons read: a one-byte in-tree header
  /// (n = 1, so no edges), the vertex's bytes (unread: the view reads
  /// the vertex from the directory word, at 2 bytes while it fits them
  /// and at 4 otherwise), then the 1-byte root id 0.
  static constexpr uint8_t kNarrowSingleton[] = {
      1u << kHeaderFlagBits | kInTree, 0, 0, 0};
  static constexpr uint8_t kWideSingleton[] = {
      1u << kHeaderFlagBits | kInTree | kVerticesWide, 0, 0, 0, 0, 0};

  /// Entries a list of sketches needs in each array: Pack's sizing
  /// pass (the body in bytes).
  struct Totals {
    uint64_t body = 0;
    uint64_t vertices = 0;
    uint64_t max_vertices = 0;
    uint64_t max_vertex_id = 0;
    /// True when `num_sketches` sketches with these totals fit the
    /// directory words, 32-bit ids and block headers.
    bool Fit(uint64_t num_sketches) const {
      return num_sketches < UINT32_MAX && body <= kExplicit &&
             vertices <= UINT32_MAX && max_vertices <= kMaxBlockVertices &&
             max_vertex_id < kExplicit;
    }
  };
  template <typename ViewOf>
  static Totals Measure(size_t num_sketches, ViewOf&& view_of);

  /// Bytes per local id of a block with n vertices and m edges: the
  /// narrowest width holding every head (< n) and offset (<= m).
  static uint32_t IdWidth(uint64_t n, uint64_t m) {
    return n <= 256 && m <= 255 ? 1 : 4;
  }

  /// Bytes per vertex id of a block whose largest vertex is
  /// `max_vertex`.
  static uint32_t VertexWidth(uint64_t max_vertex) {
    return max_vertex <= UINT16_MAX ? 2 : 4;
  }

  /// Bytes per edge id of a block whose largest edge id is `max_edge`.
  static uint32_t EdgeWidth(uint64_t max_edge) {
    return max_edge < (uint64_t{1} << 24) ? 3 : 4;
  }

  /// Bytes per edge id of a block holding `edges`. Records stored at 3
  /// bytes hold ids below 2^24 already, so only wider ones are scanned
  /// for their largest id.
  static uint32_t EdgeWidthOf(const EdgeRecords& edges) {
    if (edges.width() == 3) return 3;
    EdgeId max_edge = 0;
    for (const RRLocalEdge e : edges) max_edge = std::max(max_edge, e.edge);
    return EdgeWidth(max_edge);
  }

  /// The header of a block with n vertices and m edges whose vertex ids
  /// take `vertex_width` bytes and edge ids `edge_width`, an in-tree or
  /// not: n, the block's widths and its form.
  static uint32_t BlockHeader(uint64_t n, uint64_t m, uint32_t vertex_width,
                              uint32_t edge_width, bool in_tree) {
    return static_cast<uint32_t>(n << kHeaderFlagBits) |
           (in_tree ? kInTree : 0) | (edge_width == 4 ? kEdgesWide : 0) |
           (vertex_width == 4 ? kVerticesWide : 0) |
           (IdWidth(n, m) == 4 ? kIdsWide : 0);
  }

  /// Bytes of a block's region: n vertices at `vertex_width` bytes, then
  /// the root id, n + 1 offsets unless the block is an in-tree, and m
  /// heads at `width` bytes.
  static uint64_t RegionBytes(uint64_t n, uint64_t m, uint64_t vertex_width,
                              uint64_t width, bool in_tree) {
    return n * vertex_width + ((in_tree ? 0 : n + 1) + 1 + m) * width;
  }

  /// body_ bytes of a sketch with n vertices and m edges at these
  /// widths and in this form: none for an implicit singleton, else the
  /// header, the region and m records.
  static uint64_t BodyLength(uint64_t n, uint64_t m, uint32_t vertex_width,
                             uint32_t edge_width, bool in_tree) {
    if (n == 1 && m == 0) return 0;
    return VarintLength(
               BlockHeader(n, m, vertex_width, edge_width, in_tree)) +
           RegionBytes(n, m, vertex_width, IdWidth(n, m), in_tree) +
           m * (edge_width + sizeof(float));
  }

  /// Bytes per directory word of a pool whose largest singleton vertex
  /// is `max_singleton` and whose largest block start less its group's
  /// base is `max_offset`.
  static uint32_t DirectoryWidth(uint64_t max_singleton, uint64_t max_offset) {
    return max_singleton < kNarrowExplicit && max_offset < kNarrowExplicit
               ? 2
               : 4;
  }

  /// Calls fn(block, value) for sketches first .. last - 1 in order:
  /// value is where the sketch's block starts in body_, or a
  /// singleton's vertex. One dispatch on the word width, then a loop at
  /// that width that keeps the arrays' addresses in registers whatever
  /// fn stores.
  template <typename Fn>
  void ForEachSlot(size_t first, size_t last, Fn&& fn) const {
    const auto each = [&]<typename T>() {
      const auto* words =
          reinterpret_cast<const std::byte*>(slots_.units.data());
      const uint32_t* bases = slots_.bases.data();
      constexpr uint32_t kFlag = uint32_t{1} << (8 * sizeof(T) - 1);
      for (size_t i = first; i < last; ++i) {
        const uint32_t word = LoadId<T>(words, i);
        if ((word & kFlag) != 0) {
          fn(true, bases[i >> GroupWords::kGroupBits] + (word & ~kFlag));
        } else {
          fn(false, word);
        }
      }
    };
    if (slots_.shift == 1) {
      each.template operator()<uint16_t>();
    } else {
      each.template operator()<uint32_t>();
    }
  }
  /// Appends sketch num_sketches()'s directory word: a singleton's
  /// vertex, or a block's start less its group's base behind the flag.
  /// A 2-byte directory first widens, once, in place, if the value does
  /// not fit below bit 15: every writer starts narrow and ends at the
  /// width its own words call for (DirectoryWidth).
  void PushSlot(uint32_t value, bool block) {
    if (slots_.shift == 1 && value >= kNarrowExplicit) [[unlikely]] {
      WidenDirectory();
    }
    slots_.Push(block ? slots_.top_bit() | value : value);
  }
  /// Rewrites a 2-byte directory at 4-byte words: out of line, as a
  /// pool widens at most once.
  void WidenDirectory();

  /// Calls fn(vertices) with each sketch's sorted vertices, in order:
  /// a singleton's one vertex from its directory word, a block's from
  /// after its header, and none of the rest of a view.
  template <typename Fn>
  void ForEachVertices(Fn&& fn) const {
    ForEachSlot(0, num_sketches(), [&](bool block, uint32_t value) {
      if (!block) {
        fn(VertexIds(reinterpret_cast<const std::byte*>(&value), 1,
                     sizeof(value)));
        return;
      }
      uint32_t header;
      const auto* region = reinterpret_cast<const std::byte*>(
          GetVarint(body_.data() + value, &header));
      fn(VertexIds(region, header >> kHeaderFlagBits,
                   (header & kVerticesWide) != 0 ? 4 : 2));
    });
  }

  /// AppendSketch for any sorted vertex range with size() and
  /// operator[]: a span, or a view's VertexIds that Append re-encodes
  /// at the block's own width.
  template <typename VertexRange, typename Fill>
  void AppendBlock(uint32_t root_local, const VertexRange& vertices, size_t m,
                   uint32_t edge_width, bool in_tree, Fill&& fill);

  /// Where sketch i's block would start in body_: the start of the first
  /// explicit block at or after i, or the end of body_.
  uint64_t BodyStart(size_t i) const;

  /// Checks a pool whose directory words and body_ were read from a
  /// file (src/index/index_io.h) and, if they hold, derives the
  /// directory's bases and builds its containing index. Walking the
  /// directory in order, each group's base is where the next block must
  /// start, each singleton's vertex and each block's sorted vertices
  /// must lie below num_vertices, each block must start where the one
  /// before it ended (its word is that start less its base), and the
  /// words may take 4 bytes only if some word needs them
  /// (DirectoryWidth). Each block's header must be a varint of no more
  /// bytes than its value needs, with n > 0 and the flags of the
  /// block's own widths and form (BlockHeader: a block of an in-tree's
  /// shape stored with offsets fails), its root id and heads below n,
  /// its offsets rise from 0, an in-tree's parent pointers lead every
  /// vertex to its root (ParentsReachRoot), and its records' edge ids
  /// lie below num_edges with thresholds in [0, 1]; the blocks end at
  /// body_'s end. So a pool that passes is exactly what Pack writes for
  /// its own views. False on the first check that fails.
  bool FinishLoaded(size_t num_vertices, size_t num_edges);

  /// Rebuilds containing_starts_/containing_ from the packed sketches:
  /// two serial passes in ascending sketch order sort each vertex's ids
  /// into a scratch array (the first counts them, which also sets
  /// containing_k_ and recounts max_sketch_vertices_), then RiceWriter
  /// codes the lists in vertex order into an exact-size array. The
  /// starts take 2-byte words while every group's do.
  void BuildContaining(size_t num_vertices);

  friend class IndexIo;  // saves and loads the directory words and body_

  GroupWords slots_;             // the directory: one word per sketch
  std::vector<uint8_t> body_;    // blocks: header, region, records
  GroupWords containing_starts_;     // num_vertices + 1 bit offsets
  std::vector<uint8_t> containing_;  // Rice-coded lists, by vertex
  // Fits 32 bits: a block holds under 2^29 vertices.
  uint32_t max_sketch_vertices_ = 0;
  uint32_t containing_k_ = 0;
};

// The view-function templates are defined here so that a caller's view
// function inlines into the per-sketch loops.

template <typename ViewOf>
RrSketchPool::Totals RrSketchPool::Measure(size_t num_sketches,
                                           ViewOf&& view_of) {
  Totals totals;
  for (size_t i = 0; i < num_sketches; ++i) {
    const RRView rr = view_of(i);
    totals.body += BodyLength(rr.vertices.size(), rr.edges.size(),
                              VertexWidth(rr.vertices.back()),
                              EdgeWidthOf(rr.edges), rr.InTree());
    totals.vertices += rr.vertices.size();
    totals.max_vertices =
        std::max<uint64_t>(totals.max_vertices, rr.vertices.size());
    // Sorted, so the last vertex is the largest.
    totals.max_vertex_id =
        std::max<uint64_t>(totals.max_vertex_id, rr.vertices.back());
  }
  return totals;
}

template <typename ViewOf>
RrSketchPool RrSketchPool::Pack(size_t num_sketches, size_t num_vertices,
                                ViewOf&& view_of) {
  // Exact-size arrays up front, so the appends never regrow them.
  const Totals totals = Measure(num_sketches, view_of);
  PITEX_CHECK_MSG(totals.Fit(num_sketches),
                  "sketch pool exceeds its directory words");
  RrSketchPool pool;
  pool.slots_.Reserve(num_sketches, 2);
  pool.body_.reserve(totals.body);
  for (size_t i = 0; i < num_sketches; ++i) pool.Append(view_of(i));
  pool.BuildContaining(num_vertices);
  return pool;
}

template <typename VertexRange, typename Fill>
void RrSketchPool::AppendBlock(uint32_t root_local,
                               const VertexRange& vertices, size_t m,
                               uint32_t edge_width, bool in_tree,
                               Fill&& fill) {
  const size_t n = vertices.size();
  PITEX_DCHECK(root_local < n);
  PITEX_DCHECK(!in_tree || m + 1 == n);
  // Sorted, so the last vertex is the largest.
  const VertexId max_vertex = vertices[n - 1];
  PITEX_CHECK_MSG(max_vertex < kExplicit,
                  "sketch vertex id exceeds the directory word");
  const uint32_t vertex_width = VertexWidth(max_vertex);
  const uint64_t length = BodyLength(n, m, vertex_width, edge_width, in_tree);
  const size_t i = slots_.size();
  slots_.OpenGroup(body_.size());
  if (length == 0) {
    // Implicit singleton: its directory word is its vertex.
    PushSlot(vertices[0], /*block=*/false);
  } else {
    PITEX_CHECK_MSG(n <= kMaxBlockVertices,
                    "sketch exceeds the block header's vertex count");
    const uint32_t width = IdWidth(n, m);
    const size_t start = body_.size();
    body_.resize(start + length);
    auto* region = reinterpret_cast<std::byte*>(
        PutVarint(BlockHeader(n, m, vertex_width, edge_width, in_tree),
                  body_.data() + start));
    if (vertex_width == 2) {
      for (size_t j = 0; j < n; ++j) StoreId<uint16_t>(region, j, vertices[j]);
    } else {
      for (size_t j = 0; j < n; ++j) StoreId<uint32_t>(region, j, vertices[j]);
    }
    std::byte* ids = region + n * vertex_width;
    std::byte* offsets = in_tree ? nullptr : ids + width;
    std::byte* heads = ids + width + (in_tree ? 0 : (n + 1) * width);
    std::byte* records = heads + m * width;
    if (width == 1) {
      StoreId<uint8_t>(ids, 0, root_local);
      fill(LocalCsrOut<uint8_t>{offsets, heads, records, edge_width,
                                root_local});
    } else {
      StoreId<uint32_t>(ids, 0, root_local);
      fill(LocalCsrOut<uint32_t>{offsets, heads, records, edge_width,
                                 root_local});
    }
    PushSlot(static_cast<uint32_t>(start - slots_.base(i)), /*block=*/true);
    // Offsets stored only where they are not an in-tree's, and an
    // in-tree's parents lead to its root.
    PITEX_DCHECK(View(i).InTree() == in_tree);
    PITEX_DCHECK(!in_tree || ParentsReachRoot(View(i)));
  }
  // Sketch ids are u32 (containing_), and every block's start stays
  // below a wide directory word's top bit.
  PITEX_CHECK_MSG(slots_.size() < UINT32_MAX && body_.size() <= kExplicit,
                  "sketch pool exceeds its directory words");
  max_sketch_vertices_ =
      std::max(max_sketch_vertices_, static_cast<uint32_t>(n));
}

/// The repairs a DynamicRrIndex has made since its base pool was packed,
/// as a copyable value: the master edits its own overlay, and each
/// published snapshot serves an immutable copy beside the shared base
/// (RrIndex::FromPool). It holds
///   * repaired sketches, appended to a run in pool layout (a sketch
///     repaired twice keeps its superseded copy until compaction);
///   * a sketch-id redirect to each repaired sketch's current copy;
///   * replacement containing lists, Rice-coded at the base pool's k, for
///     the vertices whose membership changed.
class RrSketchOverlay {
 public:
  static constexpr uint32_t kNotRepaired = UINT32_MAX;

  /// An overlay whose lists are coded at `containing_k`, its base pool's
  /// (RrSketchPool::containing_k), so one decoder reads both.
  explicit RrSketchOverlay(uint32_t containing_k = 0)
      : containing_k_(containing_k) {}

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
  RRView View(uint32_t slot) const { return store_.View(slot); }

  /// u's replacement containing list, or nothing while u's membership
  /// is still the base's.
  std::optional<ContainingList> Containing(VertexId u) const {
    const auto it = containing_.find(u);
    if (it == containing_.end()) return std::nullopt;
    const CodedList& list = it->second;
    return ContainingList(list.bytes.data(), 0, list.bits, containing_k_);
  }

  size_t max_sketch_vertices() const { return store_.max_sketch_vertices(); }
  /// Approximate footprint.
  size_t SizeBytes() const;

  /// Appends `sketch` as sketch `id`'s current copy. `sketch` must not
  /// view this overlay.
  void Put(uint32_t id, const RRView& sketch);
  /// Replaces u's containing list with `ids` (ascending), coded.
  void SetContaining(VertexId u, std::span<const uint32_t> ids);

 private:
  /// One coded list: its bits from bit 0 of `bytes`, padded as a pool's.
  struct CodedList {
    std::vector<uint8_t> bytes;
    uint64_t bits = 0;
  };

  RrSketchPool store_;
  std::vector<uint64_t> repaired_bits_;  // bit id set <=> id in slot_of_
  std::unordered_map<uint32_t, uint32_t> slot_of_;
  std::unordered_map<VertexId, CodedList> containing_;
  uint32_t containing_k_ = 0;
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_RR_SKETCH_POOL_H_
