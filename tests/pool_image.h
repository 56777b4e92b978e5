// Test-only model of a saved RR index's pool image, shared by the index
// loader's test suite (tests/index_io_fuzz_test.cc) and its libFuzzer
// harness (tests/fuzz/index_io_fuzz.cc, which writes each edit below as
// a seed). An Image takes a file apart into the pool arrays it holds,
// a Block reads and writes one sketch block's bit fields, and
// ValidatorRows lists single-field edits no saved pool can hold, each
// of which the loader must refuse with its row's typed error
// (kCorruptPayload unless the row says otherwise). PoolDifference
// compares two finished pools array by array, through their images.

#ifndef PITEX_TESTS_POOL_IMAGE_H_
#define PITEX_TESTS_POOL_IMAGE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/index/index_io.h"
#include "src/index/rr_graph.h"
#include "src/index/rr_index.h"
#include "src/index/rr_sketch_pool.h"
#include "src/model/influence_graph.h"
#include "src/util/serialize.h"

namespace pitex {
namespace pool_image {

// Where a saved RR file's payload starts: after the header (the magic
// as a u64 length and 8 bytes, version u32, kind u8, then fingerprint,
// eps, delta, cap_k and seed at 8 bytes each). It ends before
// build_seconds and the checksum, 8 bytes each.
constexpr size_t kThetaOffset = 8 + 8 + 4 + 1 + 5 * 8;
constexpr size_t kVersionOffset = 8 + 8;
// A block header is n << 1 | in-tree; a record is its rank alone.
constexpr uint32_t kHeaderFlagBits = 1;
constexpr size_t kTrailerBytes = 16;
constexpr uint32_t kExplicit = 1u << 31;
constexpr size_t kGroup = 64;   // directory entries per base
constexpr size_t kPadding = 7;  // zero bytes after a body's blocks

// Overwrites the trailing checksum with the digest of everything before
// it, so a mutation reaches the structural checks and, if it passes
// them, the round trip.
inline void RepairChecksum(std::string* bytes) {
  constexpr size_t kDigestBytes = 8;
  Fnv1a hash;
  hash.Update(bytes->data(), bytes->size() - kDigestBytes);
  uint64_t digest = hash.digest();
  for (size_t i = bytes->size() - kDigestBytes; i < bytes->size(); ++i) {
    (*bytes)[i] = static_cast<char>(digest & 0xff);
    digest >>= 8;
  }
}

// Bits of a field that holds every id below `count`.
inline uint32_t FieldBits(uint64_t count) {
  uint32_t bits = 0;
  while ((uint64_t{1} << bits) < count) ++bits;
  return bits;
}

// Bytes the LEB128 varint of x takes.
inline size_t VarintBytes(uint64_t x) {
  size_t bytes = 1;
  for (; x >= 128; x >>= 7) ++bytes;
  return bytes;
}

inline void PutVarintTo(uint64_t x, std::vector<uint8_t>* out) {
  for (; x >= 0x80; x >>= 7) out->push_back(static_cast<uint8_t>(x | 0x80));
  out->push_back(static_cast<uint8_t>(x));
}

// Bits [pos, pos + bits) of `data`, LSB-first, and their inverse.
inline uint64_t GetBits(const std::vector<uint8_t>& data, uint64_t pos,
                        uint32_t bits) {
  uint64_t value = 0;
  for (uint32_t b = 0; b < bits; ++b) {
    const uint64_t at = pos + b;
    value |= uint64_t{(data[at / 8] >> (at % 8)) & 1u} << b;
  }
  return value;
}
inline void SetBits(std::vector<uint8_t>* data, uint64_t pos, uint32_t bits,
                    uint64_t value) {
  for (uint32_t b = 0; b < bits; ++b) {
    const uint64_t at = pos + b;
    const auto mask = static_cast<uint8_t>(1u << (at % 8));
    (*data)[at / 8] = static_cast<uint8_t>(
        ((value >> b) & 1) != 0 ? (*data)[at / 8] | mask
                                : (*data)[at / 8] & ~mask);
  }
}

struct Block;

// A saved file taken apart into the pool arrays it images: each
// vertex's count of rooted sketches (unpacked from the bit width the
// file names), which set the root ranges, the directory's word width in
// bits, its group masks and signed block words decoded to a slot per
// sketch,
// kExplicit | a block's start in the body or 0 for a singleton, the
// bases the loader derives for them (where the next first copy starts
// at each group's first sketch), and the body bytes, padding included,
// with the field widths the network calls for. A repeat (a block
// byte-equal to an earlier one of its root range) has the slot of that
// range's first copy and no bytes of its own. The header before theta
// and the trailer are kept as bytes. Encode puts it back together, each
// group's mask from its slots, XOR its `mask_flips` entry, and each
// block's word its start less its group's base in two's complement at
// the image's width, then `extra_words` (each array at its width, or at
// the bits its largest value takes if an edit made that wider), each
// packed array then grown
// or cut by its `*_bytes_delta` and, with its `*_pad_bit` set, its last
// byte's top bit set, and repairs the checksum, so an edit reaches the
// loader's checks.
struct Image {
  std::string header;
  uint64_t theta = 0;
  uint32_t count_width = 0;  // bits per root count
  std::vector<uint32_t> root_counts;
  uint32_t width = 0;  // bits per block word
  std::vector<uint32_t> slots;
  std::vector<uint32_t> bases;
  std::vector<uint64_t> mask_flips;    // one per group, XORed on encode
  std::vector<uint32_t> extra_words;   // written after the blocks' words
  int count_bytes_delta = 0;  // zero bytes added (or bytes cut) on encode
  int word_bytes_delta = 0;
  bool count_pad_bit = false;  // the counts' last byte's top bit set
  bool word_pad_bit = false;
  std::vector<uint8_t> body;
  std::string trailer;
  uint32_t vertex_bits = 0;
  uint32_t rank_bits = 0;
  Graph graph;  // the network's: a parent tree's ranks index its in-lists

  Image(const std::string& bytes, const SocialNetwork& network);

  // The first sketch whose slot is sketch i's: i itself unless i is a
  // repeat.
  size_t first_of(size_t i) const {
    return static_cast<size_t>(std::ranges::find(slots, slots[i]) -
                               slots.begin());
  }
  bool is_repeat(size_t i) const {
    return (slots[i] & kExplicit) != 0 && first_of(i) != i;
  }
  // Where the next first copy at or after sketch i starts, or the end of
  // the blocks: where an unshared block i would go.
  uint32_t running_offset(size_t i) const {
    for (size_t j = i; j < slots.size(); ++j) {
      if ((slots[j] & kExplicit) != 0 && first_of(j) == j) {
        return slots[j] & ~kExplicit;
      }
    }
    return static_cast<uint32_t>(body.size() - kPadding);
  }

  // The block words Encode writes: one per explicit slot, then
  // `extra_words`.
  size_t num_words() const {
    return extra_words.size() +
           static_cast<size_t>(std::ranges::count_if(slots, [](uint32_t slot) {
             return (slot & kExplicit) != 0;
           }));
  }

  // Sketch i's root: the vertex whose root range, as the counts set the
  // ranges, holds i (the last vertex when the counts end before i).
  uint32_t root_of(size_t i) const {
    uint64_t end = 0;
    for (uint32_t v = 0; v < root_counts.size(); ++v) {
      end += root_counts[v];
      if (i < end) return v;
    }
    return root_counts.empty()
               ? 0
               : static_cast<uint32_t>(root_counts.size() - 1);
  }

  std::string Encode() const {
    std::string bytes = header;
    const auto put = [&bytes](uint64_t value, size_t length) {
      for (size_t b = 0; b < length; ++b) {
        bytes.push_back(static_cast<char>((value >> (8 * b)) & 0xff));
      }
    };
    // Values at `bits` bits each, LSB-first, after the u64 count of their
    // bytes.
    const auto put_packed = [&put](const std::vector<uint32_t>& values,
                                   uint32_t bits, int delta, bool pad_bit) {
      std::vector<uint8_t> packed((values.size() * bits + 7) / 8 + 8, 0);
      for (size_t i = 0; i < values.size(); ++i) {
        SetBits(&packed, i * bits, bits,
                values[i] & ((uint64_t{1} << bits) - 1));
      }
      packed.resize(static_cast<size_t>(
                        static_cast<int64_t>((values.size() * bits + 7) / 8) +
                        delta),
                    0);
      if (pad_bit) packed.back() |= 0x80;
      put(packed.size(), 8);
      for (const uint8_t byte : packed) put(byte, 1);
    };
    uint32_t counts_at = count_width;
    for (const uint32_t count : root_counts) {
      counts_at = std::max(counts_at,
                           static_cast<uint32_t>(std::bit_width(count)));
    }
    put(theta, 8);
    put(counts_at, 1);
    put_packed(root_counts, counts_at, count_bytes_delta, count_pad_bit);
    std::vector<uint64_t> masks(mask_flips);
    std::vector<uint32_t> words;
    for (size_t i = 0; i < slots.size(); ++i) {
      if ((slots[i] & kExplicit) == 0) continue;
      masks[i / kGroup] ^= uint64_t{1} << (i % kGroup);
      words.push_back((slots[i] & ~kExplicit) - bases[i / kGroup]);
    }
    words.insert(words.end(), extra_words.begin(), extra_words.end());
    put(masks.size(), 8);
    for (const uint64_t mask : masks) put(mask, 8);
    uint32_t words_at = width;
    for (const uint32_t word : words) {
      // Two's complement: a sign bit and the magnitude's bits.
      const auto value = static_cast<int32_t>(word);
      const auto magnitude = static_cast<uint32_t>(value < 0 ? ~value : value);
      if (value != 0) {
        words_at = std::max(
            words_at, static_cast<uint32_t>(std::bit_width(magnitude)) + 1);
      }
    }
    put(words_at, 1);
    put_packed(words, words_at, word_bytes_delta, word_pad_bit);
    put(body.size(), 8);
    for (const uint8_t byte : body) put(byte, 1);
    bytes += trailer;
    RepairChecksum(&bytes);
    return bytes;
  }
};

// Replaces body bytes [at, at + erase) of `image` with `insert`, where
// sketch `sketch`'s first copy ends or starts, and moves the blocks that
// start at or after at + erase with them (their repeats too), and the
// bases of the groups that open after `sketch`.
inline void Splice(Image* image, size_t sketch, size_t at, size_t erase,
                   const std::vector<uint8_t>& insert) {
  const auto begin = image->body.begin() + static_cast<std::ptrdiff_t>(at);
  image->body.erase(begin, begin + static_cast<std::ptrdiff_t>(erase));
  image->body.insert(image->body.begin() + static_cast<std::ptrdiff_t>(at),
                     insert.begin(), insert.end());
  const auto shift = static_cast<uint32_t>(insert.size() - erase);
  for (uint32_t& slot : image->slots) {
    if ((slot & kExplicit) != 0 && (slot & ~kExplicit) >= at + erase) {
      slot += shift;
    }
  }
  for (size_t g = sketch / kGroup + 1; g < image->bases.size(); ++g) {
    image->bases[g] += shift;
  }
}

// One explicit block of an Image: where it sits, its header (n and the
// in-tree flag, then m unless it is an in-tree) and its bit fields, each
// read and written at its width. A parent tree (`tree`) holds, for each
// vertex j = 1 .. n - 1, its parent's local id at FieldBits(n - 1) bits
// and its edge's rank in its parent's in-list at FieldBits(the parent's
// in-degree) bits; its root, local 0, is the vertex whose root range
// holds the sketch. Any other block holds the n - 1 vertices other than
// the root, the root's local id, the n + 1 offsets, the m heads, then
// the m records (the rank in the tail's out-list).
struct Block {
  Image* image;
  size_t sketch;
  uint32_t start;
  uint32_t header_bytes;  // the header's varint, and m's unless an in-tree
  uint32_t n;
  uint32_t m;
  bool tree;

  /// One vertex of a parent tree, decoded: where its parent's field
  /// starts in the body, its parent, its rank's width and its rank, and
  /// its vertex id.
  struct TreeField {
    uint64_t at = 0;
    uint32_t parent = 0;
    uint32_t rank_bits = 0;
    uint32_t rank = 0;
    uint32_t vertex = 0;
  };

  uint32_t id_bits() const { return FieldBits(n); }
  uint32_t parent_bits() const { return FieldBits(uint64_t{n} - 1); }
  uint32_t offset_bits() const { return FieldBits(uint64_t{m} + 1); }
  /// Bit positions in the body.
  uint64_t fields() const { return uint64_t{start + header_bytes} * 8; }
  uint64_t root_at() const {
    return fields() + uint64_t{n - 1} * image->vertex_bits;
  }
  uint64_t offsets_at() const { return root_at() + id_bits(); }
  uint64_t heads_at() const { return offsets_at() + uint64_t{n + 1} * offset_bits(); }
  uint64_t record_at(size_t k) const {
    return heads_at() + uint64_t{m} * id_bits() + k * image->rank_bits;
  }
  /// A parent tree's vertices, decoded top-down (entry 0 the root's,
  /// which has no fields): stops early at a field that names no vertex.
  std::vector<TreeField> tree_fields() const {
    std::vector<TreeField> out(1);
    out[0].at = fields();
    out[0].vertex = image->root_of(sketch);
    uint64_t at = fields();
    for (uint32_t j = 1; j < n; ++j) {
      TreeField field;
      field.at = at;
      field.parent = static_cast<uint32_t>(get(at, parent_bits()));
      if (field.parent >= j) break;
      const auto in = image->graph.InEdges(out[field.parent].vertex);
      field.rank_bits = FieldBits(in.size());
      field.rank = static_cast<uint32_t>(
          get(at + parent_bits(), field.rank_bits));
      if (field.rank >= in.size()) break;
      field.vertex = in[field.rank].vertex;
      at += parent_bits() + field.rank_bits;
      out.push_back(field);
    }
    return out;
  }
  /// Bits of the fields, and bytes of the whole block.
  uint64_t bits() const {
    if (!tree) return record_at(m) - fields();
    const TreeField last = tree_fields().back();
    return n == 1 ? 0
                  : last.at + parent_bits() + last.rank_bits - fields();
  }
  size_t bytes() const { return header_bytes + (bits() + 7) / 8; }

  uint64_t get(uint64_t pos, uint32_t bits) const {
    return GetBits(image->body, pos, bits);
  }
  void set(uint64_t pos, uint32_t bits, uint64_t value) const {
    SetBits(&image->body, pos, bits, value);
  }
  /// A parent tree's fields of vertex j, set in place at their widths.
  void set_parent(uint32_t j, uint64_t value) const {
    set(tree_fields()[j].at, parent_bits(), value);
  }
  void set_tree_rank(uint32_t j, uint64_t value) const {
    const TreeField field = tree_fields()[j];
    set(field.at + parent_bits(), field.rank_bits, value);
  }
  /// Stored vertex j: the vertices but the root, ascending.
  uint32_t stored(size_t j) const {
    return static_cast<uint32_t>(
        get(fields() + j * image->vertex_bits, image->vertex_bits));
  }
  void set_stored(size_t j, uint64_t value) const {
    set(fields() + j * image->vertex_bits, image->vertex_bits, value);
  }
  /// Local vertex j's global id: the root's from its range, any other's
  /// stored, or a parent tree's decoded.
  uint32_t vertex(size_t j) const {
    if (tree) return tree_fields()[j].vertex;
    const uint32_t r = root();
    return j == r ? image->root_of(sketch) : stored(j - (j > r ? 1 : 0));
  }
  /// The root's local id: stored, or a parent tree's 0.
  uint32_t root() const {
    return tree ? 0 : static_cast<uint32_t>(get(root_at(), id_bits()));
  }
  void set_root(uint64_t value) const { set(root_at(), id_bits(), value); }
  uint32_t offset(size_t j) const {
    return static_cast<uint32_t>(
        get(offsets_at() + j * offset_bits(), offset_bits()));
  }
  void set_offset(size_t j, uint64_t value) const {
    set(offsets_at() + j * offset_bits(), offset_bits(), value);
  }
  uint32_t head(size_t k) const {
    return static_cast<uint32_t>(get(heads_at() + k * id_bits(), id_bits()));
  }
  void set_head(size_t k, uint64_t value) const {
    set(heads_at() + k * id_bits(), id_bits(), value);
  }
  uint32_t rank(size_t k) const {
    return static_cast<uint32_t>(get(record_at(k), image->rank_bits));
  }
  void set_rank(size_t k, uint64_t value) const {
    set(record_at(k), image->rank_bits, value);
  }
  /// The largest value a local id's field holds.
  uint64_t max_id() const { return (uint64_t{1} << id_bits()) - 1; }
  /// Makes local vertex `local` (below n) of a block that is not a
  /// parent tree the sketch's root: the old root joins the stored
  /// vertices, which stay ascending, the root id becomes `local`, and
  /// the root counts move the sketch from its old root's range to its
  /// new root's (which keeps its id while the roots stay in order), at
  /// the bits their largest then takes.
  void MoveRoot(uint32_t local) const {
    std::vector<uint32_t> vertices;
    for (uint32_t j = 0; j < n; ++j) vertices.push_back(vertex(j));
    --image->root_counts[image->root_of(sketch)];
    ++image->root_counts[vertices[local]];
    vertices.erase(vertices.begin() + local);
    for (uint32_t j = 0; j + 1 < n; ++j) set_stored(j, vertices[j]);
    set_root(local);
    // The counts take the bits their largest now takes.
    image->count_width = static_cast<uint32_t>(
        std::bit_width(std::ranges::max(image->root_counts)));
  }

  /// Re-encodes the block, every value intact, its header one byte
  /// longer than it needs when `overlong`, a parent tree in the general
  /// form (its vertices sorted, its offsets an in-tree's, its records
  /// the edges' out-list ranks) when `with_offsets`, n stored as `new_n`
  /// when given, and moves the blocks after it. Returns the re-encoded
  /// block.
  Block Reencode(bool overlong, bool with_offsets, uint64_t new_n = 0) const {
    const bool new_tree = tree && !with_offsets;
    std::vector<uint8_t> out;
    uint64_t header = (new_n == 0 ? uint64_t{n} : new_n) << kHeaderFlagBits |
                      (new_tree ? 1 : 0);
    if (overlong) {
      // The groups with the last's top bit set, then an empty group.
      for (; header >= 0x80; header >>= 7) {
        out.push_back(static_cast<uint8_t>(header | 0x80));
      }
      out.push_back(static_cast<uint8_t>(header | 0x80));
      out.push_back(0);
    } else {
      PutVarintTo(header, &out);
    }
    if (!new_tree) PutVarintTo(m, &out);
    const auto new_header_bytes = static_cast<uint32_t>(out.size());
    uint64_t pos = out.size() * 8;
    const auto put = [&](uint32_t bits, uint64_t value) {
      out.resize(out.size() + 8, 0);
      SetBits(&out, pos, bits, value);
      pos += bits;
    };
    if (new_tree) {
      // The fields' bits as they are.
      const uint64_t bits = this->bits();
      for (uint64_t b = 0; b < bits; ++b) put(1, get(fields() + b, 1));
    } else if (tree) {
      // The general form of the parent tree's shape.
      const std::vector<TreeField> decoded = tree_fields();
      std::vector<std::pair<uint32_t, uint32_t>> order;  // vertex, local
      for (uint32_t j = 0; j < n; ++j) order.emplace_back(decoded[j].vertex, j);
      std::sort(order.begin(), order.end());
      std::vector<uint32_t> sorted_of(n);
      for (uint32_t i = 0; i < n; ++i) sorted_of[order[i].second] = i;
      const uint32_t root_local = sorted_of[0];
      for (uint32_t i = 0; i < n; ++i) {
        if (i != root_local) put(image->vertex_bits, order[i].first);
      }
      put(id_bits(), root_local);
      for (uint32_t i = 0; i <= n; ++i) {
        put(offset_bits(), i - (i > root_local ? 1 : 0));
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (i != root_local) {
          put(id_bits(), sorted_of[decoded[order[i].second].parent]);
        }
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (i == root_local) continue;
        const TreeField& field = decoded[order[i].second];
        const EdgeId edge = image->graph.InEdges(
            decoded[field.parent].vertex)[field.rank].edge;
        put(image->rank_bits, image->graph.OutRank(field.vertex, edge));
      }
    } else {
      for (uint32_t j = 0; j + 1 < n; ++j) put(image->vertex_bits, stored(j));
      put(id_bits(), root());
      for (uint32_t j = 0; j <= n; ++j) put(offset_bits(), offset(j));
      for (uint32_t k = 0; k < m; ++k) put(id_bits(), head(k));
      for (uint32_t k = 0; k < m; ++k) put(image->rank_bits, rank(k));
    }
    out.resize((pos + 7) / 8);
    Splice(image, sketch, start, bytes(), out);
    return Block{image, sketch, start, new_header_bytes, n, m, new_tree};
  }
};

// Sketch i's block, or nullopt for an implicit singleton.
inline std::optional<Block> BlockOf(Image* image, size_t i) {
  if ((image->slots[i] & kExplicit) == 0) return std::nullopt;
  const uint32_t start = image->slots[i] & ~kExplicit;
  uint32_t at = start;
  const auto varint = [image, &at]() {
    uint32_t value = 0;
    for (unsigned shift = 0;; shift += 7) {
      const uint8_t byte = image->body[at++];
      value |= uint32_t{byte & 0x7fu} << shift;
      if (byte < 0x80) break;
    }
    return value;
  };
  const uint32_t header = varint();
  const bool tree = (header & 1) != 0;
  const uint32_t n = header >> kHeaderFlagBits;
  const uint32_t m = tree ? n - 1 : varint();
  return Block{image, i, start, at - start, n, m, tree};
}

// Sketch i's root vertex: the vertex whose root range holds it.
inline uint32_t RootOf(Image* image, size_t i) { return image->root_of(i); }

// Swaps sketches i and i + 1 of `image`, which lie in one group and are
// no repeats: their directory words and, for blocks, their bytes in the
// body, so each sketch keeps its block whole and the blocks still run
// back to back.
// The root counts stay: each sketch lands in the other's root range.
inline void SwapAdjacent(Image* image, size_t i) {
  const std::optional<Block> a = BlockOf(image, i);
  const std::optional<Block> b = BlockOf(image, i + 1);
  if (a || b) {
    const uint32_t start = a ? a->start : b->start;
    const size_t a_bytes = a ? a->bytes() : 0;
    const size_t b_bytes = b ? b->bytes() : 0;
    const auto at = image->body.begin() + start;
    std::rotate(at, at + static_cast<std::ptrdiff_t>(a_bytes),
                at + static_cast<std::ptrdiff_t>(a_bytes + b_bytes));
    if (b) image->slots[i + 1] = kExplicit | start;
    if (a) image->slots[i] = kExplicit | static_cast<uint32_t>(start + b_bytes);
  }
  std::swap(image->slots[i], image->slots[i + 1]);
}

// The first i whose sketches i and i + 1 lie in one group, have
// different roots, are no repeats and are blocks or not as `blocks`
// says, if any.
inline std::optional<size_t> FindRootStep(Image* image, bool blocks) {
  for (size_t i = 0; i + 1 < image->slots.size(); ++i) {
    if (i % kGroup == kGroup - 1) continue;
    if (BlockOf(image, i).has_value() != blocks ||
        BlockOf(image, i + 1).has_value() != blocks ||
        image->is_repeat(i) || image->is_repeat(i + 1)) {
      continue;
    }
    if (RootOf(image, i) != RootOf(image, i + 1)) return i;
  }
  return std::nullopt;
}

inline Image::Image(const std::string& bytes, const SocialNetwork& network)
    : vertex_bits(FieldBits(network.num_vertices())),
      rank_bits(FieldBits(network.graph.MaxOutDegree())),
      graph(network.graph) {
  size_t at = kThetaOffset;
  const auto take = [&bytes, &at](size_t length) {
    uint64_t value = 0;
    for (size_t b = 0; b < length; ++b) {
      value |= uint64_t{static_cast<unsigned char>(bytes[at++])} << (8 * b);
    }
    return value;
  };
  // `count` values of `bits` bits each, LSB-first, after the u64 count of
  // their bytes.
  const auto take_packed = [&take](size_t count, uint32_t bits) {
    std::vector<uint8_t> packed(take(8));
    for (uint8_t& byte : packed) byte = static_cast<uint8_t>(take(1));
    packed.resize(packed.size() + 8, 0);
    std::vector<uint32_t> values(count);
    for (size_t i = 0; i < count; ++i) {
      values[i] = static_cast<uint32_t>(GetBits(packed, i * bits, bits));
    }
    return values;
  };
  header = bytes.substr(0, kThetaOffset);
  theta = take(8);
  count_width = static_cast<uint32_t>(take(1));
  root_counts = take_packed(network.num_vertices(), count_width);
  std::vector<uint64_t> masks(take(8));
  for (uint64_t& mask : masks) mask = take(8);
  mask_flips.assign(masks.size(), 0);
  width = static_cast<uint32_t>(take(1));
  size_t blocks = 0;
  for (const uint64_t mask : masks) blocks += std::popcount(mask);
  // Each word sign-extended to 32 bits, so a base plus it wraps to the
  // start it names.
  std::vector<uint32_t> words = take_packed(blocks, width);
  for (uint32_t& word : words) {
    if (width != 0 && width < 32 && (word >> (width - 1)) != 0) {
      word |= ~uint32_t{0} << width;
    }
  }
  body.resize(take(8));
  for (uint8_t& byte : body) byte = static_cast<uint8_t>(take(1));
  trailer = bytes.substr(at);
  // The bases as the loader derives them: the first copies run back to
  // back from the body's first byte, and a repeat's word names an
  // earlier one's start.
  slots.assign(theta, 0);
  uint32_t next = 0;
  size_t block = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i % kGroup == 0) bases.push_back(next);
    if (((masks[i / kGroup] >> (i % kGroup)) & 1) == 0) continue;
    slots[i] = kExplicit | (bases.back() + words[block++]);
    if ((slots[i] & ~kExplicit) == next) next += BlockOf(this, i)->bytes();
  }
}

// Calls edit(block, k, tail) for each record k of each explicit block of
// `image` that is not a parent tree, tail the global vertex whose CSR
// range holds it, until an edit returns true; returns whether one did.
template <typename Edit>
bool EditFirstRecord(Image* image, Edit edit) {
  for (size_t i = 0; i < image->slots.size(); ++i) {
    const std::optional<Block> block = BlockOf(image, i);
    if (!block || block->tree) continue;
    for (uint32_t j = 0; j < block->n; ++j) {
      for (uint32_t k = block->offset(j); k < block->offset(j + 1); ++k) {
        if (edit(*block, k, block->vertex(j))) return true;
      }
    }
  }
  return false;
}

// The first explicit block with at least `min_n` vertices and `min_m`
// edges for which `also` holds, if any.
template <typename Also>
std::optional<Block> FindBlock(Image* image, uint32_t min_n, uint32_t min_m,
                               Also also) {
  for (size_t i = 0; i < image->slots.size(); ++i) {
    const std::optional<Block> block = BlockOf(image, i);
    if (block && block->n >= min_n && block->m >= min_m && also(*block)) {
      return block;
    }
  }
  return std::nullopt;
}
inline std::optional<Block> FindBlock(Image* image, uint32_t min_n,
                                      uint32_t min_m) {
  return FindBlock(image, min_n, min_m, [](const Block&) { return true; });
}

// The first repeat i of `image` for which also(i) holds, if any.
template <typename Also>
std::optional<size_t> FindRepeat(const Image& image, Also also) {
  for (size_t i = 0; i < image.slots.size(); ++i) {
    if (image.is_repeat(i) && also(i)) return i;
  }
  return std::nullopt;
}

// Gives repeat i bytes of its own, a copy of its first copy's, where the
// next first copy would start, and returns their start.
inline uint32_t Unshare(Image* image, size_t i) {
  const uint32_t at = image->running_offset(i);
  const Block first = *BlockOf(image, image->first_of(i));
  const std::vector<uint8_t> copy(
      image->body.begin() + first.start,
      image->body.begin() + static_cast<std::ptrdiff_t>(first.start +
                                                        first.bytes()));
  Splice(image, i, at, 0, copy);
  image->slots[i] = kExplicit | at;
  return at;
}

// One edit of a valid image that no saved pool can hold, and the typed
// error the loader must refuse it with. Each returns false when the
// image has no place to make it.
struct ValidatorRow {
  const char* name;
  std::function<bool(const SocialNetwork&, Image*)> edit;
  IndexIoCode code = IndexIoCode::kCorruptPayload;
};

inline std::vector<ValidatorRow> ValidatorRows() {
  return {
      {"two blocks out of root order",
       [](const SocialNetwork&, Image* image) {
         const std::optional<size_t> i = FindRootStep(image, true);
         if (!i) return false;
         SwapAdjacent(image, *i);
         return true;
       }},
      {"block start moved",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0);
         if (!block) return false;
         image->slots[block->sketch] += 1;
         return true;
       }},
      {"block word one short of its start",
       [](const SocialNetwork&, Image* image) {
         // A first copy after the first of its group, whose word is not
         // 0, and whose start less one is inside the block before it:
         // after a 1-byte block, it would name that block, a valid
         // repeat of it.
         const auto block =
             FindBlock(image, 1, 0, [image](const Block& b) {
               return b.start != image->bases[b.sketch / kGroup] &&
                      !image->is_repeat(b.sketch) &&
                      std::ranges::find(image->slots,
                                        kExplicit | (b.start - 1)) ==
                          image->slots.end();
             });
         if (!block) return false;
         image->slots[block->sketch] -= 1;
         return true;
       }},
      {"directory words a bit wider than they take",
       [](const SocialNetwork&, Image* image) {
         if (image->width >= 32) return false;
         ++image->width;
         return true;
       }},
      {"directory words at 33 bits",
       [](const SocialNetwork&, Image* image) {
         image->width = 33;
         return true;
       }},
      {"directory words one byte longer than they pack",
       [](const SocialNetwork&, Image* image) {
         image->word_bytes_delta = 1;
         return true;
       }},
      {"directory words one byte shorter than they pack",
       [](const SocialNetwork&, Image* image) {
         if (image->num_words() * image->width == 0) return false;
         image->word_bytes_delta = -1;
         return true;
       }},
      {"bit set after the last directory word",
       [](const SocialNetwork&, Image* image) {
         if (image->num_words() * image->width % 8 == 0) return false;
         image->word_pad_bit = true;
         return true;
       }},
      {"tree in-rank at its parent's in-degree",
       [](const SocialNetwork&, Image* image) {
         // A vertex whose parent's in-degree is below what its rank
         // field holds.
         for (size_t i = 0; i < image->slots.size(); ++i) {
           const std::optional<Block> block = BlockOf(image, i);
           if (!block || !block->tree) continue;
           const auto fields = block->tree_fields();
           for (uint32_t j = 1; j < fields.size(); ++j) {
             const size_t degree =
                 image->graph.InDegree(fields[fields[j].parent].vertex);
             if (degree < (uint64_t{1} << fields[j].rank_bits)) {
               block->set_tree_rank(j, degree);
               return true;
             }
           }
         }
         return false;
       }},
      {"tree parent at or after its child",
       [](const SocialNetwork&, Image* image) {
         // Vertex 1's parent set to 1, which its field holds from n = 3.
         const auto block =
             FindBlock(image, 3, 2, [](const Block& b) { return b.tree; });
         if (!block) return false;
         block->set_parent(1, 1);
         return true;
       }},
      {"tree vertex named twice",
       [](const SocialNetwork&, Image* image) {
         // A vertex's rank moved to an in-edge of its parent whose tail
         // an earlier vertex already names.
         for (size_t i = 0; i < image->slots.size(); ++i) {
           const std::optional<Block> block = BlockOf(image, i);
           if (!block || !block->tree) continue;
           const auto fields = block->tree_fields();
           for (uint32_t j = 1; j < fields.size(); ++j) {
             const auto in =
                 image->graph.InEdges(fields[fields[j].parent].vertex);
             for (uint32_t r = 0; r < in.size(); ++r) {
               for (uint32_t earlier = 0; earlier < j; ++earlier) {
                 if (in[r].vertex == fields[earlier].vertex) {
                   block->set_tree_rank(j, r);
                   return true;
                 }
               }
             }
           }
         }
         return false;
       }},
      {"tree siblings out of order",
       [](const SocialNetwork&, Image* image) {
         // Two children of one parent, next to each other, swap ranks:
         // they then descend.
         for (size_t i = 0; i < image->slots.size(); ++i) {
           const std::optional<Block> block = BlockOf(image, i);
           if (!block || !block->tree) continue;
           const auto fields = block->tree_fields();
           for (uint32_t j = 1; j + 1 < fields.size(); ++j) {
             if (fields[j].parent == fields[j + 1].parent) {
               block->set_tree_rank(j, fields[j + 1].rank);
               block->set_tree_rank(j + 1, fields[j].rank);
               return true;
             }
           }
         }
         return false;
       }},
      {"tree fields run past the blocks' end",
       [](const SocialNetwork&, Image* image) {
         // The last block's last byte dropped, the padding kept: its
         // fields end past the blocks.
         std::optional<Block> last;
         for (size_t i = 0; i < image->slots.size(); ++i) {
           const std::optional<Block> block = BlockOf(image, i);
           if (block && !image->is_repeat(i) &&
               (!last || block->start > last->start)) {
             last = block;
           }
         }
         if (!last || !last->tree || last->bits() == 0) return false;
         Splice(image, last->sketch, last->start + last->bytes() - 1, 1, {});
         return true;
       }},
      {"in-tree flag cleared",
       [](const SocialNetwork&, Image* image) {
         // Bit 0 of the header's first byte: the block's first field
         // byte then reads as its edge count.
         const auto block =
             FindBlock(image, 2, 1, [](const Block& b) { return b.tree; });
         if (!block) return false;
         image->body[block->start] &= 0xfe;
         return true;
       }},
      {"CSR block flagged tree",
       [](const SocialNetwork&, Image* image) {
         // Its edge count's byte then reads as its first field byte.
         const auto block =
             FindBlock(image, 1, 0, [](const Block& b) { return !b.tree; });
         if (!block) return false;
         image->body[block->start] |= 1;
         return true;
       }},
      {"header n grown by one",
       [](const SocialNetwork&, Image* image) {
         // An in-tree's one-byte header that stays one byte: n no longer
         // agrees with the block's length, which a vertex more would
         // lengthen by an edge record at least.
         const auto block = FindBlock(image, 2, 1, [](const Block& b) {
           return b.tree && b.n < 7;
         });
         if (!block) return false;
         image->body[block->start] += 1 << kHeaderFlagBits;
         return true;
       }},
      {"header n shrunk by one",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 3, 2, [](const Block& b) {
           return b.tree && b.n <= 7;
         });
         if (!block) return false;
         image->body[block->start] -= 1 << kHeaderFlagBits;
         return true;
       }},
      {"edge count grown by one",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0, [](const Block& b) {
           return !b.tree && b.m < 127 && b.n < 8;
         });
         if (!block) return false;
         image->body[block->start + 1] += 1;
         return true;
       }},
      {"header n = 0",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0, [](const Block& b) {
           return b.n < 8;
         });
         if (!block) return false;
         // The in-tree flag stays; n is cleared.
         image->body[block->start] &= (1 << kHeaderFlagBits) - 1;
         return true;
       }},
      {"header n = the block bound, 2^31 - 1",
       [](const SocialNetwork&, Image* image) {
         // The largest n a header holds in 32 bits: the block it claims
         // runs far past the body.
         const auto block = FindBlock(image, 1, 0);
         if (!block) return false;
         block->Reencode(false, false, RrSketchPool::kMaxBlockVertices);
         return true;
       }},
      {"header n = 2^31, past the block bound",
       [](const SocialNetwork&, Image* image) {
         // Its header takes 33 bits, which the view's 32-bit read would
         // cut to n = 0.
         const auto block = FindBlock(image, 1, 0);
         if (!block) return false;
         block->Reencode(false, false, RrSketchPool::kMaxBlockVertices + 1);
         return true;
       }},
      {"overlong header varint",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0);
         if (!block) return false;
         block->Reencode(/*overlong=*/true, /*with_offsets=*/false);
         return true;
       }},
      {"tree-shaped block stored in CSR form",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 2, 1, [](const Block& b) { return b.tree; });
         if (!block) return false;
         block->Reencode(/*overlong=*/false, /*with_offsets=*/true);
         return true;
       }},
      {"two vertices swapped",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 3, 0, [](const Block& b) { return !b.tree; });
         if (!block) return false;
         const uint32_t first = block->stored(0);
         block->set_stored(0, block->stored(1));
         block->set_stored(1, first);
         return true;
       }},
      {"last vertex >= |V| in its width",
       [](const SocialNetwork& n, Image* image) {
         // The largest value the vertex field holds, when |V| is not a
         // power of two.
         const uint64_t max = (uint64_t{1} << image->vertex_bits) - 1;
         if (max < n.num_vertices()) return false;
         const auto block =
             FindBlock(image, 2, 0, [](const Block& b) { return !b.tree; });
         if (!block) return false;
         block->set_stored(block->n - 2, max);
         return true;
       }},
      {"root id >= n in its width",
       [](const SocialNetwork&, Image* image) {
         // n not a power of two, so the field holds a value past it.
         const auto block = FindBlock(image, 3, 0, [](const Block& b) {
           return !b.tree && b.max_id() >= b.n;
         });
         if (!block) return false;
         block->set_root(block->max_id());
         return true;
       }},
      {"head >= n in its width",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 3, 1, [](const Block& b) {
           return !b.tree && b.max_id() >= b.n;
         });
         if (!block) return false;
         block->set_head(0, block->max_id());
         return true;
       }},
      {"first offset = 1",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 1, 1, [](const Block& b) { return !b.tree; });
         if (!block) return false;
         block->set_offset(0, 1);
         return true;
       }},
      {"offset falls",
       [](const SocialNetwork&, Image* image) {
         // Offset 1 raised to m, above offset 2.
         const auto block = FindBlock(image, 2, 1, [](const Block& b) {
           return !b.tree && b.offset(2) < b.m;
         });
         if (!block) return false;
         block->set_offset(1, block->m);
         return true;
       }},
      {"last offset = m - 1",
       [](const SocialNetwork&, Image* image) {
         // The CSR then ends one edge before the edge count.
         const auto block = FindBlock(image, 1, 1, [](const Block& b) {
           return !b.tree && b.offset(b.n - 1) < b.m;
         });
         if (!block) return false;
         block->set_offset(block->n, block->m - 1);
         return true;
       }},
      {"rank >= its tail's out-degree in its width",
       [](const SocialNetwork& n, Image* image) {
         // A record whose tail has fewer out-edges than the rank field
         // holds values: its rank set to that out-degree.
         const uint64_t values = uint64_t{1} << image->rank_bits;
         return EditFirstRecord(
             image, [&](const Block& block, uint32_t k, VertexId tail) {
               const size_t degree = n.graph.OutDegree(tail);
               if (degree >= values) return false;
               block.set_rank(k, degree);
               return true;
             });
       }},
      {"rank names an out-edge to another head",
       [](const SocialNetwork& n, Image* image) {
         // A record whose tail has an out-edge to some vertex other than
         // the record's head: its rank set to that edge's.
         return EditFirstRecord(
             image, [&](const Block& block, uint32_t k, VertexId tail) {
               const auto out = n.graph.OutEdges(tail);
               const VertexId head = block.vertex(block.head(k));
               for (uint32_t r = 0; r < out.size(); ++r) {
                 if (out[r].vertex != head) {
                   block.set_rank(k, r);
                   return true;
                 }
               }
               return false;
             });
       }},
      {"v11 file",
       [](const SocialNetwork&, Image* image) {
         // The format before sketches were numbered in root order.
         image->header[kVersionOffset] = 11;
         return true;
       },
       IndexIoCode::kBadVersion},
      {"v12 file",
       [](const SocialNetwork&, Image* image) {
         // The format whose blocks stored their root's vertex id.
         image->header[kVersionOffset] = 12;
         return true;
       },
       IndexIoCode::kBadVersion},
      {"v13 file",
       [](const SocialNetwork&, Image* image) {
         // The format whose records stored their thresholds and whose
         // directory held a word per sketch.
         image->header[kVersionOffset] = 13;
         return true;
       },
       IndexIoCode::kBadVersion},
      {"v14 file",
       [](const SocialNetwork&, Image* image) {
         // The format whose words were unsigned and whose repeated
         // blocks each stored their bytes.
         image->header[kVersionOffset] = 14;
         return true;
       },
       IndexIoCode::kBadVersion},
      {"v15 file",
       [](const SocialNetwork&, Image* image) {
         // The format whose in-tree blocks stored their vertex ids and
         // out-list ranks.
         image->header[kVersionOffset] = 15;
         return true;
       },
       IndexIoCode::kBadVersion},
      {"v16 file",
       [](const SocialNetwork&, Image* image) {
         // The format whose root counts took 1, 2 or 4 bytes and whose
         // block words 2 or 4.
         image->header[kVersionOffset] = 16;
         return true;
       },
       IndexIoCode::kBadVersion},
      {"repeat stored unshared",
       [](const SocialNetwork&, Image* image) {
         const auto i = FindRepeat(*image, [](size_t) { return true; });
         if (!i) return false;
         Unshare(image, *i);
         return true;
       }},
      {"repeat's word points into another root range",
       [](const SocialNetwork&, Image* image) {
         // At a first copy of an earlier range.
         for (size_t i = 0; i < image->slots.size(); ++i) {
           if (!image->is_repeat(i)) continue;
           for (size_t j = 0; j < i; ++j) {
             if ((image->slots[j] & kExplicit) != 0 &&
                 image->root_of(j) != image->root_of(i)) {
               image->slots[i] = image->slots[j];
               return true;
             }
           }
         }
         return false;
       }},
      {"repeat's word points into the middle of its first copy",
       [](const SocialNetwork&, Image* image) {
         const auto i = FindRepeat(*image, [](size_t) { return true; });
         if (!i) return false;
         image->slots[*i] += 1;
         return true;
       }},
      {"repeat's word points forward",
       [](const SocialNetwork&, Image* image) {
         // At a first copy past the one that would start where the walk
         // is (a word naming that one starts a new block there).
         for (size_t i = 0; i < image->slots.size(); ++i) {
           if (!image->is_repeat(i)) continue;
           const uint32_t running = image->running_offset(i);
           for (size_t j = i + 1; j < image->slots.size(); ++j) {
             if ((image->slots[j] & kExplicit) != 0 &&
                 (image->slots[j] & ~kExplicit) > running) {
               image->slots[i] = image->slots[j];
               return true;
             }
           }
         }
         return false;
       }},
      {"repeat's word points at a repeat rather than its first copy",
       [](const SocialNetwork&, Image* image) {
         // A second repeat of one first copy, at the first repeat's own
         // bytes (which make that one an unshared repeat: a shared one
         // has no bytes to point at).
         for (size_t i = 0; i < image->slots.size(); ++i) {
           if (!image->is_repeat(i)) continue;
           for (size_t j = i + 1; j < image->slots.size(); ++j) {
             if (image->slots[j] == image->slots[i]) {
               image->slots[j] = kExplicit | Unshare(image, i);
               return true;
             }
           }
         }
         return false;
       }},
      {"singleton's mask bit set, with no word",
       [](const SocialNetwork&, Image* image) {
         // The masks then count one block more than the words hold.
         for (size_t i = 0; i < image->slots.size(); ++i) {
           if ((image->slots[i] & kExplicit) == 0) {
             image->mask_flips[i / kGroup] ^= uint64_t{1} << (i % kGroup);
             return true;
           }
         }
         return false;
       }},
      {"block's mask bit cleared, its word kept",
       [](const SocialNetwork&, Image* image) {
         // The masks then count one block fewer than the words hold.
         const auto block = FindBlock(image, 1, 0);
         if (!block) return false;
         image->mask_flips[block->sketch / kGroup] ^=
             uint64_t{1} << (block->sketch % kGroup);
         return true;
       }},
      {"mask bit set past theta, with a word",
       [](const SocialNetwork&, Image* image) {
         // The first bit past the last sketch, in its group's mask, and a
         // word for it, so the masks' count of blocks is the words'.
         if (image->theta % kGroup == 0) return false;
         image->mask_flips.back() ^= uint64_t{1} << (image->theta % kGroup);
         image->extra_words.push_back(0);
         return true;
       }},
      {"root counts sum to theta + 1",
       [](const SocialNetwork&, Image* image) {
         ++image->root_counts.front();
         return true;
       }},
      {"root counts sum to theta - 1",
       [](const SocialNetwork&, Image* image) {
         for (uint32_t& count : image->root_counts) {
           if (count != 0) {
             --count;
             return true;
           }
         }
         return false;
       }},
      {"root counts a bit wider than the largest takes",
       [](const SocialNetwork&, Image* image) {
         if (image->count_width >= 32) return false;
         ++image->count_width;
         return true;
       }},
      {"root counts at 33 bits",
       [](const SocialNetwork&, Image* image) {
         image->count_width = 33;
         return true;
       }},
      {"root counts one byte longer than they pack",
       [](const SocialNetwork&, Image* image) {
         image->count_bytes_delta = 1;
         return true;
       }},
      {"root counts one byte shorter than they pack",
       [](const SocialNetwork&, Image* image) {
         if (image->root_counts.size() * image->count_width < 8) return false;
         image->count_bytes_delta = -1;
         return true;
       }},
      {"bit set after the last root count",
       [](const SocialNetwork&, Image* image) {
         if (image->root_counts.size() * image->count_width % 8 == 0) {
           return false;
         }
         image->count_pad_bit = true;
         return true;
       }},
      {"root counts one short of |V|",
       [](const SocialNetwork&, Image* image) {
         // The last count, a vertex's, folded into the one before, where
         // that leaves the counts a byte fewer (else the file holds a
         // count of 0 for the last vertex, which is another image).
         const size_t bits = image->root_counts.size() * image->count_width;
         if (image->root_counts.size() < 2 ||
             (bits - image->count_width + 7) / 8 == (bits + 7) / 8) {
           return false;
         }
         const uint32_t last = image->root_counts.back();
         image->root_counts.pop_back();
         image->root_counts.back() += last;
         return true;
       }},
      {"root count moved to the next vertex",
       [](const SocialNetwork&, Image* image) {
         // The last sketch of a root's range, a block that is not a
         // parent tree, then lies in the next vertex's range, which its
         // vertices and edges do not fit. (A singleton stores nothing
         // its root must fit, and a parent tree's fields name its
         // vertices relative to whatever root its range gives it.)
         size_t end = 0;
         for (size_t v = 0; v + 1 < image->root_counts.size(); ++v) {
           end += image->root_counts[v];
           const std::optional<Block> block =
               end == 0 ? std::nullopt : BlockOf(image, end - 1);
           if (image->root_counts[v] != 0 && block && !block->tree) {
             --image->root_counts[v];
             ++image->root_counts[v + 1];
             return true;
           }
         }
         return false;
       }},
      {"pad bit set in a block's last byte",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0, [](const Block& b) {
           return b.bits() % 8 != 0;
         });
         if (!block) return false;
         image->body[block->start + block->bytes() - 1] |= 0x80;
         return true;
       }},
      {"pad bit set in a parent tree's last byte",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 2, 1, [](const Block& b) {
           return b.tree && b.bits() % 8 != 0;
         });
         if (!block) return false;
         image->body[block->start + block->bytes() - 1] |= 0x80;
         return true;
       }},
      {"block one byte longer than its fields",
       [](const SocialNetwork&, Image* image) {
         // A zero byte after a block's fields, with the blocks after it
         // moved to make room: its fields' end is no longer where the
         // next block starts.
         const auto block = FindBlock(image, 1, 1, [image](const Block& b) {
           return b.start + b.bytes() + kPadding < image->body.size();
         });
         if (!block) return false;
         Splice(image, block->sketch, block->start + block->bytes(), 0, {0});
         return true;
       }},
      {"body one byte short of its padding",
       [](const SocialNetwork&, Image* image) {
         if (image->body.empty()) return false;
         image->body.pop_back();
         return true;
       }},
      {"eight bytes of padding",
       [](const SocialNetwork&, Image* image) {
         if (image->body.empty()) return false;
         image->body.push_back(0);
         return true;
       }},
      {"padding byte set",
       [](const SocialNetwork&, Image* image) {
         if (image->body.empty()) return false;
         image->body.back() = 1;
         return true;
       }},
  };
}

// The file of an index over `network` that serves `pool` as it is.
inline std::string SavedPool(const SocialNetwork& network,
                             const RrSketchPool& pool) {
  const auto index =
      RrIndex::FromPool(network, RrIndexOptions{}, pool.num_sketches(),
                        std::make_shared<const RrSketchPool>(pool));
  std::ostringstream out;
  SaveRrIndex(*index, out);
  return std::move(out).str();
}

// The first way finished pool `got` differs from `want`, both pools of
// `network`'s sketches, or "" when there is none: the directory's word
// width, words and bases, the body's bytes (each as the pool's image
// holds it), the root and containing starts' word widths, the Rice
// parameter, each vertex's root range and containing list and
// SizeBytes().
inline std::string PoolDifference(const SocialNetwork& network,
                                  const RrSketchPool& got,
                                  const RrSketchPool& want) {
  const Image a(SavedPool(network, got), network);
  const Image b(SavedPool(network, want), network);
  if (a.width != b.width) return "directory width";
  if (a.slots != b.slots || a.bases != b.bases) return "directory words";
  if (a.body != b.body) return "body bytes";
  if (got.containing_start_width() != want.containing_start_width()) {
    return "containing start width";
  }
  if (got.root_start_width() != want.root_start_width()) {
    return "root start width";
  }
  if (got.containing_k() != want.containing_k()) return "containing k";
  if (got.num_universe_vertices() != want.num_universe_vertices()) {
    return "containing universe";
  }
  for (VertexId v = 0; v < want.num_universe_vertices(); ++v) {
    if (!std::ranges::equal(got.RootRange(v), want.RootRange(v))) {
      return "root range of vertex " + std::to_string(v);
    }
    const ContainingList x = got.NonRootContaining(v);
    const ContainingList y = want.NonRootContaining(v);
    if (x.bits() != y.bits() || !std::ranges::equal(x, y)) {
      return "containing list of vertex " + std::to_string(v);
    }
  }
  if (got.SizeBytes() != want.SizeBytes()) return "SizeBytes";
  return "";
}

}  // namespace pool_image
}  // namespace pitex

#endif  // PITEX_TESTS_POOL_IMAGE_H_
