// Randomized robustness fuzzing for the index persistence layer:
// whatever bytes arrive, LoadRrIndex / LoadDelayMatIndex must either
// return a valid index or fail cleanly — never crash, never hand back a
// structurally inconsistent object — and an RR index that loads must
// save back to identical bytes, which are what Pack writes for its
// views. A table of single-field edits pins each check of the
// loader. (Deterministic seeds; a few hundred mutations per strategy.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "certain_cycle.h"
#include "owned_sketch.h"
#include "running_example.h"
#include "src/index/index_io.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace pitex {
namespace {

std::string ValidRrIndexBytes(const SocialNetwork& n) {
  RrIndexOptions options;
  options.theta_override = 500;
  options.seed = 3;
  RrIndex index(n, options);
  index.Build();
  std::stringstream file;
  SaveRrIndex(index, file);
  return file.str();
}

// The file of an index on `n` whose pool Pack makes of `graphs`.
std::string PackedIndexBytes(const SocialNetwork& n,
                             const std::vector<RRGraph>& graphs) {
  RrIndexOptions options;
  options.theta_override = graphs.size();
  options.seed = 5;
  const auto index = RrIndex::FromPool(
      n, options, graphs.size(),
      std::make_shared<const RrSketchPool>(RrSketchPool::Pack(
          graphs.size(), n.num_vertices(),
          [&graphs](size_t i) { return graphs[i].View(); })));
  std::stringstream file;
  SaveRrIndex(*index, file);
  return file.str();
}

RRGraph Singleton(VertexId v) { return RRGraph{v, {v}, {0, 0}, {}, {}}; }

// The in-tree {v, v + 1} rooted at v + 1 over the certain cycle's edge v.
RRGraph CyclePair(VertexId v) {
  return RRGraph{v + 1, {v, v + 1}, {0, 1, 1}, {1}, {{v, 0.5f}}};
}

// Pairs between singletons whose vertices climb by 400 to 38,400, past
// 2^15, on a 40,001-user certain cycle: a directory of 4-byte words.
std::vector<RRGraph> WideDirectoryGraphs() {
  std::vector<RRGraph> graphs;
  for (VertexId v = 0; v <= 38400; v += 400) {
    graphs.push_back(Singleton(v));
    graphs.push_back(CyclePair(v + 1));
  }
  return graphs;
}

// Where a saved RR file's payload starts: after the header (the magic
// as a u64 length and 8 bytes, version u32, kind u8, then fingerprint,
// eps, delta, cap_k and seed at 8 bytes each). It ends before
// build_seconds and the checksum, 8 bytes each.
constexpr size_t kThetaOffset = 8 + 8 + 4 + 1 + 5 * 8;
constexpr size_t kTrailerBytes = 16;

std::string Payload(const std::string& bytes) {
  return bytes.substr(kThetaOffset,
                      bytes.size() - kThetaOffset - kTrailerBytes);
}

// If loading succeeds despite mutation, the result must be internally
// consistent (every containment entry backed by actual membership). If
// it fails, the typed error must be populated: exactly one non-kNone
// code, a human-readable message, and never the "retryable" lie — a
// mutated byte stream fails identically on every retry.
void CheckConsistentIfLoaded(const SocialNetwork& n, const std::string& bytes) {
  std::stringstream file(bytes);
  IndexIoError error;
  const auto loaded = LoadRrIndex(n, file, &error);
  if (loaded == nullptr) {
    ASSERT_FALSE(error.ok());
    ASSERT_FALSE(error.message.empty());
    ASSERT_FALSE(error.retryable())
        << IndexIoCodeName(error.code) << ": " << error.message;
    return;
  }
  ASSERT_TRUE(error.ok());
  // The estimator divides by theta: it is the number of sketches held.
  ASSERT_EQ(loaded->theta(), loaded->num_graphs());
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    for (const uint32_t id : loaded->Containing(v)) {
      ASSERT_LT(id, loaded->num_graphs());
      ASSERT_TRUE(loaded->graph(id).LocalIndex(v).has_value());
    }
  }
  // Round trip: whatever loads saves back to the bytes it came from.
  std::stringstream saved;
  ASSERT_TRUE(SaveRrIndex(*loaded, saved));
  ASSERT_EQ(saved.str(), bytes);
  // And what loads is canonical: its payload, from theta up to
  // build_seconds, is what Pack writes for its own views.
  const auto packed = RrIndex::FromPool(
      n, RrIndexOptions{}, loaded->theta(),
      std::make_shared<const RrSketchPool>(RrSketchPool::Pack(
          loaded->num_graphs(), n.num_vertices(),
          [&loaded](size_t i) { return loaded->graph(i); })));
  std::stringstream repacked;
  ASSERT_TRUE(SaveRrIndex(*packed, repacked));
  ASSERT_EQ(Payload(repacked.str()), Payload(bytes));
}

TEST(IndexIoFuzzTest, SingleBitFlipsNeverCrash) {
  const SocialNetwork n = MakeRunningExample();
  const std::string valid = ValidRrIndexBytes(n);
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = valid;
    const size_t pos = rng.NextBounded(bytes.size());
    bytes[pos] = static_cast<char>(
        bytes[pos] ^ static_cast<char>(1u << rng.NextBounded(8)));
    CheckConsistentIfLoaded(n, bytes);
  }
}

TEST(IndexIoFuzzTest, MultiByteScramblesNeverCrash) {
  const SocialNetwork n = MakeRunningExample();
  const std::string valid = ValidRrIndexBytes(n);
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = valid;
    const size_t count = 1 + rng.NextBounded(16);
    for (size_t i = 0; i < count; ++i) {
      bytes[rng.NextBounded(bytes.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
    std::stringstream file(bytes);
    // Scrambles that miss every meaningful byte can still load; most are
    // rejected by the structural checks or the checksum. Either way: no
    // crash, no inconsistency.
    CheckConsistentIfLoaded(n, bytes);
  }
}

// Overwrites the trailing checksum with the digest of everything before
// it, so a mutation reaches the structural checks and, if it passes
// them, the round trip.
void RepairChecksum(std::string* bytes) {
  constexpr size_t kDigestBytes = 8;
  Fnv1a hash;
  hash.Update(bytes->data(), bytes->size() - kDigestBytes);
  uint64_t digest = hash.digest();
  for (size_t i = bytes->size() - kDigestBytes; i < bytes->size(); ++i) {
    (*bytes)[i] = static_cast<char>(digest & 0xff);
    digest >>= 8;
  }
}

TEST(IndexIoFuzzTest, ChecksumRepairedMutationsRoundTrip) {
  const SocialNetwork n = MakeRunningExample();
  const std::string valid = ValidRrIndexBytes(n);
  CheckConsistentIfLoaded(n, valid);
  Rng rng(16);
  int loaded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = valid;
    bytes[rng.NextBounded(bytes.size() - 8)] =
        static_cast<char>(rng.NextBounded(256));
    RepairChecksum(&bytes);
    CheckConsistentIfLoaded(n, bytes);
    std::stringstream file(bytes);
    if (LoadRrIndex(n, file) != nullptr) ++loaded;
  }
  // Bytes of thresholds, options and the trailer take most values, so
  // some mutations load (67 of 300 at this seed): the round trip is
  // exercised, not vacuous.
  EXPECT_GE(loaded, 10);
}

TEST(IndexIoFuzzTest, WideDirectoryMutationsRoundTrip) {
  // The seed's directory takes 4-byte words (its singletons' vertices
  // pass 2^15), so single-byte edits reach a wide directory's flag bit
  // and offsets as well as its blocks.
  const SocialNetwork n = MakeCertainCycle(40001);
  const std::string valid = PackedIndexBytes(n, WideDirectoryGraphs());
  constexpr size_t kWidthOffset = kThetaOffset + 8;
  ASSERT_EQ(valid[kWidthOffset], 4);
  CheckConsistentIfLoaded(n, valid);
  Rng rng(17);
  int loaded = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = valid;
    bytes[rng.NextBounded(bytes.size() - 8)] =
        static_cast<char>(rng.NextBounded(256));
    RepairChecksum(&bytes);
    CheckConsistentIfLoaded(n, bytes);
    std::stringstream file(bytes);
    if (LoadRrIndex(n, file) != nullptr) ++loaded;
  }
  EXPECT_GE(loaded, 10);
}

constexpr uint32_t kExplicit = 1u << 31;
constexpr size_t kGroup = 64;  // directory entries per base

struct Block;
struct Image;
std::optional<Block> BlockOf(Image* image, size_t i);

// A saved file taken apart into the pool arrays it images: the
// directory's word width, its words decoded to kExplicit | a block's
// start in the body or a singleton's vertex, the bases the loader
// derives for them (where the next block starts at each group's first
// sketch), and the body bytes. The header before theta and the trailer
// are kept as bytes. Encode puts it back together, each block's word its
// start less its group's base at the image's width, and repairs the
// checksum, so an edit reaches the loader's checks.
struct Image {
  std::string header;
  uint64_t theta = 0;
  uint32_t width = 0;
  std::vector<uint32_t> slots;
  std::vector<uint32_t> bases;
  std::vector<uint8_t> body;
  std::string trailer;

  explicit Image(const std::string& bytes);

  uint32_t flag() const { return 1u << (8 * width - 1); }

  std::string Encode() const {
    std::string bytes = header;
    const auto put = [&bytes](uint64_t value, size_t length) {
      for (size_t b = 0; b < length; ++b) {
        bytes.push_back(static_cast<char>((value >> (8 * b)) & 0xff));
      }
    };
    put(theta, 8);
    put(width, 1);
    put(slots.size() * width, 8);
    for (size_t i = 0; i < slots.size(); ++i) {
      const uint32_t slot = slots[i];
      put((slot & kExplicit) != 0
              ? flag() | ((slot & ~kExplicit) - bases[i / kGroup])
              : slot,
          width);
    }
    put(body.size(), 8);
    for (const uint8_t byte : body) put(byte, 1);
    bytes += trailer;
    RepairChecksum(&bytes);
    return bytes;
  }
};

// Replaces body bytes [at, at + erase) of `image` with `insert` and
// moves the blocks of the sketches after `sketch` with them, and the
// bases of the groups that open after it.
void Splice(Image* image, size_t sketch, size_t at, size_t erase,
            const std::vector<uint8_t>& insert) {
  const auto begin = image->body.begin() + static_cast<std::ptrdiff_t>(at);
  image->body.erase(begin, begin + static_cast<std::ptrdiff_t>(erase));
  image->body.insert(image->body.begin() + static_cast<std::ptrdiff_t>(at),
                     insert.begin(), insert.end());
  const auto shift = static_cast<uint32_t>(insert.size() - erase);
  for (size_t i = sketch + 1; i < image->slots.size(); ++i) {
    if ((image->slots[i] & kExplicit) != 0) image->slots[i] += shift;
  }
  for (size_t g = sketch / kGroup + 1; g < image->bases.size(); ++g) {
    image->bases[g] += shift;
  }
}

// One explicit block of an Image: where it sits, its varint header, its
// region's vertices and packed local ids, each read and written at its
// own width (id entry 0 is the root id, then the n + 1 offsets unless
// the block is an in-tree, then the m heads), and its edge records (the
// edge id at the block's edge width, then the threshold's bits).
// Multi-byte fields are read and written in little-endian order, as the
// files are.
struct Block {
  Image* image;
  size_t sketch;
  uint32_t start;
  uint32_t header_bytes;
  uint32_t n;
  uint32_t width;
  uint32_t vertex_width;
  uint32_t edge_width;
  bool tree;  // an in-tree: no offsets stored, m = n - 1

  std::byte* region() const {
    return reinterpret_cast<std::byte*>(image->body.data() + start +
                                        header_bytes);
  }
  uint32_t vertex(size_t j) const {
    return vertex_width == 2 ? LoadId<uint16_t>(region(), j)
                             : LoadId<uint32_t>(region(), j);
  }
  void set_vertex(size_t j, uint32_t value) const {
    if (vertex_width == 2) {
      StoreId<uint16_t>(region(), j, value);
    } else {
      StoreId<uint32_t>(region(), j, value);
    }
  }
  std::byte* packed() const { return region() + n * vertex_width; }
  uint32_t id(size_t j) const {
    return width == 1 ? LoadId<uint8_t>(packed(), j)
                      : LoadId<uint32_t>(packed(), j);
  }
  void set_id(size_t j, uint32_t value) const {
    if (width == 1) {
      StoreId<uint8_t>(packed(), j, value);
    } else {
      StoreId<uint32_t>(packed(), j, value);
    }
  }
  /// The id entry of the first head.
  uint32_t heads_at() const { return tree ? 1 : n + 2; }
  uint32_t m() const { return tree ? n - 1 : id(1 + n); }
  /// Offset j, stored or, in an in-tree, j less one past the root.
  uint32_t offset(size_t j) const {
    return tree ? static_cast<uint32_t>(j - (j > id(0) ? 1 : 0))
                : id(1 + j);
  }
  /// Bytes the vertices and packed ids take.
  size_t region_bytes() const {
    return n * vertex_width + (heads_at() + m()) * width;
  }
  /// Record k's first byte: its edge id, then the threshold's bits.
  std::byte* record(size_t k) const {
    return region() + region_bytes() + k * (edge_width + sizeof(float));
  }
  uint32_t edge_id(size_t k) const {
    uint32_t value = 0;
    std::memcpy(&value, record(k), edge_width);
    return value;
  }
  void set_edge_id(size_t k, uint32_t value) const {
    std::memcpy(record(k), &value, edge_width);
  }
  float threshold(size_t k) const {
    float value;
    std::memcpy(&value, record(k) + edge_width, sizeof(value));
    return value;
  }
  void set_threshold(size_t k, float value) const {
    std::memcpy(record(k) + edge_width, &value, sizeof(value));
  }
  /// In an in-tree, local j's parent: the head of its one edge.
  uint32_t parent(uint32_t j) const { return id(heads_at() + offset(j)); }
  /// In an in-tree, true when every vertex reaches the root within n
  /// parent steps, so no parents form a cycle.
  bool parents_reach_root() const {
    for (uint32_t j = 0; j < n; ++j) {
      uint32_t v = j;
      for (uint32_t step = 0; step < n && v != id(0); ++step) v = parent(v);
      if (v != id(0)) return false;
    }
    return true;
  }
  /// Bytes the block takes: header, region and records.
  size_t bytes() const {
    return header_bytes + region_bytes() + m() * (edge_width + sizeof(float));
  }

  /// Re-encodes the block with its vertices at `new_vertex_width`, its
  /// ids at `new_width` and its edge ids at `new_edge_width` bytes,
  /// every value intact, its header one byte longer than it needs when
  /// `overlong`, an in-tree's offsets stored when `with_offsets`, and
  /// moves the blocks after it.
  void Reencode(uint32_t new_vertex_width, uint32_t new_width,
                uint32_t new_edge_width, bool overlong = false,
                bool with_offsets = false) const {
    const uint32_t m_edges = m();
    const bool new_tree = tree && !with_offsets;
    uint32_t header = n << 4;
    if (new_width == 4) header |= 1;
    if (new_vertex_width == 4) header |= 2;
    if (new_edge_width == 4) header |= 4;
    if (new_tree) header |= 8;
    std::vector<uint8_t> out;
    for (; header >= 0x80; header >>= 7) {
      out.push_back(static_cast<uint8_t>(header | 0x80));
    }
    if (overlong) {
      // The last group again with its top bit set, then an empty group.
      out.push_back(static_cast<uint8_t>(header | 0x80));
      out.push_back(0);
    } else {
      out.push_back(static_cast<uint8_t>(header));
    }
    const auto put = [&out](uint32_t value, uint32_t bytes) {
      for (uint32_t b = 0; b < bytes; ++b) {
        out.push_back(static_cast<uint8_t>(value >> (8 * b)));
      }
    };
    for (uint32_t j = 0; j < n; ++j) put(vertex(j), new_vertex_width);
    put(id(0), new_width);
    if (!new_tree) {
      for (uint32_t j = 0; j <= n; ++j) put(offset(j), new_width);
    }
    for (uint32_t k = 0; k < m_edges; ++k) {
      put(id(heads_at() + k), new_width);
    }
    for (uint32_t k = 0; k < m_edges; ++k) {
      put(edge_id(k), new_edge_width);
      uint32_t bits;
      const float t = threshold(k);
      std::memcpy(&bits, &t, sizeof(bits));
      put(bits, sizeof(bits));
    }
    Splice(image, sketch, start, bytes(), out);
  }
};

// Sketch i's block, or nullopt for an implicit singleton.
std::optional<Block> BlockOf(Image* image, size_t i) {
  if ((image->slots[i] & kExplicit) == 0) return std::nullopt;
  const uint32_t start = image->slots[i] & ~kExplicit;
  uint32_t header = 0;
  uint32_t header_bytes = 0;
  for (unsigned shift = 0;; shift += 7) {
    const uint8_t byte = image->body[start + header_bytes++];
    header |= uint32_t{byte & 0x7fu} << shift;
    if (byte < 0x80) break;
  }
  return Block{image,
               i,
               start,
               header_bytes,
               header >> 4,
               (header & 1) != 0 ? 4u : 1u,
               (header & 2) != 0 ? 4u : 2u,
               (header & 4) != 0 ? 4u : 3u,
               (header & 8) != 0};
}

Image::Image(const std::string& bytes) {
  size_t at = kThetaOffset;
  const auto take = [&bytes, &at](size_t length) {
    uint64_t value = 0;
    for (size_t b = 0; b < length; ++b) {
      value |= uint64_t{static_cast<unsigned char>(bytes[at++])} << (8 * b);
    }
    return value;
  };
  header = bytes.substr(0, kThetaOffset);
  theta = take(8);
  width = static_cast<uint32_t>(take(1));
  slots.resize(take(8) / width);
  for (uint32_t& slot : slots) slot = static_cast<uint32_t>(take(width));
  body.resize(take(8));
  for (uint8_t& byte : body) byte = static_cast<uint8_t>(take(1));
  trailer = bytes.substr(at);
  // The bases as the loader derives them: the blocks run back to back
  // from the body's first byte.
  uint32_t next = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i % kGroup == 0) bases.push_back(next);
    if ((slots[i] & flag()) == 0) continue;
    slots[i] = kExplicit | (bases.back() + (slots[i] & ~flag()));
    next = static_cast<uint32_t>((slots[i] & ~kExplicit) +
                                 BlockOf(this, i)->bytes());
  }
}

// The first explicit block with at least `min_n` vertices and `min_m`
// edges for which `also` holds, if any.
template <typename Also>
std::optional<Block> FindBlock(Image* image, uint32_t min_n, uint32_t min_m,
                               Also also) {
  for (size_t i = 0; i < image->slots.size(); ++i) {
    const std::optional<Block> block = BlockOf(image, i);
    if (block && block->n >= min_n && block->m() >= min_m && also(*block)) {
      return block;
    }
  }
  return std::nullopt;
}
std::optional<Block> FindBlock(Image* image, uint32_t min_n, uint32_t min_m) {
  return FindBlock(image, min_n, min_m, [](const Block&) { return true; });
}

TEST(IndexIoFuzzTest, MovedRootLoadsOnlyOntoAMember) {
  // A root id moved to another member of its sketch is a different but
  // valid index: it loads and saves back byte-identical. In an in-tree
  // block, whose offsets follow from the root id, that holds only while
  // every vertex's parent chase still reaches the new root; a root id
  // at or past the sketch's vertex count is corruption.
  const SocialNetwork n = MakeRunningExample();
  Image image(ValidRrIndexBytes(n));
  int moved = 0;
  int cyclic = 0;
  int off_sketch = 0;
  for (size_t i = 0; i < image.slots.size() && moved < 40; ++i) {
    const std::optional<Block> explicit_block = BlockOf(&image, i);
    if (!explicit_block) continue;
    const Block& block = *explicit_block;
    ASSERT_EQ(block.width, 1u) << "sketch " << i;
    const uint32_t root = block.id(0);
    ASSERT_LT(root, block.n) << "sketch " << i;
    for (uint32_t local = 0; local < 256; ++local) {
      if (local == root) continue;
      block.set_id(0, local);
      const std::string bytes = image.Encode();
      std::stringstream file(bytes);
      IndexIoError error;
      const auto loaded = LoadRrIndex(n, file, &error);
      if (local < block.n && (!block.tree || block.parents_reach_root())) {
        ASSERT_NE(loaded, nullptr) << "sketch " << i << ": " << error.message;
        EXPECT_EQ(loaded->graph(i).root(), block.vertex(local));
        CheckConsistentIfLoaded(n, bytes);
        ++moved;
      } else {
        EXPECT_EQ(loaded, nullptr) << "sketch " << i << ", root id " << local;
        EXPECT_EQ(error.code, IndexIoCode::kCorruptPayload)
            << "sketch " << i << ": " << error.message;
        ++(local < block.n ? cyclic : off_sketch);
      }
    }
    block.set_id(0, root);
  }
  EXPECT_GE(moved, 10);
  EXPECT_GE(cyclic, 10);
  EXPECT_GE(off_sketch, 10);
}

// One edit of a valid image that no saved pool can hold. Each returns
// false when the image has no place to make it.
struct ValidatorRow {
  const char* name;
  std::function<bool(const SocialNetwork&, Image*)> edit;
};

std::vector<ValidatorRow> ValidatorRows() {
  return {
      {"block start moved",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0);
         if (!block) return false;
         image->slots[block->sketch] += 1;
         return true;
       }},
      {"block word one short of its start",
       [](const SocialNetwork&, Image* image) {
         // A block after the first of its group, whose word is not 0.
         const auto block =
             FindBlock(image, 1, 0, [image](const Block& b) {
               return b.start != image->bases[b.sketch / kGroup];
             });
         if (!block) return false;
         image->slots[block->sketch] -= 1;
         return true;
       }},
      {"directory words at 4 B though they fit 2",
       [](const SocialNetwork&, Image* image) {
         if (image->width != 2) return false;
         image->width = 4;
         return true;
       }},
      {"2-byte singleton word = 2^15",
       [](const SocialNetwork& n, Image* image) {
         // Bit 15 is a 2-byte word's block flag: the word reads as a
         // block at its base, which is not where a block starts.
         if (image->width != 2 || n.num_vertices() <= 32768) return false;
         for (uint32_t& slot : image->slots) {
           if ((slot & kExplicit) == 0) {
             slot = 32768;
             return true;
           }
         }
         return false;
       }},
      {"tree parents form a two-vertex cycle",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 3, 2, [](const Block& b) { return b.tree; });
         if (!block) return false;
         // The two locals after the root, each other's parent; the
         // offsets, header and heads' range stay an in-tree's.
         const uint32_t root = block->id(0);
         const uint32_t a = (root + 1) % block->n;
         const uint32_t b = (root + 2) % block->n;
         block->set_id(block->heads_at() + block->offset(a), b);
         block->set_id(block->heads_at() + block->offset(b), a);
         return true;
       }},
      {"tree vertex is its own parent",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 2, 1, [](const Block& b) { return b.tree; });
         if (!block) return false;
         const uint32_t a = (block->id(0) + 1) % block->n;
         block->set_id(block->heads_at() + block->offset(a), a);
         return true;
       }},
      {"width code flipped",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0);
         if (!block) return false;
         // Bit 0 of the header's first byte: the id-width flag.
         image->body[block->start] ^= 1;
         return true;
       }},
      {"n grown by one",
       [](const SocialNetwork&, Image* image) {
         // A one-byte header that stays one byte.
         const auto block = FindBlock(image, 1, 0, [](const Block& b) {
           return b.n < 7;
         });
         if (!block) return false;
         image->body[block->start] += 16;
         return true;
       }},
      {"header n = 0",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0, [](const Block& b) {
           return b.header_bytes == 1;
         });
         if (!block) return false;
         // The flags stay; n << 4 is cleared.
         image->body[block->start] &= 15;
         return true;
       }},
      {"overlong header varint",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0);
         if (!block) return false;
         block->Reencode(block->vertex_width, block->width,
                         block->edge_width, /*overlong=*/true);
         return true;
       }},
      {"two vertices swapped",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 2, 0);
         if (!block) return false;
         const uint32_t first = block->vertex(0);
         block->set_vertex(0, block->vertex(1));
         block->set_vertex(1, first);
         return true;
       }},
      {"last vertex = |V|",
       [](const SocialNetwork& n, Image* image) {
         // |V| must fit the block's vertex width.
         const auto block = FindBlock(image, 1, 0, [&n](const Block& b) {
           return b.vertex_width == 4 || n.num_vertices() <= 65535;
         });
         if (!block) return false;
         block->set_vertex(block->n - 1,
                           static_cast<VertexId>(n.num_vertices()));
         return true;
       }},
      {"2-byte vertex = 65,535 >= |V|",
       [](const SocialNetwork& n, Image* image) {
         const auto block = FindBlock(image, 1, 0, [](const Block& b) {
           return b.vertex_width == 2;
         });
         if (!block || n.num_vertices() > 65535) return false;
         block->set_vertex(block->n - 1, 65535);
         return true;
       }},
      {"2-byte block's last two vertices swapped",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 2, 0, [](const Block& b) {
           return b.vertex_width == 2;
         });
         if (!block) return false;
         const uint32_t last = block->vertex(block->n - 1);
         block->set_vertex(block->n - 1, block->vertex(block->n - 2));
         block->set_vertex(block->n - 2, last);
         return true;
       }},
      {"vertices stored at 4 bytes though they fit 2",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0, [](const Block& b) {
           return b.vertex_width == 2;
         });
         if (!block) return false;
         block->Reencode(4, block->width, block->edge_width);
         return true;
       }},
      {"root id = n",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 0);
         if (!block) return false;
         block->set_id(0, block->n);
         return true;
       }},
      {"first offset = 1",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 1, 1, [](const Block& b) { return !b.tree; });
         if (!block) return false;
         block->set_id(1, 1);
         return true;
       }},
      {"offset falls",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 2, 1, [](const Block& b) {
           return !b.tree && (b.width == 4 || b.m() < 255);
         });
         if (!block) return false;
         block->set_id(2, block->m() + 1);
         return true;
       }},
      {"head = n",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 1);
         if (!block) return false;
         block->set_id(block->heads_at(), block->n);
         return true;
       }},
      {"tree-shaped block stored in CSR form",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 2, 1, [](const Block& b) { return b.tree; });
         if (!block) return false;
         block->Reencode(block->vertex_width, block->width, block->edge_width,
                         /*overlong=*/false, /*with_offsets=*/true);
         return true;
       }},
      {"CSR block flagged tree",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 1, 0, [](const Block& b) { return !b.tree; });
         if (!block) return false;
         // Bit 3 of the header's first byte: the in-tree flag.
         image->body[block->start] |= 8;
         return true;
       }},
      {"tree head = n",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 2, 1, [](const Block& b) { return b.tree; });
         if (!block) return false;
         block->set_id(block->heads_at() + block->m() - 1, block->n);
         return true;
       }},
      {"tree root id = n",
       [](const SocialNetwork&, Image* image) {
         const auto block =
             FindBlock(image, 2, 1, [](const Block& b) { return b.tree; });
         if (!block) return false;
         block->set_id(0, block->n);
         return true;
       }},
      {"inline edge id = |E|",
       [](const SocialNetwork& n, Image* image) {
         const auto block = FindBlock(image, 1, 1);
         if (!block) return false;
         block->set_edge_id(0, static_cast<uint32_t>(n.num_edges()));
         return true;
       }},
      {"3-byte edge id >= |E|",
       [](const SocialNetwork& n, Image* image) {
         // The largest id 3 bytes hold.
         const auto block = FindBlock(image, 1, 1, [](const Block& b) {
           return b.edge_width == 3;
         });
         constexpr uint32_t kMax3Byte = (uint32_t{1} << 24) - 1;
         if (!block || n.num_edges() > kMax3Byte) return false;
         block->set_edge_id(block->m() - 1, kMax3Byte);
         return true;
       }},
      {"edge ids stored at 4 B though they fit 3",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 1, [](const Block& b) {
           return b.edge_width == 3;
         });
         if (!block) return false;
         block->Reencode(block->vertex_width, block->width, 4);
         return true;
       }},
      {"threshold = -0.5",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 1);
         if (!block) return false;
         block->set_threshold(0, -0.5f);
         return true;
       }},
      {"threshold = NaN",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 1);
         if (!block) return false;
         block->set_threshold(0, std::numeric_limits<float>::quiet_NaN());
         return true;
       }},
      {"threshold = 1.5",
       [](const SocialNetwork&, Image* image) {
         const auto block = FindBlock(image, 1, 1);
         if (!block) return false;
         block->set_threshold(0, 1.5f);
         return true;
       }},
      {"block stored wider than its width",
       [](const SocialNetwork&, Image* image) {
         // Re-encodes a 1-byte block at 4 bytes, moving the blocks after
         // it: every id is intact, only the width is not the narrowest.
         const auto block = FindBlock(image, 1, 0, [](const Block& b) {
           return b.width == 1;
         });
         if (!block) return false;
         block->Reencode(block->vertex_width, 4, block->edge_width);
         return true;
       }},
      {"singleton word = |V|",
       [](const SocialNetwork& n, Image* image) {
         // |V| must fit below the word's flag.
         if (n.num_vertices() >= image->flag()) return false;
         for (uint32_t& slot : image->slots) {
           if ((slot & kExplicit) == 0) {
             slot = static_cast<uint32_t>(n.num_vertices());
             return true;
           }
         }
         return false;
       }},
      {"block one byte longer than BodyLength",
       [](const SocialNetwork&, Image* image) {
         // A zero byte after a block's records, with the blocks after it
         // moved to make room: BodyLength's end is no longer where the
         // next block starts, and sizing the records from the next
         // block's start would read a byte of it as a record's.
         const auto block = FindBlock(image, 1, 1, [image](const Block& b) {
           return b.start + b.bytes() < image->body.size();
         });
         if (!block) return false;
         Splice(image, block->sketch, block->start + block->bytes(), 0, {0});
         return true;
       }},
      {"body ends inside a block's records",
       [](const SocialNetwork&, Image* image) {
         for (size_t i = image->slots.size(); i-- > 0;) {
           const std::optional<Block> block = BlockOf(image, i);
           if (!block) continue;
           if (block->m() == 0) return false;
           image->body.pop_back();
           return true;
         }
         return false;
       }},
      {"body byte after the last block",
       [](const SocialNetwork&, Image* image) {
         image->body.push_back(0);
         return true;
       }},
  };
}

TEST(IndexIoFuzzTest, ValidatorRejectsEveryNonCanonicalImage) {
  // Each row edits one field of a saved file, repairs its checksum and
  // must get kCorruptPayload: on the running example's file (1-byte ids,
  // 2-byte vertices, 3-byte edge ids and singletons), on the certain
  // cycle's (4-byte ids and vertices, and a directory of 4-byte words,
  // as each block is longer than 2^15 bytes), and on sketches packed by
  // hand. The edgeless 300-vertex sketch's ids are all zero, so at
  // either width they read the same: only its id width (4 bytes, as
  // n > 256) tells a flipped width code. The one-vertex self-loop is
  // the block with the fewest bytes, and one no singleton may replace.
  // Two pools of singletons and a pair on the cycle take 2-byte and
  // 4-byte directory words: their largest singleton vertex is 32,767
  // and 32,768.
  const SocialNetwork example = MakeRunningExample();
  const SocialNetwork cycle = MakeCertainCycle(65537);
  RrIndexOptions options;
  options.theta_override = 3;
  options.seed = 5;
  RrIndex wide(cycle, options);
  wide.Build();
  ASSERT_EQ(wide.graph(0).id_width, 4u);
  std::stringstream wide_file;
  ASSERT_TRUE(SaveRrIndex(wide, wide_file));
  RRGraph edgeless{0, std::vector<VertexId>(300), {}, {}, {}};
  std::iota(edgeless.vertices.begin(), edgeless.vertices.end(), 0);
  edgeless.offsets.assign(301, 0);
  ASSERT_EQ(edgeless.View().id_width, 4u);
  const RRGraph self_loop{4, {4}, {0, 1}, {0}, {{0, 0.5f}}};
  const struct {
    const SocialNetwork* network;
    std::string bytes;
    uint32_t directory_width;
  } files[] = {
      {&example, ValidRrIndexBytes(example), 2},
      {&cycle, wide_file.str(), 4},
      {&cycle, PackedIndexBytes(cycle, {edgeless}), 2},
      {&example, PackedIndexBytes(example, {self_loop}), 2},
      {&cycle,
       PackedIndexBytes(cycle, {Singleton(5), CyclePair(1), Singleton(32767)}),
       2},
      {&cycle,
       PackedIndexBytes(cycle, {Singleton(5), CyclePair(1), Singleton(32768)}),
       4}};

  for (const auto& file : files) {
    // Taking a file apart and putting it back changes nothing, and each
    // file loads before it is edited.
    ASSERT_EQ(Image(file.bytes).Encode(), file.bytes);
    ASSERT_EQ(Image(file.bytes).width, file.directory_width);
    std::stringstream in(file.bytes);
    ASSERT_NE(LoadRrIndex(*file.network, in), nullptr);
  }
  for (const ValidatorRow& row : ValidatorRows()) {
    int edited = 0;
    for (const auto& file : files) {
      Image image(file.bytes);
      if (!row.edit(*file.network, &image)) continue;
      ++edited;
      std::stringstream in(image.Encode());
      IndexIoError error;
      EXPECT_EQ(LoadRrIndex(*file.network, in, &error), nullptr)
          << row.name << ", |V| = " << file.network->num_vertices();
      EXPECT_EQ(error.code, IndexIoCode::kCorruptPayload)
          << row.name << ", |V| = " << file.network->num_vertices() << ": "
          << error.message;
    }
    // Every row edits the running example's file.
    EXPECT_GE(edited, 1) << row.name;
  }
}

TEST(IndexIoFuzzTest, ArbitraryTruncationsNeverCrash) {
  const SocialNetwork n = MakeRunningExample();
  const std::string valid = ValidRrIndexBytes(n);
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t keep = rng.NextBounded(valid.size());
    std::stringstream file(valid.substr(0, keep));
    // A strict prefix always misses the checksum: must fail cleanly.
    EXPECT_EQ(LoadRrIndex(n, file), nullptr) << "kept " << keep;
  }
}

TEST(IndexIoFuzzTest, RandomGarbageNeverCrashes) {
  const SocialNetwork n = MakeRunningExample();
  Rng rng(14);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes(rng.NextBounded(4096), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
    std::stringstream file(bytes);
    EXPECT_EQ(LoadRrIndex(n, file), nullptr);
    std::stringstream file2(bytes);
    EXPECT_EQ(LoadDelayMatIndex(n, file2), nullptr);
  }
}

TEST(IndexIoFuzzTest, DelayMatMutationsNeverCrash) {
  const SocialNetwork n = MakeRunningExample();
  RrIndexOptions options;
  options.theta_override = 500;
  DelayMatIndex index(n, options);
  index.Build();
  std::stringstream file;
  SaveDelayMatIndex(index, file);
  const std::string valid = file.str();

  Rng rng(15);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = valid;
    bytes[rng.NextBounded(bytes.size())] =
        static_cast<char>(rng.NextBounded(256));
    std::stringstream mutated(bytes);
    const auto loaded = LoadDelayMatIndex(n, mutated);
    if (loaded != nullptr) {
      // Survivors must still satisfy the counter invariant.
      for (VertexId v = 0; v < n.num_vertices(); ++v) {
        ASSERT_LE(loaded->CountContaining(v), loaded->theta());
      }
    }
  }
}

}  // namespace
}  // namespace pitex
