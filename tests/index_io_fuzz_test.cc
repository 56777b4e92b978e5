// Randomized robustness fuzzing for the index persistence layer:
// whatever bytes arrive, LoadRrIndex must either return a valid index or
// fail cleanly — never crash, never hand back a structurally
// inconsistent object — and an RR index that loads must save back to
// identical bytes, which are what PackViews writes for its views. A table of single-field edits pins each check of the
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
#include "pool_image.h"
#include "running_example.h"
#include "src/index/index_io.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace pitex {
namespace {

using pool_image::Block;
using pool_image::BlockOf;
using pool_image::Image;
using pool_image::kThetaOffset;
using pool_image::kTrailerBytes;
using pool_image::RepairChecksum;
using pool_image::RootOf;
using pool_image::ValidatorRow;
using pool_image::ValidatorRows;

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

// The file of an index on `n` whose pool PackViews makes of `graphs`.
std::string PackedIndexBytes(const SocialNetwork& n,
                             const std::vector<RRGraph>& graphs) {
  RrIndexOptions options;
  options.theta_override = graphs.size();
  options.seed = 5;
  const auto index = RrIndex::FromPool(
      n, options, graphs.size(),
      std::make_shared<const RrSketchPool>(PackViews(
          graphs.size(), RrSketchPool(n.graph),
          [&graphs](size_t i) { return graphs[i].View(); })));
  std::stringstream file;
  SaveRrIndex(*index, file);
  return file.str();
}

RRGraph Singleton(VertexId v) { return RRGraph{v, {v}, {0, 0}, {}, {}}; }

// The in-tree {v, v + 1} rooted at v + 1 over the certain cycle's edge v,
// the one edge out of v: rank 0.
RRGraph CyclePair(VertexId v) {
  return RRGraph{v + 1, {v, v + 1}, {0, 1, 1}, {1}, {0}};
}

// The cycle's path 0 -> 1 -> ... -> 19,999, an in-tree rooted at its
// end, whose block takes 37,502 bytes on a 40,001-user certain cycle,
// then pairs between singletons past 2^15: the last pair's block starts
// more than 32,767 bytes past its group's base, so the directory takes
// 4-byte words.
constexpr VertexId kWidePath = 20000;
std::vector<RRGraph> WideDirectoryGraphs() {
  RRGraph path{kWidePath - 1, std::vector<VertexId>(kWidePath), {}, {}, {}};
  std::iota(path.vertices.begin(), path.vertices.end(), 0);
  for (VertexId v = 0; v <= kWidePath; ++v) {
    path.offsets.push_back(std::min(v, kWidePath - 1));
  }
  for (VertexId v = 1; v < kWidePath; ++v) path.heads.push_back(v);
  path.ranks.assign(kWidePath - 1, 0);
  return {path, Singleton(32767), CyclePair(32768), Singleton(32770),
          CyclePair(38400)};
}

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
  // Each sketch's vertices, decoded once: a parent tree's view finds a
  // vertex by decoding up to it.
  const IndexViews views(*loaded, n.num_vertices());
  std::vector<std::vector<VertexId>> members(loaded->num_graphs());
  for (uint32_t id = 0; id < loaded->num_graphs(); ++id) {
    members[id] = Owned(views(id)).vertices;
  }
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    for (const uint32_t id : ContainingIds(*loaded, v)) {
      ASSERT_LT(id, loaded->num_graphs());
      ASSERT_TRUE(std::ranges::binary_search(members[id], v));
    }
  }
  // Round trip: whatever loads saves back to the bytes it came from.
  std::stringstream saved;
  ASSERT_TRUE(SaveRrIndex(*loaded, saved));
  ASSERT_EQ(saved.str(), bytes);
  // And what loads is canonical: its payload, from theta up to
  // build_seconds, is what PackViews writes for its own views.
  const auto packed = RrIndex::FromPool(
      n, RrIndexOptions{}, loaded->theta(),
      std::make_shared<const RrSketchPool>(PackViews(
          loaded->num_graphs(), RrSketchPool(n.graph),
          IndexViews(*loaded, n.num_vertices()))));
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
  // The seed's directory takes 17-bit words (the blocks after the long
  // path start past 32,767 bytes from their base), so single-byte edits
  // reach a wide directory's masks and words as well as its blocks. The
  // edits skip the root counts, which take a bit for each of the
  // cycle's 40,001 users, and the long path's fields, which would
  // otherwise draw nearly every edit; the header, theta, the counts'
  // width and length and the path's header stay in the draw.
  const SocialNetwork n = MakeCertainCycle(40001);
  const std::string valid = PackedIndexBytes(n, WideDirectoryGraphs());
  // After theta, the root counts: their width in bits, their length and
  // a count per vertex, packed. Then the group masks, after their u64
  // count, the directory's width and its words, after the u64 count of
  // their bytes, and the body, after its own, which opens with the path.
  const size_t counts_offset = kThetaOffset + 8 + 1 + 8;
  const size_t count_bytes =
      (size_t{static_cast<uint8_t>(valid[kThetaOffset + 8])} *
           n.num_vertices() +
       7) /
      8;
  const size_t width_offset =
      counts_offset + count_bytes + 8 +
      8 * static_cast<uint8_t>(valid[counts_offset + count_bytes]);
  ASSERT_EQ(valid[width_offset], 17);
  const size_t body_offset =
      width_offset + 1 + 8 + static_cast<uint8_t>(valid[width_offset + 1]) +
      8;
  Image image(valid, n);
  const std::optional<Block> path = BlockOf(&image, 0);
  ASSERT_TRUE(path.has_value() && path->n == kWidePath);
  ASSERT_EQ(path->bytes(), 37502u);
  ASSERT_EQ(static_cast<uint8_t>(valid[body_offset]), image.body[0]);
  const size_t path_fields = body_offset + path->header_bytes;
  const size_t path_field_bytes = path->bytes() - path->header_bytes;
  CheckConsistentIfLoaded(n, valid);
  Rng rng(17);
  int loaded = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = valid;
    size_t at =
        rng.NextBounded(bytes.size() - 8 - count_bytes - path_field_bytes);
    if (at >= counts_offset) at += count_bytes;
    if (at >= path_fields) at += path_field_bytes;
    bytes[at] = static_cast<char>(rng.NextBounded(256));
    RepairChecksum(&bytes);
    CheckConsistentIfLoaded(n, bytes);
    std::stringstream file(bytes);
    if (LoadRrIndex(n, file) != nullptr) ++loaded;
  }
  EXPECT_GE(loaded, 10);
}

// Pairs {2k, 2k + 1} rooted at 2k + 1, k < `pairs`, each holding both
// edges between its vertices, so its root has an out-edge: CSR blocks
// at roots spaced two apart.
std::vector<RRGraph> SpacedPairs(VertexId pairs) {
  std::vector<RRGraph> graphs;
  for (VertexId k = 0; k < pairs; ++k) {
    graphs.push_back(RRGraph{2 * k + 1, {2 * k, 2 * k + 1}, {0, 1, 2}, {1, 0},
                             {0, 0}});
  }
  return graphs;
}

TEST(IndexIoFuzzTest, MovedRootLoadsOnlyOntoAMember) {
  // A root moved to another member of its sketch (the old root stored
  // with the other vertices, the new one's local id the root id, and the
  // root counts moving the sketch to the new root's range) is a
  // different but valid index while the sketches stay in root order
  // (the new root vertex lies between its neighbours' roots): it loads
  // and saves back byte-identical. A root id at or past the sketch's
  // vertex count, which its field holds unless the count is a power of
  // two, is corruption, and so is a root out of order. The running
  // example's 500 sketches over 8 users hold long runs of one root, so
  // its moves are refused; the spaced pairs' moves stay in order. A
  // parent tree stores no root id (its root is local 0, and its fields
  // name its vertices from the root its range gives it), so only the
  // other blocks are moved.
  int moved = 0;
  int unordered = 0;
  int off_sketch = 0;
  const auto move_roots = [&](const SocialNetwork& n, const Image& image) {
    for (size_t i = 0; i < image.slots.size() && moved < 40; ++i) {
      Image original = image;
      const std::optional<Block> block = BlockOf(&original, i);
      if (!block || block->tree) continue;
      ASSERT_LT(block->root(), block->n) << "sketch " << i;
      for (uint32_t local = 0; local <= block->max_id(); ++local) {
        if (local == block->root()) continue;
        Image edited = image;
        const Block moved_block = *BlockOf(&edited, i);
        if (local < block->n) {
          moved_block.MoveRoot(local);
        } else {
          moved_block.set_root(local);
        }
        const std::string bytes = edited.Encode();
        std::stringstream file(bytes);
        IndexIoError error;
        const auto loaded = LoadRrIndex(n, file, &error);
        const bool in_order =
            local < block->n &&
            (i == 0 || RootOf(&original, i - 1) <= block->vertex(local)) &&
            (i + 1 == image.slots.size() ||
             block->vertex(local) <= RootOf(&original, i + 1));
        if (in_order) {
          ASSERT_NE(loaded, nullptr)
              << "sketch " << i << ": " << error.message;
          EXPECT_EQ(loaded->graph(i, block->vertex(local)).root(),
                    block->vertex(local));
          CheckConsistentIfLoaded(n, bytes);
          ++moved;
        } else {
          EXPECT_EQ(loaded, nullptr)
              << "sketch " << i << ", root id " << local;
          EXPECT_EQ(error.code, IndexIoCode::kCorruptPayload)
              << "sketch " << i << ": " << error.message;
          ++(local >= block->n ? off_sketch : unordered);
        }
      }
    }
  };
  const SocialNetwork example = MakeRunningExample();
  move_roots(example, Image(ValidRrIndexBytes(example), example));
  const std::vector<RRGraph> pairs = SpacedPairs(32);
  const SocialNetwork spaced = NetworkOf(64, pairs);
  std::vector<RRGraph> ranked = pairs;
  Rerank(spaced.graph, &ranked);
  move_roots(spaced, Image(PackedIndexBytes(spaced, ranked), spaced));
  EXPECT_GE(moved, 10);
  EXPECT_GE(unordered, 10);
  EXPECT_GE(off_sketch, 10);
}

TEST(IndexIoFuzzTest, ValidatorRejectsEveryNonCanonicalImage) {
  // Each row edits one field of a saved file, repairs its checksum and
  // must get kCorruptPayload: on the running example's file (3-bit
  // vertices, 1-bit ranks, a few bits of local ids, and singletons), on
  // the certain cycle's (17-bit vertices and local ids, 0-bit ranks, and
  // a directory of 21-bit words, as its blocks take over 2^18 bytes
  // each), and on sketches packed by hand. The edgeless 300-vertex
  // sketch's offsets take 0 bits. The one-vertex self-loop, on a network
  // of its own edge, is the block with the fewest bytes, and one no
  // singleton may replace. Two pools of singletons and a pair on the
  // cycle, whose largest singleton vertex is 32,767 and 32,768, both
  // take 0-bit directory words: a singleton has no word, and the pair's
  // block starts at its group's base. Twelve
  // distinct pairs rooted at 0, then each again, are a range whose
  // first copies outgrow the loader's smallest table, and whose repeats
  // it finds by their bytes. Forty distinct pairs rooted at 0, then
  // twenty ranges of nine distinct pairs and a repeat, are ranges after
  // a wide one, each with a table of its own size.
  const SocialNetwork example = MakeRunningExample();
  const SocialNetwork cycle = MakeCertainCycle(65537);
  RrIndexOptions options;
  options.theta_override = 3;
  options.seed = 5;
  RrIndex wide(cycle, options);
  wide.Build();
  ASSERT_EQ(IndexViews(wide, cycle.num_vertices())(0).heads.bits, 17u);
  std::stringstream wide_file;
  ASSERT_TRUE(SaveRrIndex(wide, wide_file));
  RRGraph edgeless{0, std::vector<VertexId>(300), {}, {}, {}};
  std::iota(edgeless.vertices.begin(), edgeless.vertices.end(), 0);
  edgeless.offsets.assign(301, 0);
  ASSERT_EQ(edgeless.View().offsets.bits, 0u);
  const RRGraph self_loop{4, {4}, {0, 1}, {0}, {0}};
  const SocialNetwork loop = NetworkOf(5, {self_loop});
  std::vector<RRGraph> pairs;
  for (VertexId v = 1; v <= 12; ++v) {
    pairs.push_back(RRGraph{0, {0, v}, {0, 0, 1}, {0}, {0}});
  }
  for (VertexId v = 1; v <= 12; ++v) pairs.push_back(pairs[v - 1]);
  const SocialNetwork star = NetworkOf(16, pairs);
  Rerank(star.graph, &pairs);
  std::vector<RRGraph> ranges;
  for (VertexId v = 1; v <= 40; ++v) {
    ranges.push_back(RRGraph{0, {0, v}, {0, 0, 1}, {0}, {0}});
  }
  for (VertexId r = 41; r <= 60; ++r) {
    for (VertexId w = 61; w <= 69; ++w) {
      ranges.push_back(RRGraph{r, {r, w}, {0, 0, 1}, {0}, {0}});
    }
    ranges.push_back(ranges.back());
  }
  const SocialNetwork wide_then_narrow = NetworkOf(70, ranges);
  Rerank(wide_then_narrow.graph, &ranges);
  const struct {
    const SocialNetwork* network;
    std::string bytes;
    uint32_t directory_width;
  } files[] = {
      {&example, ValidRrIndexBytes(example), 7},
      {&cycle, wide_file.str(), 21},
      {&cycle, PackedIndexBytes(cycle, {edgeless}), 0},
      {&loop, PackedIndexBytes(loop, {self_loop}), 0},
      {&cycle,
       PackedIndexBytes(cycle, {Singleton(5), CyclePair(1), Singleton(32767)}),
       0},
      {&cycle,
       PackedIndexBytes(cycle, {Singleton(5), CyclePair(1), Singleton(32768)}),
       0},
      {&star, PackedIndexBytes(star, pairs), 6},
      {&wide_then_narrow, PackedIndexBytes(wide_then_narrow, ranges), 8}};

  for (const auto& file : files) {
    // Taking a file apart and putting it back changes nothing, and each
    // file loads before it is edited.
    ASSERT_EQ(Image(file.bytes, *file.network).Encode(), file.bytes);
    ASSERT_EQ(Image(file.bytes, *file.network).width, file.directory_width);
    std::stringstream in(file.bytes);
    ASSERT_NE(LoadRrIndex(*file.network, in), nullptr);
  }
  for (const ValidatorRow& row : ValidatorRows()) {
    int edited = 0;
    for (const auto& file : files) {
      Image image(file.bytes, *file.network);
      if (!row.edit(*file.network, &image)) continue;
      ++edited;
      std::stringstream in(image.Encode());
      IndexIoError error;
      EXPECT_EQ(LoadRrIndex(*file.network, in, &error), nullptr)
          << row.name << ", |V| = " << file.network->num_vertices();
      EXPECT_EQ(error.code, row.code)
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
  }
}

}  // namespace
}  // namespace pitex
