// Randomized robustness fuzzing for the index persistence layer:
// whatever bytes arrive, LoadRrIndex / LoadDelayMatIndex must either
// return a valid index or fail cleanly — never crash, never hand back a
// structurally inconsistent object — and an RR index that loads must
// save back to identical bytes. (Deterministic seeds; a few hundred
// mutations per strategy.)

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

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
  // some mutations load (15 of 300 at this seed): the round trip is
  // exercised, not vacuous.
  EXPECT_GE(loaded, 10);
}

// Little-endian field access into a saved v2 file.
uint64_t LoadLe(const std::string& bytes, size_t pos, size_t width) {
  uint64_t value = 0;
  for (size_t b = 0; b < width; ++b) {
    value |= uint64_t{static_cast<unsigned char>(bytes[pos + b])} << (8 * b);
  }
  return value;
}
void StoreU32(std::string* bytes, size_t pos, uint32_t value) {
  for (size_t b = 0; b < 4; ++b) {
    (*bytes)[pos + b] = static_cast<char>((value >> (8 * b)) & 0xff);
  }
}

// Where the v2 payload's root array starts: after the header (the magic
// as a u64 length and 8 bytes, version u32, kind u8, then fingerprint,
// eps, delta, cap_k and seed at 8 bytes each), theta, the sketch count
// and the root array's own u64 length.
constexpr size_t kThetaOffset = 8 + 8 + 4 + 1 + 5 * 8;
constexpr size_t kRootsOffset = kThetaOffset + 3 * 8;

TEST(IndexIoFuzzTest, MovedRootLoadsOnlyOntoAMember) {
  // A root moved to another member of its sketch is a different but
  // valid index: it loads and saves back byte-identical. A root moved
  // off the sketch is corruption.
  const SocialNetwork n = MakeRunningExample();
  const std::string valid = ValidRrIndexBytes(n);
  const uint64_t s = LoadLe(valid, kThetaOffset + 8, 8);
  ASSERT_EQ(LoadLe(valid, kRootsOffset - 8, 8), s);
  // The vertex starts (u64, with a length prefix) follow the roots, then
  // the vertex array's length prefix and the vertices.
  const size_t starts = kRootsOffset + 4 * s + 8;
  const size_t vertices = starts + 8 * (s + 1) + 8;
  int moved = 0;
  int off_sketch = 0;
  for (uint64_t i = 0; i < s && moved < 40; ++i) {
    const uint64_t vb = LoadLe(valid, starts + 8 * i, 8);
    const uint64_t ve = LoadLe(valid, starts + 8 * (i + 1), 8);
    if (ve - vb < 2) continue;
    std::vector<VertexId> members;
    for (uint64_t j = vb; j < ve; ++j) {
      members.push_back(
          static_cast<VertexId>(LoadLe(valid, vertices + 4 * j, 4)));
    }
    const size_t root_pos = kRootsOffset + 4 * i;
    const auto root = static_cast<VertexId>(LoadLe(valid, root_pos, 4));
    ASSERT_TRUE(std::ranges::binary_search(members, root)) << "sketch " << i;
    for (const VertexId member : members) {
      if (member == root) continue;
      std::string bytes = valid;
      StoreU32(&bytes, root_pos, member);
      RepairChecksum(&bytes);
      std::stringstream file(bytes);
      IndexIoError error;
      const auto loaded = LoadRrIndex(n, file, &error);
      ASSERT_NE(loaded, nullptr) << "sketch " << i << ": " << error.message;
      EXPECT_EQ(loaded->graph(i).root(), member);
      CheckConsistentIfLoaded(n, bytes);
      ++moved;
    }
    for (VertexId v = 0; v <= n.num_vertices(); ++v) {
      if (std::ranges::binary_search(members, v)) continue;
      std::string bytes = valid;
      StoreU32(&bytes, root_pos, v);
      RepairChecksum(&bytes);
      std::stringstream file(bytes);
      IndexIoError error;
      EXPECT_EQ(LoadRrIndex(n, file, &error), nullptr) << "sketch " << i;
      EXPECT_EQ(error.code, IndexIoCode::kCorruptPayload)
          << "sketch " << i << ": " << error.message;
      ++off_sketch;
    }
  }
  EXPECT_GE(moved, 10);
  EXPECT_GE(off_sketch, 10);
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
