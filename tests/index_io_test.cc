// Tests for index persistence (src/index/index_io.h): byte-exact round
// trips of RR-Graph indexes, fingerprint binding to the source network,
// and rejection of truncated / corrupted / mismatched files.

#include "src/index/index_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "certain_cycle.h"
#include "owned_sketch.h"
#include "pool_image.h"
#include "running_example.h"
#include "src/datasets/synthetic.h"
#include "src/index/dynamic_index.h"
#include "src/index/edge_cut.h"
#include "src/util/failpoint.h"
#include "src/util/serialize.h"

namespace pitex {
namespace {

RrIndexOptions SmallOptions() {
  RrIndexOptions options;
  options.theta_override = 4000;
  options.seed = 11;
  return options;
}

// A second, structurally different network for fingerprint tests.
SocialNetwork MakeOtherNetwork() {
  SocialNetwork network = MakeRunningExample();
  // Perturb one influence probability: same topology, different model.
  InfluenceGraphBuilder influence(network.graph.num_edges());
  for (EdgeId e = 0; e < network.graph.num_edges(); ++e) {
    std::vector<EdgeTopicEntry> entries(
        network.influence.EdgeTopics(e).begin(),
        network.influence.EdgeTopics(e).end());
    if (e == 0) entries[0].prob *= 0.5;
    influence.SetEdgeTopics(e, entries);
  }
  network.influence = influence.Build();
  return network;
}

TEST(NetworkFingerprintTest, StableAndSensitive) {
  const SocialNetwork a = MakeRunningExample();
  const SocialNetwork b = MakeRunningExample();
  EXPECT_EQ(NetworkFingerprint(a), NetworkFingerprint(b));
  const SocialNetwork c = MakeOtherNetwork();
  EXPECT_NE(NetworkFingerprint(a), NetworkFingerprint(c));
}

TEST(IndexIoTest, RrIndexRoundTripsExactly) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();

  std::stringstream file;
  IndexIoError error;
  ASSERT_TRUE(SaveRrIndex(index, file, &error)) << error.message;
  const auto loaded = LoadRrIndex(n, file, &error);
  ASSERT_NE(loaded, nullptr) << error.message;

  ASSERT_EQ(loaded->theta(), index.theta());
  ASSERT_EQ(loaded->num_graphs(), index.num_graphs());
  const IndexViews originals(index, n.num_vertices());
  const IndexViews restoreds(*loaded, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    const RRView original = originals(i);
    const RRView restored = restoreds(i);
    EXPECT_EQ(restored.root(), original.root());
    EXPECT_TRUE(Owned(restored).vertices == Owned(original).vertices);
    EXPECT_EQ(Owned(restored).offsets, Owned(original).offsets);
    EXPECT_EQ(Owned(restored).heads, Owned(original).heads);
    ASSERT_EQ(Owned(restored).ranks, Owned(original).ranks);
  }
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    EXPECT_EQ(ContainingIds(*loaded, v), ContainingIds(index, v))
        << "vertex " << v;
  }
  // The loaded arrays are exact-size, as the built ones are.
  EXPECT_EQ(loaded->SizeBytes(), index.SizeBytes());
}

TEST(IndexIoTest, WideSketchRoundTripsByteIdentical) {
  // 65,537 vertices and edges per sketch: the pool, and so the file,
  // stores their local ids at 17 bits.
  const SocialNetwork n = MakeCertainCycle(65537);
  RrIndexOptions options;
  options.theta_override = 3;
  options.seed = 5;
  RrIndex index(n, options);
  index.Build();
  ASSERT_EQ(index.num_graphs(), 3u);
  const IndexViews originals(index, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    ASSERT_EQ(originals(i).vertices.size(), 65537u);
    ASSERT_EQ(originals(i).num_edges(), 65537u);
    ASSERT_EQ(originals(i).heads.bits, 17u);
  }

  std::stringstream first;
  IndexIoError error;
  ASSERT_TRUE(SaveRrIndex(index, first, &error)) << error.message;
  const auto loaded = LoadRrIndex(n, first, &error);
  ASSERT_NE(loaded, nullptr) << error.message;
  std::stringstream second;
  ASSERT_TRUE(SaveRrIndex(*loaded, second, &error)) << error.message;
  EXPECT_EQ(first.str(), second.str());

  ASSERT_EQ(loaded->num_graphs(), index.num_graphs());
  EXPECT_EQ(loaded->pool().SizeBytes(), index.pool().SizeBytes());
  const IndexViews restoreds(*loaded, n.num_vertices());
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    const RRView original = originals(i);
    const RRView restored = restoreds(i);
    EXPECT_EQ(restored.heads.bits, 17u);
    EXPECT_EQ(restored.root(), original.root());
    EXPECT_TRUE(Owned(restored).vertices == Owned(original).vertices);
    EXPECT_EQ(Owned(restored).offsets, Owned(original).offsets);
    EXPECT_EQ(Owned(restored).heads, Owned(original).heads);
  }
}

TEST(IndexIoTest, LoadedIndexGivesIdenticalEstimates) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();

  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  const auto loaded = LoadRrIndex(n, file);
  ASSERT_NE(loaded, nullptr);

  for (TagId a = 0; a < 4; ++a) {
    for (TagId b = a + 1; b < 4; ++b) {
      const TagId tags[] = {a, b};
      const auto post = n.topics.Posterior(tags);
      const PosteriorProbs probs(n.influence, post);
      for (VertexId u = 0; u < n.num_vertices(); ++u) {
        const Estimate original = index.EstimateInfluence(u, probs);
        const Estimate restored = loaded->EstimateInfluence(u, probs);
        EXPECT_EQ(restored.influence, original.influence);
        EXPECT_EQ(restored.samples, original.samples);
      }
    }
  }
}

TEST(IndexIoTest, LoadedIndexServesIndexEstPlus) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();

  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  const auto loaded = LoadRrIndex(n, file);
  ASSERT_NE(loaded, nullptr);

  PrunedRrIndex pruned_original(&index, &n.influence);
  PrunedRrIndex pruned_loaded(loaded.get(), &n.influence);
  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs probs(n.influence, post);
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    EXPECT_EQ(pruned_loaded.EstimateInfluence(u, probs).influence,
              pruned_original.EstimateInfluence(u, probs).influence);
  }
}

TEST(IndexIoTest, Version1FilesRejected) {
  // Only v17 is read: a file claiming v1 (the old one-record-per-graph
  // format), v2 (the old per-sketch wire format), v3 (the pool image
  // with its edge records in a third array), v4 (every block vertex at
  // 4 bytes), v5 (a word-padded u32 body), v6 (offsets in every block),
  // v7 (a u32 directory word per sketch), v8 (whole bytes per block
  // field), v9 (edge ids in the records, not ranks), v10 (every
  // threshold at 30 bits), v11 (sketches in sample order, not root
  // order), v12 (each block storing its root's vertex id), v13 (each
  // record storing its threshold, and a directory word per sketch) or
  // v14 (unsigned directory words, and every repeated block stored) or
  // v15 (in-tree blocks storing their vertex ids and out-list ranks) or
  // v16 (root counts at 1, 2 or 4 bytes and block words at 2 or 4),
  // whole or cut short, is refused by its header.
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  std::string bytes = file.str();
  // The version u32 follows the length-prefixed magic (8 + 8 bytes).
  constexpr size_t kVersionOffset = 16;
  ASSERT_EQ(bytes[kVersionOffset], 17);
  for (const char version :
       {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}) {
    bytes[kVersionOffset] = version;
    for (const size_t keep : {bytes.size(), bytes.size() / 2}) {
      std::stringstream in(bytes.substr(0, keep));
      IndexIoError error;
      EXPECT_EQ(LoadRrIndex(n, in, &error), nullptr)
          << "v" << int{version} << ", kept " << keep;
      EXPECT_EQ(error.code, IndexIoCode::kBadVersion)
          << "v" << int{version} << ", kept " << keep;
    }
  }
}

TEST(IndexIoTest, IndexWithRepairsSavesAsItsCompaction) {
  // A DynamicRrIndex view whose overlay holds repairs saves the pool
  // compaction would pack from its views: the same bytes as the view
  // frozen after compacting.
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex dynamic(n, SmallOptions());
  dynamic.Build();
  dynamic.UpdateEdgeTopics(0, {});
  const auto repaired = dynamic.Freeze(dynamic.network(), /*compact=*/false);
  ASSERT_GT(dynamic.overlay_sketches(), 0u);
  std::stringstream with_repairs;
  ASSERT_TRUE(SaveRrIndex(*repaired, with_repairs));

  const auto compacted = dynamic.Freeze(dynamic.network(), /*compact=*/true);
  ASSERT_EQ(dynamic.overlay_sketches(), 0u);
  std::stringstream packed;
  ASSERT_TRUE(SaveRrIndex(*compacted, packed));
  EXPECT_EQ(with_repairs.str(), packed.str());

  const auto loaded = LoadRrIndex(dynamic.network(), with_repairs);
  ASSERT_NE(loaded, nullptr);
  const IndexViews loaded_views(*loaded, dynamic.network().num_vertices());
  const IndexViews repaired_views(*repaired,
                                  dynamic.network().num_vertices());
  for (size_t i = 0; i < repaired->num_graphs(); ++i) {
    EXPECT_EQ(Owned(loaded_views(i)).vertices,
              Owned(repaired_views(i)).vertices)
        << "sketch " << i;
  }
}

TEST(IndexIoTest, UnbuiltRrIndexRefusesToSave) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());  // Build() not called
  std::stringstream file;
  IndexIoError error;
  EXPECT_FALSE(SaveRrIndex(index, file, &error));
  EXPECT_FALSE(error.message.empty());
}

TEST(IndexIoTest, WrongNetworkRejected) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));

  const SocialNetwork other = MakeOtherNetwork();
  IndexIoError error;
  EXPECT_EQ(LoadRrIndex(other, file, &error), nullptr);
  EXPECT_NE(error.message.find("different network"), std::string::npos) << error.message;
}

TEST(IndexIoTest, KindMismatchRejected) {
  // Kind 2 was DelayMat's counters, a format this build no longer reads.
  // A saved RR file with its kind byte set to 2 is refused before its
  // payload is read, from a stream and from a path.
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  std::string bytes = file.str();
  // The kind follows the magic (a u64 length and 8 bytes) and the
  // version u32.
  constexpr size_t kKindOffset = 8 + 8 + 4;
  ASSERT_EQ(bytes[kKindOffset], 1);
  bytes[kKindOffset] = 2;

  IndexIoError error;
  std::stringstream in(bytes);
  EXPECT_EQ(LoadRrIndex(n, in, &error), nullptr);
  EXPECT_EQ(error.code, IndexIoCode::kWrongKind) << error.message;
  EXPECT_NE(error.message.find("different index kind"), std::string::npos) << error.message;

  const std::string path = ::testing::TempDir() + "/kind2.idx";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out);
  }
  error = {};
  EXPECT_EQ(LoadRrIndex(n, path, &error), nullptr);
  EXPECT_EQ(error.code, IndexIoCode::kWrongKind) << error.message;
  EXPECT_NE(error.message.find("different index kind"), std::string::npos) << error.message;
  std::remove(path.c_str());
}

TEST(IndexIoTest, GarbageRejected) {
  const SocialNetwork n = MakeRunningExample();
  std::stringstream file("this is not an index file at all");
  IndexIoError error;
  EXPECT_EQ(LoadRrIndex(n, file, &error), nullptr);
  EXPECT_FALSE(error.message.empty());
}

TEST(IndexIoTest, TruncationRejected) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));

  std::string bytes = file.str();
  for (const size_t keep :
       {bytes.size() - 7, bytes.size() / 2, bytes.size() / 4}) {
    std::stringstream truncated(bytes.substr(0, keep));
    IndexIoError error;
    EXPECT_EQ(LoadRrIndex(n, truncated, &error), nullptr)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(IndexIoTest, PayloadCorruptionRejected) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));

  std::string bytes = file.str();
  // Flip a bit deep inside the payload (past header; before checksum).
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  std::stringstream corrupted(bytes);
  IndexIoError error;
  EXPECT_EQ(LoadRrIndex(n, corrupted, &error), nullptr);
}

TEST(IndexIoTest, RootCountsSetTheRootRanges) {
  // A v17 file stores each vertex's count of rooted sketches, and a
  // block no root vertex, a singleton nothing: the counts set the root
  // ranges. Counts that do not sum to theta are a corrupt payload; the
  // same bytes under a v16 header are refused by their version.
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  const std::string bytes = file.str();
  const pool_image::Image image(bytes, n);
  ASSERT_EQ(image.root_counts.size(), n.num_vertices());
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    EXPECT_EQ(image.root_counts[v], index.RootRange(v).size());
  }
  const auto load_code = [&n](const std::string& edited) {
    std::stringstream in(edited);
    IndexIoError error;
    EXPECT_EQ(LoadRrIndex(n, in, &error), nullptr);
    return error.code;
  };
  pool_image::Image more = image;
  ++more.root_counts[3];
  EXPECT_EQ(load_code(more.Encode()), IndexIoCode::kCorruptPayload);
  pool_image::Image fewer = image;
  --fewer.root_counts[3];
  EXPECT_EQ(load_code(fewer.Encode()), IndexIoCode::kCorruptPayload);
  std::string v16 = bytes;
  v16[pool_image::kVersionOffset] = 16;
  pool_image::RepairChecksum(&v16);
  EXPECT_EQ(load_code(v16), IndexIoCode::kBadVersion);
}

TEST(IndexIoTest, RrThetaMustEqualDirectoryLength) {
  // The estimator divides by theta, so a file whose directory holds
  // more sketches than its theta would estimate with the wrong
  // denominator. The file is valid but for that: a pool of theta + 1
  // sketches, the last an implicit singleton, saved, then its header's
  // theta lowered by one, which leaves its count of group masks as it
  // is, and the checksum recomputed: its root counts sum to theta + 1.
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  const uint64_t theta = index.num_graphs() + 1;
  const RRGraph singleton{2, {2}, {0, 0}, {}, {}};
  const IndexViews views(index, n.num_vertices());
  const auto longer = RrIndex::FromPool(
      n, SmallOptions(), theta,
      std::make_shared<const RrSketchPool>(
          PackViews(theta, RrSketchPool(n.graph),
                    [&](size_t i) {
            return i + 1 < theta ? views(i) : singleton.View();
          })));
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(*longer, file));
  {
    std::stringstream in(file.str());
    ASSERT_NE(LoadRrIndex(n, in), nullptr);
  }
  pool_image::Image image(file.str(), n);
  ASSERT_EQ(image.theta, theta);
  ASSERT_EQ((theta - 1 + 63) / 64, (theta + 63) / 64);
  --image.theta;
  std::stringstream in(image.Encode());
  IndexIoError error;
  EXPECT_EQ(LoadRrIndex(n, in, &error), nullptr);
  EXPECT_EQ(error.code, IndexIoCode::kCorruptPayload) << error.message;
}

TEST(IndexIoTest, FromPoolRequiresThetaEqualToSketchCount) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  const auto pool = std::make_shared<const RrSketchPool>(index.pool());
  EXPECT_DEATH(RrIndex::FromPool(n, SmallOptions(), index.num_graphs() + 1,
                                 pool),
               "theta must equal");
  EXPECT_EQ(RrIndex::FromPool(n, SmallOptions(), index.num_graphs(), pool)
                ->num_graphs(),
            index.num_graphs());
}

TEST(IndexIoTest, FileRoundTripOnDisk) {
  DatasetSpec spec = LastfmSpec();
  spec.seed = 3;
  const SocialNetwork n = GenerateDataset(spec);
  RrIndexOptions options;
  options.theta_override = 2000;
  RrIndex index(n, options);
  index.Build();

  const std::string path = ::testing::TempDir() + "/lastfm.rridx";
  IndexIoError error;
  ASSERT_TRUE(SaveRrIndex(index, path, &error)) << error.message;
  const auto loaded = LoadRrIndex(n, path, &error);
  ASSERT_NE(loaded, nullptr) << error.message;
  EXPECT_EQ(loaded->num_graphs(), index.num_graphs());
  std::remove(path.c_str());
}

TEST(IndexIoTest, TrailingBytesRejected) {
  // A file ends at its checksum: a valid RR file followed by one more
  // byte is corrupt, read from a stream or from a path.
  const SocialNetwork n = MakeRunningExample();
  RrIndex rr(n, SmallOptions());
  rr.Build();
  std::stringstream rr_file;
  ASSERT_TRUE(SaveRrIndex(rr, rr_file));
  const std::string path = ::testing::TempDir() + "/trailing.idx";
  const auto write = [&path](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
  };

  for (const std::string& extra : {std::string(1, '\0'), std::string("x")}) {
    const std::string rr_bytes = rr_file.str() + extra;
    IndexIoError error;
    std::stringstream rr_in(rr_bytes);
    EXPECT_EQ(LoadRrIndex(n, rr_in, &error), nullptr);
    EXPECT_EQ(error.code, IndexIoCode::kCorruptPayload) << error.message;

    error = {};
    ASSERT_TRUE(write(rr_bytes));
    EXPECT_EQ(LoadRrIndex(n, path, &error), nullptr);
    EXPECT_EQ(error.code, IndexIoCode::kCorruptPayload) << error.message;
  }

  // Without the extra byte the file loads, from a stream and a path.
  std::stringstream rr_in(rr_file.str());
  EXPECT_NE(LoadRrIndex(n, rr_in), nullptr);
  ASSERT_TRUE(write(rr_file.str()));
  EXPECT_NE(LoadRrIndex(n, path), nullptr);
  std::remove(path.c_str());
}

TEST(IndexIoTest, MissingFileFailsCleanly) {
  const SocialNetwork n = MakeRunningExample();
  IndexIoError error;
  EXPECT_EQ(LoadRrIndex(n, "/nonexistent/dir/file.rridx", &error), nullptr);
  EXPECT_NE(error.message.find("cannot open"), std::string::npos) << error.message;
}

// --- typed error codes (IndexIoError) ---------------------------------
//
// The string overloads tell a human what broke; the typed overloads tell
// a caller what to *do* (retry / rebuild / fix the call). Each failure
// class must map to exactly one stable code.

// Encodes just a file header; payload absent. Enough to drive every
// header-validation path deterministically.
std::string EncodeHeader(uint32_t version, uint8_t kind,
                         uint64_t fingerprint, double eps, double delta,
                         uint64_t cap_k) {
  std::stringstream out;
  BinaryWriter writer(&out);
  writer.WriteString("PITEXIDX");
  writer.WriteU32(version);
  writer.WriteU8(kind);
  writer.WriteU64(fingerprint);
  writer.WriteF64(eps);
  writer.WriteF64(delta);
  writer.WriteU64(cap_k);
  writer.WriteU64(11);  // seed
  return out.str();
}

IndexIoCode LoadRrCode(const SocialNetwork& n, const std::string& bytes) {
  std::stringstream in(bytes);
  IndexIoError error;
  EXPECT_EQ(LoadRrIndex(n, in, &error), nullptr);
  EXPECT_FALSE(error.ok());
  EXPECT_FALSE(error.message.empty());
  return error.code;
}

TEST(IndexIoTypedErrorTest, HeaderFailuresClassified) {
  const SocialNetwork n = MakeRunningExample();
  const uint64_t fp = NetworkFingerprint(n);
  constexpr uint8_t kRr = 1;
  constexpr uint32_t kCurrent = 17;  // the one version the loader reads

  EXPECT_EQ(LoadRrCode(n, "garbage bytes"), IndexIoCode::kBadMagic);
  EXPECT_EQ(LoadRrCode(n, EncodeHeader(99, kRr, fp, 0.1, 0.01, 8)),
            IndexIoCode::kBadVersion);
  EXPECT_EQ(LoadRrCode(n, EncodeHeader(kCurrent, 2, fp, 0.1, 0.01, 8)),
            IndexIoCode::kWrongKind);
  EXPECT_EQ(LoadRrCode(n, EncodeHeader(kCurrent, kRr, fp + 1, 0.1, 0.01, 8)),
            IndexIoCode::kFingerprintMismatch);

  // Option plausibility: NaN / non-positive accuracy knobs and absurd
  // cap_k are header corruption even when the framing parses.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(LoadRrCode(n, EncodeHeader(kCurrent, kRr, fp, nan, 0.01, 8)),
            IndexIoCode::kBadOptions);
  EXPECT_EQ(LoadRrCode(n, EncodeHeader(kCurrent, kRr, fp, 0.1, -1.0, 8)),
            IndexIoCode::kBadOptions);
  EXPECT_EQ(LoadRrCode(n, EncodeHeader(kCurrent, kRr, fp, 0.1, 0.01, 0)),
            IndexIoCode::kBadOptions);
  EXPECT_EQ(LoadRrCode(n, EncodeHeader(kCurrent, kRr, fp, 0.1, 0.01,
                                       uint64_t{1} << 30)),
            IndexIoCode::kBadOptions);

  // A header cut mid-options at end-of-stream reads as a torn write
  // (the file simply ends early -- the signature of a crashed
  // non-atomic save); kTruncated is reserved for streams with bytes
  // still behind the short read.
  const std::string header = EncodeHeader(kCurrent, kRr, fp, 0.1, 0.01, 8);
  EXPECT_EQ(LoadRrCode(n, header.substr(0, 40)), IndexIoCode::kTornWrite);
}

TEST(IndexIoTypedErrorTest, ChecksumMismatchClassified) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  std::string bytes = file.str();
  // Flip a bit inside the stored trailing digest itself: the payload
  // parses, the verification must not.
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  EXPECT_EQ(LoadRrCode(n, bytes), IndexIoCode::kChecksumMismatch);
}

TEST(IndexIoTypedErrorTest, CallerBugsAndEnvironmentClassified) {
  const SocialNetwork n = MakeRunningExample();

  RrIndex unbuilt(n, SmallOptions());
  std::stringstream sink;
  IndexIoError error;
  EXPECT_FALSE(SaveRrIndex(unbuilt, sink, &error));
  EXPECT_EQ(error.code, IndexIoCode::kNotBuilt);
  EXPECT_FALSE(error.retryable());  // retrying cannot build the index

  EXPECT_EQ(LoadRrIndex(n, "/nonexistent/dir/file.rridx", &error), nullptr);
  EXPECT_EQ(error.code, IndexIoCode::kOpenFailed);
  EXPECT_TRUE(error.retryable());  // the environment, not the bytes
}

TEST(IndexIoTypedErrorTest, InjectedFaultsClassifiedRetryable) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  FailpointRegistry::Instance().DisableAll();
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  const std::string bytes = file.str();

  FailpointConfig config;
  config.mode = FailpointMode::kError;

  FailpointRegistry::Instance().Enable("index_io/save", config);
  std::stringstream sink;
  IndexIoError error;
  EXPECT_FALSE(SaveRrIndex(index, sink, &error));
  EXPECT_EQ(error.code, IndexIoCode::kFaultInjected);
  EXPECT_TRUE(error.retryable());
  FailpointRegistry::Instance().DisableAll();

  FailpointRegistry::Instance().Enable("index_io/load", config);
  std::stringstream in(bytes);
  EXPECT_EQ(LoadRrIndex(n, in, &error), nullptr);
  EXPECT_EQ(error.code, IndexIoCode::kFaultInjected);
  EXPECT_TRUE(error.retryable());
  FailpointRegistry::Instance().DisableAll();

  // With the faults cleared the very same bytes load fine: the typed
  // code told the truth about retryability.
  std::stringstream retry(bytes);
  EXPECT_NE(LoadRrIndex(n, retry, &error), nullptr);
}

TEST(IndexIoTypedErrorTest, TornWriteClassified) {
  // A valid prefix cut short at EOF is an interrupted writer, not bit
  // rot: the code must say "torn-write" so operators fall back to an
  // older file instead of suspecting the disk.
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  std::stringstream file;
  ASSERT_TRUE(SaveRrIndex(index, file));
  const std::string bytes = file.str();

  std::stringstream torn(bytes.substr(0, bytes.size() - 5));
  IndexIoError error;
  EXPECT_EQ(LoadRrIndex(n, torn, &error), nullptr);
  EXPECT_EQ(error.code, IndexIoCode::kTornWrite);
  EXPECT_FALSE(error.retryable());  // the bytes are gone for good

  // Damage with bytes still behind it keeps its specific code: only a
  // clean cut AT end-of-file reads as a torn write.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  std::stringstream corrupt(flipped);
  EXPECT_EQ(LoadRrIndex(n, corrupt, &error), nullptr);
  EXPECT_NE(error.code, IndexIoCode::kTornWrite);
}

TEST(IndexIoTypedErrorTest, PathSaveIsCrashAtomic) {
  // The path overload stages to *.tmp and renames: a failed save must
  // leave the previous file byte-identical and no temp orphan behind.
  const SocialNetwork n = MakeRunningExample();
  RrIndex index(n, SmallOptions());
  index.Build();
  const std::string path = ::testing::TempDir() + "/atomic.rridx";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  IndexIoError error;
  ASSERT_TRUE(SaveRrIndex(index, path, &error)) << error.message;
  EXPECT_FALSE(std::filesystem::exists(tmp)) << "temp file left behind";
  const auto before = std::filesystem::file_size(path);
  EXPECT_GT(before, 0u);

#if PITEX_FAILPOINTS_ENABLED
  FailpointRegistry::Instance().DisableAll();
  FailpointConfig config;
  config.mode = FailpointMode::kError;
  FailpointRegistry::Instance().Enable("index_io/save", config);
  EXPECT_FALSE(SaveRrIndex(index, path, &error));
  FailpointRegistry::Instance().DisableAll();
  EXPECT_FALSE(std::filesystem::exists(tmp)) << "orphan after failed save";
  EXPECT_EQ(std::filesystem::file_size(path), before)
      << "failed save disturbed the published file";
  EXPECT_NE(LoadRrIndex(n, path, &error), nullptr) << error.message;
#endif
  std::remove(path.c_str());
}

TEST(IndexIoTypedErrorTest, CodeNamesAreStable) {
  EXPECT_STREQ(IndexIoCodeName(IndexIoCode::kNone), "ok");
  EXPECT_STREQ(IndexIoCodeName(IndexIoCode::kChecksumMismatch),
               "checksum-mismatch");
  EXPECT_STREQ(IndexIoCodeName(IndexIoCode::kFaultInjected),
               "fault-injected");
  EXPECT_STREQ(IndexIoCodeName(IndexIoCode::kBadOptions), "bad-options");
  EXPECT_STREQ(IndexIoCodeName(IndexIoCode::kTornWrite), "torn-write");
}

}  // namespace
}  // namespace pitex
