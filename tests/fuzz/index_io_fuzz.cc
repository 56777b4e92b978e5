// libFuzzer harness for the index persistence layer (PITEX_FUZZ=ON,
// Clang only). Complements tests/index_io_fuzz_test.cc: that suite
// replays a fixed budget of random mutations on every CI run, while this
// harness lets libFuzzer's coverage feedback walk the reader's branch
// structure -- length prefixes, CSR layout checks, the checksum trailer
// -- far more systematically.
//
// Contract under test: whatever bytes arrive, LoadRrIndex either
// returns a structurally consistent index or fails cleanly, an index
// that loads holds exactly the root ranges and containing lists its
// sketches imply (so the delta-coded lists decode right), it saves back
// to the very bytes
// it was loaded from (the writer and the reader are inverses), and
// those bytes are canonical: the payload (the pool image, index file
// v17, each repeated block shared with its root range's first copy, its
// root counts and block words packed at the bits their largest takes) is
// exactly what the reference re-encoder PackViews (tests/owned_sketch.h)
// writes for the loaded sketches. A v16 image is refused by its version
// (a ValidatorRows seed). Any crash, sanitizer report, or violation
// (enforced with abort() below) is a finding.
//
// Seed corpus: set PITEX_FUZZ_SEED_DIR=<dir> and the harness writes a
// valid RR index there during LLVMFuzzerInitialize, and one file per
// loader rejection (tests/pool_image.h's ValidatorRows: each a valid
// file with one field edited past a check, checksum repaired) -- the
// fuzzer then starts from real files, and from each check's edge,
// instead of discovering the magic string byte by byte:
//
//   mkdir -p corpus
//   PITEX_FUZZ_SEED_DIR=corpus ./index_io_fuzz -max_total_time=30 corpus

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "owned_sketch.h"
#include "pool_image.h"
#include "running_example.h"
#include "src/index/index_io.h"
#include "src/index/rr_index.h"

namespace pitex {
namespace {

const SocialNetwork& Network() {
  static const SocialNetwork network = MakeRunningExample();
  return network;
}

RrIndexOptions SeedOptions() {
  RrIndexOptions options;
  options.theta_override = 64;
  options.seed = 3;
  return options;
}

std::string ValidBytes() {
  RrIndex index(Network(), SeedOptions());
  index.Build();
  std::stringstream file;
  SaveRrIndex(index, file);
  return file.str();
}

void Require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "index_io_fuzz invariant violated: %s\n", what);
    std::abort();
  }
}

void WriteSeed(const std::string& dir, const char* name,
               const std::string& bytes) {
  std::ofstream out(dir + "/" + name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace
}  // namespace pitex

extern "C" int LLVMFuzzerInitialize(int* /*argc*/, char*** /*argv*/) {
  using namespace pitex;
  // Self-check: the seed must load before any fuzzing starts; a
  // drifted format would otherwise silently reduce the run to garbage
  // inputs bouncing off the header checks.
  const std::string rr = ValidBytes();
  {
    std::stringstream file(rr);
    Require(LoadRrIndex(Network(), file) != nullptr, "RR seed must load");
    Require(rr[pool_image::kVersionOffset] == 17, "RR seed is a v17 file");
  }
  if (const char* dir = std::getenv("PITEX_FUZZ_SEED_DIR")) {
    WriteSeed(dir, "seed.idx", rr);
    int row = 0;
    for (const pool_image::ValidatorRow& edit : pool_image::ValidatorRows()) {
      pool_image::Image image(rr, Network());
      if (!edit.edit(Network(), &image)) continue;
      const std::string bytes = image.Encode();
      std::stringstream file(bytes);
      Require(LoadRrIndex(Network(), file) == nullptr,
              "every rejection seed is rejected");
      WriteSeed(dir, ("seed_reject_" + std::to_string(row++) + ".idx").c_str(),
                bytes);
    }
  }
  return 0;
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace pitex;
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  {
    std::stringstream file(bytes);
    const auto loaded = LoadRrIndex(Network(), file);
    if (loaded != nullptr) {
      // The estimator divides by theta: it counts the sketches held.
      Require(loaded->theta() == loaded->num_graphs(),
              "theta equals the number of sketches");
      // Survivors must be internally consistent: each vertex's root
      // range and decoded containing list are together exactly the
      // ascending ids of the sketches whose vertices include it.
      std::vector<std::vector<uint32_t>> want(Network().num_vertices());
      const IndexViews views(*loaded, Network().num_vertices());
      for (uint32_t id = 0; id < loaded->num_graphs(); ++id) {
        for (const VertexId v : Owned(views(id)).vertices) {
          Require(v < want.size(), "sketch vertex in range");
          want[v].push_back(id);
        }
      }
      for (VertexId v = 0; v < Network().num_vertices(); ++v) {
        Require(ContainingIds(*loaded, v) == want[v],
                "containing list decodes to the sketches holding the vertex");
        Require(loaded->CountContaining(v) == want[v].size(),
                "containing count matches the decoded list");
      }
      std::stringstream saved;
      Require(SaveRrIndex(*loaded, saved), "loaded index saves");
      Require(saved.str() == bytes, "loaded index saves back to its bytes");
      // The payload runs from theta, after the header, up to
      // build_seconds and the checksum.
      constexpr size_t kPayloadBegin = 8 + 8 + 4 + 1 + 5 * 8;
      constexpr size_t kTrailerBytes = 16;
      const auto packed = RrIndex::FromPool(
          Network(), RrIndexOptions{}, loaded->theta(),
          std::make_shared<const RrSketchPool>(PackViews(
              loaded->num_graphs(), RrSketchPool(Network().graph),
              views)));
      std::stringstream repacked;
      Require(SaveRrIndex(*packed, repacked), "packed index saves");
      const std::string canonical = repacked.str();
      Require(canonical.size() == bytes.size() &&
                  canonical.compare(kPayloadBegin,
                                    bytes.size() - kPayloadBegin -
                                        kTrailerBytes,
                                    bytes, kPayloadBegin,
                                    bytes.size() - kPayloadBegin -
                                        kTrailerBytes) == 0,
              "loaded payload is what PackViews writes for its sketches");
    }
  }
  return 0;
}
