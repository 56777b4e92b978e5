// Table 3: index sizes (MB) and construction time (s) for the RR-Graphs
// index vs. delay materialization, per dataset. Each size is the index's
// in-memory SizeBytes(), the paper's Table 3 quantity; the RR-Graphs
// index also reports its saved file's length (src/index/index_io.h).
// DelayMat has no file: every process builds its counters.
//
// Expected shape (paper): DelayMat is orders of magnitude smaller than the
// RR-Graphs index and builds faster (it skips edge storage and CSR
// assembly).

#include <sstream>

#include "bench/bench_common.h"
#include "src/index/delay_mat.h"
#include "src/index/index_io.h"
#include "src/index/rr_index.h"

int main(int argc, char** argv) {
  pitex::bench::InitBench(argc, argv);
  using namespace pitex;
  using namespace pitex::bench;

  std::printf("=== Table 3: Index Sizes (MB) & Construction Time (s) ===\n\n");
  std::printf("%-10s %10s | %12s %12s %12s | %12s %12s\n", "dataset",
              "data(MB)", "RR size(MB)", "RR disk(MB)", "RR time(s)",
              "DM size(MB)", "DM time(s)");

  for (const auto& d : MakeBenchDatasets()) {
    RrIndexOptions options;
    options.theta_per_vertex = 4.0;
    options.seed = 7;

    RrIndex rr(d.network, options);
    rr.Build();
    DelayMatIndex dm(d.network, options);
    dm.Build();

    // Serialized footprint (src/index/index_io.h): what a deployment
    // actually ships between the offline build and query serving.
    std::stringstream rr_file;
    SaveRrIndex(rr, rr_file);
    const auto rr_disk = static_cast<double>(rr_file.str().size());

    // Raw data footprint: edges (8B topology) + topic entries (8B each).
    size_t data_bytes = d.network.num_edges() * 8;
    for (EdgeId e = 0; e < d.network.num_edges(); ++e) {
      data_bytes += d.network.influence.EdgeTopics(e).size() * 8;
    }
    const double mb = 1024.0 * 1024.0;
    std::printf("%-10s %10.2f | %12.2f %12.2f %12.3f | %12.4f %12.3f\n",
                d.name.c_str(), static_cast<double>(data_bytes) / mb,
                static_cast<double>(rr.SizeBytes()) / mb, rr_disk / mb,
                rr.build_seconds(),
                static_cast<double>(dm.SizeBytes()) / mb,
                dm.build_seconds());
  }
  std::printf(
      "\nshape check: DelayMat index should be orders of magnitude smaller "
      "than RR-Graphs\n(paper: 0.005 vs 6.02 MB on lastfm, 20.9 vs 2912 MB "
      "on twitter).\n");
  return 0;
}
