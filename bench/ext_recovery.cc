// Extension bench: durability overhead and recovery time (RTO).
//
// Not a paper figure — the paper serves from an in-memory index; this
// harness measures what the durable serving tier (src/serve/wal.h,
// src/serve/recovery.h, docs/robustness.md "Durability") costs and how
// fast it comes back:
//   1. acknowledged-update throughput with the write-ahead log on
//      (append + group-commit fsync per batch) vs off — the price of
//      the zero-acknowledged-loss guarantee;
//   2. recovery time as a function of checkpoint age: restart after N
//      acknowledged batches with the checkpoint 0%, 50% and 100% of the
//      log behind the tail. Replay dominates RTO, so recovery time
//      should fall roughly linearly as the checkpoint gets fresher —
//      the knob ServeOptions::checkpoint_every trades against publish
//      overhead.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/pitex_service.h"

int main(int argc, char** argv) {
  pitex::bench::InitBench(argc, argv);
  using namespace pitex;
  using namespace pitex::bench;
  namespace fs = std::filesystem;

  const size_t kBatches = SmokeMode() ? 16 : 128;
  const std::string dir =
      (fs::temp_directory_path() / "pitex_ext_recovery").string();

  const auto make_batch = [](const SocialNetwork& network, uint64_t i) {
    std::vector<EdgeInfluenceUpdate> batch(1);
    batch[0].edge = static_cast<EdgeId>((i * 97) % network.num_edges());
    batch[0].entries = {
        {static_cast<TopicId>(i % network.topics.num_topics()),
         0.2 + 0.1 * static_cast<double>(i % 5)}};
    return batch;
  };

  std::printf("=== Extension: durability overhead and recovery time ===\n");
  std::printf("(%zu single-edge update batches per run; WAL fsync policy: "
              "always)\n\n", kBatches);

  for (const auto& d : MakeBenchDatasets()) {
    ServeOptions base;
    base.engine = BenchOptions(Method::kIndexEst);
    base.num_threads = 2;
    base.enable_updates = true;

    // --- 1. acknowledged-update throughput, WAL off vs on ---------------
    double volatile_seconds = 0.0, durable_seconds = 0.0;
    {
      PitexService service(&d.network, base);
      service.Start();
      Timer timer;
      for (uint64_t i = 0; i < kBatches; ++i) {
        (void)service.ApplyUpdates(make_batch(d.network, i));
      }
      volatile_seconds = timer.Seconds();
    }
    {
      fs::remove_all(dir);
      ServeOptions durable = base;
      durable.durability_dir = dir;
      durable.checkpoint_every = 0;  // isolate the WAL cost
      PitexService service(&d.network, durable);
      service.Start();
      Timer timer;
      for (uint64_t i = 0; i < kBatches; ++i) {
        (void)service.ApplyUpdates(make_batch(d.network, i));
      }
      durable_seconds = timer.Seconds();
    }
    std::printf("%-10s apply+publish: volatile %8.2f ms/batch, durable "
                "%8.2f ms/batch (%.2fx)\n",
                d.name.c_str(),
                volatile_seconds * 1e3 / static_cast<double>(kBatches),
                durable_seconds * 1e3 / static_cast<double>(kBatches),
                durable_seconds / std::max(volatile_seconds, 1e-9));

    // --- 2. recovery time vs checkpoint age ------------------------------
    // checkpoint_every = 0 (never: replay the whole log), kBatches/2+1
    // (the one checkpoint lands just past mid-log: replay ~half), 1
    // (checkpoint at the tail: replay ~nothing).
    for (const uint64_t cadence :
         {uint64_t{0}, static_cast<uint64_t>(kBatches / 2 + 1),
          uint64_t{1}}) {
      fs::remove_all(dir);
      ServeOptions durable = base;
      durable.durability_dir = dir;
      durable.checkpoint_every = cadence;
      {
        PitexService service(&d.network, durable);
        service.Start();
        for (uint64_t i = 0; i < kBatches; ++i) {
          (void)service.ApplyUpdates(make_batch(d.network, i));
        }
      }  // "crash": only the directory survives

      Timer timer;
      PitexService recovered(&d.network, durable);
      recovered.Start();  // checkpoint load + WAL replay + publish
      const double rto = timer.Seconds();
      const uint64_t replayed = recovered.SnapshotMetrics().CounterValue(
          "pitex_recovery_replayed_lsns_total");
      std::printf("%-10s checkpoint_every=%-3llu -> RTO %8.2f ms "
                  "(%llu LSNs replayed)\n",
                  d.name.c_str(), static_cast<unsigned long long>(cadence),
                  rto * 1e3, static_cast<unsigned long long>(replayed));
    }
    std::printf("\n");
  }
  fs::remove_all(dir);
  std::printf("shape check: durable acknowledgement costs one fsync per "
              "batch on top of the\npublish; RTO shrinks as the checkpoint "
              "nears the tail (replay-dominated), at the\ncost of one "
              "snapshot save per checkpoint_every publishes while "
              "serving.\n");
  return 0;
}
