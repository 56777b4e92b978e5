// Extension bench: batch query throughput vs. worker count, plus the
// serving-layer comparison.
//
// Not a paper figure — the paper reports single-query latency; this
// harness measures the deployment-side metrics:
//   1. queries/second when a stream of PITEX queries shares one offline
//      index across a worker pool (deterministic PitexService: query i
//      on worker i % threads). Expected shape: near-linear scaling below
//      the physical core count, IndexEst+ sustaining the highest
//      absolute throughput (Fig. 7 ordering);
//   2. static round-robin (deterministic mode) vs. work-stealing
//      PitexService on a *skewed* workload where expensive hub queries
//      pile onto one round-robin residue class — the imbalance the
//      per-worker sums of solve time expose and the stealing scheduler
//      removes;
//   3. p50/p95/p99 sojourn latency of the service under a bursty arrival
//      schedule (waves of concurrent Submits separated by idle gaps).

#include <algorithm>
#include <future>
#include <thread>

#include "bench/bench_common.h"
#include "src/serve/pitex_service.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  pitex::bench::InitBench(argc, argv);
  using namespace pitex;
  using namespace pitex::bench;

  std::printf("=== Extension: Batch Throughput (queries/s) vs threads ===\n");
  std::printf("(shared RR-Graph index across workers; mid-degree users; "
              "k=3)\n\n");

  const size_t kBatch = 256;
  const std::vector<size_t> kThreadCounts = {1, 2, 4, 8};
  const std::vector<Method> kMethods = {Method::kLazy, Method::kIndexEst,
                                        Method::kIndexEstPlus,
                                        Method::kDelayMat};

  for (const auto& d : MakeBenchDatasets()) {
    std::printf("--- %s (|V|=%zu |E|=%zu) ---\n", d.name.c_str(),
                d.network.num_vertices(), d.network.num_edges());
    std::printf("%-10s", "method");
    for (const size_t t : kThreadCounts) std::printf(" %9zu-thr", t);
    std::printf("\n");

    const auto users =
        SampleUserGroup(d.network.graph, UserGroup::kMid, kBatch, 3);
    std::vector<PitexQuery> queries;
    for (size_t i = 0; i < kBatch; ++i) {
      queries.push_back({.user = users[i % users.size()], .k = 3});
    }

    for (const Method method : kMethods) {
      std::printf("%-10s", MethodName(method));
      for (const size_t threads : kThreadCounts) {
        ServeOptions options;
        options.engine = BenchOptions(method);
        options.num_threads = threads;
        options.mode = ScheduleMode::kDeterministic;
        PitexService service(&d.network, options);
        service.Start();                   // offline cost excluded
        (void)service.ServeAll(queries);  // warm worker caches
        Timer timer;
        const auto served = service.ServeAll(queries);
        const double qps = static_cast<double>(served.size()) /
                           std::max(timer.Seconds(), 1e-9);
        std::printf(" %13.1f", qps);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("shape check: throughput should rise with threads (sub-linear "
              "beyond core count)\nand rank INDEXEST+ >= DELAYMAT > INDEXEST "
              ">> LAZY, matching Fig. 7 latencies.\n\n");

  // --- 2. skewed workload: static round-robin vs. work-stealing ----------
  // Hub queries land on residue class 0 of the round-robin assignment, so
  // the deterministic service's worker 0 carries nearly all the work
  // while the others idle; the stealing scheduler redistributes it.
  std::printf("=== Skewed workload: round-robin (deterministic) vs "
              "PitexService (work-stealing) ===\n");
  const size_t kServeThreads = 4;
  for (const auto& d : MakeBenchDatasets()) {
    auto hubs = SampleUserGroup(d.network.graph, UserGroup::kHigh, 8, 5);
    const auto leaves =
        SampleUserGroup(d.network.graph, UserGroup::kLow, kBatch, 6);
    if (hubs.empty() || leaves.empty()) continue;  // degenerate smoke graph
    std::vector<PitexQuery> skewed;
    for (size_t i = 0; i < kBatch; ++i) {
      const bool hub = i % kServeThreads == 0;
      skewed.push_back({.user = hub ? hubs[i % hubs.size()]
                                    : leaves[i % leaves.size()],
                        .k = 3});
    }

    for (const Method method : {Method::kIndexEst, Method::kIndexEstPlus}) {
      ServeOptions batch_options;
      batch_options.engine = BenchOptions(method);
      batch_options.num_threads = kServeThreads;
      batch_options.mode = ScheduleMode::kDeterministic;
      PitexService batch(&d.network, batch_options);
      batch.Start();
      (void)batch.ServeAll(skewed);  // warm caches
      Timer batch_timer;
      const auto batch_results = batch.ServeAll(skewed);
      const double batch_qps = static_cast<double>(skewed.size()) /
                               std::max(batch_timer.Seconds(), 1e-9);

      // Scheduling model from the measured per-query costs: round-robin
      // makespan (what static assignment pays on kServeThreads real
      // cores; each worker's load is its busy time) vs. list-scheduling
      // makespan (what stealing approximates online). Host-core-count
      // independent — on a single-core runner the measured wall times
      // below cannot show the gap, this model can.
      std::vector<double> rr_load(kServeThreads, 0.0);
      std::vector<double> balanced_load(kServeThreads, 0.0);
      for (const ServedResult& served : batch_results) {
        rr_load[served.worker] += served.result.seconds;
        size_t least = 0;
        for (size_t w = 1; w < kServeThreads; ++w) {
          if (balanced_load[w] < balanced_load[least]) least = w;
        }
        balanced_load[least] += served.result.seconds;
      }
      const double busiest = *std::max_element(rr_load.begin(), rr_load.end());
      const double idlest = *std::min_element(rr_load.begin(), rr_load.end());
      const double balanced_makespan =
          *std::max_element(balanced_load.begin(), balanced_load.end());

      ServeOptions serve_options;
      serve_options.engine = batch_options.engine;
      serve_options.num_threads = kServeThreads;
      serve_options.mode = ScheduleMode::kWorkStealing;
      serve_options.cache_capacity = 0;  // measure scheduling, not caching
      PitexService service(&d.network, serve_options);
      service.Start();
      (void)service.ServeAll(skewed);  // warm engine replicas
      Timer serve_timer;
      (void)service.ServeAll(skewed);
      const double serve_seconds = serve_timer.Seconds();
      const double serve_qps =
          static_cast<double>(skewed.size()) / std::max(serve_seconds, 1e-9);
      const uint64_t steals =
          service.SnapshotMetrics().CounterValue("pitex_steals_total");

      std::printf("%-10s %-10s batch %9.1f q/s (busy %.3fs / idle %.3fs)  "
                  "serve %9.1f q/s (steals %llu)  speedup %.2fx  "
                  "[modeled %zu-core makespan: rr %.3fms vs balanced "
                  "%.3fms, %.2fx]\n",
                  d.name.c_str(), MethodName(method), batch_qps, busiest,
                  idlest, serve_qps,
                  static_cast<unsigned long long>(steals),
                  serve_qps / std::max(batch_qps, 1e-9), kServeThreads,
                  busiest * 1e3, balanced_makespan * 1e3,
                  busiest / std::max(balanced_makespan, 1e-9));
    }
  }
  std::printf("shape check: the work-stealing service should beat the "
              "static batch on this skew\n(hub cost concentrated on one "
              "residue class), with a visible busy/idle gap.\n"
              "On hosts with fewer cores than workers "
              "(hardware_concurrency=%u here) the measured\nspeedup "
              "saturates at ~1.0x — the modeled makespans isolate the "
              "scheduling effect.\n\n",
              std::thread::hardware_concurrency());

  // --- 3. bursty arrivals: service latency percentiles --------------------
  std::printf("=== Bursty arrivals: PitexService sojourn latency ===\n");
  const size_t kBursts = SmokeMode() ? 3 : 8;
  const size_t kBurstSize = SmokeMode() ? 16 : 64;
  for (const auto& d : MakeBenchDatasets()) {
    ServeOptions serve_options;
    serve_options.engine = BenchOptions(Method::kIndexEstPlus);
    serve_options.num_threads = kServeThreads;
    serve_options.cache_capacity = 0;
    PitexService service(&d.network, serve_options);
    service.Start();

    const auto users =
        SampleUserGroup(d.network.graph, UserGroup::kMid, kBurstSize, 7);
    // Warm the engine replicas outside the measured window.
    std::vector<PitexQuery> warm;
    for (size_t i = 0; i < kBurstSize; ++i) {
      warm.push_back({.user = users[i % users.size()], .k = 3});
    }
    (void)service.ServeAll(warm);  // percentiles cover the bursts only

    Timer burst_timer;
    std::vector<std::future<ServedResult>> futures;
    for (size_t burst = 0; burst < kBursts; ++burst) {
      // A whole wave arrives at once...
      for (size_t i = 0; i < kBurstSize; ++i) {
        futures.push_back(service.Submit(
            {.user = users[(burst + i) % users.size()], .k = 3}));
      }
      // ...then the stream goes quiet while the queue drains.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::vector<double> sojourns;
    for (auto& future : futures) {
      sojourns.push_back(future.get().sojourn_seconds);
    }
    const double wall = burst_timer.Seconds();

    std::printf("%-10s %4zu queries in %zu bursts: %8.1f q/s  "
                "p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  max %7.2fms\n",
                d.name.c_str(), futures.size(), kBursts,
                static_cast<double>(futures.size()) / std::max(wall, 1e-9),
                Quantile(sojourns, 0.50) * 1e3, Quantile(sojourns, 0.95) * 1e3,
                Quantile(sojourns, 0.99) * 1e3, Quantile(sojourns, 1.0) * 1e3);
  }
  std::printf("shape check: p99 >> p50 under bursts (queue wait dominates "
              "the tail); the gap\nshrinks as burst size approaches the "
              "worker count.\n\n");

  // --- 4. overload: admission control + deadlines under a query storm ----
  // A storm several times the service capacity arrives at once. Without
  // admission every query queues (the tail explodes but everyone is
  // eventually served); with a bounded queue the excess sheds instantly
  // and the admitted tail stays flat; with per-query budgets on top,
  // queue-aged queries degrade instead of blocking the ones behind them.
  std::printf("=== Overload: admission + deadlines (docs/robustness.md) "
              "===\n");
  const size_t kStorm = SmokeMode() ? 48 : 256;
  const size_t kStormThreads = 2;  // deliberately under-provisioned
  struct StormOutcome {
    size_t served = 0, shed = 0, degraded = 0, expired = 0;
    double wall = 0.0;
    double p99 = 0.0;  // sojourn over every answer but the shed ones
  };
  const auto run_storm = [&](const SocialNetwork& network,
                             const ServeOptions& serve_options,
                             const std::vector<PitexQuery>& storm) {
    PitexService service(&network, serve_options);
    service.Start();
    std::vector<PitexQuery> warm(storm.begin(),
                                 storm.begin() + storm.size() / 4);
    for (PitexQuery& q : warm) q.budget_seconds = 0.0;
    (void)service.ServeAll(warm);
    StormOutcome outcome;
    std::vector<double> sojourns;
    Timer timer;
    std::vector<std::future<ServedResult>> futures;
    futures.reserve(storm.size());
    for (const PitexQuery& query : storm) {
      futures.push_back(service.Submit(query));
    }
    for (auto& future : futures) {
      const ServedResult result = future.get();
      switch (result.status) {
        case ServeStatus::kOk: ++outcome.served; break;
        case ServeStatus::kShed: ++outcome.shed; continue;
        case ServeStatus::kDegraded: ++outcome.degraded; break;
        case ServeStatus::kDeadlineExpired: ++outcome.expired; break;
      }
      sojourns.push_back(result.sojourn_seconds);
    }
    outcome.wall = timer.Seconds();
    outcome.p99 = Quantile(sojourns, 0.99);
    return outcome;
  };

  for (const auto& d : MakeBenchDatasets()) {
    const auto users =
        SampleUserGroup(d.network.graph, UserGroup::kMid, kStorm, 9);
    std::vector<PitexQuery> storm;
    for (size_t i = 0; i < kStorm; ++i) {
      storm.push_back({.user = users[i % users.size()], .k = 3});
    }

    ServeOptions base;
    base.engine = BenchOptions(Method::kIndexEstPlus);
    base.num_threads = kStormThreads;
    base.cache_capacity = 0;  // every admitted query costs real work

    ServeOptions bounded = base;
    bounded.admission.max_queue_depth = 4 * kStormThreads;

    ServeOptions deadlined = bounded;
    std::vector<PitexQuery> budgeted = storm;
    for (PitexQuery& q : budgeted) q.budget_seconds = 0.002;

    const StormOutcome open = run_storm(d.network, base, storm);
    const StormOutcome shed = run_storm(d.network, bounded, storm);
    const StormOutcome soft = run_storm(d.network, deadlined, budgeted);

    std::printf("%-10s open-queue : served %3zu shed %3zu  p99 %8.2fms  "
                "wall %6.1fms\n",
                d.name.c_str(), open.served, open.shed,
                open.p99 * 1e3, open.wall * 1e3);
    std::printf("%-10s bounded    : served %3zu shed %3zu  p99 %8.2fms  "
                "wall %6.1fms\n",
                d.name.c_str(), shed.served, shed.shed,
                shed.p99 * 1e3, shed.wall * 1e3);
    std::printf("%-10s +deadlines : served %3zu shed %3zu degraded %3zu "
                "expired %3zu  p99 %8.2fms\n",
                d.name.c_str(), soft.served, soft.shed, soft.degraded,
                soft.expired, soft.p99 * 1e3);
  }
  std::printf("shape check: the bounded queue sheds most of the storm and "
              "its served-p99 drops\nwell below the open queue's; with "
              "budgets, queue-aged queries report degraded/expired\n"
              "instead of inflating the tail.\n");
  return 0;
}
