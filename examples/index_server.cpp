// Example: the production serving workflow.
//
// A deployment rarely answers one PITEX query on a frozen network. This
// walkthrough covers the full life cycle the extension modules support:
//
//   1. plan    — QueryPlanner prices online sampling vs. the index for
//                the expected workload;
//   2. screen  — SketchOracle finds the users worth querying at all;
//   3. build   — the RR-Graph index is built once and persisted to disk
//                (index_io), then reloaded as a serving replica;
//   4. serve   — PitexService answers a query stream across a
//                work-stealing worker pool with per-worker engine
//                replicas and an epoch-keyed result cache;
//   5. evolve  — ApplyUpdates repairs the shadow DynamicRrIndex master
//                and hot-swaps a new immutable snapshot epoch while the
//                service keeps answering;
//   6. survive — overload drill: per-query deadlines degrade gracefully,
//                admission control sheds a hot-user flood, and the
//                publish watchdog reports a stalled freeze while it
//                runs (docs/robustness.md);
//   7. recover — restart drill: with a durability_dir every acknowledged
//                update is in the write-ahead log before the caller
//                hears about it, so a new process on the same directory
//                (checkpoint + WAL replay) resumes bit-identically
//                where the old one stopped (docs/robustness.md,
//                "Durability");
//   8. observe — observability drill: arm the span sampler, trace one
//                query end to end (admission -> queue wait -> solve ->
//                result), read the metrics registry snapshot with its
//                conservation identities and staleness gauges, and dump
//                the event journal (docs/observability.md);
//   9. replicate — failover drill: a WalShipper streams the primary's
//                write-ahead log to a FollowerService that replays and
//                serves in lockstep; when the primary goes quiet the
//                follower promotes itself through the shared term
//                authority, and the deposed primary's next write is
//                fenced — no split-brain (docs/robustness.md,
//                "Replication & failover").
//
// Run: ./build/examples/index_server

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/core/planner.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sampling/sketch_oracle.h"
#include "src/serve/pitex_service.h"
#include "src/serve/replication.h"
#include "src/serve/term_authority.h"
#include "src/util/failpoint.h"
#include "src/util/stats.h"

int main() {
  using namespace pitex;

  // A diggs-shaped network stands in for the deployment's social graph.
  DatasetSpec spec = DiggsSpec(0.08);
  spec.seed = 2024;
  const SocialNetwork network = GenerateDataset(spec);
  std::printf("network: |V|=%zu |E|=%zu |Z|=%zu |Omega|=%zu\n\n",
              network.num_vertices(), network.num_edges(),
              network.topics.num_topics(), network.topics.num_tags());

  // -- 1. plan ------------------------------------------------------------
  const QueryPlanner planner(&network);
  PlannerInputs workload;
  workload.expected_queries = 10000;  // a day of traffic
  workload.k = 3;
  const PlanDecision decision = planner.Plan(workload);
  std::printf("planner: %s\n  -> %s\n\n", decision.rationale.c_str(),
              MethodName(decision.method));

  // -- 2. screen ----------------------------------------------------------
  SketchOptions sketch_options;
  sketch_options.sketch_size = 64;
  sketch_options.num_worlds = 32;
  SketchOracle sketch(&network, sketch_options);
  sketch.Build();
  const auto influencers = sketch.TopInfluencers(8);
  std::printf("screening: top users by envelope influence (sketch, %.0f KB, "
              "%.3fs build)\n",
              static_cast<double>(sketch.SizeBytes()) / 1024.0,
              sketch.build_seconds());
  for (const auto& [user, influence] : influencers) {
    std::printf("  user %-6u ~ %.1f potential spread\n", user, influence);
  }
  std::printf("\n");

  // -- 3. build + persist ---------------------------------------------------
  RrIndexOptions index_options;
  index_options.theta_per_vertex = 4.0;
  index_options.seed = 7;
  RrIndex index(network, index_options);
  index.Build();
  const std::string path = "/tmp/pitex_index_server.rridx";
  IndexIoError error;
  if (!SaveRrIndex(index, path, &error)) {
    std::printf("save failed: %s\n", error.message.c_str());
    return 1;
  }
  auto replica = LoadRrIndex(network, path, &error);
  if (replica == nullptr) {
    std::printf("load failed: %s\n", error.message.c_str());
    return 1;
  }
  std::printf("index: theta=%llu built in %.3fs, persisted and reloaded "
              "(fingerprint-checked)\n\n",
              static_cast<unsigned long long>(index.theta()),
              index.build_seconds());

  // -- 4. serve -------------------------------------------------------------
  ServeOptions serve_options;
  serve_options.engine.method = decision.method == Method::kLazy
                                    ? Method::kIndexEstPlus  // index is built
                                    : decision.method;
  serve_options.engine.index_theta_per_vertex = index_options.theta_per_vertex;
  serve_options.engine.seed = index_options.seed;
  serve_options.num_threads = 4;
  serve_options.cache_capacity = 1024;
  serve_options.enable_updates = true;  // keep a repairable shadow master
  PitexService service(&network, serve_options);
  service.Start();

  // The influencer screen repeats hot users — exactly the stream shape
  // the epoch-keyed result cache absorbs. Serve each twice.
  std::vector<PitexQuery> queries;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [user, influence] : influencers) {
      queries.push_back({.user = user, .k = 3});
    }
  }
  const auto served = service.ServeAll(queries);
  // Aggregates come from the metrics registry; per-query numbers such as
  // the sojourn time ride on each answer.
  obs::MetricsSnapshot metrics = service.SnapshotMetrics();
  std::vector<double> sojourns;
  for (const ServedResult& r : served) sojourns.push_back(r.sojourn_seconds);
  std::printf("serving: %zu queries on %zu workers (epoch %lld): "
              "%llu cache hits, %llu steals, p95 %.2fms\n",
              served.size(), serve_options.num_threads,
              static_cast<long long>(metrics.GaugeValue("pitex_current_epoch")),
              static_cast<unsigned long long>(
                  metrics.CounterValue("pitex_cache_hits_total")),
              static_cast<unsigned long long>(
                  metrics.CounterValue("pitex_steals_total")),
              Quantile(sojourns, 0.95) * 1e3);
  for (size_t i = 0; i < influencers.size(); ++i) {
    std::string tags;
    for (const TagId w : served[i].result.tags) {
      if (!tags.empty()) tags += ", ";
      tags += network.tags.Name(w);
    }
    std::printf("  user %-6u E[I]=%6.1f  selling points: %s%s\n",
                queries[i].user, served[i].result.influence, tags.c_str(),
                served[i].cache_hit ? "  (cached)" : "");
  }
  std::printf("\n");

  // -- 5. evolve ------------------------------------------------------------
  // The model drifts; repairs go to the shadow master and are published
  // as a new immutable epoch — in-flight queries finish on their
  // snapshot, the cache entries of the old epoch age out by keying.
  std::vector<EdgeInfluenceUpdate> drift(3);
  for (size_t i = 0; i < drift.size(); ++i) {
    drift[i].edge = static_cast<EdgeId>(i * 101 % network.num_edges());
    drift[i].entries = {{static_cast<TopicId>(i % spec.num_topics), 0.3}};
  }
  const uint64_t epoch = service.ApplyUpdates(drift);
  const auto refreshed = service.ServeAll(
      std::span<const PitexQuery>(queries.data(), influencers.size()));
  metrics = service.SnapshotMetrics();
  std::printf("model drift: %zu edges re-learned -> hot-swapped to epoch "
              "%llu (%lld snapshots retired), answers refreshed:\n",
              drift.size(), static_cast<unsigned long long>(epoch),
              static_cast<long long>(
                  metrics.GaugeValue("pitex_epochs_published") - 1));
  for (size_t i = 0; i < refreshed.size(); ++i) {
    std::printf("  user %-6u E[I]=%6.1f (epoch %llu%s)\n", queries[i].user,
                refreshed[i].result.influence,
                static_cast<unsigned long long>(refreshed[i].epoch),
                refreshed[i].cache_hit ? ", cached" : "");
  }
  std::printf("\n");

  // -- 6. survive -----------------------------------------------------------
  // Overload drill on a bounded deployment: at most 32 queries in flight,
  // one principal capped at 200 qps (burst 4). The same knobs are
  // reachable without recompiling via PITEX_FAILPOINTS and ServeOptions.
  ServeOptions drill_options = serve_options;
  drill_options.cache_capacity = 0;  // measure the work, not the cache
  drill_options.admission.max_queue_depth = 32;
  drill_options.admission.user_rate_limit = 200.0;
  drill_options.admission.user_burst = 4.0;
  PitexService drilled(&network, drill_options);
  drilled.Start();

  // A latency-sensitive client sets a budget; the service answers with
  // whatever the solver has converged on by the deadline (`degraded`)
  // instead of blowing the SLO, and a burst past the queue bound is shed
  // at admission instead of growing the queue without bound.
  std::vector<PitexQuery> storm;
  for (int i = 0; i < 64; ++i) {
    PitexQuery q{.user = influencers[i % influencers.size()].first, .k = 3};
    if (i % 2 == 0) q.budget_seconds = 200e-6;  // 200 us: below the p95
    storm.push_back(q);
  }
  const auto drill_served = drilled.ServeAll(storm);
  size_t ok = 0, degraded = 0, expired = 0, shed = 0;
  std::vector<double> admitted_sojourns;
  for (const auto& r : drill_served) {
    switch (r.status) {
      case ServeStatus::kOk: ++ok; break;
      case ServeStatus::kDegraded: ++degraded; break;
      case ServeStatus::kDeadlineExpired: ++expired; break;
      case ServeStatus::kShed: ++shed; continue;
    }
    admitted_sojourns.push_back(r.sojourn_seconds);
  }
  std::printf("overload drill: %zu queries -> %zu ok, %zu degraded, "
              "%zu expired, %zu shed, admitted p95 %.2fms\n",
              storm.size(), ok, degraded, expired, shed,
              Quantile(admitted_sojourns, 0.95) * 1e3);

  // Now the queue has drained: a hot user floods back-to-back and is
  // rate-limited by its token bucket — the rest of the stream would be
  // unaffected (buckets are per-user).
  std::vector<PitexQuery> flood(
      24, PitexQuery{.user = influencers.front().first, .k = 3});
  const auto flood_served = drilled.ServeAll(flood);
  size_t flood_shed = 0;
  for (const auto& r : flood_served) {
    if (r.status == ServeStatus::kShed) ++flood_shed;
  }
  metrics = drilled.SnapshotMetrics();
  std::printf("hot-user flood: %zu back-to-back queries -> %zu shed "
              "(%llu queue-full, %llu rate-limited in the drill so far)\n",
              flood.size(), flood_shed,
              static_cast<unsigned long long>(
                  metrics.CounterValue("pitex_queries_shed_queue_full_total")),
              static_cast<unsigned long long>(metrics.CounterValue(
                  "pitex_queries_shed_rate_limited_total")));

  // Watchdog drill: stall the next freeze for 100 ms and scrape the
  // publish watchdog from this thread while another publishes. A scrape
  // never waits on the publisher lock the stalled freeze holds.
  FailpointRegistry::Instance().Enable(
      "serve/publish_freeze",
      {.mode = FailpointMode::kDelay, .fires = 1, .delay_ms = 100});
  std::atomic<uint64_t> drilled_epoch{0};
  std::thread publisher(
      [&] { drilled_epoch.store(drilled.ApplyUpdates(drift)); });
  int64_t stalled_in_flight = 0;
  int64_t stalled_age_ms = 0;
  while (drilled_epoch.load() == 0) {
    metrics = drilled.SnapshotMetrics();
    if (metrics.GaugeValue("pitex_publish_in_flight") == 1) {
      stalled_in_flight = 1;
      stalled_age_ms = metrics.GaugeValue("pitex_publish_age_ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  publisher.join();
  FailpointRegistry::Instance().DisableAll();
  metrics = drilled.SnapshotMetrics();
  std::printf("watchdog drill: stalled freeze scraped at "
              "pitex_publish_in_flight %lld, pitex_publish_age_ms %lld; "
              "epoch %llu published, in flight %lld after\n",
              static_cast<long long>(stalled_in_flight),
              static_cast<long long>(stalled_age_ms),
              static_cast<unsigned long long>(drilled_epoch.load()),
              static_cast<long long>(
                  metrics.GaugeValue("pitex_publish_in_flight")));

  // -- 7. restart and recover ----------------------------------------------
  // The same service, now durable: a directory holds the group-committed
  // write-ahead log plus periodic checkpoints, and ApplyUpdates only
  // acknowledges after its batch is fsynced. Kill the process at any
  // moment (tests/crash_recovery_test.cc does, with SIGKILL) and a
  // restart on the directory replays the tail and serves on.
  const std::string wal_dir = "/tmp/pitex_index_server_wal";
  std::filesystem::remove_all(wal_dir);
  ServeOptions durable_options = serve_options;
  durable_options.durability_dir = wal_dir;
  durable_options.checkpoint_every = 2;  // checkpoint every 2nd publish
  uint64_t down_epoch = 0;
  double durable_answer = 0.0;
  {
    PitexService durable(&network, durable_options);
    durable.Start();
    for (int round = 0; round < 3; ++round) {
      durable.ApplyUpdates(drift);  // each batch fsynced before the ack
    }
    down_epoch = durable.current_epoch();
    durable_answer = durable.Submit(queries.front()).get().result.influence;
    const obs::MetricsSnapshot durable_snap = durable.SnapshotMetrics();
    std::printf("\ndurability: %llu batches logged (%llu fsyncs), "
                "%llu checkpoint(s) written, serving epoch %llu\n",
                static_cast<unsigned long long>(
                    durable_snap.CounterValue("pitex_wal_appends_total")),
                static_cast<unsigned long long>(
                    durable_snap.CounterValue("pitex_wal_fsyncs_total")),
                static_cast<unsigned long long>(
                    durable_snap.CounterValue("pitex_checkpoints_total")),
                static_cast<unsigned long long>(down_epoch));
  }  // process "dies" here; the directory is all that survives

  PitexService restarted(&network, durable_options);
  restarted.Start();  // loads the checkpoint, replays the WAL tail
  const uint64_t replayed = restarted.SnapshotMetrics().CounterValue(
      "pitex_recovery_replayed_lsns_total");
  const double recovered_answer =
      restarted.Submit(queries.front()).get().result.influence;
  std::printf("restart: recovered to epoch %llu (%llu LSNs replayed past "
              "the checkpoint), answers %s\n",
              static_cast<unsigned long long>(restarted.current_epoch()),
              static_cast<unsigned long long>(replayed),
              restarted.current_epoch() == down_epoch &&
                      recovered_answer == durable_answer
                  ? "bit-identical to the pre-restart service"
                  : "DIVERGED (bug!)");

  // -- 8. observe -----------------------------------------------------------
  // The recovered service keeps serving; now look inside it. Arm the
  // span sampler (every query until turned back off -- production would
  // use PITEX_TRACE_SAMPLE=1000 for one in a thousand) and trace one
  // query end to end. With -DPITEX_TRACING=OFF the sampler stays
  // disarmed and this prints an empty trace; everything else below
  // still works.
  obs::Tracer& tracer = obs::Tracer::Instance();
  tracer.SetSampleEvery(1);
  tracer.Clear();
  // A user this service has not answered yet, so the trace shows the
  // full miss path (a repeat would short-circuit at cache_probe).
  (void)restarted.ServeAll(
      std::span<const PitexQuery>(queries.data() + 1, 1));
  const auto spans = tracer.CollectAll();
  tracer.SetSampleEvery(0);
  std::printf("\ntraced query (%zu spans): where did the time go?\n",
              spans.size());
  for (const obs::SpanRecord& s : spans) {
    std::printf("  %-10s %8.1f us\n", obs::SpanKindName(s.kind),
                static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }

  // The registry snapshot is one consistent pass: counters obey
  // conservation identities (every submitted query is accounted for,
  // terminally, exactly once) and the staleness gauges tie the serving
  // epoch to the newest acked LSN -- both are asserted under fault
  // storms in tests/serve_under_faults_test.cc.
  const obs::MetricsSnapshot snap = restarted.SnapshotMetrics();
  const uint64_t submitted = snap.CounterValue("pitex_queries_submitted_total");
  const uint64_t admitted = snap.CounterValue("pitex_queries_admitted_total");
  const uint64_t answered_ok = snap.CounterValue("pitex_queries_ok_total");
  std::printf("registry: %zu metrics; submitted=%llu admitted=%llu ok=%llu "
              "(conservation %s), staleness %lld batch(es) / %lld LSN(s)\n",
              snap.metrics.size(), static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(answered_ok),
              submitted == admitted +
                      snap.CounterValue("pitex_queries_shed_queue_full_total") +
                      snap.CounterValue("pitex_queries_shed_rate_limited_total")
                  ? "holds"
                  : "VIOLATED (bug!)",
              static_cast<long long>(snap.GaugeValue("pitex_staleness_batches")),
              static_cast<long long>(snap.GaugeValue("pitex_staleness_lsns")));

  // The journal is the flight recorder: every lifecycle event (epoch
  // swaps, WAL trouble, sheds, recovery replay) in one bounded ring,
  // dumped automatically on crash-adjacent paths and on demand here.
  restarted.journal().DumpTo(stdout);

  // -- 9. replicate and fail over -------------------------------------------
  // The durable service gains a warm standby: a WalShipper tails the
  // primary's committed WAL and streams it (checkpoint bootstrap, then
  // records) to a FollowerService that replays deterministically and
  // serves reads the whole time. The pair shares a term authority; when
  // the primary goes quiet past the heartbeat timeout the follower
  // promotes itself, and the old primary's next write is fenced.
  const std::string repl_dir = "/tmp/pitex_index_server_repl";
  std::filesystem::remove_all(repl_dir);
  InProcessTermAuthority authority(1);
  ServeOptions primary_options = durable_options;
  primary_options.durability_dir = repl_dir + "/primary";
  primary_options.term_authority = &authority;
  primary_options.term = 1;
  PitexService primary(&network, primary_options);
  auto [primary_end, follower_end] = MakeInProcessTransportPair();
  WalShipperOptions ship_options;
  ship_options.wal_dir = primary_options.durability_dir;
  WalShipper shipper(&primary, primary_end.get(), ship_options);
  FollowerOptions follower_options;
  follower_options.serve = durable_options;
  follower_options.serve.durability_dir = repl_dir + "/follower";
  follower_options.heartbeat_timeout_ms = 250.0;
  follower_options.authority = &authority;
  FollowerService follower(&network, follower_end.get(), follower_options);
  shipper.Start();
  std::string follower_error;
  if (!follower.Start(&follower_error)) {
    std::printf("follower bootstrap failed: %s\n", follower_error.c_str());
    return 1;
  }
  for (int round = 0; round < 3; ++round) {
    primary.ApplyUpdates(drift);  // group-committed, then shipped
  }
  // Semi-synchronous shipping: wait until the follower has confirmed
  // every durable record before reading its replica.
  const uint64_t durable_lsn = primary.durable_lsn();
  while (shipper.acked_lsn() < durable_lsn) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double follower_answer =
      follower.service().Submit(queries.front()).get().result.influence;
  const double primary_answer =
      primary.Submit(queries.front()).get().result.influence;
  std::printf("\nreplication: %llu LSNs shipped and applied, replica lag 0, "
              "answers %s\n",
              static_cast<unsigned long long>(follower.applied_lsn()),
              follower_answer == primary_answer
                  ? "bit-identical on both replicas"
                  : "DIVERGED (bug!)");

  // Failover: stop shipping (the primary "dies"), let the heartbeat
  // timeout elect the follower, then watch the fence reject the deposed
  // primary's late write.
  shipper.Stop();
  while (!follower.promoted()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ApplyUpdatesOutcome deposed_outcome;
  const uint64_t deposed_epoch = primary.ApplyUpdates(drift, &deposed_outcome);
  const uint64_t new_epoch = follower.service().ApplyUpdates(drift);
  std::printf("failover: follower promoted to term %llu after heartbeat "
              "loss; deposed primary's write %s; new primary published "
              "epoch %llu\n",
              static_cast<unsigned long long>(follower.term()),
              deposed_epoch == 0 &&
                      deposed_outcome == ApplyUpdatesOutcome::kFencedStaleTerm
                  ? "fenced (stale term)"
                  : "ACCEPTED (split-brain bug!)",
              static_cast<unsigned long long>(new_epoch));
  follower.Stop();

  std::filesystem::remove_all(repl_dir);
  std::filesystem::remove_all(wal_dir);
  std::remove(path.c_str());
  return 0;
}
