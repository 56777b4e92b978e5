// pitex_cli: command-line PITEX explorer.
//
// Usage:
//   pitex_cli gen <lastfm|diggs|dblp|twitter> <scale> <out.pitex>
//       Generate a Table-2 analog dataset and save it.
//   pitex_cli query <net.pitex> <user> <k> [method] [index.rridx]
//       Answer a PITEX query on a saved network. method is one of
//       mc, rr, lazy, lt, tim, indexest, indexest+, delaymat
//       (default: lazy). indexest and indexest+ load `index.rridx` when
//       given instead of rebuilding; any other method refuses it.
//   pitex_cli stats <net.pitex> [--format=json|prom] [--out=<file>]
//       Print network statistics, then run a short deterministic
//       serving burst and dump the metrics registry snapshot, the
//       hot-counter table, and the event journal (docs/observability.md)
//       in the chosen format (default json) to stdout or --out.
//   pitex_cli index <net.pitex> <out.rridx> [theta_per_vertex]
//       Build the RR-Graph index offline and persist it.
//   pitex_cli plan <net.pitex> <expected_queries> <k>
//       Price online sampling vs the index for a workload.
//   pitex_cli screen <net.pitex> <count>
//       Top users by envelope influence (bottom-k sketches).
//   pitex_cli seeds <net.pitex> <k_seeds> <tag> [tag...]
//       Topic-aware influence maximization for a fixed tag set.
//   pitex_cli batch <net.pitex> <queries> <k> <threads> [method]
//       Answer a batch of queries on a deterministic PitexService (query
//       i on worker i % threads) and report throughput.
//   pitex_cli serve <net.pitex> <queries> <updates> <threads> [wal_dir]
//             [--stats-out=<file>] [--stats-format=json|prom]
//       Run the serving tier end to end: answer queries, fold in edge
//       updates, and report the serving and durability counters. With
//       a wal_dir the service is durable (write-ahead log + checkpoints) and
//       recovers whatever state the directory already holds. With
//       --stats-out the final metrics snapshot + event journal are
//       written to the file (json by default) after serving, leaving
//       the human-readable stdout report unchanged.
//   pitex_cli replicate <net.pitex> <updates> <dir>
//             [--primary-stats-out=<file>] [--follower-stats-out=<file>]
//             [--stats-format=json|prom]
//       Run the replicated serving tier end to end in one process: a
//       durable primary ships its WAL to a follower over an in-process
//       transport, the follower replays and serves, then the primary
//       goes quiet and the follower is promoted -- and the deposed
//       primary's next write is fenced (docs/robustness.md). Fail
//       points armed via PITEX_FAILPOINTS (e.g. repl/ship_drop) inject
//       transport faults along the way; the CI chaos job drives this.
//       The stats flags dump each side's metrics + journal.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/core/im_solver.h"
#include "src/core/planner.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/model/network_io.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/sampling/sketch_oracle.h"
#include "src/serve/pitex_service.h"
#include "src/serve/replication.h"
#include "src/serve/term_authority.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace {

using namespace pitex;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pitex_cli gen <lastfm|diggs|dblp|twitter> <scale> <out>\n"
               "  pitex_cli query <net> <user> <k> [method] [index.rridx]\n"
               "  pitex_cli stats <net> [--format=json|prom] [--out=<file>]\n"
               "  pitex_cli index <net> <out.rridx> [theta_per_vertex]\n"
               "  pitex_cli plan <net> <expected_queries> <k>\n"
               "  pitex_cli screen <net> <count>\n"
               "  pitex_cli seeds <net> <k_seeds> <tag> [tag...]\n"
               "  pitex_cli batch <net> <queries> <k> <threads> [method]\n"
               "  pitex_cli serve <net> <queries> <updates> <threads> "
               "[wal_dir]\n"
               "             [--stats-out=<file>] [--stats-format=json|prom]\n"
               "  pitex_cli replicate <net> <updates> <dir>\n"
               "             [--primary-stats-out=<file>] "
               "[--follower-stats-out=<file>]\n"
               "             [--stats-format=json|prom]\n");
  return 2;
}

int CmdGen(int argc, char** argv) {
  if (argc != 5) return Usage();
  const std::string name = argv[2];
  const double scale = std::atof(argv[3]);
  DatasetSpec spec;
  if (name == "lastfm") {
    spec = LastfmSpec(scale);
  } else if (name == "diggs") {
    spec = DiggsSpec(scale);
  } else if (name == "dblp") {
    spec = DblpSpec(scale);
  } else if (name == "twitter") {
    spec = TwitterSpec(scale);
  } else {
    return Usage();
  }
  std::printf("generating %s at scale %.3f...\n", name.c_str(), scale);
  const SocialNetwork network = GenerateDataset(spec);
  if (!SaveNetwork(network, argv[4])) {
    std::fprintf(stderr, "error: cannot write %s\n", argv[4]);
    return 1;
  }
  std::printf("wrote %s: %zu vertices, %zu edges, %zu tags, %zu topics\n",
              argv[4], network.num_vertices(), network.num_edges(),
              network.tags.size(), network.topics.num_topics());
  return 0;
}

bool ParseMethod(const std::string& name, Method* method) {
  const struct {
    const char* name;
    Method method;
  } table[] = {
      {"mc", Method::kMc},           {"rr", Method::kRr},
      {"lazy", Method::kLazy},       {"lt", Method::kLt},
      {"tim", Method::kTim},         {"indexest", Method::kIndexEst},
      {"indexest+", Method::kIndexEstPlus},
      {"delaymat", Method::kDelayMat},
  };
  for (const auto& row : table) {
    if (name == row.name) {
      *method = row.method;
      return true;
    }
  }
  return false;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 5 || argc > 7) return Usage();
  Method method = Method::kLazy;
  if (argc >= 6 && !ParseMethod(argv[5], &method)) return Usage();
  // Only the RR-Graph methods serve from an index file.
  if (argc == 7 && method != Method::kIndexEst &&
      method != Method::kIndexEstPlus) {
    std::fprintf(stderr, "error: method %s reads no index file\n", argv[5]);
    return Usage();
  }
  auto network = LoadNetwork(argv[2]);
  if (!network) {
    std::fprintf(stderr, "error: cannot load %s\n", argv[2]);
    return 1;
  }
  const auto user = static_cast<VertexId>(std::atoi(argv[3]));
  const auto k = static_cast<size_t>(std::atoi(argv[4]));
  if (user >= network->num_vertices() || k == 0 ||
      k > network->topics.num_tags()) {
    std::fprintf(stderr, "error: user or k out of range\n");
    return 1;
  }

  EngineOptions options;
  options.method = method;
  // Declared before the engine, which serves it by pointer.
  std::unique_ptr<RrIndex> loaded;
  if (argc == 7) {
    IndexIoError error;
    loaded = LoadRrIndex(*network, argv[6], &error);
    if (loaded == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.message.c_str());
      return 1;
    }
    std::printf("loaded index from %s\n", argv[6]);
  }
  PitexEngine engine(network.operator->(), options);
  if (loaded != nullptr) engine.UseSharedRrIndex(loaded.get());
  Timer build_timer;
  engine.BuildIndex();
  if (engine.IndexSizeBytes() > 0) {
    std::printf("index: %.2f MB in %.2f s\n",
                static_cast<double>(engine.IndexSizeBytes()) / 1048576.0,
                build_timer.Seconds());
  }
  Timer query_timer;
  const PitexResult result = engine.Explore({.user = user, .k = k});
  std::printf("user %u, k=%zu, method=%s\n", user, k, MethodName(method));
  std::printf("best tags:");
  for (TagId w : result.tags) {
    std::printf(" %s", network->tags.Name(w).c_str());
  }
  std::printf("\nestimated spread: %.3f users\n", result.influence);
  std::printf("query time: %.3f s (%llu sets evaluated, %llu pruned)\n",
              query_timer.Seconds(),
              static_cast<unsigned long long>(result.sets_evaluated),
              static_cast<unsigned long long>(result.sets_pruned));
  return 0;
}

// --name=value flag matcher: fills *value and returns true on a match.
bool FlagValue(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

// Renders the service's registry snapshot, the process-wide hot-counter
// table, and the event journal (oldest-first) to `out`. The journal
// section follows the metrics in both formats -- the dump is a
// diagnostic artifact, not a scrape endpoint (docs/observability.md).
void DumpObservability(PitexService& service, const std::string& format,
                       std::FILE* out) {
  const obs::MetricsSnapshot snapshot = service.SnapshotMetrics();
  const obs::MetricsSnapshot hot = obs::HotCountersSnapshot();
  if (format == "prom") {
    std::fputs(snapshot.ToPrometheus().c_str(), out);
    std::fputs(hot.ToPrometheus().c_str(), out);
  } else {
    std::fputs(snapshot.ToJson().c_str(), out);
    std::fputc('\n', out);
    std::fputs(hot.ToJson().c_str(), out);
    std::fputc('\n', out);
  }
  service.journal().DumpTo(out);
}

int CmdStats(int argc, char** argv) {
  std::string format = "json";
  std::string out_path;
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (FlagValue(argv[i], "--format", &format) ||
        FlagValue(argv[i], "--out", &out_path)) {
      continue;
    }
    positional.push_back(argv[i]);
  }
  if (positional.size() != 1) return Usage();
  if (format != "json" && format != "prom") return Usage();
  auto network = LoadNetwork(positional[0]);
  if (!network) {
    std::fprintf(stderr, "error: cannot load %s\n", positional[0]);
    return 1;
  }
  std::printf("|V| = %zu\n|E| = %zu\n|E|/|V| = %.2f\n|Z| = %zu\n|W| = %zu\n",
              network->num_vertices(), network->num_edges(),
              network->graph.AverageDegree(), network->topics.num_topics(),
              network->topics.num_tags());
  std::printf("tag-topic density = %.3f\n", network->topics.Density());

  // A short deterministic serving burst so the registry, hot-counter
  // table, and journal have something to say: two passes over the same
  // users (the second hits the epoch-keyed cache) plus one published
  // update batch (WAL-free here; `serve` covers the durable paths).
  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.num_threads = 2;
  options.enable_updates = true;
  PitexService service(network.operator->(), options);
  service.Start();
  const auto users = SampleUserGroup(network->graph, UserGroup::kMid,
                                     /*count=*/8, /*seed=*/9);
  const size_t k = std::min<size_t>(3, network->topics.num_tags());
  std::vector<PitexQuery> queries;
  for (VertexId user : users) queries.push_back({.user = user, .k = k});
  service.ServeAll(queries);
  service.ServeAll(queries);
  std::vector<EdgeInfluenceUpdate> batch(1);
  batch[0].edge = 0;
  batch[0].entries = {{static_cast<TopicId>(0), 0.3}};
  service.ApplyUpdates(batch);

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  std::printf("\nobservability dump (%s, %zu queries + 1 update)%s%s:\n",
              format.c_str(), queries.size() * 2,
              out_path.empty() ? "" : " -> ", out_path.c_str());
  DumpObservability(service, format, out);
  if (out != stdout) std::fclose(out);
  return 0;
}

int CmdIndex(int argc, char** argv) {
  if (argc < 4 || argc > 5) return Usage();
  auto network = LoadNetwork(argv[2]);
  if (!network) {
    std::fprintf(stderr, "error: cannot load %s\n", argv[2]);
    return 1;
  }
  RrIndexOptions options;
  options.theta_per_vertex = argc == 5 ? std::atof(argv[4]) : 4.0;
  RrIndex index(*network, options);
  Timer timer;
  index.Build();
  IndexIoError error;
  if (!SaveRrIndex(index, argv[3], &error)) {
    std::fprintf(stderr, "error: %s\n", error.message.c_str());
    return 1;
  }
  std::printf("built theta=%llu RR-Graphs in %.2f s, wrote %s (%.2f MB in "
              "memory)\n",
              static_cast<unsigned long long>(index.theta()), timer.Seconds(),
              argv[3], static_cast<double>(index.SizeBytes()) / 1048576.0);
  return 0;
}

int CmdPlan(int argc, char** argv) {
  if (argc != 5) return Usage();
  auto network = LoadNetwork(argv[2]);
  if (!network) {
    std::fprintf(stderr, "error: cannot load %s\n", argv[2]);
    return 1;
  }
  const QueryPlanner planner(network.operator->());
  PlannerInputs inputs;
  inputs.expected_queries = static_cast<uint64_t>(std::atoll(argv[3]));
  inputs.k = static_cast<size_t>(std::atoi(argv[4]));
  const PlanDecision decision = planner.Plan(inputs);
  const NetworkProfile& profile = planner.profile();
  std::printf("profile: avg reach %.1f, avg RR size %.1f, density %.3f\n",
              profile.avg_envelope_reach, profile.avg_rr_graph_size,
              profile.tag_topic_density);
  std::printf("online:  %.3g expected edge probes\n", decision.online_cost);
  std::printf("index:   %.3g build + %.3g serving\n",
              decision.index_build_cost, decision.index_query_cost);
  std::printf("plan:    %s (%s)\n", MethodName(decision.method),
              decision.rationale.c_str());
  return 0;
}

int CmdScreen(int argc, char** argv) {
  if (argc != 4) return Usage();
  auto network = LoadNetwork(argv[2]);
  if (!network) {
    std::fprintf(stderr, "error: cannot load %s\n", argv[2]);
    return 1;
  }
  SketchOracle oracle(network.operator->());
  oracle.Build();
  std::printf("sketches built in %.2f s (%.1f KB)\n", oracle.build_seconds(),
              static_cast<double>(oracle.SizeBytes()) / 1024.0);
  const auto count = static_cast<size_t>(std::atoi(argv[3]));
  for (const auto& [user, influence] : oracle.TopInfluencers(count)) {
    std::printf("user %-8u ~ %.1f potential spread\n", user, influence);
  }
  return 0;
}

int CmdSeeds(int argc, char** argv) {
  if (argc < 5) return Usage();
  auto network = LoadNetwork(argv[2]);
  if (!network) {
    std::fprintf(stderr, "error: cannot load %s\n", argv[2]);
    return 1;
  }
  ImOptions options;
  options.num_seeds = static_cast<size_t>(std::atoi(argv[3]));
  std::vector<TagId> tags;
  for (int i = 4; i < argc; ++i) {
    const auto tag = network->tags.Find(argv[i]);
    if (!tag) {
      std::fprintf(stderr, "error: unknown tag '%s'\n", argv[i]);
      return 1;
    }
    tags.push_back(*tag);
  }
  Timer timer;
  const ImResult result = SolveTopicAwareIm(*network, tags, options);
  std::printf("seed set (greedy RIS, %.2f s, theta=%llu):\n", timer.Seconds(),
              static_cast<unsigned long long>(result.theta));
  for (size_t i = 0; i < result.seeds.size(); ++i) {
    std::printf("  user %-8u marginal spread %.1f\n", result.seeds[i],
                result.marginal_spread[i]);
  }
  std::printf("total expected spread: %.1f users\n", result.spread);
  return 0;
}

int CmdBatch(int argc, char** argv) {
  if (argc < 6 || argc > 7) return Usage();
  auto network = LoadNetwork(argv[2]);
  if (!network) {
    std::fprintf(stderr, "error: cannot load %s\n", argv[2]);
    return 1;
  }
  const auto num_queries = static_cast<size_t>(std::atoi(argv[3]));
  const auto k = static_cast<size_t>(std::atoi(argv[4]));
  ServeOptions options;
  options.num_threads = static_cast<size_t>(std::atoi(argv[5]));
  options.mode = ScheduleMode::kDeterministic;
  options.engine.method = Method::kIndexEstPlus;
  if (argc == 7 && !ParseMethod(argv[6], &options.engine.method)) {
    return Usage();
  }

  const auto users = SampleUserGroup(network->graph, UserGroup::kMid,
                                     num_queries, /*seed=*/9);
  if (num_queries > 0 && users.empty()) {
    std::fprintf(stderr, "error: no user in %s has an out-edge\n", argv[2]);
    return 1;
  }
  std::vector<PitexQuery> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back({.user = users[i % users.size()], .k = k});
  }
  PitexService service(network.operator->(), options);
  Timer prepare_timer;
  service.Start();
  std::printf("prepared %s on %zu workers in %.2f s\n",
              MethodName(options.engine.method), options.num_threads,
              prepare_timer.Seconds());
  Timer batch_timer;
  const auto served = service.ServeAll(queries);
  const double batch_seconds = batch_timer.Seconds();
  double total_influence = 0.0;
  for (const ServedResult& r : served) total_influence += r.result.influence;
  std::printf("%zu queries in %.3f s -> %.1f q/s, avg spread %.2f\n",
              served.size(), batch_seconds,
              static_cast<double>(served.size()) /
                  std::max(batch_seconds, 1e-9),
              total_influence / static_cast<double>(served.size()));
  return 0;
}

int CmdServe(int argc, char** argv) {
  std::string stats_out;
  std::string stats_format = "json";
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (FlagValue(argv[i], "--stats-out", &stats_out) ||
        FlagValue(argv[i], "--stats-format", &stats_format)) {
      continue;
    }
    positional.push_back(argv[i]);
  }
  if (positional.size() < 4 || positional.size() > 5) return Usage();
  if (stats_format != "json" && stats_format != "prom") return Usage();
  auto network = LoadNetwork(positional[0]);
  if (!network) {
    std::fprintf(stderr, "error: cannot load %s\n", positional[0]);
    return 1;
  }
  const auto num_queries = static_cast<size_t>(std::atoi(positional[1]));
  const auto num_updates = static_cast<size_t>(std::atoi(positional[2]));
  if (num_updates > 0 && network->num_edges() == 0) {
    std::fprintf(stderr, "error: %s has no edge to update\n", positional[0]);
    return 1;
  }

  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.num_threads = static_cast<size_t>(std::atoi(positional[3]));
  options.enable_updates = true;
  if (positional.size() == 5) {
    options.durability_dir = positional[4];
    options.checkpoint_every = 4;
  }
  const auto users = SampleUserGroup(network->graph, UserGroup::kMid,
                                     std::max<size_t>(num_queries, 1),
                                     /*seed=*/9);
  if (num_queries > 0 && users.empty()) {
    std::fprintf(stderr, "error: no user in %s has an out-edge\n",
                 positional[0]);
    return 1;
  }
  std::vector<PitexQuery> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back({.user = users[i % users.size()], .k = 3});
  }

  PitexService service(network.operator->(), options);
  Timer start_timer;
  service.Start();  // durable runs recover the directory's state here
  const double start_seconds = start_timer.Seconds();

  size_t rejected = 0;
  for (size_t i = 0; i < num_updates; ++i) {
    std::vector<EdgeInfluenceUpdate> batch(1);
    batch[0].edge = static_cast<EdgeId>((i * 97) % network->num_edges());
    batch[0].entries = {
        {static_cast<TopicId>(i % network->topics.num_topics()),
         0.2 + 0.1 * static_cast<double>(i % 5)}};
    if (service.ApplyUpdates(batch) == 0) ++rejected;
  }
  const auto served = service.ServeAll(queries);
  double total_influence = 0.0;
  std::vector<double> sojourns;
  for (const ServedResult& r : served) {
    total_influence += r.result.influence;
    sojourns.push_back(r.sojourn_seconds);
  }

  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  const auto counter = [&snap](const char* name) {
    return static_cast<unsigned long long>(snap.CounterValue(name));
  };
  const auto gauge = [&snap](const char* name) {
    return static_cast<long long>(snap.GaugeValue(name));
  };
  std::printf("started in %.2f s (%llu WAL records replayed)\n",
              start_seconds, counter("pitex_recovery_replayed_lsns_total"));
  std::printf("%zu queries, avg spread %.2f; %zu updates (%zu rejected)\n",
              served.size(),
              served.empty()
                  ? 0.0
                  : total_influence / static_cast<double>(served.size()),
              num_updates, rejected);
  std::printf("serving:    epoch %lld, %lld published, %llu cache hits, "
              "%llu steals, p95 %.2f ms\n",
              gauge("pitex_current_epoch"), gauge("pitex_epochs_published"),
              counter("pitex_cache_hits_total"), counter("pitex_steals_total"),
              Quantile(sojourns, 0.95) * 1e3);
  std::printf("durability: %llu WAL appends (%llu failed), %llu fsyncs, "
              "%llu checkpoints (%llu failed)\n",
              counter("pitex_wal_appends_total"),
              counter("pitex_wal_append_failures_total"),
              counter("pitex_wal_fsyncs_total"),
              counter("pitex_checkpoints_total"),
              counter("pitex_checkpoint_failures_total"));
  if (!stats_out.empty()) {
    std::FILE* out = std::fopen(stats_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", stats_out.c_str());
      return 1;
    }
    DumpObservability(service, stats_format, out);
    std::fclose(out);
    std::printf("stats:      %s snapshot + journal -> %s\n",
                stats_format.c_str(), stats_out.c_str());
  }
  return 0;
}

// Polls `pred` every 2 ms until it holds or `timeout_ms` expires.
template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

int CmdReplicate(int argc, char** argv) {
  std::string primary_out;
  std::string follower_out;
  std::string stats_format = "json";
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (FlagValue(argv[i], "--primary-stats-out", &primary_out) ||
        FlagValue(argv[i], "--follower-stats-out", &follower_out) ||
        FlagValue(argv[i], "--stats-format", &stats_format)) {
      continue;
    }
    positional.push_back(argv[i]);
  }
  if (positional.size() != 3) return Usage();
  if (stats_format != "json" && stats_format != "prom") return Usage();
  auto network = LoadNetwork(positional[0]);
  if (!network) {
    std::fprintf(stderr, "error: cannot load %s\n", positional[0]);
    return 1;
  }
  const auto num_updates = static_cast<size_t>(std::atoi(positional[1]));
  // The failover drill below writes edge 0 even when num_updates is 0.
  if (network->num_edges() == 0) {
    std::fprintf(stderr, "error: %s has no edge to update\n", positional[0]);
    return 1;
  }
  const std::string dir = positional[2];

  // Primary and follower share one term authority (the in-process
  // stand-in for a coordination service) and one in-process transport.
  InProcessTermAuthority authority(1);
  ServeOptions primary_options;
  primary_options.engine.method = Method::kIndexEst;
  primary_options.num_threads = 2;
  primary_options.enable_updates = true;
  primary_options.durability_dir = dir + "/primary";
  primary_options.checkpoint_every = 4;
  primary_options.term_authority = &authority;
  primary_options.term = 1;
  PitexService primary(network.operator->(), primary_options);

  auto [primary_end, follower_end] = MakeInProcessTransportPair();
  WalShipperOptions ship;
  ship.wal_dir = primary_options.durability_dir;
  ship.term = 1;
  WalShipper shipper(&primary, primary_end.get(), ship);

  FollowerOptions follower_options;
  follower_options.serve = primary_options;
  follower_options.serve.durability_dir = dir + "/follower";
  follower_options.heartbeat_timeout_ms = 250.0;
  follower_options.authority = &authority;
  FollowerService follower(network.operator->(), follower_end.get(),
                           follower_options);

  Timer start_timer;
  shipper.Start();  // starts the primary and ships the bootstrap checkpoint
  std::string error;
  if (!follower.Start(&error)) {
    std::fprintf(stderr, "error: follower bootstrap failed: %s\n",
                 error.c_str());
    return 1;
  }
  std::printf("replica pair up in %.2f s (term %llu)\n", start_timer.Seconds(),
              static_cast<unsigned long long>(primary.term()));

  // Replicated steady state: every primary batch must land on the
  // follower (fail points may drop/tear/reorder frames along the way --
  // the resync protocol has to converge regardless).
  size_t rejected = 0;
  for (size_t i = 0; i < num_updates; ++i) {
    std::vector<EdgeInfluenceUpdate> batch(1);
    batch[0].edge = static_cast<EdgeId>((i * 97) % network->num_edges());
    batch[0].entries = {
        {static_cast<TopicId>(i % network->topics.num_topics()),
         0.2 + 0.1 * static_cast<double>(i % 5)}};
    if (primary.ApplyUpdates(batch) == 0) ++rejected;
  }
  const uint64_t durable = primary.durable_lsn();
  if (!WaitFor([&] { return shipper.acked_lsn() >= durable; }, 30000)) {
    std::fprintf(stderr, "error: follower never caught up (acked %llu of "
                 "%llu)\n",
                 static_cast<unsigned long long>(shipper.acked_lsn()),
                 static_cast<unsigned long long>(durable));
    return 1;
  }
  const auto users = SampleUserGroup(network->graph, UserGroup::kMid,
                                     /*count=*/8, /*seed=*/9);
  std::vector<PitexQuery> queries;
  for (VertexId user : users) queries.push_back({.user = user, .k = 3});
  primary.ServeAll(queries);
  follower.service().ServeAll(queries);  // the follower serves while replaying
  std::printf("replicated %zu updates (%zu rejected): shipped lsn %llu, "
              "follower applied %llu, lag 0\n",
              num_updates, rejected,
              static_cast<unsigned long long>(shipper.shipped_lsn()),
              static_cast<unsigned long long>(follower.applied_lsn()));

  // Failover: the primary goes quiet (shipper stopped), the follower's
  // heartbeat timeout expires, and it promotes itself through the term
  // authority. The deposed primary's next write dies on the fence.
  shipper.Stop();
  if (!WaitFor([&] { return follower.promoted(); }, 15000)) {
    std::fprintf(stderr, "error: follower never promoted\n");
    return 1;
  }
  std::vector<EdgeInfluenceUpdate> post(1);
  post[0].edge = 0;
  post[0].entries = {{static_cast<TopicId>(0), 0.4}};
  ApplyUpdatesOutcome outcome;
  const uint64_t deposed = primary.ApplyUpdates(post, &outcome);
  const bool fenced =
      deposed == 0 && outcome == ApplyUpdatesOutcome::kFencedStaleTerm;
  const uint64_t accepted = follower.service().ApplyUpdates(post);
  follower.service().ServeAll(queries);
  std::printf("failover: follower promoted to term %llu; deposed primary "
              "%s; new primary %s\n",
              static_cast<unsigned long long>(follower.term()),
              fenced ? "fenced (stale term)" : "NOT FENCED -- bug",
              accepted != 0 ? "accepting writes" : "rejecting writes -- bug");

  auto dump = [&](PitexService& service, const std::string& path,
                  const char* who) {
    if (path.empty()) return true;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    DumpObservability(service, stats_format, out);
    std::fclose(out);
    std::printf("stats: %s %s snapshot + journal -> %s\n", who,
                stats_format.c_str(), path.c_str());
    return true;
  };
  if (!dump(primary, primary_out, "primary")) return 1;
  if (!dump(follower.service(), follower_out, "follower")) return 1;
  follower.Stop();
  return fenced && accepted != 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    Usage();
    return 0;
  }
  if (std::strcmp(argv[1], "gen") == 0) return CmdGen(argc, argv);
  if (std::strcmp(argv[1], "query") == 0) return CmdQuery(argc, argv);
  if (std::strcmp(argv[1], "stats") == 0) return CmdStats(argc, argv);
  if (std::strcmp(argv[1], "index") == 0) return CmdIndex(argc, argv);
  if (std::strcmp(argv[1], "plan") == 0) return CmdPlan(argc, argv);
  if (std::strcmp(argv[1], "screen") == 0) return CmdScreen(argc, argv);
  if (std::strcmp(argv[1], "seeds") == 0) return CmdSeeds(argc, argv);
  if (std::strcmp(argv[1], "batch") == 0) return CmdBatch(argc, argv);
  if (std::strcmp(argv[1], "serve") == 0) return CmdServe(argc, argv);
  if (std::strcmp(argv[1], "replicate") == 0) return CmdReplicate(argc, argv);
  return Usage();
}
