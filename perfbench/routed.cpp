// `routed`: closed loop over one client connection, one protein per
// request, through a front net::Server -> cluster::Router -> three
// replicas (net::Server + SearchService), all on loopback in this
// process. The translated genome is stored in 6 shards held by all
// three replicas. Per-request costs dominate: wire time, the
// router's thread and connection per leg, the per-shard step-1 rebuild
// and the fixed step-2 cost.
#include <algorithm>
#include <memory>
#include <thread>

#include "cluster/router.hpp"
#include "core/result_codec.hpp"
#include "fixture.hpp"
#include "index/index_table.hpp"
#include "service/shard_query.hpp"
#include "stats.hpp"
#include "store/shard_store.hpp"

namespace perfbench {

using namespace psc;

namespace {

constexpr const char* kBank = "routed";
/// Every leg is a fresh router connection, so a query leaves one socket
/// in TIME_WAIT per shard. With 10 shards back-to-back runs held ~20k
/// of the 28k ephemeral ports and the next run served most requests a
/// poll step late; this target (6 shards) keeps it near 12k.
constexpr std::size_t kShards = 5;
constexpr std::size_t kReplicas = 3;
constexpr std::size_t kReplicaThreads = 1;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kAppends = 9;
constexpr double kQpsWindow = 2.0;  ///< seconds per throughput window
/// Replies the untraced loop collects at least: p99 then rests on 25
/// samples beyond its rank, not the 10 a bare p99 needs, so one slow
/// stretch of the host moves it less.
constexpr std::size_t kMinSamples = 2500;

struct Fleet {
  std::vector<std::unique_ptr<Node>> replicas;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<net::Server> front;

  ~Fleet() {
    if (front) front->stop();
    front.reset();
    router.reset();
    replicas.clear();
  }
};

/// Starts the fleet over the store at `dir/kBank`. Every replica claims
/// every shard ("=all"), the repository's live-ingest cluster shape: it
/// is the only one in which the router adopts an appended tail shard
/// with a refresh instead of a restart.
std::unique_ptr<Fleet> start_fleet(const std::string& dir) {
  auto fleet = std::make_unique<Fleet>();
  cluster::RouterConfig router_config;
  router_config.manifest_prefix = dir + "/" + kBank;
  router_config.bank_prefix = kBank;
  router_config.health.interval_seconds = 3600.0;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    fleet->replicas.push_back(
        std::make_unique<Node>(dir, std::vector<std::string>{}, kReplicaThreads));
    cluster::ReplicaEndpoint endpoint;
    endpoint.host = "127.0.0.1";
    endpoint.port = fleet->replicas.back()->port();
    endpoint.all_shards = true;
    router_config.replicas.push_back(std::move(endpoint));
  }
  fleet->router = std::make_unique<cluster::Router>(router_config);
  net::ServerConfig front_config;
  front_config.bank_root = dir;
  front_config.allowed_prefixes = {kBank};
  fleet->front = std::make_unique<net::Server>(*fleet->router, front_config);
  fleet->front->start();
  return fleet;
}

/// First touch: every replica loads every shard.
void first_touch(const Fleet& fleet, const std::string& fasta,
                 std::size_t shards, double total_residues) {
  service::QueryOptions options;
  options.search_space_residues = total_residues;
  for (const auto& replica : fleet.replicas) {
    const std::unique_ptr<net::Client> client = connect(replica->port());
    for (std::size_t shard = 0; shard < shards; ++shard) {
      client->search(store::shard_prefix(kBank, shard), fasta, options);
    }
  }
}

struct LoopStats {
  std::vector<double> latencies;
  std::vector<double> completions;  ///< reply arrival times
  double start = 0.0, elapsed = 0.0;
  double overhead_s = 0.0;  ///< client time minus server latency, summed
  double reply_bytes = 0.0;
  std::size_t failed = 0;
};

/// Closed loop: runs for `seconds` and until `min_samples` replies.
LoopStats closed_loop(net::Client& client, const Inputs& inputs,
                      const References& refs, Report& report, double seconds,
                      std::size_t min_samples, Tracer& tracer,
                      std::size_t& cursor) {
  LoopStats stats;
  const double start = stats.start = now_seconds();
  const double deadline = start + seconds;
  while (now_seconds() < deadline || stats.latencies.size() < min_samples) {
    const std::size_t q = next_query(inputs, cursor++);
    ScopedSpan request(tracer, "gen.request", 0, cursor);
    const double sent = now_seconds();
    try {
      service::QueryResult reply;
      {
        ScopedSpan search(tracer, "net.search", request.id(), cursor);
        reply = client.search(kBank, inputs.fastas[q]);
      }
      const double done = now_seconds();
      const Bytes bytes = core::encode_matches(reply.matches);
      check_reply(report, bytes, refs[0][q]);
      stats.latencies.push_back(done - sent);
      stats.completions.push_back(done);
      stats.overhead_s += (done - sent) - reply.latency_seconds;
      stats.reply_bytes += static_cast<double>(bytes.size());
    } catch (const std::exception&) {
      report.count(false);
      ++stats.failed;
      if (stats.failed > 10) break;
    }
  }
  stats.elapsed = now_seconds() - start;
  return stats;
}

struct ReplicaTotals {
  std::uint64_t requests = 0, retries = 0, hedges = 0, failures = 0;
};

ReplicaTotals replica_totals(const cluster::Router& router) {
  ReplicaTotals totals;
  for (const service::ReplicaStats& row : router.stats_snapshot().replicas) {
    totals.requests += row.requests;
    totals.retries += row.retries;
    totals.hedges += row.hedges;
    totals.failures += row.failures;
  }
  return totals;
}

struct ServiceTotals {
  std::uint64_t completed = 0, batches = 0, hits = 0;
  double latency_s = 0.0;
};

ServiceTotals service_totals(const Fleet& fleet) {
  ServiceTotals totals;
  for (const auto& replica : fleet.replicas) {
    const service::ServiceStats stats = replica->service->snapshot();
    totals.completed += stats.queries_completed;
    totals.batches += stats.batches;
    totals.hits += stats.cache_hits;
    totals.latency_s += stats.total_latency_seconds;
  }
  return totals;
}

}  // namespace

InputSpec routed_spec(bool smoke) {
  InputSpec spec;
  spec.genome_nt = smoke ? 60'000 : 300'000;
  spec.queries = smoke ? 12 : 1500;
  spec.max_query_len = 1000;
  spec.deltas = smoke ? 1 : kAppends;
  spec.delta_proteins = smoke ? 3 : 10;
  return spec;
}

Report run_routed(const Args& args) {
  const InputSpec spec = routed_spec(args.smoke);
  const Inputs inputs = make_inputs(spec, args.seed);
  References refs = load_references(args.refs_path);
  if (args.force_mismatch) refs[0][inputs.order[0]].push_back(0);
  Tracer tracer(args.trace);
  Report report;
  add_run_meta(report, args);
  report.meta["replicas"] = std::to_string(kReplicas);
  report.meta["replica_threads"] = std::to_string(kReplicaThreads);
  report.meta["shards_target"] = std::to_string(kShards);
  report.meta["loop"] = "closed, 1 connection";

  const std::string& dir = args.work_dir;
  const std::string prefix = dir + "/" + kBank;
  const index::SeedModel model =
      core::make_seed_model(node_options(1).seed_model);
  const std::size_t setup_threads =
      std::max(1u, std::thread::hardware_concurrency());

  // --- set-up, repeated; the last fleet stays up ------------------------
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Fleet> fleet;
  store::ShardManifest manifest;
  const std::size_t setups = args.smoke ? 1 : kSetups;
  for (std::size_t s = 0; s < setups; ++s) {
    fleet.reset();
    remove_store(dir, kBank);
    const double start = now_seconds();
    {
      ScopedSpan span(tracer, "store.write_sharded_store");
      manifest = store::write_sharded_store(
          prefix, inputs.subject, model,
          cap_for_shards(inputs.subject, kShards), setup_threads);
    }
    build_s.push_back(now_seconds() - start);
    fleet = start_fleet(dir);
    first_touch(*fleet, inputs.fastas[inputs.order[0]], manifest.shards.size(),
                static_cast<double>(manifest.total_residues));
    setup_s.push_back(now_seconds() - start);
  }
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.meta["shards"] = std::to_string(manifest.shards.size());
  report.meta["subject_residues"] = std::to_string(manifest.total_residues);
  const std::uint64_t bytes_on_disk = store_bytes(dir, kBank);

  // --- closed loop --------------------------------------------------------
  const std::unique_ptr<net::Client> front = connect(fleet->front->port());
  net::Client& client = *front;
  const std::size_t min_samples = args.smoke ? 1 : kMinSamples;
  std::size_t cursor = 0;
  if (!args.trace) {
    const LoopStats loop = closed_loop(client, inputs, refs, report,
                                       args.seconds, min_samples, tracer,
                                       cursor);
    report.add("qps",
               median_window_rate(loop.completions, loop.start,
                                  loop.start + loop.elapsed, kQpsWindow),
               "1/s", loop.latencies.size());
    add_latency(report, "", loop.latencies);
  } else {
    // Untraced then traced halves: their p50 difference is the tracing
    // overhead. The per-layer numbers come from the traced half.
    // No p99 here, so the halves need no minimum sample count.
    Tracer untraced(false);
    const LoopStats plain = closed_loop(client, inputs, refs, report,
                                        args.seconds / 2, 0, untraced, cursor);
    tracer.clear();
    const ReplicaTotals replicas_before = replica_totals(*fleet->router);
    const ServiceTotals service_before = service_totals(*fleet);
    const LoopStats traced = closed_loop(client, inputs, refs, report,
                                         args.seconds / 2, 0, tracer, cursor);
    const ReplicaTotals replicas_after = replica_totals(*fleet->router);
    const ServiceTotals service_after = service_totals(*fleet);
    const std::size_t n = traced.latencies.size();
    const double queries = static_cast<double>(n);
    add_self_times(report, tracer, n);
    report.add("trace.overhead_ms",
               1e3 * (median(traced.latencies) - median(plain.latencies)), "ms",
               n);
    add_zeros(report, {"gen.late_ms"});
    report.add("gen.sent", queries + static_cast<double>(traced.failed), "count");
    report.add("gen.ok", queries, "count");
    report.add("gen.failed", static_cast<double>(traced.failed), "count");
    report.add("net.overhead_ms", 1e3 * traced.overhead_s / queries, "ms", n);
    report.add("net.reply_bytes", traced.reply_bytes / queries, "bytes", n);
    report.add("cluster.legs_per_query",
               static_cast<double>(replicas_after.requests -
                                   replicas_before.requests) / queries,
               "count", n);
    report.add("cluster.retries",
               static_cast<double>(replicas_after.retries - replicas_before.retries),
               "count");
    report.add("cluster.hedges",
               static_cast<double>(replicas_after.hedges - replicas_before.hedges),
               "count");
    report.add("cluster.failures",
               static_cast<double>(replicas_after.failures -
                                   replicas_before.failures),
               "count");
    const double shard_requests =
        static_cast<double>(service_after.completed - service_before.completed);
    const double replica_latency_ms =
        1e3 * (service_after.latency_s - service_before.latency_s) /
        shard_requests;
    report.add("service.latency_ms", replica_latency_ms, "ms",
               static_cast<std::size_t>(shard_requests));
    report.add("service.batch_size",
               shard_requests / static_cast<double>(service_after.batches -
                                                    service_before.batches),
               "count");
    report.add("service.resident_ratio",
               static_cast<double>(service_after.hits - service_before.hits) /
                   static_cast<double>(service_after.batches -
                                       service_before.batches),
               "ratio");

    // --- direct per-layer calls (traced run only) ------------------------
    tracer.clear();
    report.add("net.ping_ms", ping_ms(fleet->front->port(), 200, tracer), "ms",
               200);

    // Replica legs: one persistent connection per shard, shards spread
    // over the replicas, all shards of a query in flight at once, as the
    // router sends them. Routed latency minus the slowest leg is what the
    // router itself adds (threads, a fresh connection per leg, merge).
    const std::size_t shards = manifest.shards.size();
    std::vector<std::unique_ptr<net::Client>> legs;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      legs.push_back(connect(fleet->replicas[shard % kReplicas]->port()));
    }
    service::QueryOptions pinned;
    pinned.search_space_residues = static_cast<double>(manifest.total_residues);
    std::vector<double> slowest, overhead;
    const std::size_t sample = std::min<std::size_t>(60, inputs.queries.size());
    for (std::size_t i = 0; i < sample; ++i) {
      const std::size_t q = inputs.order[i];
      const double routed_start = now_seconds();
      const service::QueryResult reply = client.search(kBank, inputs.fastas[q]);
      const double routed = now_seconds() - routed_start;
      check_reply(report, core::encode_matches(reply.matches), refs[0][q]);
      std::vector<double> leg_s(shards);
      {
        ScopedSpan fanout(tracer, "cluster.fanout", 0, i + 1);
        std::vector<std::thread> threads;
        for (std::size_t shard = 0; shard < shards; ++shard) {
          threads.emplace_back([&, shard] {
            ScopedSpan leg(tracer, "cluster.leg", fanout.id(), i + 1);
            const double start = now_seconds();
            legs[shard]->search(store::shard_prefix(kBank, shard),
                                inputs.fastas[q], pinned);
            leg_s[shard] = now_seconds() - start;
          });
        }
        for (std::thread& thread : threads) thread.join();
      }
      const double max_leg = *std::max_element(leg_s.begin(), leg_s.end());
      slowest.push_back(max_leg);
      overhead.push_back(routed - max_leg);
    }
    report.add("cluster.leg_ms", 1e3 * median(slowest), "ms", sample);
    report.add("cluster.fanout_overhead_ms", 1e3 * median(overhead), "ms",
               sample);

    // Core: the same queries, one direct pass each over the loaded set.
    service::LoadedBankSet set;
    const double load_start = now_seconds();
    {
      ScopedSpan span(tracer, "store.load_bank_set");
      set = service::load_bank_set(prefix, model, true);
    }
    report.add("store.load_ms", 1e3 * (now_seconds() - load_start), "ms");
    std::vector<bio::SequenceBank> groups;
    for (std::size_t i = 0; i < sample; ++i) {
      groups.push_back(inputs.queries[inputs.order[i]]);
    }
    const CoreTotals core =
        run_core_direct(groups, set, kReplicaThreads, tracer);
    add_core_metrics(report, core);
    // A replica request is one shard pass of one query.
    report.add("service.wait_ms",
               replica_latency_ms -
                   1e3 * core.wall_s / static_cast<double>(core.shard_passes),
               "ms");

    const double index_start = now_seconds();
    index::IndexTable table = [&] {
      ScopedSpan span(tracer, "index.build_parallel");
      return index::IndexTable::build_parallel(inputs.subject, model,
                                               setup_threads);
    }();
    report.add("index.build_ms", 1e3 * (now_seconds() - index_start), "ms");
    report.add("index.occurrences",
               static_cast<double>(table.total_occurrences()), "count");
    report.add("store.build_ms", 1e3 * median(build_s), "ms", build_s.size());
    report.add("store.bytes", static_cast<double>(bytes_on_disk), "bytes");
    report.add("store.compress_ratio", 1.0, "ratio");
  }

  // --- appends: append start -> first routed reply from the new revision
  std::vector<double> visible, append_s, refresh_s;
  for (std::size_t k = 0; k < inputs.deltas.size(); ++k) {
    const std::size_t probe = inputs.probes[k];
    const double start = now_seconds();
    {
      ScopedSpan span(tracer, "store.append_sharded_store");
      store::append_sharded_store(prefix, inputs.deltas[k], model,
                                  setup_threads);
    }
    const double appended = now_seconds();
    try {
      {
        ScopedSpan span(tracer, "net.refresh");
        client.refresh(kBank);
      }
      const double refreshed = now_seconds();
      const service::QueryResult reply = client.search(kBank, inputs.fastas[probe]);
      visible.push_back(now_seconds() - start);
      append_s.push_back(appended - start);
      refresh_s.push_back(refreshed - appended);
      check_reply(report, core::encode_matches(reply.matches), refs[k + 1][probe]);
    } catch (const std::exception&) {
      report.count(false);
    }
  }
  if (!args.trace && !visible.empty()) {
    // Mean, not median: each probe lands on a 10 ms poll step, so a
    // median of the appends flips between two steps from run to run.
    report.add("visible_ms", 1e3 * mean(visible), "ms", visible.size());
  }
  if (args.trace) {
    report.add("store.append_ms", 1e3 * median(append_s), "ms", append_s.size());
    report.add("service.refresh_ms", 1e3 * median(refresh_s), "ms",
               refresh_s.size());
    add_zeros(report, {"service.shards_reused"});
  }
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return report;
}

}  // namespace perfbench
