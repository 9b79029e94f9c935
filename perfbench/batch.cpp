// `batch`: the paper's bank-versus-bank use. The whole query bank goes
// into one SearchService::submit_batch against an unsharded plain store
// of a larger genome, so the scheduler coalesces it into shared passes.
// Step 2 dominates the pass time; no net, cluster or shard code is on
// the path, so routing and sharding changes should not move it.
#include <algorithm>
#include <future>
#include <memory>
#include <thread>

#include "core/result_codec.hpp"
#include "fixture.hpp"
#include "service/shard_query.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace psc;

namespace {

constexpr const char* kBank = "batch";
constexpr std::size_t kThreads = 2;
constexpr std::size_t kSetups = 5;

/// The node: a SearchService on a caller-owned executor (no network).
struct BatchNode {
  util::Executor executor{kThreads};
  std::unique_ptr<service::SearchService> service;

  BatchNode() {
    service::ServiceConfig config;
    config.max_resident = kMaxResident;
    config.options = node_options(kThreads);
    config.options.executor = &executor;
    service = std::make_unique<service::SearchService>(config);
  }
};

struct LoopStats {
  std::vector<double> latencies;  ///< server-side, per query
  std::vector<double> batch_rates;  ///< queries per second of each batch
  double elapsed = 0.0;
  std::size_t batches = 0;
  double batch_size = 0.0;        ///< summed QueryResult::batch_size
  std::size_t resident = 0;       ///< replies with bank_was_resident
  std::size_t failed = 0;
};

/// Whole-bank batches, back to back, for `seconds` and until
/// `min_samples` replies.
LoopStats batch_loop(service::SearchService& service, const std::string& prefix,
                     const Inputs& inputs, const References& refs,
                     Report& report, double seconds, std::size_t min_samples,
                     Tracer& tracer) {
  LoopStats stats;
  const double start = now_seconds();
  while (now_seconds() < start + seconds || stats.latencies.size() < min_samples) {
    const double batch_start = now_seconds();
    ScopedSpan root(tracer, "gen.batch", 0, stats.batches + 1);
    ScopedSpan span(tracer, "service.submit_batch", root.id(), stats.batches + 1);
    auto futures = service.submit_batch(
        std::vector<bio::SequenceBank>(inputs.queries), prefix);
    for (std::size_t q = 0; q < futures.size(); ++q) {
      try {
        const service::QueryResult reply = futures[q].get();
        check_reply(report, core::encode_matches(reply.matches), refs[0][q]);
        stats.latencies.push_back(reply.latency_seconds);
        stats.batch_size += static_cast<double>(reply.batch_size);
        if (reply.bank_was_resident) ++stats.resident;
      } catch (const std::exception&) {
        report.count(false);
        ++stats.failed;
      }
    }
    ++stats.batches;
    stats.batch_rates.push_back(static_cast<double>(futures.size()) /
                                (now_seconds() - batch_start));
    if (stats.failed > 10) break;
  }
  stats.elapsed = now_seconds() - start;
  return stats;
}

}  // namespace

InputSpec batch_spec(bool smoke) {
  InputSpec spec;
  spec.genome_nt = smoke ? 60'000 : 3'000'000;
  spec.queries = smoke ? 12 : 1200;
  spec.max_query_len = 1000;
  spec.deltas = smoke ? 1 : 8;
  spec.delta_proteins = smoke ? 3 : 20;
  return spec;
}

Report run_batch(const Args& args) {
  const InputSpec spec = batch_spec(args.smoke);
  const Inputs inputs = make_inputs(spec, args.seed);
  References refs = load_references(args.refs_path);
  if (args.force_mismatch) refs[0][inputs.order[0]].push_back(0);
  Tracer tracer(args.trace);
  Report report;
  add_run_meta(report, args);
  report.meta["service_threads"] = std::to_string(kThreads);
  report.meta["loop"] = "closed, whole bank per submit_batch";

  const std::string& dir = args.work_dir;
  const std::string prefix = dir + "/" + kBank;
  const index::SeedModel model =
      core::make_seed_model(node_options(1).seed_model);
  const std::size_t setup_threads =
      std::max(1u, std::thread::hardware_concurrency());

  // --- set-up: once here, repeated after the peak memory is read --------
  std::vector<double> setup_s, build_s, index_s;
  std::unique_ptr<BatchNode> node;
  std::uint64_t occurrences = 0;
  const std::size_t setups = args.smoke ? 1 : kSetups;
  const auto set_up = [&] {
    node.reset();
    const double start = now_seconds();
    index_s.push_back(build_plain_store(prefix, inputs.subject, model,
                                        setup_threads, tracer, &occurrences));
    build_s.push_back(now_seconds() - start);
    node = std::make_unique<BatchNode>();
    node->service->submit(inputs.queries[inputs.order[0]], prefix).get();
    setup_s.push_back(now_seconds() - start);
  };
  set_up();
  report.meta["subject_residues"] = std::to_string(inputs.subject.total_residues());
  const std::uint64_t bytes_on_disk = store_bytes(dir, kBank);

  // --- whole-bank batches -------------------------------------------------
  const std::size_t min_samples = args.smoke ? 1 : samples_needed(99.0);
  if (!args.trace) {
    const LoopStats loop = batch_loop(*node->service, prefix, inputs, refs,
                                      report, args.seconds, min_samples, tracer);
    report.add("qps", median(loop.batch_rates), "1/s", loop.batch_rates.size());
    add_latency(report, "", loop.latencies);
  } else {
    Tracer untraced(false);
    const LoopStats plain = batch_loop(*node->service, prefix, inputs, refs,
                                       report, args.seconds / 2, 0, untraced);
    tracer.clear();
    const LoopStats traced = batch_loop(*node->service, prefix, inputs, refs,
                                        report, args.seconds / 2, 0, tracer);
    const std::size_t n = traced.latencies.size();
    const double queries = static_cast<double>(n);
    add_self_times(report, tracer, n);
    report.add("trace.overhead_ms",
               1e3 * (median(traced.latencies) - median(plain.latencies)), "ms",
               n);
    report.add("gen.sent", queries + static_cast<double>(traced.failed), "count");
    report.add("gen.ok", queries, "count");
    report.add("gen.failed", static_cast<double>(traced.failed), "count");
    const double latency_ms = 1e3 * mean(traced.latencies);
    report.add("service.latency_ms", latency_ms, "ms", n);
    report.add("service.batch_size", traced.batch_size / queries, "count", n);
    report.add("service.resident_ratio",
               static_cast<double>(traced.resident) / queries, "ratio", n);
    add_zeros(report, {"net.", "cluster.", "gen.late_ms"});

    // Core: the bank in the service's own pass size, one direct call each.
    tracer.clear();
    service::LoadedBankSet set;
    const double load_start = now_seconds();
    {
      ScopedSpan span(tracer, "store.load_bank_set");
      set = service::load_bank_set(prefix, model, true);
    }
    report.add("store.load_ms", 1e3 * (now_seconds() - load_start), "ms");
    const std::size_t pass = node->service->config().max_drain_per_round;
    std::vector<bio::SequenceBank> groups;
    for (std::size_t q = 0; q < inputs.queries.size(); ++q) {
      if (q % pass == 0) groups.emplace_back(bio::SequenceKind::kProtein);
      groups.back().add(inputs.queries[q][0]);
    }
    const CoreTotals core = run_core_direct(groups, set, kThreads, tracer);
    add_core_metrics(report, core);
    report.add("service.wait_ms",
               latency_ms - 1e3 * core.wall_s / static_cast<double>(core.calls),
               "ms");
    report.add("store.bytes", static_cast<double>(bytes_on_disk), "bytes");
    report.add("store.compress_ratio", 1.0, "ratio");
  }

  // Peak memory of one set-up and the whole-bank batches. The repeated
  // set-ups and the rebuilds come after it: each torn-down node leaves
  // heap the allocator keeps (by a varying amount), and every rebuilt
  // generation stays resident beside the first.
  const double rss_mb = peak_rss_mb();
  for (std::size_t s = 1; s < setups; ++s) set_up();
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  if (args.trace) {
    report.add("index.build_ms", 1e3 * median(index_s), "ms", index_s.size());
    report.add("index.occurrences", static_cast<double>(occurrences), "count");
    report.add("store.build_ms", 1e3 * median(build_s), "ms", build_s.size());
  }

  // --- new sequences: a plain store has no append, so the bank is
  // rebuilt under the next generation's prefix; visible = rebuild start ->
  // the probe's reply from the new store.
  std::vector<double> visible, rebuild_s;
  for (std::size_t k = 0; k < inputs.deltas.size(); ++k) {
    const std::size_t probe = inputs.probes[k];
    const std::string next = prefix + "_g" + std::to_string(k + 1);
    const double start = now_seconds();
    build_plain_store(next, bank_at(inputs, k + 1), model, setup_threads,
                      tracer);
    const double built = now_seconds();
    try {
      const service::QueryResult reply =
          node->service->submit(inputs.queries[probe], next).get();
      visible.push_back(now_seconds() - start);
      rebuild_s.push_back(built - start);
      check_reply(report, core::encode_matches(reply.matches), refs[k + 1][probe]);
    } catch (const std::exception&) {
      report.count(false);
    }
  }
  if (!args.trace && !visible.empty()) {
    report.add("visible_ms", 1e3 * mean(visible), "ms", visible.size());
  }
  if (args.trace) {
    report.add("store.append_ms", 1e3 * median(rebuild_s), "ms", rebuild_s.size());
    add_zeros(report, {"service.refresh_ms", "service.shards_reused"});
  }
  report.add("peak_rss_mb", rss_mb, "MiB");
  return report;
}

}  // namespace perfbench
