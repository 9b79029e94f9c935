// `ingest`: writes beside reads on one node. Readers send single-protein
// queries in an open loop at a fixed rate over a few connections to one
// net::Server + SearchService serving an LZSS-compressed sharded store;
// one writer thread appends a generation with store::append_sharded_store
// and adopts it with Client::refresh on a fixed schedule. Compressed
// residency and tail-shard adoption run only here, and the open loop
// shows the queueing a closed loop hides. Read latency is timed from
// when each request was due. The offered rate is an input, so the
// throughput metric comes from a closed-loop phase after the open loop.
#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "core/result_codec.hpp"
#include "fixture.hpp"
#include "index/index_table.hpp"
#include "service/shard_query.hpp"
#include "stats.hpp"
#include "store/shard_store.hpp"

namespace perfbench {

using namespace psc;

namespace {

constexpr const char* kBank = "ingest";
constexpr std::size_t kShards = 2;
constexpr std::size_t kThreads = 1;   ///< the node's compute pool
constexpr std::size_t kReaders = 4;   ///< reader connections
constexpr double kRate = 50.0;         ///< offered reads per second
constexpr std::size_t kSetups = 5;
/// Share of the run spent in the open loop; the rest measures capacity.
constexpr double kOpenShare = 0.85;

/// One open-loop read, checked after the phase.
struct Read {
  std::size_t query = 0;
  double due = 0.0, sent = 0.0, done = 0.0;
  double server_s = 0.0;
  bool ok = false;  ///< a reply arrived
  Bytes bytes;
  std::size_t batch_size = 0;
  bool resident = false;
};

struct PhaseStats {
  std::vector<double> latencies;  ///< from due time
  std::vector<double> late;       ///< send time minus due time
  std::vector<double> visible, append_s, refresh_s;
  double overhead_s = 0.0, reply_bytes = 0.0, server_s = 0.0;
  double batch_size = 0.0;
  std::size_t resident = 0, sent = 0, failed = 0;
};

/// Open loop of `total` reads at `rate`, appending deltas [first, last)
/// on a fixed schedule; revision `first` is being served when it starts.
PhaseStats open_loop(std::uint16_t port, const std::string& prefix,
                     const index::SeedModel& model, const Inputs& inputs,
                     const References& refs, Report& report, std::size_t total,
                     std::size_t first, std::size_t last, double rate,
                     Tracer& tracer) {
  const double seconds = static_cast<double>(total) / rate;
  std::vector<Read> reads(total);
  // started[r] / acked[r]: when the refresh adopting revision r began and
  // returned. A read may be served from any revision between the one
  // acknowledged before it was sent and the newest one whose refresh
  // began before its reply arrived.
  const std::size_t base = first;
  std::vector<double> started(last + 1, 1e300), acked(last + 1, 1e300);
  started[base] = acked[base] = 0.0;
  std::mutex revisions_mutex;

  PhaseStats stats;
  const double origin = now_seconds() + 0.05;
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      const std::unique_ptr<net::Client> client = connect(port);
      for (std::size_t i = c; i < total; i += kReaders) {
        Read& read = reads[i];
        read.query = next_query(inputs, i);
        read.due = origin + static_cast<double>(i) / rate;
        while (now_seconds() < read.due) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<long>(1e6 * (read.due - now_seconds())) + 1));
        }
        ScopedSpan request(tracer, "gen.request", 0, i + 1);
        read.sent = now_seconds();
        try {
          ScopedSpan search(tracer, "net.search", request.id(), i + 1);
          const service::QueryResult reply =
              client->search(kBank, inputs.fastas[read.query]);
          read.done = now_seconds();
          read.bytes = core::encode_matches(reply.matches);
          read.server_s = reply.latency_seconds;
          read.batch_size = reply.batch_size;
          read.resident = reply.bank_was_resident;
          read.ok = true;
        } catch (const std::exception&) {
          read.done = now_seconds();
        }
      }
    });
  }

  // The writer: one append + refresh + probe read per delta, evenly
  // spaced through the phase.
  std::thread writer([&] {
    const std::unique_ptr<net::Client> client = connect(port);
    const double period = seconds / static_cast<double>(last - first + 1);
    for (std::size_t k = first; k < last; ++k) {
      const double at = origin + period * static_cast<double>(k - first + 1);
      while (now_seconds() < at) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ScopedSpan root(tracer, "gen.write", 0, 0);
      const double start = now_seconds();
      try {
        {
          ScopedSpan span(tracer, "store.append_sharded_store", root.id());
          store::append_sharded_store(prefix, inputs.deltas[k], model, 1,
                                      false, true);
        }
        const double appended = now_seconds();
        {
          std::lock_guard<std::mutex> lock(revisions_mutex);
          started[k + 1] = appended;
        }
        {
          ScopedSpan span(tracer, "net.refresh", root.id());
          client->refresh(kBank);
        }
        const double refreshed = now_seconds();
        {
          std::lock_guard<std::mutex> lock(revisions_mutex);
          acked[k + 1] = refreshed;
        }
        const std::size_t probe = inputs.probes[k];
        service::QueryResult reply;
        {
          ScopedSpan span(tracer, "net.search", root.id());
          reply = client->search(kBank, inputs.fastas[probe]);
        }
        const double done = now_seconds();
        std::lock_guard<std::mutex> lock(revisions_mutex);
        stats.visible.push_back(done - start);
        stats.append_s.push_back(appended - start);
        stats.refresh_s.push_back(refreshed - appended);
        check_reply(report, core::encode_matches(reply.matches),
                    refs[k + 1][probe]);
      } catch (const std::exception&) {
        std::lock_guard<std::mutex> lock(revisions_mutex);
        report.count(false);
      }
    }
  });
  for (std::thread& reader : readers) reader.join();
  writer.join();

  for (const Read& read : reads) {
    ++stats.sent;
    stats.late.push_back(read.sent - read.due);
    if (!read.ok) {
      report.count(false);
      ++stats.failed;
      continue;
    }
    std::size_t lo = base, hi = base;
    for (std::size_t r = base; r <= last; ++r) {
      if (acked[r] <= read.sent) lo = r;
      if (started[r] <= read.done) hi = r;
    }
    bool matched = false;
    for (std::size_t r = lo; r <= hi && !matched; ++r) {
      matched = read.bytes == refs[r][read.query];
    }
    check_reply(report, read.bytes,
                matched ? read.bytes : refs[lo][read.query]);
    stats.latencies.push_back(read.done - read.due);
    stats.overhead_s += (read.done - read.sent) - read.server_s;
    stats.server_s += read.server_s;
    stats.reply_bytes += static_cast<double>(read.bytes.size());
    stats.batch_size += static_cast<double>(read.batch_size);
    if (read.resident) ++stats.resident;
  }
  return stats;
}

/// Closed loop over one connection at `revision`: queries/second. More
/// connections make the rate bimodal: their replies bunch on the
/// server's completion poll and the clients fall into lock-step or not.
double closed_loop_qps(std::uint16_t port, const Inputs& inputs,
                       const References& refs, std::size_t revision,
                       Report& report, double seconds) {
  std::vector<double> completions;
  const double start = now_seconds();
  const std::unique_ptr<net::Client> client = connect(port);
  for (std::size_t i = 0; now_seconds() < start + seconds; ++i) {
    const std::size_t q = next_query(inputs, i);
    try {
      const Bytes bytes =
          core::encode_matches(client->search(kBank, inputs.fastas[q]).matches);
      check_reply(report, bytes, refs[revision][q]);
      completions.push_back(now_seconds());
    } catch (const std::exception&) {
      report.count(false);
    }
  }
  return median_window_rate(completions, start, start + seconds, 1.0);
}

}  // namespace

InputSpec ingest_spec(bool smoke) {
  InputSpec spec;
  spec.genome_nt = 170'000;
  spec.queries = smoke ? 12 : 1500;
  spec.deltas = 4;
  spec.delta_proteins = smoke ? 3 : 10;
  spec.every_query_every_revision = true;
  return spec;
}

Report run_ingest(const Args& args) {
  const InputSpec spec = ingest_spec(args.smoke);
  const Inputs inputs = make_inputs(spec, args.seed);
  References refs = load_references(args.refs_path);
  if (args.force_mismatch) {
    for (std::vector<Bytes>& revision : refs) {
      revision[inputs.order[0]].push_back(0);
    }
  }
  Tracer tracer(args.trace);
  Report report;
  add_run_meta(report, args);
  const double rate = args.smoke ? 20.0 : kRate;
  report.meta["node_threads"] = std::to_string(kThreads);
  report.meta["reader_connections"] = std::to_string(kReaders);
  report.meta["offered_rate"] = std::to_string(rate);
  report.meta["loop"] = "open at offered_rate, then closed for qps";

  const std::string& dir = args.work_dir;
  const std::string prefix = dir + "/" + kBank;
  const index::SeedModel model =
      core::make_seed_model(node_options(1).seed_model);
  const std::size_t setup_threads =
      std::max(1u, std::thread::hardware_concurrency());

  // --- set-up, repeated; the last node stays up -------------------------
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Node> node;
  const std::size_t setups = args.smoke ? 1 : kSetups;
  for (std::size_t s = 0; s < setups; ++s) {
    node.reset();
    remove_store(dir, kBank);
    const double start = now_seconds();
    {
      ScopedSpan span(tracer, "store.write_sharded_store");
      store::write_sharded_store(prefix, inputs.subject, model,
                                 cap_for_shards(inputs.subject, kShards),
                                 setup_threads, false, true);
    }
    build_s.push_back(now_seconds() - start);
    node = std::make_unique<Node>(dir, std::vector<std::string>{kBank}, kThreads);
    connect(node->port())->search(kBank, inputs.fastas[inputs.order[0]]);
    setup_s.push_back(now_seconds() - start);
  }
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  const std::uint64_t bytes_on_disk = store_bytes(dir, kBank);
  const std::uint16_t port = node->port();

  // Enough reads for a p99 even when the run is short.
  const std::size_t reads = std::max(
      static_cast<std::size_t>(args.seconds * kOpenShare * rate),
      args.smoke ? std::size_t{1} : samples_needed(99.0));
  const double closed_s = args.seconds * (1.0 - kOpenShare);
  const std::size_t deltas = inputs.deltas.size();
  if (!args.trace) {
    const PhaseStats open = open_loop(port, prefix, model, inputs, refs, report,
                                      reads, 0, deltas, rate, tracer);
    add_latency(report, "", open.latencies);
    if (!open.visible.empty()) {
      report.add("visible_ms", 1e3 * mean(open.visible), "ms",
                 open.visible.size());
    }
    report.add("qps",
               closed_loop_qps(port, inputs, refs, deltas, report, closed_s),
               "1/s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  // Traced run: an untraced and a traced open-loop half, each appending
  // half of the deltas; their p50 difference is the tracing overhead.
  Tracer untraced(false);
  const PhaseStats plain = open_loop(port, prefix, model, inputs, refs, report,
                                     reads / 2, 0, deltas / 2, rate, untraced);
  tracer.clear();
  const service::ServiceStats before = node->service->snapshot();
  const PhaseStats traced = open_loop(port, prefix, model, inputs, refs, report,
                                      reads / 2, deltas / 2, deltas, rate,
                                      tracer);
  const service::ServiceStats after = node->service->snapshot();
  const std::size_t n = traced.latencies.size();
  const double replies = static_cast<double>(n);
  add_self_times(report, tracer, n);
  report.add("trace.overhead_ms",
             1e3 * (median(traced.latencies) - median(plain.latencies)), "ms", n);
  report.add("gen.late_ms", 1e3 * tail_percentile(traced.late, 99.0).value_or(
                                      *std::max_element(traced.late.begin(),
                                                        traced.late.end())),
             "ms", traced.late.size());
  report.add("gen.sent", static_cast<double>(traced.sent), "count");
  report.add("gen.ok", replies, "count");
  report.add("gen.failed", static_cast<double>(traced.failed), "count");
  const double latency_ms = 1e3 * traced.server_s / replies;
  report.add("service.latency_ms", latency_ms, "ms", n);
  report.add("service.batch_size", traced.batch_size / replies, "count", n);
  report.add("service.resident_ratio",
             static_cast<double>(traced.resident) / replies, "ratio", n);
  std::vector<double> refresh_s = plain.refresh_s, append_s = plain.append_s;
  refresh_s.insert(refresh_s.end(), traced.refresh_s.begin(),
                   traced.refresh_s.end());
  append_s.insert(append_s.end(), traced.append_s.begin(), traced.append_s.end());
  report.add("service.refresh_ms", 1e3 * median(refresh_s), "ms",
             refresh_s.size());
  report.add("store.append_ms", 1e3 * median(append_s), "ms", append_s.size());
  report.add("service.shards_reused",
             static_cast<double>(after.refresh_shards_reused -
                                 before.refresh_shards_reused) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, after.manifest_refreshes - before.manifest_refreshes)),
             "count");
  report.add("net.overhead_ms", 1e3 * traced.overhead_s / replies, "ms", n);
  report.add("net.reply_bytes", traced.reply_bytes / replies, "bytes", n);
  add_zeros(report, {"cluster."});

  // --- direct per-layer calls (traced run only) --------------------------
  tracer.clear();
  report.add("net.ping_ms", ping_ms(port, 200, tracer), "ms", 200);
  service::LoadedBankSet set;
  const double load_start = now_seconds();
  {
    ScopedSpan span(tracer, "store.load_bank_set");
    set = service::load_bank_set(prefix, model, true);
  }
  report.add("store.load_ms", 1e3 * (now_seconds() - load_start), "ms");
  std::vector<bio::SequenceBank> groups;
  const std::size_t sample = std::min<std::size_t>(60, inputs.queries.size());
  for (std::size_t i = 0; i < sample; ++i) {
    groups.push_back(inputs.queries[inputs.order[i]]);
  }
  const CoreTotals core = run_core_direct(groups, set, kThreads, tracer);
  add_core_metrics(report, core);
  report.add("service.wait_ms",
             latency_ms - 1e3 * core.wall_s / static_cast<double>(core.calls),
             "ms");
  const double index_start = now_seconds();
  index::IndexTable table = [&] {
    ScopedSpan span(tracer, "index.build_parallel");
    return index::IndexTable::build_parallel(inputs.subject, model,
                                             setup_threads);
  }();
  report.add("index.build_ms", 1e3 * (now_seconds() - index_start), "ms");
  report.add("index.occurrences", static_cast<double>(table.total_occurrences()),
             "count");
  report.add("store.build_ms", 1e3 * median(build_s), "ms", build_s.size());
  report.add("store.bytes", static_cast<double>(bytes_on_disk), "bytes");
  const std::string raw = "ingest_raw";
  store::write_sharded_store(dir + "/" + raw, inputs.subject, model,
                             cap_for_shards(inputs.subject, kShards),
                             setup_threads);
  report.add("store.compress_ratio",
             static_cast<double>(store_bytes(dir, raw)) /
                 static_cast<double>(bytes_on_disk),
             "ratio");
  return report;
}

}  // namespace perfbench
