// Shared pieces of the serving benchmark: generated inputs, reference
// replies, in-process serving nodes, the run report and run metadata.
// Every workload (routed.cpp, batch.cpp, ingest.cpp) drives the
// library only through the public functions declared in its headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bio/sequence.hpp"
#include "core/options.hpp"
#include "index/seed_model.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/search_service.hpp"
#include "service/shard_query.hpp"
#include "trace.hpp"
#include "util/executor.hpp"

namespace perfbench {

using Bytes = std::vector<std::uint8_t>;

/// Command-line arguments of one driver invocation.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;           ///< tiny inputs, short phases
  bool references_only = false; ///< write the reference file and exit
  bool force_mismatch = false;  ///< corrupt one reference (gate check)
  std::string work_dir;         ///< directory for the run's stores
  std::string refs_path;        ///< reference replies file
  std::string git_sha = "unknown";
};

/// Sizes of one workload's generated inputs.
struct InputSpec {
  std::size_t genome_nt = 0;       ///< synthetic chromosome length
  std::size_t queries = 0;         ///< distinct query proteins
  std::size_t max_query_len = 2000;  ///< query length cap
  std::size_t deltas = 0;          ///< appended generations
  std::size_t delta_proteins = 0;  ///< sequences per appended generation
  /// References for every query at every revision (ingest readers can
  /// land on any revision); otherwise later revisions cover only their
  /// probe query.
  bool every_query_every_revision = false;
};

/// The generated inputs. The program under test receives only these
/// sequences (as store files or FASTA text).
struct Inputs {
  psc::bio::SequenceBank subject{psc::bio::SequenceKind::kProtein};
  std::vector<psc::bio::SequenceBank> queries;  ///< one protein each
  std::vector<std::string> fastas;              ///< the same, as FASTA
  std::vector<psc::bio::SequenceBank> deltas;   ///< appended generations
  /// probes[k]: the shortest query whose mutated copy is in deltas[k],
  /// so its reply at revision k+1 differs from every earlier revision.
  std::vector<std::size_t> probes;
  /// order: the seed-shuffled sequence in which loops cycle the queries.
  std::vector<std::size_t> order;
};

Inputs make_inputs(const InputSpec& spec, std::uint64_t seed);

/// The subject bank at `revision`: the base plus the first `revision`
/// deltas.
psc::bio::SequenceBank bank_at(const Inputs& inputs, std::size_t revision);

/// Reference replies: refs[revision][query] holds core::encode_matches
/// of the reference reply, or is empty when not computed.
using References = std::vector<std::vector<Bytes>>;

/// Computes references on one unsharded in-process node running the
/// scalar step-2 and step-3 kernels, one plain store per revision under
/// `dir`.
References compute_references(const Inputs& inputs, const InputSpec& spec,
                              const std::string& dir, std::size_t threads);
void save_references(const std::string& path, const References& refs);
References load_references(const std::string& path);

/// Options every serving node of the benchmark runs under.
psc::core::PipelineOptions node_options(std::size_t threads);

/// One in-process serving node: a SearchService whose compute runs on a
/// caller-owned executor of `threads` workers, behind a net::Server.
struct Node {
  std::unique_ptr<psc::util::Executor> executor;
  std::unique_ptr<psc::service::SearchService> service;
  std::unique_ptr<psc::net::Server> server;

  Node(const std::string& bank_root, std::vector<std::string> allowed,
       std::size_t threads);
  std::uint16_t port() const { return server->port(); }
};

/// A client connection to a loopback server on `port`.
std::unique_ptr<psc::net::Client> connect(std::uint16_t port);

/// save_bank + index build + save_index of a plain store pair under
/// `prefix`; returns the seconds spent building the index.
double build_plain_store(const std::string& prefix,
                         const psc::bio::SequenceBank& bank,
                         const psc::index::SeedModel& model,
                         std::size_t threads, Tracer& tracer,
                         std::uint64_t* occurrences = nullptr);

/// Resident shard files a node may keep; large enough that no workload
/// evicts.
inline constexpr std::size_t kMaxResident = 64;

/// A shard cap that makes plan_shards cut `bank` into ~`target` pieces.
std::uint64_t cap_for_shards(const psc::bio::SequenceBank& bank,
                             std::size_t target);

/// Bytes of the store files `<prefix>.*` under `dir`.
std::uint64_t store_bytes(const std::string& dir, const std::string& prefix);

/// Deletes the store files `<prefix>.*` under `dir` (a previous set-up's
/// shards, appended tails included).
void remove_store(const std::string& dir, const std::string& prefix);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< samples behind the value (0 = a count)
};

/// What one workload run reports.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< errored or mismatched operations
  std::uint64_t mismatched = 0;  ///< of those, byte mismatches
  std::vector<Metric> metrics;
  std::map<std::string, std::string> meta;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Counts one operation; `ok` false marks it failed.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Median and tail percentile of latency samples (seconds) into
/// `<prefix>p50_ms` and `<prefix>p99_ms`. A tail percentile that lacks
/// kMinBeyond samples beyond it fails the run: the caller must measure
/// more.
void add_latency(Report& report, const std::string& prefix,
                 const std::vector<double>& seconds);

/// Machine and build metadata shared by every workload.
void add_run_meta(Report& report, const Args& args);

/// Per-layer metrics every workload reports; a layer that is not on a
/// workload's path reports 0. The list is the traced run's contract.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

/// Reports 0 for every per-layer metric whose name starts with one of
/// `prefixes`: those layers are not on the workload's path.
void add_zeros(Report& report, std::initializer_list<const char*> prefixes);

/// Self time per layer from the traced spans, as mean ms per request
/// (`requests` root spans).
void add_self_times(Report& report, const Tracer& tracer,
                    std::size_t requests);

/// Compares a reply with the reference, counting it in `report`.
bool check_reply(Report& report, const Bytes& reply, const Bytes& reference);

/// Cycles through the query order.
inline std::size_t next_query(const Inputs& inputs, std::size_t i) {
  return inputs.order[i % inputs.order.size()];
}

/// The workloads; each returns its report.
Report run_routed(const Args& args);
Report run_batch(const Args& args);
Report run_ingest(const Args& args);

/// Input sizes of each workload (smaller in smoke mode).
InputSpec routed_spec(bool smoke);
InputSpec batch_spec(bool smoke);
InputSpec ingest_spec(bool smoke);

/// Totals of direct service::run_query_over_set calls (traced runs only).
struct CoreTotals {
  std::uint64_t step2_pairs = 0;
  std::uint64_t step2_cells = 0;
  std::uint64_t step2_hits = 0;
  std::uint64_t step3_extensions = 0;
  std::uint64_t step3_eager = 0;
  double step1_s = 0.0;
  double step2_s = 0.0;
  double step3_s = 0.0;
  double wall_s = 0.0;  ///< summed wall time of the calls
  std::size_t calls = 0;
  std::size_t shard_passes = 0;
};

/// Runs each bank of `groups` as one direct run_query_over_set call over
/// `set` on an executor of `threads` workers, each call in a
/// core.run_query_over_set span.
CoreTotals run_core_direct(const std::vector<psc::bio::SequenceBank>& groups,
                           const psc::service::LoadedBankSet& set,
                           std::size_t threads, Tracer& tracer);

/// The core.* and align.* metrics; step times are means per call.
void add_core_metrics(Report& report, const CoreTotals& core);

/// Median round trip of `count` Client::ping calls to `port`, each in a
/// net.ping span.
double ping_ms(std::uint16_t port, std::size_t count, Tracer& tracer);

}  // namespace perfbench
