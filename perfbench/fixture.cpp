#include "fixture.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "align/cpu_features.hpp"
#include "bio/translate.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "service/shard_query.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "stats.hpp"
#include "store/bank_store.hpp"
#include "store/index_store.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace psc;

Inputs make_inputs(const InputSpec& spec, std::uint64_t seed) {
  util::Xoshiro256 rng(0x5eed0000ULL + seed);
  Inputs inputs;

  sim::ProteinBankConfig protein_config;
  protein_config.count = spec.queries;
  protein_config.max_length = spec.max_query_len;
  protein_config.seed = rng();
  protein_config.id_prefix = "q";
  const bio::SequenceBank proteins = sim::generate_protein_bank(protein_config);

  // Genome with mutated copies of 15% of the queries planted in it (as
  // many as fit: a planted gene takes at most 2000 nt with its spacing),
  // so step 3 finds real homologies, not only seed noise.
  sim::GenomeConfig genome_config;
  genome_config.length = spec.genome_nt;
  genome_config.seed = rng();
  bio::Sequence genome = sim::generate_genome(genome_config);
  const sim::MutationConfig divergence{.substitution_rate = 0.25,
                                       .indel_rate = 0.01,
                                       .indel_extend = 0.5,
                                       .conservation = 1.0};
  bio::SequenceBank planted(bio::SequenceKind::kProtein);
  for (const bio::Sequence& protein : proteins) {
    if (!rng.chance(0.15) || planted.size() >= spec.genome_nt / 4000) continue;
    bio::Sequence copy = sim::mutate_protein(protein, divergence, rng);
    if (copy.size() > 600) copy = copy.subsequence(0, 600);
    planted.add(std::move(copy));
  }
  sim::plant_bank(genome, planted, rng);
  inputs.subject = bio::frames_to_bank(bio::translate_six_frames(genome), 20);

  for (const bio::Sequence& protein : proteins) {
    bio::SequenceBank single(bio::SequenceKind::kProtein);
    single.add(protein);
    inputs.queries.push_back(std::move(single));
    inputs.fastas.push_back(">" + protein.id() + "\n" + protein.to_letters() +
                            "\n");
  }

  inputs.order.resize(proteins.size());
  for (std::size_t i = 0; i < inputs.order.size(); ++i) inputs.order[i] = i;
  for (std::size_t i = inputs.order.size(); i > 1; --i) {
    std::swap(inputs.order[i - 1], inputs.order[rng.bounded(i)]);
  }

  // Each appended generation holds mutated copies of a fresh slice of
  // the queries; the slice's shortest query is that generation's probe,
  // so visible_ms is dominated by the append path, not by one long pass.
  std::size_t next = 0;
  for (std::size_t k = 0; k < spec.deltas; ++k) {
    bio::SequenceBank delta(bio::SequenceKind::kProtein);
    inputs.probes.push_back(inputs.order[next % inputs.order.size()]);
    for (std::size_t i = 0; i < spec.delta_proteins; ++i) {
      const std::size_t source = inputs.order[next++ % inputs.order.size()];
      if (proteins[source].size() < proteins[inputs.probes.back()].size()) {
        inputs.probes.back() = source;
      }
      const bio::Sequence copy =
          sim::mutate_protein(proteins[source], divergence, rng);
      const std::string id = std::string("d").append(std::to_string(k))
                                  .append("_")
                                  .append(std::to_string(i));
      delta.add(bio::Sequence(id, bio::SequenceKind::kProtein, copy.residues()));
    }
    inputs.deltas.push_back(std::move(delta));
  }
  return inputs;
}

bio::SequenceBank bank_at(const Inputs& inputs, std::size_t revision) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  for (const bio::Sequence& sequence : inputs.subject) bank.add(sequence);
  for (std::size_t k = 0; k < revision; ++k) {
    for (const bio::Sequence& sequence : inputs.deltas[k]) bank.add(sequence);
  }
  return bank;
}

core::PipelineOptions node_options(std::size_t threads) {
  core::PipelineOptions options = service::default_service_options();
  options.set_threads(threads);
  return options;
}

std::unique_ptr<net::Client> connect(std::uint16_t port) {
  net::ClientConfig config;
  config.port = port;
  config.timeout_seconds = 60.0;
  return std::make_unique<net::Client>(config);
}

double build_plain_store(const std::string& prefix,
                         const bio::SequenceBank& bank,
                         const index::SeedModel& model, std::size_t threads,
                         Tracer& tracer, std::uint64_t* occurrences) {
  std::uint64_t checksum = 0;
  {
    ScopedSpan span(tracer, "store.save_bank");
    checksum = store::save_bank(prefix + ".pscbank", bank);
  }
  const double start = now_seconds();
  const index::IndexTable table = [&] {
    ScopedSpan span(tracer, "index.build_parallel");
    return index::IndexTable::build_parallel(bank, model, threads);
  }();
  const double index_s = now_seconds() - start;
  if (occurrences != nullptr) *occurrences = table.total_occurrences();
  ScopedSpan span(tracer, "store.save_index");
  store::save_index(prefix + ".pscidx", table, model, checksum);
  return index_s;
}

References compute_references(const Inputs& inputs, const InputSpec& spec,
                              const std::string& dir, std::size_t threads) {
  util::Executor executor(threads);
  service::ServiceConfig config;
  config.max_resident = kMaxResident;
  config.options = node_options(threads);
  config.options.step2_kernel = align::UngappedKernel::kScalar;
  config.options.step3_kernel = align::GappedKernel::kScalar;
  config.options.executor = &executor;
  service::SearchService node(config);
  const index::SeedModel model = core::make_seed_model(config.options.seed_model);
  Tracer untraced(false);

  References refs(inputs.deltas.size() + 1);
  for (std::size_t revision = 0; revision < refs.size(); ++revision) {
    const std::string prefix = dir + "/reference_r" + std::to_string(revision);
    build_plain_store(prefix, bank_at(inputs, revision), model, threads,
                      untraced);

    std::vector<std::size_t> wanted;
    if (revision == 0 || spec.every_query_every_revision) {
      for (std::size_t q = 0; q < inputs.queries.size(); ++q) wanted.push_back(q);
    } else {
      wanted.push_back(inputs.probes[revision - 1]);
    }
    std::vector<bio::SequenceBank> banks;
    for (const std::size_t q : wanted) banks.push_back(inputs.queries[q]);
    auto futures = node.submit_batch(std::move(banks), prefix);
    refs[revision].resize(inputs.queries.size());
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      refs[revision][wanted[i]] = core::encode_matches(futures[i].get().matches);
    }
    std::filesystem::remove(prefix + ".pscbank");
    std::filesystem::remove(prefix + ".pscidx");
  }
  return refs;
}

namespace {

void put_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

std::uint64_t get_u64(std::istream& in) {
  std::uint64_t value = 0;
  if (!in.read(reinterpret_cast<char*>(&value), sizeof value)) {
    throw std::runtime_error("reference file truncated");
  }
  return value;
}

constexpr std::uint64_t kAbsent = ~0ULL;

}  // namespace

// Layout: revisions, then per revision the entry count and per entry its
// byte length (kAbsent when not computed) followed by the bytes.
void save_references(const std::string& path, const References& refs) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  put_u64(out, refs.size());
  for (const std::vector<Bytes>& revision : refs) {
    put_u64(out, revision.size());
    for (const Bytes& reply : revision) {
      put_u64(out, reply.empty() ? kAbsent : reply.size());
      out.write(reinterpret_cast<const char*>(reply.data()),
                static_cast<std::streamsize>(reply.size()));
    }
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

References load_references(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  References refs(get_u64(in));
  for (std::vector<Bytes>& revision : refs) {
    revision.resize(get_u64(in));
    for (Bytes& reply : revision) {
      const std::uint64_t size = get_u64(in);
      if (size == kAbsent) continue;
      reply.resize(size);
      if (!in.read(reinterpret_cast<char*>(reply.data()),
                   static_cast<std::streamsize>(size))) {
        throw std::runtime_error("reference file truncated");
      }
    }
  }
  return refs;
}

Node::Node(const std::string& bank_root, std::vector<std::string> allowed,
           std::size_t threads)
    : executor(std::make_unique<util::Executor>(threads)) {
  service::ServiceConfig config;
  config.max_resident = kMaxResident;
  config.options = node_options(threads);
  config.options.executor = executor.get();
  service = std::make_unique<service::SearchService>(config);
  net::ServerConfig server_config;
  server_config.bank_root = bank_root;
  server_config.allowed_prefixes = std::move(allowed);
  server = std::make_unique<net::Server>(*service, server_config);
  server->start();
}

std::uint64_t cap_for_shards(const bio::SequenceBank& bank,
                             std::size_t target) {
  std::uint64_t total = 0;
  for (const bio::Sequence& sequence : bank) {
    total += 2 * sizeof(std::uint32_t) + sequence.id().size() + sequence.size();
  }
  return std::max<std::uint64_t>(1, total / target);
}

std::uint64_t store_bytes(const std::string& dir, const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind(prefix + ".", 0) == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

void remove_store(const std::string& dir, const std::string& prefix) {
  std::vector<std::filesystem::path> doomed;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix + ".", 0) == 0) {
      doomed.push_back(entry.path());
    }
  }
  for (const auto& path : doomed) std::filesystem::remove(path);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_latency(Report& report, const std::string& prefix,
                 const std::vector<double>& seconds) {
  if (seconds.empty()) return;
  report.add(prefix + "p50_ms", 1e3 * median(seconds), "ms", seconds.size());
  if (const auto p99 = tail_percentile(seconds, 99.0)) {
    report.add(prefix + "p99_ms", 1e3 * *p99, "ms", seconds.size());
  } else {
    report.meta[prefix + "p99_ms"] =
        "not reported: " + std::to_string(seconds.size()) + " samples, needs " +
        std::to_string(samples_needed(99.0));
  }
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

void add_run_meta(Report& report, const Args& args) {
  report.meta["workload"] = args.workload;
  report.meta["seed"] = std::to_string(args.seed);
  report.meta["seconds"] = std::to_string(args.seconds);
  report.meta["trace"] = args.trace ? "1" : "0";
  report.meta["cpu"] = cpu_model();
  report.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.meta["avx2"] = align::cpu_features().avx2 ? "yes" : "no";
  report.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  report.meta["git_sha"] = args.git_sha;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"store.build_ms", "ms"},         {"store.load_ms", "ms"},
      {"store.append_ms", "ms"},        {"store.bytes", "bytes"},
      {"store.compress_ratio", "ratio"},
      {"index.build_ms", "ms"},         {"index.occurrences", "count"},
      {"core.step1_ms", "ms"},          {"core.step2_ms", "ms"},
      {"core.step3_ms", "ms"},          {"core.step2_pairs", "count"},
      {"core.step2_cells", "count"},    {"core.step2_hits", "count"},
      {"core.step3_extensions", "count"},
      {"core.shard_passes", "count"},   {"core.step2_hit_ratio", "ratio"},
      {"core.step3_eager_waste", "ratio"},
      {"align.step2_gcups", "Gcells/s"}, {"align.step3_ext_per_s", "1/s"},
      {"service.latency_ms", "ms"},     {"service.wait_ms", "ms"},
      {"service.batch_size", "count"},  {"service.resident_ratio", "ratio"},
      {"service.refresh_ms", "ms"},     {"service.shards_reused", "count"},
      {"net.ping_ms", "ms"},            {"net.overhead_ms", "ms"},
      {"net.reply_bytes", "bytes"},
      {"cluster.leg_ms", "ms"},         {"cluster.fanout_overhead_ms", "ms"},
      {"cluster.legs_per_query", "count"},
      {"cluster.retries", "count"},     {"cluster.hedges", "count"},
      {"cluster.failures", "count"},
      {"gen.late_ms", "ms"},            {"gen.sent", "count"},
      {"gen.ok", "count"},              {"gen.failed", "count"},
      {"self.gen_ms", "ms"},            {"self.net_ms", "ms"},
      {"self.cluster_ms", "ms"},        {"self.service_ms", "ms"},
      {"self.core_ms", "ms"},           {"self.store_ms", "ms"},
      {"self.index_ms", "ms"},
      {"trace.overhead_ms", "ms"},      {"trace.spans", "count"},
  };
  return kNames;
}

void add_zeros(Report& report, std::initializer_list<const char*> prefixes) {
  for (const auto& [name, unit] : layer_metric_names()) {
    for (const char* prefix : prefixes) {
      if (name.rfind(prefix, 0) == 0) report.add(name, 0.0, unit);
    }
  }
}

void add_self_times(Report& report, const Tracer& tracer,
                    std::size_t requests) {
  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, double> self = layer_self_times(spans);
  const double per = requests > 0 ? 1e3 / static_cast<double>(requests) : 0.0;
  for (const char* layer :
       {"gen", "net", "cluster", "service", "core", "store", "index"}) {
    const auto it = self.find(layer);
    report.add(std::string("self.") + layer + "_ms",
               it == self.end() ? 0.0 : it->second * per, "ms", requests);
  }
  report.add("trace.spans", static_cast<double>(spans.size()), "count");
}

bool check_reply(Report& report, const Bytes& reply, const Bytes& reference) {
  const bool ok = reply == reference;
  report.count(ok);
  if (!ok) ++report.mismatched;
  return ok;
}

CoreTotals run_core_direct(const std::vector<bio::SequenceBank>& groups,
                           const service::LoadedBankSet& set,
                           std::size_t threads, Tracer& tracer) {
  util::Executor executor(threads);
  core::PipelineOptions options = node_options(threads);
  options.executor = &executor;
  const bio::SubstitutionMatrix matrix = bio::SubstitutionMatrix::blosum62();
  CoreTotals totals;
  for (const bio::SequenceBank& group : groups) {
    const double start = now_seconds();
    core::PipelineResult result;
    {
      ScopedSpan span(tracer, "core.run_query_over_set");
      result = service::run_query_over_set(group, set, options, matrix);
    }
    totals.wall_s += now_seconds() - start;
    totals.step2_pairs += result.counters.step2_pairs;
    totals.step2_cells += result.counters.step2_cells;
    totals.step2_hits += result.counters.step2_hits;
    totals.step3_extensions += result.counters.step3_extensions;
    totals.step3_eager += result.counters.step3_eager_extensions;
    totals.step1_s += result.times.step1_index;
    totals.step2_s += result.times.step2_ungapped;
    totals.step3_s += result.times.step3_gapped;
    ++totals.calls;
    totals.shard_passes += set.shard_count();
  }
  return totals;
}

void add_core_metrics(Report& report, const CoreTotals& core) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double calls = static_cast<double>(core.calls);
  report.add("core.step1_ms", 1e3 * ratio(core.step1_s, calls), "ms", core.calls);
  report.add("core.step2_ms", 1e3 * ratio(core.step2_s, calls), "ms", core.calls);
  report.add("core.step3_ms", 1e3 * ratio(core.step3_s, calls), "ms", core.calls);
  report.add("core.step2_pairs", static_cast<double>(core.step2_pairs), "count");
  report.add("core.step2_cells", static_cast<double>(core.step2_cells), "count");
  report.add("core.step2_hits", static_cast<double>(core.step2_hits), "count");
  report.add("core.step3_extensions",
             static_cast<double>(core.step3_extensions), "count");
  report.add("core.shard_passes", static_cast<double>(core.shard_passes), "count");
  report.add("core.step2_hit_ratio",
             ratio(static_cast<double>(core.step2_hits),
                   static_cast<double>(core.step2_pairs)), "ratio");
  report.add("core.step3_eager_waste",
             ratio(static_cast<double>(core.step3_eager - core.step3_extensions),
                   static_cast<double>(core.step3_eager)), "ratio");
  report.add("align.step2_gcups",
             ratio(static_cast<double>(core.step2_cells), core.step2_s) / 1e9,
             "Gcells/s", core.calls);
  report.add("align.step3_ext_per_s",
             ratio(static_cast<double>(core.step3_extensions), core.step3_s),
             "1/s", core.calls);
}

double ping_ms(std::uint16_t port, std::size_t count, Tracer& tracer) {
  const std::unique_ptr<net::Client> client = connect(port);
  std::vector<double> seconds;
  for (std::size_t i = 0; i < count; ++i) {
    const double start = now_seconds();
    {
      ScopedSpan span(tracer, "net.ping");
      client->ping();
    }
    seconds.push_back(now_seconds() - start);
  }
  return 1e3 * median(seconds);
}

}  // namespace perfbench
