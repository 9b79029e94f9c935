// psc_router: the cluster coordinator as a process. Owns the .pscman
// manifest, fans each Search across shard-holding psc_serve replicas,
// and serves the byte-identical merged result over the same wire
// protocol -- psc_client cannot tell it from a single psc_serve.
//
//   $ ./psc_index --input=bank.fa --kind=protein --out=store/bank
//         --shard-max-bytes=...            (one command line)
//   $ ./psc_serve --bank-root=store --shards=bank:0,1 --port=7001 &
//   $ ./psc_serve --bank-root=store --shards=bank:1,2 --port=7002 &
//   $ ./psc_router --manifest=store/bank --bank=bank --port=7878
//         --replicas="127.0.0.1:7001=0,1;127.0.0.1:7002=1,2"
//   $ ./psc_client --port=7878 --bank=bank --query=queries.fa
//
// Runs until SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "cluster/router.hpp"
#include "net/server.hpp"
#include "util/args.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace psc;

  util::ArgParser args("psc_router",
                       "fan searches across a psc_serve cluster with a "
                       "byte-identical merge");
  args.add_option("manifest", "",
                  "local path prefix of the sharded store; "
                  "<manifest>.pscman must exist (required)");
  args.add_option("bank", "",
                  "bank name on the wire: what clients query and what "
                  "shard prefixes derive from on replica requests "
                  "(required)");
  args.add_option("replicas", "",
                  "replica list 'host:port=0,1;host:port=1,2' mapping "
                  "each endpoint to the manifest shard indices it serves; "
                  "'host:port=all' claims every shard including ones "
                  "appended later by live ingest (required)");
  args.add_option("bind", "127.0.0.1", "listen address");
  args.add_option("port", "0", "listen port (0 = ephemeral; see --port-file)");
  args.add_option("port-file", "",
                  "write the bound port to this file once listening");
  args.add_option("max-attempts", "3", "attempt rounds per shard");
  args.add_option("retry-backoff", "0.05",
                  "seconds before the first retry (doubles per round)");
  args.add_option("hedge-delay", "0.25",
                  "seconds before a straggling attempt is hedged to "
                  "another replica (0 disables)");
  args.add_option("request-timeout", "30",
                  "per-attempt socket timeout in seconds");
  args.add_option("health-interval", "2",
                  "seconds between replica health probe rounds");
  args.add_option("health-timeout", "2", "per-probe timeout in seconds");
  args.add_option("tenant-config", "",
                  "per-tenant policy file ('tenant <name> weight=2 qps=10 "
                  "in-flight=8 hedges-per-sec=1' per line; name 'default' "
                  "sets the policy for unlisted tenants)");
  args.add_option("default-qps", "0",
                  "queries/sec quota for tenants without an explicit "
                  "policy row (0 = unlimited); overrides the file's "
                  "default qps when both are given");
  args.add_option("max-active", "0",
                  "cluster-wide fan-outs in flight at once; beyond it a "
                  "submit fails fast with admission-rejected (0 = "
                  "unlimited)");
  args.add_option("max-payload-mb", "64", "per-frame receive limit (MiB)");
  args.add_option("max-in-flight", "32",
                  "searches one connection may have unanswered");
  args.add_option("read-timeout", "30",
                  "seconds a peer may stall mid-frame before kTimeout");
  args.add_option("max-connections", "64", "concurrent connections accepted");
  if (!args.parse(argc, argv)) return 1;

  if (args.get("manifest").empty() || args.get("bank").empty() ||
      args.get("replicas").empty()) {
    std::fprintf(stderr,
                 "psc_router: --manifest, --bank and --replicas are "
                 "required\n%s",
                 args.usage().c_str());
    return 1;
  }

  cluster::RouterConfig router_config;
  router_config.manifest_prefix = args.get("manifest");
  router_config.bank_prefix = args.get("bank");
  const std::int64_t max_attempts = args.get_int("max-attempts");
  if (max_attempts <= 0) {
    std::fprintf(stderr, "psc_router: --max-attempts must be positive\n");
    return 1;
  }
  router_config.max_attempts = static_cast<std::size_t>(max_attempts);
  router_config.retry_backoff_seconds = args.get_double("retry-backoff");
  router_config.hedge_delay_seconds = args.get_double("hedge-delay");
  router_config.request_timeout_seconds = args.get_double("request-timeout");
  router_config.health.interval_seconds = args.get_double("health-interval");
  router_config.health.timeout_seconds = args.get_double("health-timeout");
  if (!args.get("tenant-config").empty()) {
    try {
      router_config.tenants =
          service::load_tenant_config(args.get("tenant-config"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "psc_router: %s\n", e.what());
      return 1;
    }
  }
  {
    const double default_qps = args.get_double("default-qps");
    const std::int64_t max_active = args.get_int("max-active");
    if (default_qps < 0.0 || max_active < 0) {
      std::fprintf(stderr,
                   "psc_router: --default-qps and --max-active must be "
                   ">= 0\n");
      return 1;
    }
    if (default_qps > 0.0) {
      router_config.tenants.default_policy.max_qps = default_qps;
    }
    router_config.max_active_fanouts = static_cast<std::size_t>(max_active);
  }

  net::ServerConfig server_config;
  server_config.bind_address = args.get("bind");
  // The router serves exactly one bank name under the default bank
  // root "."; the poll loop rejects everything else with kBankNotFound
  // before the fan-out starts.
  server_config.allowed_prefixes = {router_config.bank_prefix};
  const std::int64_t port = args.get_int("port");
  const std::int64_t payload_mb = args.get_int("max-payload-mb");
  const std::int64_t in_flight = args.get_int("max-in-flight");
  const std::int64_t connections = args.get_int("max-connections");
  const double read_timeout = args.get_double("read-timeout");
  if (port < 0 || port > 65535 || payload_mb <= 0 || in_flight <= 0 ||
      connections <= 0 || read_timeout <= 0.0) {
    std::fprintf(stderr,
                 "psc_router: --port must be 0..65535 and the limit options "
                 "positive\n");
    return 1;
  }
  server_config.port = static_cast<std::uint16_t>(port);
  server_config.max_payload_bytes =
      static_cast<std::uint64_t>(payload_mb) << 20;
  server_config.max_in_flight = static_cast<std::size_t>(in_flight);
  server_config.max_connections = static_cast<std::size_t>(connections);
  server_config.read_timeout_seconds = read_timeout;

  try {
    router_config.replicas = cluster::parse_replica_list(args.get("replicas"));
    cluster::Router router(router_config);
    net::Server server(router, server_config);
    server.start();
    std::fprintf(
        stderr,
        "# psc_router listening on %s:%u (bank %s, %zu shard(s), %zu "
        "replica(s))\n",
        server_config.bind_address.c_str(), server.port(),
        router_config.bank_prefix.c_str(), router.manifest().shards.size(),
        router_config.replicas.size());
    if (!args.get("port-file").empty()) {
      std::ofstream out(args.get("port-file"));
      out << server.port() << "\n";
      if (!out) {
        std::fprintf(stderr, "psc_router: cannot write %s\n",
                     args.get("port-file").c_str());
        return 1;
      }
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::fprintf(stderr, "# psc_router: shutting down\n");
    server.stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psc_router: %s\n", e.what());
    return 1;
  }
}
