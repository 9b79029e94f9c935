// psc::net::Server -- the network front-end over a SearchBackend
// (service/backend.hpp): a single-node SearchService or a cluster
// Router, served identically. A small poll(2) loop on one thread
// accepts loopback/TCP connections, assembles frames (net/wire.hpp),
// and forwards Search requests straight into the backend's submission
// queue; because every remote query goes through the same queue as
// in-process ones, cross-client coalescing falls out for free: two
// clients querying the same bank while a pass runs share the next pass
// (visible as batches < queries in the Stats frame).
//
// Per-connection limits guard the wire boundary: a receive payload cap,
// an in-flight request cap, and a read timeout for stalled mid-frame
// peers. Anything a client can mis-send is answered with a typed Error
// frame (or a clean close when the stream cannot be resynchronized) --
// exceptions never cross the wire boundary and never kill the loop.
//
// Responses are delivered strictly in request order per connection, so a
// client may pipeline requests and pair replies by position.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "service/backend.hpp"

namespace psc::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the result back with port().
  std::uint16_t port = 0;
  /// Search bank prefixes resolve under this directory; requests cannot
  /// escape it (absolute prefixes and ".." components are rejected).
  std::string bank_root = ".";
  /// Receive limit per frame; a client declaring more gets
  /// kPayloadTooLarge and the connection closes.
  std::uint64_t max_payload_bytes = 64ull << 20;
  /// Searches a connection may have submitted-but-unanswered; beyond it
  /// each extra Search is answered with kTooManyInFlight (connection
  /// stays usable).
  std::size_t max_in_flight = 32;
  /// How long a peer may sit mid-frame before the server answers
  /// kTimeout and closes.
  double read_timeout_seconds = 30.0;
  /// Accepted sockets beyond this are closed immediately.
  std::size_t max_connections = 64;
  /// When non-empty, only these exact bank prefixes (relative to
  /// bank_root) may be searched; anything else answers kBankNotFound.
  /// This is how `psc_serve --shards` scopes a replica to the shard
  /// subset it actually holds -- a fat-fingered router cannot make it
  /// load a shard it never advertised.
  std::vector<std::string> allowed_prefixes;
};

class Server {
 public:
  /// The backend must outlive the server.
  Server(service::SearchBackend& backend, ServerConfig config = {});
  ~Server();  ///< stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the loop thread. Throws
  /// std::system_error on socket/bind/listen failure.
  void start();

  /// Closes the listener and every connection, then joins the loop.
  /// In-flight searches keep running inside the service (its own
  /// destructor drains them); their replies are discarded. Idempotent.
  void stop();

  /// The bound port (useful with config.port == 0). Valid after start().
  std::uint16_t port() const { return port_; }

  /// Times the loop has returned from poll(2) since start(). The loop
  /// wakes only for socket readiness, a finished search (its completion
  /// hook signals the waker), an armed read deadline, or stop(); there
  /// is no timer. So this gauge stays flat while idle and grows by a
  /// handful per request, however long the search runs -- the
  /// regression handle for the historical 10 ms tick, which woke the
  /// loop 100x/s while idle or while any search was outstanding.
  std::uint64_t poll_wakeups() const { return poll_wakeups_.load(); }

  /// TCP connections accepted since start(), including any closed at
  /// once for exceeding max_connections. A regression handle like
  /// poll_wakeups(): a client that reuses its connections (the router's
  /// pooled legs) keeps this near its connection count, not its
  /// request count.
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load();
  }

  const ServerConfig& config() const { return config_; }

 private:
  struct Connection;
  class Waker;

  void loop();
  void handle_frame(Connection& connection, const Frame& frame);
  void append_frame(Connection& connection, std::vector<std::uint8_t> frame);
  bool drain_ready(Connection& connection);
  bool flush(Connection& connection);

  service::SearchBackend* backend_;
  ServerConfig config_;
  int listen_fd_ = -1;
  /// Self-pipe the loop polls beside its sockets: every deferred
  /// search's completion hook signals it, and so does stop(). Shared
  /// with those hooks, so a completion landing after stop() (abandoned
  /// service work, a router fan-out still finishing) writes into a pipe
  /// that is still open rather than a closed or recycled fd.
  std::shared_ptr<Waker> waker_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> poll_wakeups_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  bool started_ = false;
  std::thread thread_;
};

}  // namespace psc::net
