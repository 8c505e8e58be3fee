// A recursive DNS resolver running on a simulated host.
//
// This is a real protocol engine, not a lookup table: it serves clients on
// UDP port 53 subject to an ACL, resolves names iteratively from root hints
// (or through forwarders), caches positively and negatively (RFC 2308/8020),
// optionally minimizes query names (RFC 7816, strict or relaxed), retries on
// timeout, falls back to TCP on truncation, and draws its UDP source ports
// from a pluggable allocator — the behaviour the paper's measurement keys on.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/cache.h"
#include "dns/message.h"
#include "net/ip.h"
#include "resolver/port_alloc.h"
#include "resolver/software.h"
#include "sim/host.h"

namespace cd::resolver {

/// Bootstrap addresses of the root DNS servers.
struct RootHints {
  std::vector<cd::net::IpAddr> servers;
};

struct ResolverConfig {
  /// Serve any client (an "open resolver"). When false, clients must match
  /// the ACL below; the resolver's own addresses and loopback are always
  /// allowed, and every other client gets REFUSED.
  bool open = false;
  std::vector<cd::net::Prefix> acl;

  QminMode qmin = QminMode::kOff;

  /// Forwarder mode: relay everything to these upstreams instead of
  /// iterating from the roots.
  std::vector<cd::net::IpAddr> forwarders;
  /// With forwarders configured, the fraction of resolutions sent through
  /// them; the remainder iterate from the roots (forward-first failover
  /// setups produce the paper's small "both direct and forwarded" class).
  double forward_ratio = 1.0;

  int max_retries = 2;  // per-server retransmissions
  cd::sim::SimTime query_timeout = 2 * cd::sim::kSecond;
  cd::dns::CacheConfig cache;
};

struct ResolverStats {
  std::uint64_t client_queries = 0;
  /// Client queries arriving over the TCP-53 service (RFC 7766 transport).
  std::uint64_t tcp_client_queries = 0;
  std::uint64_t refused = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t upstream_queries = 0;
  std::uint64_t tcp_retries = 0;
  std::uint64_t answered = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t servfail = 0;
};

class RecursiveResolver {
 public:
  using ResolveCallback = cd::sim::SmallFn<void(
      cd::dns::Rcode, const std::vector<cd::dns::DnsRr>&)>;

  /// Binds UDP port 53 on `host`. `allocator` supplies source ports for
  /// upstream queries; pass make_default_allocator(...) for Table 5
  /// behaviour. The resolver must outlive the simulation.
  RecursiveResolver(cd::sim::Host& host, ResolverConfig config,
                    RootHints hints, std::unique_ptr<PortAllocator> allocator,
                    cd::Rng rng);

  RecursiveResolver(const RecursiveResolver&) = delete;
  RecursiveResolver& operator=(const RecursiveResolver&) = delete;

  /// Resolves independently of any client (used internally for client
  /// queries; exposed for tests and for stub-resolver-style use).
  void resolve(const cd::dns::DnsName& qname, cd::dns::RrType qtype,
               ResolveCallback done);

 private:
  /// Internal entry that threads the CNAME-chain depth through restarts.
  void resolve_internal(const cd::dns::DnsName& qname, cd::dns::RrType qtype,
                        ResolveCallback done, int cname_depth);

 public:

  /// True if a datagram claiming `client` as its source would be served.
  [[nodiscard]] bool acl_allows(const cd::net::IpAddr& client) const;

  [[nodiscard]] const ResolverStats& stats() const { return stats_; }
  [[nodiscard]] cd::dns::Cache& cache() { return cache_; }
  [[nodiscard]] cd::sim::Host& host() { return host_; }
  [[nodiscard]] const ResolverConfig& config() const { return config_; }

  /// Replaces the transaction-id generator for upstream queries. Default
  /// (none installed) is a full-entropy RNG draw; the attack plane installs
  /// weak sources for legacy profiles (see weak_txid()). Install before
  /// traffic flows — in-flight queries keep the ids they were sent with.
  void set_txid_source(std::unique_ptr<TxidSource> source) {
    txid_source_ = std::move(source);
  }

 private:
  struct Task;
  using TaskPtr = std::shared_ptr<Task>;

  struct Task {
    cd::dns::DnsName qname;
    cd::dns::RrType qtype = cd::dns::RrType::kA;
    ResolveCallback done;

    bool forward_mode = false;
    std::vector<cd::net::IpAddr> servers;
    std::size_t server_idx = 0;
    int retries_left = 0;

    // QNAME minimization: what we are currently asking.
    cd::dns::DnsName current_qname;
    cd::dns::RrType current_qtype = cd::dns::RrType::kA;
    std::size_t zone_depth = 0;  // labels of the deepest known zone
    bool qmin_active = false;

    int steps = 0;
    int cname_depth = 0;
    int ns_fetch_depth = 0;
    std::vector<cd::dns::DnsRr> cname_chain;
    bool finished = false;
  };

  struct PendingQuery {
    TaskPtr task;
    cd::net::IpAddr server;
    std::uint16_t port = 0;
    std::uint16_t txid = 0;
    // The question we asked, held so a response is only accepted when it
    // echoes it back (RFC 5452 §4.4 — the question-section check an off-path
    // injector must also guess).
    cd::dns::DnsName qname;
    cd::dns::RrType qtype = cd::dns::RrType::kA;
    cd::sim::EventId timeout_event = 0;
  };

  // --- plumbing ---
  void dispatch_udp(const cd::net::Packet& packet);
  void handle_client_query(const cd::net::Packet& packet,
                           const cd::dns::DnsMessage& query);
  /// TCP-53 client service (RFC 7766): one framed query in, one framed
  /// response out via `reply` — synchronously for ACL denials, after the
  /// (possibly multi-exchange) resolution otherwise. Serves one-shot and
  /// persistent-session connections alike.
  void handle_tcp_client(const cd::sim::TcpConnInfo& info,
                         std::span<const std::uint8_t> framed,
                         cd::sim::Host::TcpSessionReply reply);
  void handle_upstream_response(const cd::net::Packet& packet,
                                const cd::dns::DnsMessage& response);
  void bind_port(std::uint16_t port);
  void unbind_port(std::uint16_t port);

  // --- resolution engine ---
  /// Seeds task->servers/zone_depth from the deepest cached delegation on
  /// the path to the query name (falls back to the root hints).
  void seed_servers_from_cache(const TaskPtr& task);
  void advance_qmin(const TaskPtr& task);
  void send_current_query(const TaskPtr& task);
  void on_timeout(std::uint64_t pending_key);
  void next_server(const TaskPtr& task);
  void process_response(const TaskPtr& task, const cd::dns::DnsMessage& msg,
                        const cd::net::IpAddr& server, bool was_tcp);
  void handle_delegation(const TaskPtr& task, const cd::dns::DnsMessage& msg);
  void handle_answer(const TaskPtr& task, const cd::dns::DnsMessage& msg);
  void retry_over_tcp(const TaskPtr& task, const cd::net::IpAddr& server);
  void finish(const TaskPtr& task, cd::dns::Rcode rcode,
              std::vector<cd::dns::DnsRr> records);
  [[nodiscard]] std::optional<cd::net::IpAddr> pick_server(TaskPtr task);
  [[nodiscard]] std::uint32_t negative_ttl(
      const cd::dns::DnsMessage& msg) const;

  cd::sim::Host& host_;
  ResolverConfig config_;
  RootHints hints_;
  std::unique_ptr<PortAllocator> allocator_;
  std::unique_ptr<TxidSource> txid_source_;
  cd::Rng rng_;
  cd::dns::Cache cache_;
  ResolverStats stats_;

  std::unordered_map<std::uint64_t, PendingQuery> pending_;
  std::map<std::uint16_t, int> bound_ports_;
};

}  // namespace cd::resolver
