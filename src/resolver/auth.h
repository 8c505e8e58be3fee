// Authoritative DNS server bound to a simulated host.
//
// Serves one or more zones over UDP and TCP port 53, hands every query with
// its transport metadata (including the client's TCP SYN for fingerprinting)
// to the registered observers, and can force TC=1 on UDP responses for names under a configured suffix —
// the mechanism the paper uses to elicit DNS-over-TCP follow-ups.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "dns/message.h"
#include "dns/zone.h"
#include "sim/host.h"

namespace cd::resolver {

struct AuthLogEntry {
  cd::sim::SimTime time = 0;
  cd::net::IpAddr client;
  std::uint16_t client_port = 0;
  cd::net::IpAddr server;  // which of our addresses was queried
  cd::dns::DnsName qname;
  cd::dns::RrType qtype = cd::dns::RrType::kA;
  /// The query's transaction id — what an attacker positioned to observe
  /// authoritative traffic (attack/poison.h scouting) learns per query.
  std::uint16_t id = 0;
  bool tcp = false;
  /// For TCP queries, the client's SYN packet (p0f raw material).
  std::optional<cd::net::Packet> syn;
};

struct AuthConfig {
  /// UDP queries for names under any of these suffixes are answered with
  /// TC=1 and no data, forcing the client to retry over TCP.
  std::vector<cd::dns::DnsName> truncate_suffixes;
};

class AuthServer {
 public:
  using Observer = cd::sim::SmallFn<void(const AuthLogEntry&)>;

  /// Binds UDP and TCP port 53 on `host`. The server must outlive the host's
  /// bound handlers (keep both alive for the whole simulation).
  AuthServer(cd::sim::Host& host, AuthConfig config = {});

  AuthServer(const AuthServer&) = delete;
  AuthServer& operator=(const AuthServer&) = delete;

  /// Adds a zone this server is authoritative for.
  void add_zone(std::shared_ptr<cd::dns::Zone> zone);

  /// Registers an observer invoked synchronously for each query received.
  /// The entry lives only for the call; an observer copies what it keeps.
  void add_observer(Observer observer);

  [[nodiscard]] std::uint64_t queries_served() const { return served_; }

  /// Computes the response for `query` (exposed for direct testing).
  [[nodiscard]] cd::dns::DnsMessage answer(const cd::dns::DnsMessage& query,
                                           bool tcp) const;

 private:
  void on_udp(const cd::net::Packet& packet);
  [[nodiscard]] cd::GatherBuf on_tcp(
      const cd::sim::TcpConnInfo& info, std::span<const std::uint8_t> request);
  void record(const cd::dns::DnsMessage& query, const cd::net::IpAddr& client,
              std::uint16_t client_port, const cd::net::IpAddr& server,
              bool tcp, const std::optional<cd::net::Packet>& syn);
  [[nodiscard]] const cd::dns::Zone* zone_for(
      const cd::dns::DnsName& qname) const;

  cd::sim::Host& host_;
  AuthConfig config_;
  std::vector<std::shared_ptr<cd::dns::Zone>> zones_;
  std::vector<Observer> observers_;
  std::uint64_t served_ = 0;
};

/// Frames a DNS message for TCP transport (RFC 7766): the 2-byte length
/// prefix lives in the GatherBuf's inline header, chained in front of the
/// pooled message encoding — a zero-copy gather view (prefix span, body
/// span) that is never coalesced; the sim's TCP layer segments and
/// serializes it straight from the span pair. This is the one framing
/// implementation (the legacy copying `tcp_frame` was folded in).
[[nodiscard]] cd::GatherBuf tcp_frame_pooled(const cd::dns::DnsMessage& message);
/// The same framing around an already-encoded message (e.g. a pooled buffer
/// from dns::encode_query_pooled).
[[nodiscard]] cd::GatherBuf tcp_frame_pooled(std::vector<std::uint8_t> wire);

/// Zero-copy view of the message behind the TCP length prefix; the returned
/// span borrows `framed`. Throws cd::ParseError on bad framing.
[[nodiscard]] std::span<const std::uint8_t> tcp_unframe_view(
    std::span<const std::uint8_t> framed);

/// Owning variant of tcp_unframe_view (copies the body out).
[[nodiscard]] std::vector<std::uint8_t> tcp_unframe(
    std::span<const std::uint8_t> framed);

}  // namespace cd::resolver
