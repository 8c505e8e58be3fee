// Follow-up query engine (paper §3.5).
//
// When the collector first sees a target answer a spoofed probe, this engine
// sends the follow-up battery using the same spoofed source: 10 queries that
// resolve via an IPv4-only delegation, 10 via an IPv6-only delegation (source
// port and forwarding evidence), one non-spoofed query (open/closed status),
// and one query whose UDP answer is truncated (eliciting DNS-over-TCP for
// fingerprinting). Each target gets exactly one battery.
#pragma once

#include <unordered_set>

#include "scanner/collector.h"
#include "scanner/prober.h"

namespace cd::scanner {

/// Which transport carries the follow-up battery.
enum class FollowupTransport : std::uint8_t {
  /// The paper's shape: spoofed-source UDP queries (plus the TC-forcing
  /// query that elicits the target's own DNS-over-TCP retry).
  kUdp = 0,
  /// DNS-over-TCP from the vantage's real address (spoofed sources cannot
  /// complete a handshake): the same 10+10+open+TC battery as framed
  /// messages via Host::tcp_query — 22 dials per target in the default
  /// one-shot mode, one reused pipelined session per target with the
  /// persistent-transport knob on. The scan-cost axis of the tables.
  kTcp = 1,
};

/// Queries per family for the port-range estimate.
inline constexpr int kFollowupPortSamples = 10;
/// Gap between consecutive battery messages (and before the first).
inline constexpr cd::sim::SimTime kFollowupSpacing = cd::sim::kSecond;

struct FollowupConfig {
  FollowupTransport transport = FollowupTransport::kUdp;
};

class FollowupEngine {
 public:
  /// Registers itself as `collector`'s first-hit handler.
  FollowupEngine(Prober& prober, Collector& collector, FollowupConfig config);

  FollowupEngine(const FollowupEngine&) = delete;
  FollowupEngine& operator=(const FollowupEngine&) = delete;

  [[nodiscard]] std::uint64_t batteries_sent() const { return batteries_; }

 private:
  void on_first_hit(const TargetRecord& record, const cd::net::IpAddr& source);

  Prober& prober_;
  FollowupConfig config_;
  std::unordered_set<cd::net::IpAddr, cd::net::IpAddrHash> dispatched_;
  std::uint64_t batteries_ = 0;
};

}  // namespace cd::scanner
