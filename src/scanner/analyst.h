// Human-intervention simulation (paper §3.6.3).
//
// Networks running intrusion detection log our spoofed probes; a curious
// analyst later resolves the logged query name to see what it is. Those
// resolutions reach our authoritative servers hours after the embedded
// timestamp and must be filtered by the collector's lifetime threshold.
// This component injects exactly that behaviour as failure-injection.
//
// Replay decisions (and the replay's delay, port and id) are derived by
// hashing each observed packet against the constructor seed, not drawn from
// a stream consumed in arrival order, so whether a given probe is replayed
// does not depend on what other traffic the tap saw first. A sharded
// campaign (core/parallel.h) therefore replays exactly the probes a serial
// campaign would — except that `max_replays` caps each shard's analyst
// separately, so merged totals can exceed a serial run's when the cap binds.
#pragma once

#include <cstdint>
#include <set>

#include "dns/message.h"
#include "sim/network.h"
#include "util/rng.h"

namespace cd::scanner {

struct AnalystConfig {
  /// Probability that a logged probe gets replayed by a human.
  double replay_probability = 0.001;
  /// Upper bound on total replays (humans get bored).
  std::uint64_t max_replays = 1000;
};

class AnalystSimulator {
 public:
  /// Watches `network` for UDP port-53 probes destined to ASes in
  /// `ids_asns`; replays a sample of their query names later from a
  /// workstation address inside the logging AS, resolved via
  /// `public_resolver`.
  AnalystSimulator(cd::sim::Network& network, std::set<cd::sim::Asn> ids_asns,
                   cd::net::IpAddr public_resolver, AnalystConfig config,
                   cd::Rng rng);

  AnalystSimulator(const AnalystSimulator&) = delete;
  AnalystSimulator& operator=(const AnalystSimulator&) = delete;

  [[nodiscard]] std::uint64_t replays() const { return replays_; }

 private:
  void maybe_replay(const cd::net::Packet& packet);

  cd::sim::Network& network_;
  std::set<cd::sim::Asn> ids_asns_;
  cd::net::IpAddr public_resolver_;
  AnalystConfig config_;
  std::uint64_t seed_;  // per-probe decision streams derive from this
  std::uint64_t replays_ = 0;
};

}  // namespace cd::scanner
