// The measurement client: sends spoofed-source DNS queries from a vantage
// host in a network without OSAV (the paper's §3.4 requirement).
//
// All probe randomness (schedule jitter, spoofed source ports, DNS ids) is
// drawn from per-target substreams derived from the constructor seed and the
// target address, consumed in the target's own event order. A target's
// probe traffic is therefore a pure function of (seed, target), independent
// of which other targets run alongside it — the property the sharded
// campaign runner (core/parallel.h) relies on for serial/parallel
// equivalence.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "scanner/qname.h"
#include "scanner/source_select.h"
#include "sim/host.h"

namespace cd::scanner {

struct TargetInfo {
  cd::net::IpAddr addr;
  cd::sim::Asn asn = 0;

  friend bool operator==(const TargetInfo&, const TargetInfo&) = default;
};

/// Deterministic shard assignment for a campaign split `num_shards` ways:
/// partitioning is by origin AS, so an AS's whole resolver fleet (including
/// its shared in-AS forwarding upstream) always lands in a single shard.
[[nodiscard]] std::size_t shard_of(cd::sim::Asn asn, std::size_t num_shards);

struct ProbeConfig {
  /// Campaign window over which target start times are staggered.
  cd::sim::SimTime duration = 2 * cd::sim::kHour;
  /// Spacing between consecutive queries to the same target. The paper used
  /// multi-hour spacing to stay polite; in simulation politeness is free, so
  /// the default keeps per-target probes ordered without stretching the run.
  cd::sim::SimTime per_query_spacing = 10 * cd::sim::kSecond;
};

/// Issues the probe campaign and one-off queries. Spoofed packets are
/// injected directly into the network (the vantage host cannot "own" the
/// forged sources); non-spoofed queries go through the host normally.
class Prober {
 public:
  Prober(cd::sim::Host& vantage, QnameCodec codec, SourceSelector& selector,
         ProbeConfig config, cd::Rng rng);

  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  /// Schedules spoofed reachability queries for every target in `targets`
  /// (the full campaign list, or one shard world's slice of it), staggered
  /// over the campaign window. Each target's start time is drawn from its
  /// own address-keyed substream — a pure function of (seed, address),
  /// independent of the target's index, the list's length, and the shard
  /// layout — so a target probes at the same simulated time in any slice.
  /// Call once; then run the event loop.
  void schedule_campaign(std::vector<TargetInfo> targets);

  /// Sends one spoofed-source query to `target` immediately.
  void send_spoofed(const TargetInfo& target, const cd::net::IpAddr& spoofed,
                    QueryMode mode);

  /// Sends one query with the vantage's real source address (the paper's
  /// open-resolver check). No-op if the vantage lacks an address in the
  /// target's family.
  void send_open(const TargetInfo& target);

  /// Sends one DNS-over-TCP query (RFC 7766 framed) from the vantage's real
  /// address via Host::tcp_query — one dial per message in the default
  /// one-shot mode, a reused pipelined session per target with the persistent
  /// transport on. The framed reply folds into the per-target digest map
  /// below (timeouts and empty replies fold nothing, identically on both
  /// paths). No-op if the vantage lacks an address in the target's family.
  void send_transport(const TargetInfo& target, QueryMode mode);

  /// Per-target commutative digest of every framed TCP reply received by
  /// send_transport: sum of mixed hashes, so it is independent of arrival
  /// interleaving but counts duplicates. The transport differential tests
  /// compare these maps across one-shot/persistent and shard layouts.
  [[nodiscard]] const std::map<cd::net::IpAddr, std::uint64_t>&
  transport_replies() const {
    return transport_replies_;
  }

  [[nodiscard]] std::uint64_t queries_sent() const { return sent_; }
  [[nodiscard]] cd::sim::Host& vantage() { return vantage_; }
  [[nodiscard]] const QnameCodec& codec() const { return codec_; }

 private:
  using SourceListPtr = std::shared_ptr<const std::vector<SpoofedSource>>;
  /// One probe of a target's chain. `rng` is the target's substream, looked
  /// up once when the chain is scheduled: map nodes never move, and no
  /// entry is ever erased.
  void probe_step(std::size_t target_idx, std::size_t source_idx,
                  SourceListPtr sources, cd::Rng* rng);
  /// Draws the DNS id from `rng` (the target's substream), then sends.
  void send_query(const cd::net::IpAddr& src, std::uint16_t sport,
                  const TargetInfo& target, QueryMode mode, cd::Rng& rng);
  /// The target's private random substream (created on first use).
  [[nodiscard]] cd::Rng& target_rng(const cd::net::IpAddr& addr);

  cd::sim::Host& vantage_;
  QnameCodec codec_;
  SourceSelector& selector_;
  ProbeConfig config_;
  std::uint64_t seed_;  // per-target substreams derive from this
  std::unordered_map<cd::net::IpAddr, cd::Rng, cd::net::IpAddrHash>
      target_rngs_;
  std::vector<TargetInfo> targets_;
  std::uint64_t sent_ = 0;
  std::map<cd::net::IpAddr, std::uint64_t> transport_replies_;
};

}  // namespace cd::scanner
