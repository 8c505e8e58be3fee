// The Closed Resolver Project cross-check modality: a second, per-/24
// inbound-SAV scanner over the same simulated world.
//
// Korczyński et al. ("Don't Forget to Lock the Front Door!", "The Closed
// Resolver Project") measure the phenomenon this paper measures per
// resolver — inbound source-address validation — per *network* instead: for
// every announced /24, send DNS probes whose spoofed source is the prefix's
// conventional local-resolver address and whose destination walks the
// prefix's hosts. A border without inbound SAV admits the forged "local"
// packet; any resolver it lands on trusts the in-prefix source (every ACL
// shape admits the resolver's own /24) and resolves the embedded name,
// which escapes to our authoritative sink — evidence the whole /24 can be
// spoofed into. Networks filtering same-subnet sources at the border
// (FilterPolicy::drop_inbound_same_subnet) blind this modality but not the
// paper's external-source one — the genuine driver of per-AS methodology
// disagreement that analysis/crosscheck.h reports.
//
// Determinism mirrors the probe plane (scanner/prober.h): every per-prefix
// decision — start stagger, source ports, DNS ids — is drawn from
// Rng::substream(seed, prefix base) and carried through the prefix's own
// probe chain, so a /24's traffic is a pure function of (seed, prefix),
// independent of shard layout and list order. Evidence the collector keeps
// in the digestable record (responding-address sets) is additionally
// independent of shared-cache warmness; see core/parallel.h.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "resolver/auth.h"
#include "scanner/qname.h"
#include "sim/host.h"

namespace cd::scanner {

/// One probed /24 — the Closed Resolver Project's measurement unit.
struct PrefixTarget {
  cd::net::Prefix prefix;  // always a /24
  cd::sim::Asn asn = 0;

  friend bool operator==(const PrefixTarget&, const PrefixTarget&) = default;
};

struct CrossCheckConfig {
  /// Window over which per-prefix chain starts are staggered.
  cd::sim::SimTime duration = 2 * cd::sim::kHour;
  /// Spacing between consecutive host probes within one /24.
  cd::sim::SimTime per_query_spacing = cd::sim::kSecond;
  /// Probed host offsets within each /24: [host_lo, host_hi). The default
  /// walks every host address (1..254); tests and the bench narrow it to
  /// the offsets the world's resolver addressing can occupy.
  std::uint32_t host_lo = 1;
  std::uint32_t host_hi = 255;
};

/// Walks every prefix's host window with spoofed in-prefix sources. Packets
/// are injected at the vantage AS exactly like the probe plane's spoofed
/// queries: they physically leave our (OSAV-free) network.
class CrossCheckProber {
 public:
  CrossCheckProber(cd::sim::Host& vantage, QnameCodec codec,
                   CrossCheckConfig config, cd::Rng rng);

  CrossCheckProber(const CrossCheckProber&) = delete;
  CrossCheckProber& operator=(const CrossCheckProber&) = delete;

  /// Schedules one probe chain per prefix, staggered over the window. The
  /// list must already be this shard's slice (ditl::prefix24_targets
  /// filters by shard); each chain's timing derives from the prefix base,
  /// not the list position. Call once; then run the event loop.
  void schedule_campaign(std::vector<PrefixTarget> prefixes);

  [[nodiscard]] std::uint64_t probes_sent() const { return sent_; }
  [[nodiscard]] const std::vector<PrefixTarget>& prefixes() const {
    return prefixes_;
  }

 private:
  void probe_step(std::size_t idx, std::uint32_t offset, cd::Rng rng);
  void send_probe(const PrefixTarget& pt, std::uint32_t offset, cd::Rng& rng);

  cd::sim::Host& vantage_;
  QnameCodec codec_;
  CrossCheckConfig config_;
  std::uint64_t seed_;  // per-prefix substreams derive from this
  std::vector<PrefixTarget> prefixes_;
  std::uint64_t sent_ = 0;
};

/// Everything learned about one probed /24.
struct PrefixRecord {
  cd::net::IpAddr prefix;  // /24 base address
  cd::sim::Asn asn = 0;
  /// Probed destinations whose resolution escaped to our sink. Dedup'd, so
  /// the value is independent of retry/cache timing (digest-safe).
  std::set<cd::net::IpAddr> responding;
  /// Raw attributed authoritative queries (includes retransmit duplicates
  /// whose count depends on shared-cache warmness — excluded from
  /// results_digest).
  std::uint64_t hits = 0;
  /// How the evidence arrived: from the probed host itself, or forwarded by
  /// another client. A forward-failover resolver's choice is drawn from its
  /// own sequential stream, so these bits are excluded from results_digest
  /// (kept for reporting, like first_hit_time on the probe plane).
  bool direct_seen = false;
  bool forwarded_seen = false;

  /// The modality's verdict: the prefix admitted an in-prefix-spoofed
  /// packet (no inbound SAV on the path to a live resolver).
  [[nodiscard]] bool vulnerable() const { return !responding.empty(); }
};

/// Keyed and iterated by /24 base address; std::map so per-shard merge and
/// digest walk a canonical order.
using PrefixRecords = std::map<cd::net::IpAddr, PrefixRecord>;

struct CrossCheckStats {
  std::uint64_t entries_seen = 0;
  std::uint64_t foreign = 0;            // not our experiment's names
  std::uint64_t partial = 0;            // QNAME-minimized, unattributable
  std::uint64_t excluded_lifetime = 0;  // over kLifetimeThreshold
};

/// Authoritative-side observation for the cross-check plane. Attaches next
/// to the main Collector (which skips kCrossCheck names) and keeps per-/24
/// evidence instead of per-target records.
class CrossCheckCollector {
 public:
  explicit CrossCheckCollector(QnameCodec codec);

  void attach(cd::resolver::AuthServer& server);

  [[nodiscard]] const PrefixRecords& records() const { return records_; }
  [[nodiscard]] const CrossCheckStats& stats() const { return stats_; }

  /// Exposed for testing: process one observed query.
  void observe(const cd::resolver::AuthLogEntry& entry);

 private:
  QnameCodec codec_;
  PrefixRecords records_;
  CrossCheckStats stats_;
};

}  // namespace cd::scanner
