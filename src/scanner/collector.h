// Authoritative-side observation: decodes experiment query names arriving at
// our authoritative servers, applies the human-intervention lifetime filter
// (§3.6.3), tracks QNAME-minimization gaps (§3.6.4), and accumulates the
// per-target evidence all later analysis consumes.
#pragma once

#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "resolver/auth.h"
#include "scanner/qname.h"
#include "scanner/source_select.h"
#include "sim/topology.h"

namespace cd::scanner {

/// Everything learned about one target IP address.
struct TargetRecord {
  cd::net::IpAddr target;
  cd::sim::Asn asn = 0;

  // Reachability evidence from initial probes.
  std::set<cd::net::IpAddr> sources_hit;
  std::set<SourceCategory> categories_hit;
  cd::sim::SimTime first_hit_time = -1;
  cd::net::IpAddr first_hit_source;

  // Which client addresses contacted our auth servers on this target's
  // behalf (direct == the target itself; §5.4 forwarding analysis).
  bool direct_seen = false;
  bool forwarded_seen = false;
  std::set<cd::net::IpAddr> forwarders_seen;
  bool client_in_target_as = false;  // §3.6.1 middlebox consideration

  // Follow-up evidence.
  std::vector<std::uint16_t> ports_v4;  // direct source ports, arrival order
  std::vector<std::uint16_t> ports_v6;
  bool open_hit = false;
  bool tcp_hit = false;
  std::optional<cd::net::Packet> tcp_syn;  // for p0f

  [[nodiscard]] bool reachable() const { return first_hit_time >= 0; }
};

struct CollectorStats {
  std::uint64_t entries_seen = 0;
  std::uint64_t foreign = 0;            // not our experiment's names
  std::uint64_t excluded_lifetime = 0;  // over kLifetimeThreshold
  std::uint64_t qmin_partial = 0;       // names missing the src/dst labels

  /// Accumulates another collector's counters (merging shard results).
  CollectorStats& operator+=(const CollectorStats& other) {
    entries_seen += other.entries_seen;
    foreign += other.foreign;
    excluded_lifetime += other.excluded_lifetime;
    qmin_partial += other.qmin_partial;
    return *this;
  }
};

/// Derives the spoof category of `src` relative to `dst` (the collector sees
/// only query names, so the category is reconstructed, not carried).
[[nodiscard]] SourceCategory categorize_source(const cd::net::IpAddr& src,
                                               const cd::net::IpAddr& dst);

class Collector {
 public:
  using FirstHitHandler = cd::sim::SmallFn<void(
      const TargetRecord&, const cd::net::IpAddr& source)>;

  /// `topology` is used to attribute client addresses to ASes (may be null;
  /// QNAME-minimization AS evidence is then skipped).
  Collector(QnameCodec codec, const cd::sim::Topology* topology);

  /// Registers this collector as an observer of an authoritative server.
  void attach(cd::resolver::AuthServer& server);

  /// Invoked once per target, on its first qualifying reachability hit.
  void set_first_hit_handler(FirstHitHandler handler);

  [[nodiscard]] const std::unordered_map<cd::net::IpAddr, TargetRecord,
                                         cd::net::IpAddrHash>&
  records() const {
    return records_;
  }
  [[nodiscard]] const CollectorStats& stats() const { return stats_; }

  /// ASes whose resolvers sent QNAME-minimized (unattributable) queries.
  [[nodiscard]] const std::set<cd::sim::Asn>& qmin_asns() const {
    return qmin_asns_;
  }
  /// Targets excluded by the lifetime threshold (distinct addresses).
  [[nodiscard]] const std::set<cd::net::IpAddr>& lifetime_excluded_targets()
      const {
    return lifetime_excluded_;
  }

  /// Exposed for testing: process one observed query.
  void observe(const cd::resolver::AuthLogEntry& entry);

 private:
  QnameCodec codec_;
  const cd::sim::Topology* topology_;
  FirstHitHandler first_hit_;
  std::unordered_map<cd::net::IpAddr, TargetRecord, cd::net::IpAddrHash>
      records_;
  CollectorStats stats_;
  std::set<cd::sim::Asn> qmin_asns_;
  std::set<cd::net::IpAddr> lifetime_excluded_;
};

}  // namespace cd::scanner
