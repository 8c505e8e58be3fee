// AS-level Internet topology: prefix announcements, routing, border policy.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ip.h"

namespace cd::sim {

using Asn = std::uint32_t;

/// Border filtering configuration of one AS.
struct FilterPolicy {
  /// BCP 38 / origin-side SAV: drop egress packets whose source is not one
  /// of this AS's own prefixes.
  bool osav = false;
  /// Destination-side SAV: drop ingress packets whose source claims to be
  /// inside this AS. This is the property the paper measures.
  bool dsav = false;
  /// Drop ingress packets with private/loopback/other special sources
  /// (martian filtering), independent of DSAV.
  bool drop_inbound_martians = false;
  /// Last-hop uRPF-style filtering: drop ingress packets whose source lies
  /// in the destination's own /24 (v4) or /64 (v6) — a subnet-local address
  /// cannot legitimately arrive from outside the border.
  bool drop_inbound_same_subnet = false;
};

struct AsInfo {
  Asn asn = 0;
  FilterPolicy policy;
  std::vector<cd::net::Prefix> prefixes_v4;
  std::vector<cd::net::Prefix> prefixes_v6;
};

/// One announcement as routing sees it: the prefix, its origin AS and that
/// AS's record, so border policy needs no AS lookup.
struct Route {
  cd::net::Prefix prefix;
  Asn asn = 0;
  const AsInfo* info = nullptr;
};

/// Longest-prefix-match routing table. Announcements are flattened into
/// sorted, disjoint address ranges per family, each naming the most
/// specific announcement that covers it, so a lookup is one binary search.
/// add() only appends; the first lookup after an add() rebuilds the ranges
/// (once per world in practice, after its ASes are registered). That
/// rebuild writes, so a table is read by one thread at a time, as a shard
/// world's topology is.
class RoutingTable {
 public:
  RoutingTable() = default;
  // Ranges point into the table's own announcement vectors.
  RoutingTable(const RoutingTable&) = delete;
  RoutingTable& operator=(const RoutingTable&) = delete;
  RoutingTable(RoutingTable&&) = default;
  RoutingTable& operator=(RoutingTable&&) = default;

  /// Announces `prefix` from `origin`, which must outlive the table. A later
  /// announcement of the same prefix replaces the earlier one.
  void add(const cd::net::Prefix& prefix, const AsInfo& origin);

  /// The most specific announcement covering `addr`, or null. The pointer
  /// stays valid until the next add().
  [[nodiscard]] const Route* find(const cd::net::IpAddr& addr) const;

 private:
  /// Range i covers [starts[i], starts[i + 1]) (the last one runs to the top
  /// of the address space) and routes there, or nowhere when null.
  template <typename Key>
  struct Ranges {
    std::vector<Key> starts;
    std::vector<const Route*> routes;
  };
  template <typename Key, typename KeyOf>
  static void flatten(std::vector<Route>& announced, Ranges<Key>& ranges,
                      KeyOf key_of);
  void rebuild() const;

  // Announcements per family: in announcement order since the last rebuild,
  // sorted and deduplicated by it. The ranges point into these vectors.
  mutable std::vector<Route> v4_;
  mutable std::vector<Route> v6_;
  mutable Ranges<std::uint32_t> v4_ranges_;
  mutable Ranges<cd::net::U128> v6_ranges_;
  mutable bool stale_ = false;
};

/// The set of ASes, their announced prefixes, and the global routing view.
class Topology {
 public:
  /// Registers an AS; re-adding an existing ASN returns the existing record.
  AsInfo& add_as(Asn asn, FilterPolicy policy = {});

  /// Announces `prefix` as originated by `asn` (which must exist).
  void announce(Asn asn, const cd::net::Prefix& prefix);

  [[nodiscard]] const AsInfo* find(Asn asn) const;
  [[nodiscard]] AsInfo* find(Asn asn);

  /// The longest-prefix-match announcement covering `addr`, or null.
  [[nodiscard]] const Route* route(const cd::net::IpAddr& addr) const {
    return routes_.find(addr);
  }

  /// Origin AS of `addr` per longest-prefix match.
  [[nodiscard]] std::optional<Asn> asn_of(const cd::net::IpAddr& addr) const;

  [[nodiscard]] const std::vector<cd::net::Prefix>& prefixes_of(
      Asn asn, cd::net::IpFamily family) const;

  [[nodiscard]] const std::unordered_map<Asn, AsInfo>& ases() const {
    return ases_;
  }
  [[nodiscard]] std::size_t as_count() const { return ases_.size(); }

 private:
  std::unordered_map<Asn, AsInfo> ases_;
  RoutingTable routes_;
};

}  // namespace cd::sim
