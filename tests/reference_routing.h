// Reference routing for the routing property program
// (tests/test_sim_topology.cpp): the longest-prefix-match table as it was
// before announcements were flattened into sorted address ranges, kept
// verbatim as the oracle. Per-length hash maps are probed from the longest
// announced length downward; a re-announced prefix replaces the earlier
// entry. The production sim::RoutingTable must return the same (prefix,
// origin AS) for every address.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "net/ip.h"
#include "sim/topology.h"

namespace cd::sim::ref {

class RoutingTable {
 public:
  struct Match {
    cd::net::Prefix prefix;
    Asn asn;
  };

  void add(const cd::net::Prefix& prefix, Asn asn) {
    LengthMap& table = prefix.family() == cd::net::IpFamily::kV4 ? v4_ : v6_;
    auto [it, inserted] = table[prefix.length()].emplace(prefix.base().bits(),
                                                         Match{prefix, asn});
    if (inserted) {
      ++count_;
    } else {
      it->second = Match{prefix, asn};  // later announcement wins
    }
  }

  [[nodiscard]] const Match* find(const cd::net::IpAddr& addr) const {
    const LengthMap& table = addr.is_v4() ? v4_ : v6_;
    const int width = addr.width();
    for (const auto& [length, entries] : table) {
      const int shift = width - length;
      cd::net::U128 key = addr.bits();
      if (shift > 0) key = (key >> shift) << shift;
      const auto it = entries.find(key);
      if (it != entries.end()) return &it->second;
    }
    return nullptr;
  }

  [[nodiscard]] std::optional<Asn> lookup(const cd::net::IpAddr& addr) const {
    const Match* m = find(addr);
    if (!m) return std::nullopt;
    return m->asn;
  }

  /// Routing-table view of "inside `asn`": the covering announcement
  /// originates from `asn` (Topology::is_internal before the flat table).
  [[nodiscard]] bool is_internal(Asn asn, const cd::net::IpAddr& addr) const {
    const auto origin = lookup(addr);
    return origin && *origin == asn;
  }

  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  using LengthMap =
      std::map<int,
               std::unordered_map<cd::net::U128, Match, cd::net::U128Hash>,
               std::greater<int>>;
  LengthMap v4_;
  LengthMap v6_;
  std::size_t count_ = 0;
};

}  // namespace cd::sim::ref
