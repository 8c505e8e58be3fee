#include "sim/topology.h"

#include <algorithm>

#include "util/error.h"

namespace cd::sim {

using cd::net::IpAddr;
using cd::net::IpFamily;
using cd::net::Prefix;

void RoutingTable::add(const Prefix& prefix, const AsInfo& origin) {
  (prefix.family() == IpFamily::kV4 ? v4_ : v6_)
      .push_back(Route{prefix, origin.asn, &origin});
  stale_ = true;
}

template <typename Key, typename KeyOf>
void RoutingTable::flatten(std::vector<Route>& announced, Ranges<Key>& ranges,
                           KeyOf key_of) {
  // Sort by (base, length), so a prefix follows every prefix that covers it;
  // the sort is stable, so of equal prefixes the later announcement comes
  // last and survives the deduplication.
  std::stable_sort(announced.begin(), announced.end(),
                   [](const Route& a, const Route& b) {
                     return a.prefix < b.prefix;
                   });
  std::size_t kept = 0;
  for (Route& r : announced) {
    if (kept > 0 && announced[kept - 1].prefix == r.prefix) {
      announced[kept - 1] = r;
    } else {
      announced[kept++] = r;
    }
  }
  announced.resize(kept);

  // Sweep in address order with the stack of open (covering) prefixes.
  // Prefixes nest or are disjoint, so a prefix that ends before the next
  // one starts is closed for good, and the range after it falls back to
  // the prefix that covers it. A boundary emitted twice keeps the later
  // route (a nested prefix starting where its parent starts, or a prefix
  // starting right after another ends).
  ranges.starts.clear();
  ranges.routes.clear();
  const auto emit = [&ranges](Key at, const Route* route) {
    if (!ranges.starts.empty() && ranges.starts.back() == at) {
      ranges.routes.back() = route;
    } else {
      ranges.starts.push_back(at);
      ranges.routes.push_back(route);
    }
  };
  std::vector<const Route*> open;
  // Closes the innermost open prefix; false when it ends at the top of the
  // address space, where no range can follow.
  const auto close = [&]() {
    const Key end = key_of(open.back()->prefix.last());
    open.pop_back();
    const Key next = end + Key{1};
    if (next == Key{}) return false;
    emit(next, open.empty() ? nullptr : open.back());
    return true;
  };
  for (const Route& r : announced) {
    const Key start = key_of(r.prefix.first());
    while (!open.empty() && key_of(open.back()->prefix.last()) < start) {
      close();
    }
    emit(start, &r);
    open.push_back(&r);
  }
  while (!open.empty() && close()) {
  }
}

void RoutingTable::rebuild() const {
  flatten(v4_, v4_ranges_, [](const IpAddr& a) { return a.v4_bits(); });
  flatten(v6_, v6_ranges_, [](const IpAddr& a) { return a.bits(); });
  stale_ = false;
}

namespace {

template <typename Key, typename Ranges>
const Route* find_in(const Ranges& ranges, Key key) {
  const auto it =
      std::upper_bound(ranges.starts.begin(), ranges.starts.end(), key);
  if (it == ranges.starts.begin()) return nullptr;
  return ranges.routes[static_cast<std::size_t>(it - ranges.starts.begin()) -
                       1];
}

}  // namespace

const Route* RoutingTable::find(const IpAddr& addr) const {
  if (stale_) rebuild();
  return addr.is_v4() ? find_in(v4_ranges_, addr.v4_bits())
                      : find_in(v6_ranges_, addr.bits());
}

AsInfo& Topology::add_as(Asn asn, FilterPolicy policy) {
  auto [it, inserted] = ases_.try_emplace(asn);
  if (inserted) {
    it->second.asn = asn;
    it->second.policy = policy;
  }
  return it->second;
}

void Topology::announce(Asn asn, const Prefix& prefix) {
  AsInfo* info = find(asn);
  CD_ENSURE(info != nullptr, "announce: unknown ASN");
  if (prefix.family() == IpFamily::kV4) {
    info->prefixes_v4.push_back(prefix);
  } else {
    info->prefixes_v6.push_back(prefix);
  }
  routes_.add(prefix, *info);
}

const AsInfo* Topology::find(Asn asn) const {
  const auto it = ases_.find(asn);
  return it == ases_.end() ? nullptr : &it->second;
}

AsInfo* Topology::find(Asn asn) {
  const auto it = ases_.find(asn);
  return it == ases_.end() ? nullptr : &it->second;
}

std::optional<Asn> Topology::asn_of(const IpAddr& addr) const {
  const Route* r = routes_.find(addr);
  if (!r) return std::nullopt;
  return r->asn;
}

const std::vector<Prefix>& Topology::prefixes_of(Asn asn,
                                                 IpFamily family) const {
  static const std::vector<Prefix> kEmpty;
  const AsInfo* info = find(asn);
  if (!info) return kEmpty;
  return family == IpFamily::kV4 ? info->prefixes_v4 : info->prefixes_v6;
}

}  // namespace cd::sim
