// Unit tests: routing table (LPM) and topology, plus two randomized,
// self-shrinking programs against the per-length reference table
// (tests/reference_routing.h): one compares route lookups, the other
// Network::send's drop decisions with the border-check order that used the
// reference table.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/special.h"
#include "reference_routing.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using net::IpAddr;
using net::IpFamily;
using net::Prefix;
using net::U128;
using sim::DropReason;
using sim::Topology;

/// Origin AS of the route covering `addr`, checking that the route carries
/// that AS's record.
std::optional<sim::Asn> origin(const Topology& topo, const char* addr) {
  const sim::Route* r = topo.route(IpAddr::must_parse(addr));
  if (!r) return std::nullopt;
  EXPECT_EQ(r->info, topo.find(r->asn));
  return r->asn;
}

TEST(RoutingTable, LongestPrefixWins) {
  Topology topo;
  for (sim::Asn asn : {100, 200, 300}) topo.add_as(asn);
  topo.announce(100, Prefix::must_parse("10.0.0.0/8"));
  topo.announce(200, Prefix::must_parse("10.1.0.0/16"));
  topo.announce(300, Prefix::must_parse("10.1.2.0/24"));

  EXPECT_EQ(origin(topo, "10.1.2.3"), 300u);
  EXPECT_EQ(origin(topo, "10.1.9.9"), 200u);
  EXPECT_EQ(origin(topo, "10.200.0.1"), 100u);
  EXPECT_FALSE(origin(topo, "11.0.0.1"));
}

TEST(RoutingTable, RouteNamesTheMatchedAnnouncement) {
  Topology topo;
  topo.add_as(5);
  topo.announce(5, Prefix::must_parse("192.0.2.0/24"));
  const sim::Route* r = topo.route(IpAddr::must_parse("192.0.2.200"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->prefix, Prefix::must_parse("192.0.2.0/24"));
  EXPECT_EQ(r->asn, 5u);
  EXPECT_EQ(r->info, topo.find(5));
}

TEST(RoutingTable, NestedRemainderFallsBackToCoveringPrefix) {
  Topology topo;
  topo.add_as(1);
  topo.add_as(2);
  topo.announce(2, Prefix::must_parse("10.1.0.0/16"));
  topo.announce(1, Prefix::must_parse("10.0.0.0/8"));
  EXPECT_EQ(origin(topo, "10.0.0.0"), 1u);
  EXPECT_EQ(origin(topo, "10.0.255.255"), 1u);
  EXPECT_EQ(origin(topo, "10.1.0.0"), 2u);
  EXPECT_EQ(origin(topo, "10.1.255.255"), 2u);
  EXPECT_EQ(origin(topo, "10.2.0.0"), 1u);
  EXPECT_EQ(origin(topo, "10.255.255.255"), 1u);
  EXPECT_FALSE(origin(topo, "11.0.0.0"));
  EXPECT_FALSE(origin(topo, "9.255.255.255"));
}

TEST(RoutingTable, EdgesOfTheAddressSpace) {
  Topology topo;
  for (sim::Asn asn : {1, 2, 3, 4, 5}) topo.add_as(asn);
  topo.announce(1, Prefix::must_parse("0.0.0.0/0"));
  topo.announce(2, Prefix::must_parse("255.255.255.255/32"));
  topo.announce(3, Prefix::must_parse("0.0.0.0/32"));
  topo.announce(4, Prefix::must_parse("::/0"));
  topo.announce(
      5, Prefix::must_parse("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"));
  EXPECT_EQ(origin(topo, "0.0.0.0"), 3u);
  EXPECT_EQ(origin(topo, "0.0.0.1"), 1u);
  EXPECT_EQ(origin(topo, "255.255.255.254"), 1u);
  EXPECT_EQ(origin(topo, "255.255.255.255"), 2u);
  EXPECT_EQ(origin(topo, "::"), 4u);
  EXPECT_EQ(origin(topo, "ffff:ffff:ffff:ffff:ffff:ffff:ffff:fffe"), 4u);
  EXPECT_EQ(origin(topo, "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"), 5u);
}

TEST(RoutingTable, V6Lpm) {
  Topology topo;
  topo.add_as(1);
  topo.add_as(2);
  topo.announce(1, Prefix::must_parse("2001:db8::/32"));
  topo.announce(2, Prefix::must_parse("2001:db8:1::/48"));
  EXPECT_EQ(origin(topo, "2001:db8:1::5"), 2u);
  EXPECT_EQ(origin(topo, "2001:db8:2::5"), 1u);
  EXPECT_FALSE(origin(topo, "2001:db9::1"));
}

TEST(RoutingTable, FamiliesAreSeparate) {
  Topology topo;
  topo.add_as(6);
  topo.announce(6, Prefix::must_parse("::/0"));
  EXPECT_FALSE(origin(topo, "1.2.3.4"));
  EXPECT_EQ(origin(topo, "abcd::1"), 6u);
}

TEST(RoutingTable, LaterAnnouncementWins) {
  Topology topo;
  topo.add_as(1);
  topo.add_as(2);
  topo.announce(1, Prefix::must_parse("10.0.0.0/8"));
  topo.announce(2, Prefix::must_parse("10.0.0.0/8"));
  EXPECT_EQ(origin(topo, "10.0.0.1"), 2u);
  // Both ASes still list the prefix: announcements are per AS.
  EXPECT_EQ(topo.prefixes_of(1, IpFamily::kV4).size(), 1u);
}

TEST(RoutingTable, AnnouncementAfterLookupIsRouted) {
  Topology topo;
  topo.add_as(1);
  topo.add_as(2);
  topo.announce(1, Prefix::must_parse("10.0.0.0/8"));
  EXPECT_EQ(origin(topo, "10.9.0.1"), 1u);
  topo.announce(2, Prefix::must_parse("10.9.0.0/16"));
  EXPECT_EQ(origin(topo, "10.9.0.1"), 2u);
  topo.announce(1, Prefix::must_parse("10.9.0.0/16"));
  EXPECT_EQ(origin(topo, "10.9.0.1"), 1u);
}

TEST(Topology, AnnounceAndLookup) {
  Topology topo;
  topo.add_as(100);
  topo.announce(100, Prefix::must_parse("20.0.0.0/16"));
  topo.announce(100, Prefix::must_parse("2400:1::/32"));
  EXPECT_EQ(topo.asn_of(IpAddr::must_parse("20.0.5.5")), 100u);
  EXPECT_EQ(topo.asn_of(IpAddr::must_parse("2400:1::9")), 100u);
  EXPECT_EQ(topo.prefixes_of(100, IpFamily::kV4).size(), 1u);
  EXPECT_EQ(topo.prefixes_of(100, IpFamily::kV6).size(), 1u);
  EXPECT_TRUE(topo.prefixes_of(999, IpFamily::kV4).empty());
}

TEST(Topology, AnnounceUnknownAsnThrows) {
  Topology topo;
  EXPECT_THROW(topo.announce(5, Prefix::must_parse("10.0.0.0/8")),
               InvariantError);
}

TEST(Topology, RouteFollowsRouting) {
  Topology topo;
  topo.add_as(1);
  topo.add_as(2);
  topo.announce(1, Prefix::must_parse("20.0.0.0/16"));
  topo.announce(2, Prefix::must_parse("20.1.0.0/16"));
  EXPECT_EQ(origin(topo, "20.0.0.1"), 1u);
  EXPECT_EQ(origin(topo, "20.1.0.1"), 2u);
  EXPECT_FALSE(origin(topo, "192.168.0.1"));
}

TEST(Topology, AddAsIdempotent) {
  Topology topo;
  sim::AsInfo& a = topo.add_as(7, sim::FilterPolicy{.osav = true});
  sim::AsInfo& b = topo.add_as(7, sim::FilterPolicy{});  // policy not reset
  EXPECT_EQ(&a, &b);
  EXPECT_TRUE(b.policy.osav);
  EXPECT_EQ(topo.as_count(), 1u);
}

// --- Property programs against the reference table ---------------------------
//
// A program is a list of ops run against a fresh topology (and network) and
// the reference table side by side. When they diverge, the op list is shrunk
// by greedy chunk removal, as in the name and source-selection programs, and
// the minimal program is printed.

struct Op {
  enum Kind { kAnnounce, kLookup, kHost, kSite, kSend } kind;
  sim::Asn asn = 0;  // kAnnounce, kHost, kSite: the AS; kSend: the origin
  Prefix prefix;     // kAnnounce
  IpAddr addr;       // kLookup; kHost/kSite: the address; kSend: the source
  IpAddr dst;        // kSend
  sim::OsId os = sim::OsId::kUbuntu1904;  // kHost, kSite
};

std::string format_op(const Op& op) {
  std::ostringstream out;
  switch (op.kind) {
    case Op::kAnnounce:
      out << "announce AS" << op.asn << " " << op.prefix.to_string();
      break;
    case Op::kLookup: out << "lookup " << op.addr.to_string(); break;
    case Op::kHost:
    case Op::kSite:
      out << (op.kind == Op::kHost ? "host AS" : "anycast site AS") << op.asn
          << " " << op.addr.to_string() << " os "
          << static_cast<int>(op.os);
      break;
    case Op::kSend:
      out << "send " << op.addr.to_string() << " -> " << op.dst.to_string()
          << " from AS" << op.asn;
      break;
  }
  return out.str();
}

template <typename Run>
std::vector<Op> shrink(std::vector<Op> ops, const Run& run) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (std::size_t start = 0; start + chunk <= ops.size();) {
        std::vector<Op> candidate(
            ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
            ops.end());
        if (run(candidate)) {
          ops = std::move(candidate);
          removed_any = true;
        } else {
          start += chunk;
        }
      }
    }
  }
  return ops;
}

/// Runs the program for every seed; on a divergence, fails with the
/// shrunk program.
template <typename Gen, typename Run>
void check_programs(const char* what, const Gen& gen, const Run& run) {
  for (const std::uint64_t seed : {1ull, 2ull, 7ull, 42ull, 99ull, 2020ull,
                                   31337ull, 777ull, 4242ull, 65537ull}) {
    std::vector<Op> ops = gen(seed);
    const auto for_seed = [&](const std::vector<Op>& p) {
      return run(p, seed);
    };
    if (const auto bad = for_seed(ops)) {
      const auto minimal = shrink(std::move(ops), for_seed);
      std::ostringstream program;
      for (const Op& op : minimal) program << "  " << format_op(op) << "\n";
      FAIL() << what << " diverges from reference (" << *bad
             << "); seed=" << seed << "; minimal program (" << minimal.size()
             << " ops, " << *for_seed(minimal) << "):\n"
             << program.str();
    }
  }
}

/// `a` moved one address up or down, wrapping within its family.
IpAddr step(const IpAddr& a, bool up) {
  U128 bits = up ? a.bits() + U128{1} : a.bits() - U128{1};
  if (a.is_v4()) bits = U128{0, bits.lo & 0xFFFFFFFFULL};
  return IpAddr::from_bits(a.family(), bits);
}

/// A random address inside `p`.
IpAddr inside(const Prefix& p, Rng& rng) {
  const int host_bits = p.base().width() - p.length();
  U128 host{rng.u64(), rng.u64()};
  host = host_bits == 0 ? U128{}
                        : (host << (128 - host_bits)) >> (128 - host_bits);
  return IpAddr::from_bits(p.family(), p.base().bits() | host);
}

/// Announcements over both families, most of them derived from earlier
/// ones: nested inside, covering, duplicated (often by another AS, so the
/// later announcement must win), or adjacent. `on_announce` sees each one
/// as it is generated.
template <typename OnAnnounce>
std::vector<Prefix> gen_announcements(Rng& rng, std::size_t n,
                                      sim::Asn n_ases, std::vector<Op>& ops,
                                      const OnAnnounce& on_announce) {
  std::vector<Prefix> announced;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t mode = announced.empty() ? 0 : rng.uniform(6);
    Prefix p;
    if (mode == 0) {
      if (rng.uniform(3) == 0) {
        p = Prefix(IpAddr::v6(rng.u64(), rng.u64()),
                   static_cast<int>(rng.uniform(129)));
      } else {
        p = Prefix(IpAddr::v4(static_cast<std::uint32_t>(rng.u64())),
                   static_cast<int>(rng.uniform(33)));
      }
    } else {
      const Prefix prev = announced[rng.uniform(announced.size())];
      const int width = prev.base().width();
      switch (mode) {
        case 1:
        case 2: {  // nested inside
          const int len =
              prev.length() == width
                  ? width
                  : prev.length() + 1 +
                        static_cast<int>(rng.uniform(
                            static_cast<std::uint64_t>(width - prev.length())));
          p = Prefix(inside(prev, rng), len);
          break;
        }
        case 3: p = prev; break;  // re-announced
        case 4:                   // covering
          p = Prefix(prev.base(), static_cast<int>(rng.uniform(
                                      static_cast<std::uint64_t>(
                                          prev.length() + 1))));
          break;
        default:  // adjacent, just past either end
          p = Prefix(rng.uniform(2) == 0 ? step(prev.last(), true)
                                         : step(prev.first(), false),
                     prev.length());
          break;
      }
    }
    announced.push_back(p);
    const auto asn = 1 + static_cast<sim::Asn>(rng.uniform(n_ases));
    ops.push_back({Op::kAnnounce, asn, p, {}, {}});
    on_announce(p);
  }
  return announced;
}

/// The lookups the property program makes around `p`: its first and last
/// address, one address either side, and one inside.
void edges_of(const Prefix& p, Rng& rng, std::vector<IpAddr>& out) {
  out.push_back(p.first());
  out.push_back(p.last());
  out.push_back(step(p.first(), false));
  out.push_back(step(p.last(), true));
  out.push_back(inside(p, rng));
}

const IpAddr kAddressSpaceEdges[] = {
    IpAddr::v4(0), IpAddr::v4(0xFFFFFFFFu), IpAddr::v6(0, 0),
    IpAddr::v6(~0ULL, ~0ULL)};

constexpr sim::Asn kRouteAses = 6;

std::string describe(const std::optional<std::pair<Prefix, sim::Asn>>& m) {
  if (!m) return "none";
  return m->first.to_string() + " AS" + std::to_string(m->second);
}

std::optional<std::string> run_route_program(const std::vector<Op>& ops,
                                             std::uint64_t) {
  Topology topo;
  for (sim::Asn asn = 1; asn <= kRouteAses; ++asn) topo.add_as(asn);
  sim::ref::RoutingTable ref;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.kind == Op::kAnnounce) {
      topo.announce(op.asn, op.prefix);
      ref.add(op.prefix, op.asn);
      continue;
    }
    std::optional<std::pair<Prefix, sim::Asn>> got, want;
    if (const sim::Route* r = topo.route(op.addr)) {
      got.emplace(r->prefix, r->asn);
      if (r->info != topo.find(r->asn)) {
        return "op " + std::to_string(i) + " (" + format_op(op) +
               "): route carries another AS's record";
      }
    }
    if (const auto* m = ref.find(op.addr)) want.emplace(m->prefix, m->asn);
    if (got != want) {
      return "op " + std::to_string(i) + " (" + format_op(op) + "): got " +
             describe(got) + ", want " + describe(want);
    }
  }
  return std::nullopt;
}

std::vector<Op> gen_route_program(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::vector<IpAddr> probes;
  // Some lookups land between announcements, so the table is read while it
  // is still growing.
  const auto lookups_now = [&](const Prefix& p) {
    if (rng.uniform(4) != 0) return;
    probes.clear();
    edges_of(p, rng, probes);
    ops.push_back({Op::kLookup, 0, {}, probes[rng.uniform(probes.size())], {}});
  };
  const std::vector<Prefix> announced = gen_announcements(
      rng, 30 + rng.uniform(40), kRouteAses, ops, lookups_now);
  probes.clear();
  for (const Prefix& p : announced) edges_of(p, rng, probes);
  for (const IpAddr& a : kAddressSpaceEdges) probes.push_back(a);
  for (const IpAddr& a : probes) ops.push_back({Op::kLookup, 0, {}, a, {}});
  return ops;
}

TEST(RoutingProperty, RandomAnnouncementsMatchReferenceExactly) {
  check_programs("RoutingTable", gen_route_program, run_route_program);
}

// The border checks in the order Network::classify made them with the
// reference table: anycast catchment first; otherwise the origin's OSAV
// (egress), unrouted, then the destination's DSAV, martian and subnet-uRPF
// filters (ingress), each AS record found by its ASN; then the host.
DropReason reference_classify(const Topology& topo,
                              const sim::ref::RoutingTable& ref,
                              const sim::Network& network,
                              const net::Packet& packet, sim::Asn origin_asn) {
  const auto egress_drop = [&] {
    const sim::AsInfo* origin = topo.find(origin_asn);
    return origin != nullptr && origin->policy.osav &&
           !ref.is_internal(origin_asn, packet.src);
  };
  const auto is_special = [](const IpAddr& a) {
    for (const Prefix& p : net::special_purpose_registry(a.family())) {
      if (p.contains(a)) return true;
    }
    return false;
  };
  const auto ingress_drop = [&](sim::Asn dest_asn) {
    const sim::AsInfo* dest = topo.find(dest_asn);
    if (dest == nullptr) return DropReason::kNone;
    if (dest->policy.dsav && ref.is_internal(dest_asn, packet.src)) {
      return DropReason::kDsav;
    }
    if (dest->policy.drop_inbound_martians && is_special(packet.src)) {
      return DropReason::kMartian;
    }
    if (dest->policy.drop_inbound_same_subnet &&
        packet.src.family() == packet.dst.family()) {
      const bool same_subnet =
          packet.dst.is_v4()
              ? (packet.dst.v4_bits() ^ packet.src.v4_bits()) >> 8 == 0
              : packet.dst.bits().hi == packet.src.bits().hi;
      if (same_subnet) return DropReason::kUrpfSubnet;
    }
    return DropReason::kNone;
  };

  if (sim::Host* site = network.anycast_catchment(packet.dst, origin_asn)) {
    if (site->asn() != origin_asn) {
      if (egress_drop()) return DropReason::kOsav;
      const DropReason ingress = ingress_drop(site->asn());
      if (ingress != DropReason::kNone) return ingress;
    }
    if (!site->stack_accepts(packet)) return DropReason::kStackRejected;
    return DropReason::kNone;
  }
  const auto dst_asn = ref.lookup(packet.dst);
  const bool crosses_border = !dst_asn || *dst_asn != origin_asn;
  if (crosses_border && egress_drop()) return DropReason::kOsav;
  if (!dst_asn) return DropReason::kUnrouted;
  if (crosses_border) {
    const DropReason ingress = ingress_drop(*dst_asn);
    if (ingress != DropReason::kNone) return ingress;
  }
  sim::Host* host = network.host_at(packet.dst);
  if (!host) return DropReason::kNoHost;
  if (!host->stack_accepts(packet)) return DropReason::kStackRejected;
  return DropReason::kNone;
}

// ASes 1..6 announce prefixes; 7 and 8 host the anycast sites; 99 is an
// origin no AS record names.
constexpr sim::Asn kSiteAsns[] = {7, 8};
constexpr sim::Asn kUnknownAsn = 99;
const IpAddr kService = IpAddr::v4(0x0B000035u);  // 11.0.0.53

std::vector<sim::FilterPolicy> policies_for(std::uint64_t seed) {
  Rng rng(seed ^ 0x5EEDULL);
  std::vector<sim::FilterPolicy> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back({.osav = rng.chance(0.4),
                   .dsav = rng.chance(0.5),
                   .drop_inbound_martians = rng.chance(0.4),
                   .drop_inbound_same_subnet = rng.chance(0.4)});
  }
  return out;
}

/// Packets per DropReason over every send program run, so the test can
/// check that the programs reach each border decision.
std::array<std::uint64_t, 8> g_send_reasons{};

std::optional<std::string> run_send_program(const std::vector<Op>& ops,
                                            std::uint64_t seed) {
  const std::vector<sim::FilterPolicy> policies = policies_for(seed);
  sim::EventLoop loop;
  Topology topo;
  for (sim::Asn asn = 1; asn <= policies.size(); ++asn) {
    topo.add_as(asn, policies[asn - 1]);
  }
  sim::Network network(topo, loop, Rng(seed));
  std::deque<sim::Host> hosts;
  sim::ref::RoutingTable ref;
  DropReason seen = DropReason::kNone;
  network.add_tap(
      [&seen](const net::Packet&, DropReason r, sim::SimTime) { seen = r; });
  std::optional<std::string> bad;
  for (std::size_t i = 0; i < ops.size() && !bad; ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kAnnounce:
        topo.announce(op.asn, op.prefix);
        ref.add(op.prefix, op.asn);
        break;
      case Op::kHost:
      case Op::kSite:
        hosts.emplace_back(network, op.asn, sim::os_profile(op.os),
                           std::vector<IpAddr>{op.addr}, Rng(i));
        if (op.kind == Op::kSite) {
          network.add_anycast_site(op.addr, &hosts.back());
        }
        break;
      case Op::kLookup: break;
      case Op::kSend: {
        const net::Packet packet =
            net::make_udp(op.addr, 1000, op.dst, 53, {1});
        const DropReason want =
            reference_classify(topo, ref, network, packet, op.asn);
        network.send(packet, op.asn);
        ++g_send_reasons[static_cast<std::size_t>(seen)];
        if (seen != want) {
          bad = "op " + std::to_string(i) + " (" + format_op(op) + "): got " +
                sim::drop_reason_name(seen) + ", want " +
                sim::drop_reason_name(want);
        }
        break;
      }
    }
  }
  loop.run();
  return bad;
}

std::vector<Op> gen_send_program(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  const std::vector<Prefix> announced =
      gen_announcements(rng, 12 + rng.uniform(16), kRouteAses, ops,
                        [](const Prefix&) {});

  static const sim::OsId kOses[] = {
      sim::OsId::kUbuntu1904, sim::OsId::kFreeBsd121, sim::OsId::kWin2019,
      sim::OsId::kUbuntu1004};
  // Hosts inside announcements (each in a random AS: the address's route
  // decides where its packets cross borders) and two anycast sites.
  std::vector<IpAddr> host_addrs;
  for (std::size_t i = 0, n = 6 + rng.uniform(6); i < n; ++i) {
    const IpAddr a = inside(announced[rng.uniform(announced.size())], rng);
    host_addrs.push_back(a);
    const auto asn = 1 + static_cast<sim::Asn>(rng.uniform(kRouteAses));
    ops.push_back({Op::kHost, asn, {}, a, {}, kOses[rng.uniform(4)]});
  }
  if (rng.uniform(3) != 0) {
    for (sim::Asn asn : kSiteAsns) {
      ops.push_back({Op::kSite, asn, {}, kService, {}, kOses[rng.uniform(4)]});
    }
    host_addrs.push_back(kService);
  }

  const auto pick_special = [&] {
    const auto& reg = net::special_purpose_registry(
        rng.uniform(2) == 0 ? IpFamily::kV4 : IpFamily::kV6);
    const Prefix& p = reg[rng.uniform(reg.size())];
    return rng.uniform(2) == 0 ? p.first() : inside(p, rng);
  };
  const auto pick_src = [&](const IpAddr& dst) -> IpAddr {
    switch (rng.uniform(8)) {
      case 0: return dst;  // destination-as-source
      case 1: {            // same /24 (/64) as the destination
        const U128 low = dst.is_v4() ? U128{0, rng.uniform(256)}
                                     : U128{0, rng.u64()};
        const U128 keep = dst.is_v4() ? U128{0, 0xFFFFFF00ULL} : U128{~0ULL, 0};
        return IpAddr::from_bits(dst.family(), (dst.bits() & keep) | low);
      }
      case 2: return pick_special();
      case 3: return host_addrs[rng.uniform(host_addrs.size())];
      case 4: return IpAddr::v4(static_cast<std::uint32_t>(rng.u64()));
      default: {
        std::vector<IpAddr> edges;
        edges_of(announced[rng.uniform(announced.size())], rng, edges);
        return edges[rng.uniform(edges.size())];
      }
    }
  };
  const auto pick_dst = [&]() -> IpAddr {
    switch (rng.uniform(6)) {
      case 0: return inside(announced[rng.uniform(announced.size())], rng);
      case 1: return IpAddr::v6(rng.u64(), rng.u64());
      default: return host_addrs[rng.uniform(host_addrs.size())];
    }
  };
  for (std::size_t i = 0, n = 120 + rng.uniform(80); i < n; ++i) {
    const IpAddr dst = pick_dst();
    const std::uint64_t o = rng.uniform(10);
    const sim::Asn origin_asn =
        o < 6 ? 1 + static_cast<sim::Asn>(o) : o < 9 ? kSiteAsns[o % 2]
                                                      : kUnknownAsn;
    Op op{Op::kSend, origin_asn, {}, pick_src(dst), dst};
    ops.push_back(op);
  }
  return ops;
}

TEST(RoutingProperty, SendMatchesReferenceBorderOrder) {
  g_send_reasons = {};
  check_programs("Network::send", gen_send_program, run_send_program);
  if (HasFailure()) return;  // a divergence stops the tally early
  for (std::size_t r = 0; r < g_send_reasons.size(); ++r) {
    EXPECT_GT(g_send_reasons[r], 0u)
        << "no packet ended as " << sim::drop_reason_name(DropReason(r));
  }
}

}  // namespace
