// Unit + property tests: spoofed-source selection (§3.2), and a
// self-shrinking property program against the reference selector.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/special.h"
#include "reference_source_select.h"
#include "scanner/source_select.h"

namespace {

using namespace cd;
using net::IpAddr;
using net::Prefix;
using scanner::SourceCategory;
using scanner::SourceSelector;
using scanner::SpoofedSource;

struct SelectFixture {
  sim::Topology topology;

  SelectFixture() {
    topology.add_as(100);  // large AS: a /16 (256 /24s)
    topology.announce(100, Prefix::must_parse("20.0.0.0/16"));
    topology.add_as(200);  // small AS: one /22 (4 /24s)
    topology.announce(200, Prefix::must_parse("21.0.0.0/22"));
    topology.add_as(300);  // v6 AS
    topology.announce(300, Prefix::must_parse("2400:30::/32"));
    topology.announce(300, Prefix::must_parse("22.0.0.0/24"));
  }

  SourceSelector make(std::vector<IpAddr> hitlist = {},
                      scanner::SourceSelectConfig config = {}) {
    return SourceSelector(topology, std::move(hitlist), config, Rng(5));
  }
};

std::map<SourceCategory, std::vector<IpAddr>> by_category(
    const std::vector<SpoofedSource>& sources) {
  std::map<SourceCategory, std::vector<IpAddr>> out;
  for (const auto& s : sources) out[s.category].push_back(s.addr);
  return out;
}

TEST(SourceSelector, AllCategoriesPresentV4) {
  SelectFixture f;
  auto selector = f.make();
  const auto target = IpAddr::must_parse("20.0.5.10");
  const auto cats = by_category(selector.sources_for(target, 100));
  EXPECT_EQ(cats.at(SourceCategory::kOtherPrefix).size(), 97u);
  EXPECT_EQ(cats.at(SourceCategory::kSamePrefix).size(), 1u);
  EXPECT_EQ(cats.at(SourceCategory::kPrivate),
            std::vector<IpAddr>{IpAddr::must_parse("192.168.0.10")});
  EXPECT_EQ(cats.at(SourceCategory::kDstAsSrc), std::vector<IpAddr>{target});
  EXPECT_EQ(cats.at(SourceCategory::kLoopback),
            std::vector<IpAddr>{IpAddr::must_parse("127.0.0.1")});
}

TEST(SourceSelector, TotalNeverExceeds101) {
  SelectFixture f;
  auto selector = f.make();
  EXPECT_LE(selector.sources_for(IpAddr::must_parse("20.0.5.10"), 100).size(),
            101u);
}

TEST(SourceSelector, SmallAsYieldsFewerOtherPrefixes) {
  SelectFixture f;
  auto selector = f.make();
  const auto cats =
      by_category(selector.sources_for(IpAddr::must_parse("21.0.1.7"), 200));
  // 4 /24s minus the target's own leaves 3.
  EXPECT_EQ(cats.at(SourceCategory::kOtherPrefix).size(), 3u);
}

TEST(SourceSelector, OtherPrefixPropertiesV4) {
  SelectFixture f;
  auto selector = f.make();
  const auto target = IpAddr::must_parse("20.0.5.10");
  const Prefix target_p24(target, 24);
  const auto cats = by_category(selector.sources_for(target, 100));
  std::set<net::U128, net::U128Hash> p24s;
  std::set<cd::net::U128> unused;
  std::set<std::string> seen24;
  for (const IpAddr& addr : cats.at(SourceCategory::kOtherPrefix)) {
    // In the AS, not in the target's own /24, one per /24, valid host part.
    EXPECT_TRUE(Prefix::must_parse("20.0.0.0/16").contains(addr));
    EXPECT_FALSE(target_p24.contains(addr));
    const std::uint32_t last_octet = addr.v4_bits() & 0xFF;
    EXPECT_GE(last_octet, 1u);
    EXPECT_LE(last_octet, 254u);
    EXPECT_TRUE(seen24.insert(Prefix(addr, 24).to_string()).second)
        << "duplicate /24";
  }
}

TEST(SourceSelector, SamePrefixInTargets24ButDistinct) {
  SelectFixture f;
  auto selector = f.make();
  for (int i = 0; i < 20; ++i) {
    const auto target = IpAddr::v4(0x14000000u + static_cast<unsigned>(i * 259 + 17));
    const auto cats = by_category(selector.sources_for(target, 100));
    const IpAddr same = cats.at(SourceCategory::kSamePrefix).front();
    EXPECT_TRUE(Prefix(target, 24).contains(same));
    EXPECT_NE(same, target);
  }
}

TEST(SourceSelector, V6UsesUlaAndV6Loopback) {
  SelectFixture f;
  auto selector = f.make();
  const auto target = IpAddr::must_parse("2400:30:0:5::10");
  const auto cats = by_category(selector.sources_for(target, 300));
  EXPECT_EQ(cats.at(SourceCategory::kPrivate),
            std::vector<IpAddr>{IpAddr::must_parse("fc00::10")});
  EXPECT_EQ(cats.at(SourceCategory::kLoopback),
            std::vector<IpAddr>{IpAddr::must_parse("::1")});
}

TEST(SourceSelector, V6HostSelectionWindow) {
  SelectFixture f;
  auto selector = f.make();
  const auto target = IpAddr::must_parse("2400:30:0:5::10");
  const auto cats = by_category(selector.sources_for(target, 300));
  for (const IpAddr& addr : cats.at(SourceCategory::kOtherPrefix)) {
    EXPECT_TRUE(addr.is_v6());
    // Within the first 100 addresses of its /64, skipping the first 2.
    const std::uint64_t offset = addr.bits().lo & 0xFFFFFFFFFFFFFFFFULL;
    const std::uint64_t host = offset - (Prefix(addr, 64).base().bits().lo);
    EXPECT_GE(host, 2u);
    EXPECT_LT(host, 100u);
  }
  const IpAddr same = cats.at(SourceCategory::kSamePrefix).front();
  EXPECT_TRUE(Prefix(target, 64).contains(same));
  EXPECT_NE(same, target);
}

TEST(SourceSelector, HitlistBiasesV6Selection) {
  SelectFixture f;
  // Hitlist: three active /64s in AS 300.
  std::vector<IpAddr> hitlist = {IpAddr::must_parse("2400:30:0:aa::5"),
                                 IpAddr::must_parse("2400:30:0:bb::9"),
                                 IpAddr::must_parse("2400:30:0:cc::1")};
  auto selector = f.make(hitlist);
  const auto target = IpAddr::must_parse("2400:30:0:5::10");
  const auto cats = by_category(selector.sources_for(target, 300));
  std::set<std::string> chosen64;
  for (const IpAddr& addr : cats.at(SourceCategory::kOtherPrefix)) {
    chosen64.insert(Prefix(addr, 64).to_string());
  }
  // All hitlist /64s appear among the selected other-prefixes.
  EXPECT_TRUE(chosen64.count("2400:30:0:aa::/64"));
  EXPECT_TRUE(chosen64.count("2400:30:0:bb::/64"));
  EXPECT_TRUE(chosen64.count("2400:30:0:cc::/64"));
}

TEST(SourceSelector, DeterministicPerTarget) {
  SelectFixture f;
  auto s1 = f.make();
  auto s2 = f.make();
  const auto target = IpAddr::must_parse("20.0.77.42");
  // Same seed, same target -> identical lists, regardless of call order.
  (void)s2.sources_for(IpAddr::must_parse("20.0.1.1"), 100);
  EXPECT_EQ(s1.sources_for(target, 100), s2.sources_for(target, 100));
}

TEST(SourceSelector, CapConfigurable) {
  SelectFixture f;
  scanner::SourceSelectConfig config;
  config.max_other_prefixes = 10;
  auto selector = f.make({}, config);
  const auto cats =
      by_category(selector.sources_for(IpAddr::must_parse("20.0.5.10"), 100));
  EXPECT_EQ(cats.at(SourceCategory::kOtherPrefix).size(), 10u);
}

// Property tests over a generated population: 500 v4 ASes with prefix
// lengths /16../24 and 500 v6 ASes with /40../48, one random target each.
// For every target the paper's selection invariants must hold: the
// other-prefix cap, one source per other subprefix, never the target's own
// /24 (/64), and host parts that skip network/broadcast (v4) or the
// router window (v6).
TEST(SourceSelectorProperty, RandomizedAsPopulation) {
  sim::Topology topology;
  Rng gen(0xA5);  // fixed seed: reproducible population
  struct Case {
    sim::Asn asn;
    Prefix prefix;
    IpAddr target;
  };
  std::vector<Case> cases;

  for (int i = 0; i < 500; ++i) {  // v4: distinct aligned /16 blocks
    const auto asn = static_cast<sim::Asn>(1000 + i);
    const IpAddr block = IpAddr::v4(static_cast<std::uint8_t>(40 + i / 256),
                                    static_cast<std::uint8_t>(i % 256), 0, 0);
    const int len = 16 + 2 * static_cast<int>(gen.uniform(5));  // 16..24
    const Prefix prefix(block, len);
    topology.add_as(asn);
    topology.announce(asn, prefix);
    const std::uint64_t host =
        1 + gen.uniform(std::min<std::uint64_t>(prefix.size_clamped() - 2,
                                                60000));
    cases.push_back({asn, prefix, prefix.nth(host)});
  }
  for (int i = 0; i < 500; ++i) {  // v6: distinct /32 blocks
    const auto asn = static_cast<sim::Asn>(5000 + i);
    const IpAddr block =
        IpAddr::v6(0x2600000000000000ULL | (static_cast<std::uint64_t>(i) << 32),
                   0);
    const int len = 40 + 2 * static_cast<int>(gen.uniform(5));  // 40..48
    const Prefix prefix(block, len);
    topology.add_as(asn);
    topology.announce(asn, prefix);
    // Random /64 within the prefix, random host in the active window.
    const std::uint64_t subnet = gen.uniform(1u << 10);
    const IpAddr p64 = prefix.base().offset_by(0).is_v6()
                           ? IpAddr::v6(prefix.base().bits().hi | subnet, 0)
                           : prefix.base();
    cases.push_back({asn, prefix, p64.offset_by(2 + gen.uniform(98))});
  }

  SourceSelector selector(topology, {}, {}, Rng(7));
  for (const Case& c : cases) {
    const int sub_len = c.target.is_v4() ? 24 : 64;
    const Prefix own(c.target, sub_len);
    const auto cats = by_category(selector.sources_for(c.target, c.asn));

    const auto other_it = cats.find(SourceCategory::kOtherPrefix);
    const std::size_t n_other =
        other_it == cats.end() ? 0 : other_it->second.size();
    EXPECT_LE(n_other, 97u) << c.target.to_string();
    const std::uint64_t subprefixes = c.prefix.count_subprefixes(sub_len);
    EXPECT_EQ(n_other,
              std::min<std::uint64_t>(97, subprefixes - 1))
        << c.prefix.to_string();

    std::set<std::string> seen_sub;
    if (other_it != cats.end()) {
      for (const IpAddr& addr : other_it->second) {
        EXPECT_TRUE(c.prefix.contains(addr)) << addr.to_string();
        EXPECT_FALSE(own.contains(addr))
            << addr.to_string() << " collides with target subprefix of "
            << c.target.to_string();
        EXPECT_TRUE(seen_sub.insert(Prefix(addr, sub_len).to_string()).second)
            << "two sources in one subprefix";
        if (addr.is_v4()) {
          const std::uint32_t octet = addr.v4_bits() & 0xFF;
          EXPECT_GE(octet, 1u) << addr.to_string();    // not network address
          EXPECT_LE(octet, 254u) << addr.to_string();  // not broadcast
        } else {
          const std::uint64_t host =
              addr.bits().lo - Prefix(addr, 64).base().bits().lo;
          EXPECT_GE(host, 2u) << addr.to_string();   // router window skipped
          EXPECT_LT(host, 100u) << addr.to_string(); // active window only
        }
      }
    }

    const auto& same = cats.at(SourceCategory::kSamePrefix);
    ASSERT_EQ(same.size(), 1u);
    EXPECT_TRUE(own.contains(same.front()));
    EXPECT_NE(same.front(), c.target);
    EXPECT_EQ(cats.at(SourceCategory::kDstAsSrc),
              std::vector<IpAddr>{c.target});
  }
}

// --- Property program: the selector against tests/reference_source_select.h
//
// A program is a list of ops: announcements and v6 hitlist entries build one
// topology, then the queries run in program order against a production and
// a reference selector built from the same seed, and every source list must
// be identical, element for element. The production selector builds an AS's
// /24 table on its first query, so the interleaving of queries across ASes
// is part of the program. Topologies mix small ASes (whole /24 pool) and
// large ones (weighted rejection draws), announcements longer than /24 and
// repeated or nested ones (duplicate /24s), v6 ASes with hitlist /64s, and
// targets on the edges of their /24 and of their announcement.

struct SelectOp {
  enum Kind { kAnnounce, kHitlist, kQuery } kind = kAnnounce;
  sim::Asn asn = 0;
  Prefix prefix;  // kAnnounce
  IpAddr addr;    // kHitlist entry, kQuery target
};

std::string format_op(const SelectOp& op) {
  switch (op.kind) {
    case SelectOp::kAnnounce:
      return "announce AS" + std::to_string(op.asn) + " " +
             op.prefix.to_string();
    case SelectOp::kHitlist: return "hitlist " + op.addr.to_string();
    case SelectOp::kQuery:
      return "query " + op.addr.to_string() + " AS" + std::to_string(op.asn);
  }
  return "?";
}

std::string format_sources(const std::vector<SpoofedSource>& list) {
  std::string out;
  for (const SpoofedSource& s : list) {
    out += s.addr.to_string() + "/" +
           std::to_string(static_cast<int>(s.category)) + " ";
  }
  return out;
}

/// Runs the program; returns the first divergence.
std::optional<std::string> run_select_program(const std::vector<SelectOp>& ops,
                                              std::size_t cap,
                                              std::uint64_t seed) {
  sim::Topology topology;
  std::vector<IpAddr> hitlist;
  for (const SelectOp& op : ops) {
    if (op.kind == SelectOp::kAnnounce) {
      topology.add_as(op.asn);
      topology.announce(op.asn, op.prefix);
    } else if (op.kind == SelectOp::kHitlist) {
      hitlist.push_back(op.addr);
    }
  }
  scanner::SourceSelectConfig config;
  config.max_other_prefixes = cap;
  SourceSelector prod(topology, hitlist, config, Rng(seed));
  scanner::ref::SourceSelector ref(topology, hitlist, config, Rng(seed));
  for (std::size_t step = 0; step < ops.size(); ++step) {
    const SelectOp& op = ops[step];
    if (op.kind != SelectOp::kQuery) continue;
    const auto got = prod.sources_for(op.addr, op.asn);
    const auto want = ref.sources_for(op.addr, op.asn);
    if (got != want) {
      return "op " + std::to_string(step) + " (" + format_op(op) +
             "):\n    got  " + format_sources(got) + "\n    want " +
             format_sources(want);
    }
  }
  return std::nullopt;
}

std::vector<SelectOp> gen_select_program(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SelectOp> ops;
  struct AsPlan {
    sim::Asn asn;
    std::vector<Prefix> v4, v6;
  };
  std::vector<AsPlan> ases;
  const std::size_t n_ases = 3 + rng.uniform(6);
  for (std::size_t k = 0; k < n_ases; ++k) {
    AsPlan as{static_cast<sim::Asn>(100 + k), {}, {}};
    const std::uint64_t families = rng.uniform(3);  // v4, v6, both
    if (families != 1) {
      // One /8 per AS. Mostly /15../28, so totals land on both sides of
      // the small-AS threshold; some repeat or nest an earlier prefix.
      const auto block = static_cast<std::uint32_t>(20 + k) << 24;
      const std::size_t n = 1 + rng.uniform(6);
      for (std::size_t i = 0; i < n; ++i) {
        const int len = 15 + static_cast<int>(rng.uniform(14));
        Prefix p(IpAddr::v4(block | static_cast<std::uint32_t>(
                                        rng.uniform(1u << 24))),
                 len);
        if (!as.v4.empty() && rng.uniform(3) == 0) {
          const Prefix& prev = as.v4[rng.uniform(as.v4.size())];
          p = rng.uniform(2) == 0
                  ? prev
                  : Prefix(prev.nth(rng.uniform(prev.size_clamped())),
                           std::min(32, prev.length() +
                                            1 + static_cast<int>(
                                                    rng.uniform(10))));
        }
        as.v4.push_back(p);
      }
    }
    if (families != 0) {
      // One /28 per AS; /32../72 announcements, some repeated.
      const std::uint64_t block = 0x2600000000000000ULL | (k << 36);
      const std::size_t n = 1 + rng.uniform(4);
      static const int kLens[] = {32, 40, 48, 56, 60, 62, 64, 72};
      for (std::size_t i = 0; i < n; ++i) {
        Prefix p(IpAddr::v6(block | (rng.u64() >> 28), rng.u64()),
                 kLens[rng.uniform(8)]);
        if (!as.v6.empty() && rng.uniform(4) == 0) {
          p = as.v6[rng.uniform(as.v6.size())];
        }
        as.v6.push_back(p);
      }
    }
    for (const auto* list : {&as.v4, &as.v6}) {
      for (const Prefix& p : *list) {
        ops.push_back({SelectOp::kAnnounce, as.asn, p, {}});
      }
    }
    ases.push_back(std::move(as));
  }

  // An address in `p`: at its first or last /24 (/64) or a random one, and
  // at the edge of that subprefix or anywhere in it.
  const auto addr_in = [&](const Prefix& p) {
    const int sub = p.family() == net::IpFamily::kV4 ? 24 : 64;
    const std::uint64_t subs =
        p.length() < sub ? p.count_subprefixes(sub) : 1;
    std::uint64_t index = 0;
    switch (rng.uniform(3)) {
      case 0: index = 0; break;
      case 1: index = subs - 1; break;
      default: index = rng.uniform(subs); break;
    }
    if (sub == 24) {
      static const std::uint32_t kHosts[] = {0, 255, 1, 254};
      const std::uint32_t host = rng.uniform(2) == 0
                                     ? kHosts[rng.uniform(4)]
                                     : static_cast<std::uint32_t>(
                                           rng.uniform(256));
      const std::uint32_t p24 =
          (p.base().v4_bits() >> 8) + static_cast<std::uint32_t>(index);
      return IpAddr::v4((p24 << 8) | host);
    }
    const std::uint64_t hi = p.base().bits().hi + index;
    const std::uint64_t lo =
        rng.uniform(2) == 0 ? rng.uniform(120) : rng.u64();
    return IpAddr::v6(hi, lo);
  };

  for (const AsPlan& as : ases) {
    for (const Prefix& p : as.v6) {  // hitlist /64s, some repeated
      const std::size_t n = rng.uniform(4);
      for (std::size_t i = 0; i < n; ++i) {
        const IpAddr a = addr_in(p);
        ops.push_back({SelectOp::kHitlist, 0, {}, a});
        if (rng.uniform(4) == 0) ops.push_back({SelectOp::kHitlist, 0, {}, a});
      }
    }
  }
  ops.push_back({SelectOp::kHitlist, 0, {}, IpAddr::must_parse("3fff::1")});
  ops.push_back({SelectOp::kHitlist, 0, {}, IpAddr::must_parse("20.0.0.1")});

  const std::size_t n_queries = 40 + rng.uniform(40);
  for (std::size_t i = 0; i < n_queries; ++i) {
    const AsPlan& as = ases[rng.uniform(ases.size())];
    const bool v4 = as.v6.empty() || (!as.v4.empty() && rng.uniform(2) == 0);
    const auto& list = v4 ? as.v4 : as.v6;
    SelectOp op{SelectOp::kQuery, as.asn, {},
                addr_in(list[rng.uniform(list.size())])};
    // Now and then the AS argument names another AS.
    if (rng.uniform(16) == 0) op.asn = ases[rng.uniform(ases.size())].asn;
    ops.push_back(op);
  }
  rng.shuffle(ops);
  return ops;
}

/// Greedy delta-debugging, as in the name property program: drop chunks of
/// ops (halving the chunk size) while the program still diverges.
std::vector<SelectOp> shrink_select_program(std::vector<SelectOp> ops,
                                            std::size_t cap,
                                            std::uint64_t seed) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (std::size_t start = 0; start + chunk <= ops.size();) {
        std::vector<SelectOp> candidate(ops.begin(),
                                        ops.begin() +
                                            static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
            ops.end());
        if (run_select_program(candidate, cap, seed)) {
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

TEST(SourceSelectProperty, RandomTopologiesMatchReferenceExactly) {
  for (const std::uint64_t seed : {1ull, 5ull, 17ull, 42ull, 99ull, 2020ull,
                                   31337ull, 777ull}) {
    for (const std::size_t cap : {std::size_t{97}, std::size_t{6}}) {
      std::vector<SelectOp> ops = gen_select_program(seed);
      if (const auto bad = run_select_program(ops, cap, seed)) {
        const auto minimal = shrink_select_program(std::move(ops), cap, seed);
        std::ostringstream program;
        for (const SelectOp& op : minimal) {
          program << "  " << format_op(op) << "\n";
        }
        FAIL() << "SourceSelector diverges from reference (" << *bad
               << "); seed=" << seed << " cap=" << cap << "; minimal program ("
               << minimal.size() << " ops, "
               << *run_select_program(minimal, cap, seed) << "):\n"
               << program.str();
      }
    }
  }
}

TEST(SourceSelector, CategoryNames) {
  EXPECT_EQ(scanner::source_category_name(SourceCategory::kOtherPrefix),
            "Other Prefix");
  EXPECT_EQ(scanner::source_category_name(SourceCategory::kLoopback),
            "Loopback");
}

}  // namespace
