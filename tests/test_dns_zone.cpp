// Unit tests: zone lookup semantics (RFC 1034): answers, negatives,
// delegations with glue, wildcards, empty non-terminals; plus a randomized,
// self-shrinking program against the map-based reference zone
// (tests/reference_zone.h).
#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dns/zone.h"
#include "reference_zone.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using dns::DnsName;
using dns::LookupKind;
using dns::RrType;
using dns::Zone;
using net::IpAddr;

dns::SoaRdata test_soa() {
  dns::SoaRdata soa;
  soa.mname = DnsName::must_parse("ns1.example.org");
  soa.rname = DnsName::must_parse("admin.example.org");
  soa.minimum = 300;
  return soa;
}

Zone make_zone() {
  Zone zone(DnsName::must_parse("example.org"), test_soa());
  zone.add(dns::make_a(DnsName::must_parse("www.example.org"),
                       IpAddr::must_parse("192.0.2.1")));
  zone.add(dns::make_a(DnsName::must_parse("www.example.org"),
                       IpAddr::must_parse("192.0.2.2")));
  zone.add(dns::make_aaaa(DnsName::must_parse("www.example.org"),
                          IpAddr::must_parse("2001:db8::1")));
  zone.add(dns::make_cname(DnsName::must_parse("alias.example.org"),
                           DnsName::must_parse("www.example.org")));
  // Delegation with in-zone glue.
  zone.add(dns::make_ns(DnsName::must_parse("sub.example.org"),
                        DnsName::must_parse("ns.sub-host.example.org")));
  zone.add(dns::make_a(DnsName::must_parse("ns.sub-host.example.org"),
                       IpAddr::must_parse("192.0.2.53")));
  // A deep record creating empty non-terminals.
  zone.add(dns::make_txt(DnsName::must_parse("deep.empty.nodes.example.org"),
                         "here"));
  // Wildcard under services.
  zone.add(dns::make_a(DnsName::must_parse("*.services.example.org"),
                       IpAddr::must_parse("192.0.2.99")));
  return zone;
}

TEST(Zone, ExactAnswerReturnsFullRrset) {
  const Zone zone = make_zone();
  const auto result =
      zone.lookup(DnsName::must_parse("www.example.org"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_FALSE(result.wildcard);
}

TEST(Zone, AnswerIsTypeSpecific) {
  const Zone zone = make_zone();
  const auto result =
      zone.lookup(DnsName::must_parse("www.example.org"), RrType::kAaaa);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, RrType::kAaaa);
}

TEST(Zone, CnameReturnedForOtherTypes) {
  const Zone zone = make_zone();
  const auto result =
      zone.lookup(DnsName::must_parse("alias.example.org"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, RrType::kCname);
}

TEST(Zone, NoDataForMissingType) {
  const Zone zone = make_zone();
  const auto result =
      zone.lookup(DnsName::must_parse("www.example.org"), RrType::kTxt);
  EXPECT_EQ(result.kind, LookupKind::kNoData);
  ASSERT_TRUE(result.soa.has_value());
  EXPECT_EQ(result.soa->type, RrType::kSoa);
}

TEST(Zone, NxDomainWithSoa) {
  const Zone zone = make_zone();
  const auto result =
      zone.lookup(DnsName::must_parse("missing.example.org"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kNxDomain);
  EXPECT_TRUE(result.soa.has_value());
}

TEST(Zone, EmptyNonTerminalIsNoDataNotNxDomain) {
  const Zone zone = make_zone();
  for (const char* name : {"empty.nodes.example.org", "nodes.example.org"}) {
    const auto result = zone.lookup(DnsName::must_parse(name), RrType::kA);
    EXPECT_EQ(result.kind, LookupKind::kNoData) << name;
  }
}

TEST(Zone, DelegationWithGlue) {
  const Zone zone = make_zone();
  const auto result =
      zone.lookup(DnsName::must_parse("host.sub.example.org"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kDelegation);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, RrType::kNs);
  ASSERT_EQ(result.glue.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(result.glue[0].rdata).addr,
            IpAddr::must_parse("192.0.2.53"));
}

TEST(Zone, DelegationAppliesAtAndBelowCut) {
  const Zone zone = make_zone();
  EXPECT_EQ(zone.lookup(DnsName::must_parse("sub.example.org"), RrType::kA)
                .kind,
            LookupKind::kDelegation);
  EXPECT_EQ(zone.lookup(DnsName::must_parse("a.b.c.sub.example.org"),
                        RrType::kTxt)
                .kind,
            LookupKind::kDelegation);
}

TEST(Zone, ApexNsIsAnswerNotDelegation) {
  Zone zone(DnsName::must_parse("example.org"), test_soa());
  zone.add(dns::make_ns(DnsName::must_parse("example.org"),
                        DnsName::must_parse("ns1.example.org")));
  const auto result =
      zone.lookup(DnsName::must_parse("example.org"), RrType::kNs);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
}

TEST(Zone, WildcardSynthesis) {
  const Zone zone = make_zone();
  const auto result = zone.lookup(
      DnsName::must_parse("anything.services.example.org"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  EXPECT_TRUE(result.wildcard);
  ASSERT_EQ(result.records.size(), 1u);
  // Owner rewritten to the query name.
  EXPECT_EQ(result.records[0].name,
            DnsName::must_parse("anything.services.example.org"));
}

TEST(Zone, WildcardMatchesMultipleLabelsDeep) {
  const Zone zone = make_zone();
  const auto result = zone.lookup(
      DnsName::must_parse("a.b.c.services.example.org"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  EXPECT_TRUE(result.wildcard);
}

TEST(Zone, WildcardNoDataForOtherTypes) {
  const Zone zone = make_zone();
  const auto result = zone.lookup(
      DnsName::must_parse("x.services.example.org"), RrType::kTxt);
  EXPECT_EQ(result.kind, LookupKind::kNoData);
  EXPECT_TRUE(result.wildcard);
}

TEST(Zone, ExistingNameShadowsWildcard) {
  Zone zone(DnsName::must_parse("example.org"), test_soa());
  zone.add(dns::make_a(DnsName::must_parse("*.example.org"),
                       IpAddr::must_parse("192.0.2.99")));
  zone.add(dns::make_txt(DnsName::must_parse("real.example.org"), "t"));
  // real.example.org exists (with TXT only) -> NoData, not wildcard A.
  const auto result =
      zone.lookup(DnsName::must_parse("real.example.org"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kNoData);
  EXPECT_FALSE(result.wildcard);
}

TEST(Zone, NotInZone) {
  const Zone zone = make_zone();
  EXPECT_EQ(zone.lookup(DnsName::must_parse("example.com"), RrType::kA).kind,
            LookupKind::kNotInZone);
  EXPECT_EQ(zone.lookup(DnsName::must_parse("org"), RrType::kA).kind,
            LookupKind::kNotInZone);
}

TEST(Zone, AddOutOfZoneThrows) {
  Zone zone(DnsName::must_parse("example.org"), test_soa());
  EXPECT_THROW(zone.add(dns::make_a(DnsName::must_parse("other.com"),
                                    IpAddr::must_parse("192.0.2.1"))),
               InvariantError);
}

TEST(Zone, RootZoneContainsEverything) {
  Zone root(DnsName(), test_soa());
  root.add(dns::make_ns(DnsName::must_parse("org"),
                        DnsName::must_parse("ns.tld-host.net")));
  root.add(dns::make_a(DnsName::must_parse("ns.tld-host.net"),
                       IpAddr::must_parse("192.0.2.10")));
  const auto result =
      root.lookup(DnsName::must_parse("deep.name.under.org"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kDelegation);
  EXPECT_EQ(result.glue.size(), 1u);
}

TEST(Zone, RecordCount) {
  EXPECT_EQ(make_zone().record_count(), 8u);
}

TEST(Zone, SoaRr) {
  const Zone zone = make_zone();
  const auto rr = zone.soa_rr();
  EXPECT_EQ(rr.type, RrType::kSoa);
  EXPECT_EQ(rr.name, zone.origin());
  EXPECT_EQ(rr.ttl, 300u);  // negative TTL = SOA minimum
}

TEST(Zone, StarAsEmptyNonTerminalIsNoWildcard) {
  Zone zone(DnsName::must_parse("example.org"), test_soa());
  zone.add(dns::make_txt(DnsName::must_parse("x.*.example.org"), "t"));
  const auto result =
      zone.lookup(DnsName::must_parse("other.example.org"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kNxDomain);
  EXPECT_FALSE(result.wildcard);
  // The "*" name itself exists, holding nothing.
  EXPECT_EQ(zone.lookup(DnsName::must_parse("*.example.org"), RrType::kA).kind,
            LookupKind::kNoData);
}

TEST(Zone, LookupIgnoresCase) {
  const Zone zone = make_zone();
  const auto result =
      zone.lookup(DnsName::must_parse("WWW.Example.ORG"), RrType::kA);
  EXPECT_EQ(result.kind, LookupKind::kAnswer);
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_EQ(zone.lookup(DnsName::must_parse("host.SUB.example.org"),
                        RrType::kA)
                .kind,
            LookupKind::kDelegation);
}

// --- Property program against the reference zone -----------------------------
//
// A program adds records to a zone and queries it, on the production zone
// and the reference side by side, and compares the whole LookupResult:
// kind, records, glue, SOA and the wildcard bit, with names in their
// original case. A divergence is shrunk by greedy chunk removal, as in the
// name property program.

struct ZoneOp {
  enum Kind { kAdd, kQuery } kind;
  dns::DnsRr rr;     // kAdd
  DnsName qname;     // kQuery
  RrType qtype = RrType::kA;
};

std::string format_op(const ZoneOp& op) {
  if (op.kind == ZoneOp::kAdd) return "add " + op.rr.to_string();
  return "query " + op.qname.to_string() + " " + dns::rr_type_name(op.qtype);
}

std::string format_result(const dns::LookupResult& r) {
  std::ostringstream out;
  out << "kind " << static_cast<int>(r.kind)
      << (r.wildcard ? " wildcard" : "");
  for (const auto* section : {&r.records, &r.glue}) {
    out << (section == &r.records ? " records [" : " glue [");
    for (const dns::DnsRr& rr : *section) out << rr.to_string() << "; ";
    out << "]";
  }
  if (r.soa) out << " soa " << r.soa->to_string();
  return out.str();
}

/// The origins a program may use: the root, and names in mixed case.
const char* const kOrigins[] = {".", "example.org", "Dns-Lab.ORG"};

std::optional<std::string> run_zone_program(const std::vector<ZoneOp>& ops,
                                            std::uint64_t seed) {
  const DnsName origin = DnsName::must_parse(kOrigins[seed % 3]);
  Zone zone(origin, test_soa());
  dns::ref::Zone ref(origin, test_soa());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ZoneOp& op = ops[i];
    if (op.kind == ZoneOp::kAdd) {
      zone.add(op.rr);
      ref.add(op.rr);
      continue;
    }
    const std::string got = format_result(zone.lookup(op.qname, op.qtype));
    const std::string want = format_result(ref.lookup(op.qname, op.qtype));
    if (got != want) {
      return "op " + std::to_string(i) + " (" + format_op(op) +
             "):\n    got  " + got + "\n    want " + want;
    }
  }
  if (zone.record_count() != ref.record_count()) return "record_count differs";
  return std::nullopt;
}

std::vector<ZoneOp> gen_zone_program(std::uint64_t seed) {
  Rng rng(seed);
  const DnsName origin = DnsName::must_parse(kOrigins[seed % 3]);
  static const char* const kLabels[] = {"a", "b", "www", "ns", "*", "x",
                                        "Sub", "deep"};
  const auto random_case = [&](std::string s) {
    for (char& c : s) {
      if (rng.uniform(2) == 0) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      } else {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    return s;
  };
  // Owner names 1..4 labels below the origin, some sharing ancestors.
  std::vector<DnsName> pool;
  const auto extend = [&](const DnsName& base, std::size_t labels) {
    DnsName name = base;
    for (std::size_t k = 0; k < labels; ++k) {
      name = name.prepend(random_case(kLabels[rng.uniform(8)]));
    }
    return name;
  };
  for (std::size_t i = 0, n = 8 + rng.uniform(10); i < n; ++i) {
    const DnsName& base = pool.empty() || rng.uniform(2) == 0
                              ? origin
                              : pool[rng.uniform(pool.size())];
    pool.push_back(extend(base, 1 + rng.uniform(3)));
  }
  const DnsName outside = DnsName::must_parse("ns.Other-Host.net");
  const auto addr4 = [&] {
    return net::IpAddr::v4(0xC0000200u |
                           static_cast<std::uint32_t>(rng.uniform(256)));
  };

  std::vector<ZoneOp> ops;
  const auto add = [&](dns::DnsRr rr) {
    ops.push_back({ZoneOp::kAdd, std::move(rr), {}, RrType::kA});
  };
  const auto pick = [&]() -> const DnsName& {
    return pool[rng.uniform(pool.size())];
  };
  for (std::size_t i = 0, n = 20 + rng.uniform(30); i < n; ++i) {
    const DnsName& owner = pick();
    switch (rng.uniform(9)) {
      case 0:
      case 1: add(dns::make_a(owner, addr4())); break;
      case 2:
        add(dns::make_aaaa(owner, net::IpAddr::must_parse("2001:db8::53")));
        break;
      case 3: add(dns::make_txt(owner, "t" + std::to_string(i))); break;
      case 4: add(dns::make_cname(owner, pick())); break;
      case 5: {  // a zone cut, with glue inside or outside the zone
        const std::uint64_t where = rng.uniform(3);
        const DnsName target = where == 0   ? outside
                               : where == 1 ? owner.prepend("ns")
                                            : pick();
        add(dns::make_ns(owner, target));
        if (where != 0) add(dns::make_a(target, addr4()));
        if (where == 1 && rng.uniform(2) == 0) {
          add(dns::make_aaaa(target, net::IpAddr::must_parse("2001:db8::1")));
        }
        break;
      }
      case 6:  // NS at the origin: an answer, never a cut
        add(dns::make_ns(origin, rng.uniform(2) == 0 ? outside : pick()));
        break;
      case 7:  // "*" as an owner
        add(dns::make_a(owner.prepend("*"), addr4()));
        break;
      default:  // "*" only as an empty non-terminal
        add(dns::make_txt(owner.prepend("*").prepend("x"), "ent"));
        break;
    }
    if (rng.uniform(3) == 0) {
      // Queries between additions read the zone while it grows.
      ops.push_back({ZoneOp::kQuery, {}, extend(pick(), rng.uniform(3)),
                     RrType::kA});
    }
  }

  static const RrType kTypes[] = {RrType::kA, RrType::kAaaa, RrType::kTxt,
                                  RrType::kNs, RrType::kCname, RrType::kPtr};
  for (std::size_t i = 0, n = 80 + rng.uniform(60); i < n; ++i) {
    DnsName qname;
    switch (rng.uniform(6)) {
      case 0: qname = origin; break;
      case 1: qname = DnsName::must_parse("elsewhere.com"); break;
      case 2: qname = extend(origin, 1 + rng.uniform(4)); break;
      default: qname = extend(pick(), rng.uniform(3)); break;
    }
    // Re-case the whole name: lookups fold case.
    qname = DnsName::must_parse(random_case(qname.to_string()));
    ops.push_back({ZoneOp::kQuery, {}, qname, kTypes[rng.uniform(6)]});
  }
  return ops;
}

std::vector<ZoneOp> shrink_zone_program(std::vector<ZoneOp> ops,
                                        std::uint64_t seed) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (std::size_t start = 0; start + chunk <= ops.size();) {
        std::vector<ZoneOp> candidate(
            ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
            ops.end());
        if (run_zone_program(candidate, seed)) {
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

TEST(ZoneProperty, RandomZonesMatchReferenceExactly) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::vector<ZoneOp> ops = gen_zone_program(seed);
    if (const auto bad = run_zone_program(ops, seed)) {
      const auto minimal = shrink_zone_program(std::move(ops), seed);
      std::ostringstream program;
      for (const ZoneOp& op : minimal) program << "  " << format_op(op) << "\n";
      FAIL() << "Zone diverges from reference (" << *bad << "); seed=" << seed
             << "; minimal program (" << minimal.size() << " ops, "
             << *run_zone_program(minimal, seed) << "):\n"
             << program.str();
    }
  }
}

}  // namespace
