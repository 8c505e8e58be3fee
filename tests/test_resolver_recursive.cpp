// Integration tests: the recursive resolver against a miniature DNS
// hierarchy (root -> tld -> leaf) — iteration, caching, negatives, QNAME
// minimization, CNAME chasing, forwarding, ACLs, TCP fallback, retries.
#include <gtest/gtest.h>

#include "dns/cache.h"
#include "dns/message.h"
#include "net/packet.h"
#include "resolver/auth.h"
#include "resolver/recursive.h"
#include "resolver/software.h"
#include "sim/network.h"

namespace {

using namespace cd;
using dns::DnsMessage;
using dns::DnsName;
using dns::DnsRr;
using dns::Rcode;
using dns::RrType;
using net::IpAddr;
using resolver::QminMode;
using resolver::RecursiveResolver;
using resolver::ResolverConfig;

struct MiniLab {
  sim::EventLoop loop;
  sim::Topology topology;
  sim::Network network{topology, loop, Rng(31)};

  std::unique_ptr<sim::Host> root_host;
  std::unique_ptr<sim::Host> leaf_host;    // authoritative for example.test
  std::unique_ptr<sim::Host> v6only_host;  // authoritative for six.test
  std::unique_ptr<sim::Host> res_host;
  std::unique_ptr<resolver::AuthServer> root_auth;
  std::unique_ptr<resolver::AuthServer> leaf_auth;
  std::vector<resolver::AuthLogEntry> leaf_seen;  // leaf_auth's queries
  std::unique_ptr<resolver::AuthServer> v6_auth;
  std::unique_ptr<RecursiveResolver> res;

  const IpAddr root4 = IpAddr::must_parse("40.0.0.1");
  const IpAddr leaf4 = IpAddr::must_parse("40.0.1.1");
  const IpAddr v66 = IpAddr::must_parse("2400:40::66");
  const IpAddr res4 = IpAddr::must_parse("41.0.0.1");

  explicit MiniLab(ResolverConfig config = {}, bool give_resolver_v6 = false,
                   bool wildcard = false) {
    topology.add_as(1);
    topology.announce(1, net::Prefix::must_parse("40.0.0.0/16"));
    topology.announce(1, net::Prefix::must_parse("2400:40::/32"));
    topology.add_as(2);
    topology.announce(2, net::Prefix::must_parse("41.0.0.0/16"));
    topology.announce(2, net::Prefix::must_parse("2400:41::/32"));

    const auto& os = sim::os_profile(sim::OsId::kUbuntu1904);
    root_host = std::make_unique<sim::Host>(network, 1, os,
                                            std::vector<IpAddr>{root4}, Rng(1),
                                            "root");
    leaf_host = std::make_unique<sim::Host>(network, 1, os,
                                            std::vector<IpAddr>{leaf4}, Rng(2),
                                            "leaf");
    v6only_host = std::make_unique<sim::Host>(
        network, 1, os, std::vector<IpAddr>{v66}, Rng(3), "v6only");

    dns::SoaRdata soa;
    soa.mname = DnsName::must_parse("ns.root");
    soa.rname = DnsName::must_parse("admin.root");
    soa.minimum = 60;

    // Root zone: delegations to example.test (v4 glue) and six.test (v6-only
    // glue).
    auto root_zone = std::make_shared<dns::Zone>(DnsName(), soa);
    root_zone->add(dns::make_ns(DnsName::must_parse("example.test"),
                                DnsName::must_parse("ns.example.test")));
    root_zone->add(dns::make_a(DnsName::must_parse("ns.example.test"), leaf4));
    root_zone->add(dns::make_ns(DnsName::must_parse("six.test"),
                                DnsName::must_parse("ns.six.test")));
    root_zone->add(dns::make_aaaa(DnsName::must_parse("ns.six.test"), v66));
    // A glue-less delegation (NS target resolvable via example.test).
    root_zone->add(dns::make_ns(DnsName::must_parse("glueless.test"),
                                DnsName::must_parse("ns2.example.test")));

    auto leaf_zone =
        std::make_shared<dns::Zone>(DnsName::must_parse("example.test"), soa);
    leaf_zone->add(dns::make_a(DnsName::must_parse("www.example.test"),
                               IpAddr::must_parse("40.0.9.9")));
    leaf_zone->add(dns::make_a(DnsName::must_parse("ns2.example.test"),
                               leaf4));
    leaf_zone->add(
        dns::make_cname(DnsName::must_parse("alias.example.test"),
                        DnsName::must_parse("www.example.test")));
    leaf_zone->add(
        dns::make_cname(DnsName::must_parse("loop1.example.test"),
                        DnsName::must_parse("loop2.example.test")));
    leaf_zone->add(
        dns::make_cname(DnsName::must_parse("loop2.example.test"),
                        DnsName::must_parse("loop1.example.test")));
    if (wildcard) {
      leaf_zone->add(dns::make_a(
          DnsName::must_parse("*.kw.example.test"), leaf4));
    }

    auto v6_zone =
        std::make_shared<dns::Zone>(DnsName::must_parse("six.test"), soa);
    v6_zone->add(dns::make_a(DnsName::must_parse("host.six.test"),
                             IpAddr::must_parse("40.0.7.7")));

    root_auth = std::make_unique<resolver::AuthServer>(*root_host);
    root_auth->add_zone(root_zone);
    resolver::AuthConfig leaf_config;
    leaf_config.truncate_suffixes.push_back(
        DnsName::must_parse("tcp.example.test"));
    leaf_auth = std::make_unique<resolver::AuthServer>(*leaf_host,
                                                       leaf_config);
    leaf_auth->add_zone(leaf_zone);
    leaf_auth->add_observer([this](const resolver::AuthLogEntry& entry) {
      leaf_seen.push_back(entry);
    });
    v6_auth = std::make_unique<resolver::AuthServer>(*v6only_host);
    v6_auth->add_zone(v6_zone);

    std::vector<IpAddr> res_addrs{res4};
    if (give_resolver_v6) res_addrs.push_back(IpAddr::must_parse("2400:41::1"));
    res_host = std::make_unique<sim::Host>(network, 2, os, res_addrs, Rng(4),
                                           "resolver");
    resolver::RootHints hints;
    hints.servers = {root4};
    res = std::make_unique<RecursiveResolver>(
        *res_host, std::move(config), hints,
        std::make_unique<resolver::UniformRangeAllocator>(32768, 61000,
                                                          Rng(5)),
        Rng(6));
  }

  struct Outcome {
    bool done = false;
    Rcode rcode = Rcode::kServFail;
    std::vector<DnsRr> records;
  };

  Outcome resolve(const char* qname, RrType type = RrType::kA) {
    Outcome out;
    res->resolve(DnsName::must_parse(qname), type,
                 [&](Rcode rcode, const std::vector<DnsRr>& records) {
                   out.done = true;
                   out.rcode = rcode;
                   out.records = records;
                 });
    loop.run(1'000'000);
    return out;
  }
};

TEST(Recursive, IterativeResolutionThroughDelegation) {
  MiniLab lab;
  const auto out = lab.resolve("www.example.test");
  ASSERT_TRUE(out.done);
  EXPECT_EQ(out.rcode, Rcode::kNoError);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(out.records[0].rdata).addr,
            IpAddr::must_parse("40.0.9.9"));
  EXPECT_GE(lab.res->stats().upstream_queries, 2u);  // root + leaf
}

TEST(Recursive, NxDomainPropagates) {
  MiniLab lab;
  EXPECT_EQ(lab.resolve("nope.example.test").rcode, Rcode::kNxDomain);
}

TEST(Recursive, NoDataIsEmptyNoError) {
  MiniLab lab;
  const auto out = lab.resolve("www.example.test", RrType::kAaaa);
  EXPECT_EQ(out.rcode, Rcode::kNoError);
  EXPECT_TRUE(out.records.empty());
}

TEST(Recursive, SecondLookupServedFromCache) {
  MiniLab lab;
  (void)lab.resolve("www.example.test");
  const auto before = lab.res->stats().upstream_queries;
  const auto out = lab.resolve("www.example.test");
  EXPECT_EQ(out.rcode, Rcode::kNoError);
  EXPECT_EQ(lab.res->stats().upstream_queries, before);  // no new traffic
  EXPECT_GE(lab.res->stats().cache_hits, 1u);
}

TEST(Recursive, NegativeCacheSuppressesRequery) {
  MiniLab lab;
  (void)lab.resolve("gone.example.test");
  const auto before = lab.res->stats().upstream_queries;
  EXPECT_EQ(lab.resolve("gone.example.test").rcode, Rcode::kNxDomain);
  EXPECT_EQ(lab.res->stats().upstream_queries, before);
}

TEST(Recursive, DelegationNsCacheReused) {
  MiniLab lab;
  (void)lab.resolve("www.example.test");
  const auto before = lab.res->stats().upstream_queries;
  (void)lab.resolve("alias.example.test");
  // Second resolution skips the root: delegation + glue were cached.
  EXPECT_LE(lab.res->stats().upstream_queries - before, 3u);
  EXPECT_EQ(lab.root_auth->queries_served(), 1u);
}

TEST(Recursive, CnameChased) {
  MiniLab lab;
  const auto out = lab.resolve("alias.example.test");
  EXPECT_EQ(out.rcode, Rcode::kNoError);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].type, RrType::kCname);
  EXPECT_EQ(out.records[1].type, RrType::kA);
}

TEST(Recursive, CnameLoopGivesUp) {
  MiniLab lab;
  const auto out = lab.resolve("loop1.example.test");
  ASSERT_TRUE(out.done);
  EXPECT_EQ(out.rcode, Rcode::kServFail);
}

TEST(Recursive, GluelessDelegationResolvedOutOfBand) {
  MiniLab lab;
  const auto out = lab.resolve("anything.glueless.test");
  ASSERT_TRUE(out.done);
  // ns2.example.test resolves via example.test, then the query proceeds —
  // and the name does not exist in the (unconfigured) child, so SERVFAIL is
  // also acceptable once the NS itself resolves. What matters: no hang and
  // the NS fetch happened.
  EXPECT_GE(lab.leaf_auth->queries_served(), 1u);
}

TEST(Recursive, V6OnlyZoneUnreachableWithoutV6) {
  MiniLab lab;  // resolver is v4-only
  const auto out = lab.resolve("host.six.test");
  EXPECT_EQ(out.rcode, Rcode::kServFail);
  EXPECT_EQ(lab.v6_auth->queries_served(), 0u);
}

TEST(Recursive, V6OnlyZoneReachableWithV6) {
  MiniLab lab({}, /*give_resolver_v6=*/true);
  const auto out = lab.resolve("host.six.test");
  EXPECT_EQ(out.rcode, Rcode::kNoError);
  EXPECT_GE(lab.v6_auth->queries_served(), 1u);
}

TEST(Recursive, StrictQminHaltsOnNxDomain) {
  ResolverConfig config;
  config.qmin = QminMode::kStrict;
  MiniLab lab(config);
  const auto out = lab.resolve("a.b.kw.example.test");
  EXPECT_EQ(out.rcode, Rcode::kNxDomain);
  // The leaf auth saw only the minimized name, never the full one: the
  // paper's §3.6.4 attribution gap.
  bool saw_full = false;
  for (const auto& entry : lab.leaf_seen) {
    if (entry.qname == DnsName::must_parse("a.b.kw.example.test")) {
      saw_full = true;
    }
  }
  EXPECT_FALSE(saw_full);
  EXPECT_GE(lab.leaf_auth->queries_served(), 1u);
}

TEST(Recursive, RelaxedQminFallsBackToFullName) {
  ResolverConfig config;
  config.qmin = QminMode::kRelaxed;
  MiniLab lab(config);
  const auto out = lab.resolve("a.b.kw.example.test");
  EXPECT_EQ(out.rcode, Rcode::kNxDomain);
  bool saw_full = false;
  for (const auto& entry : lab.leaf_seen) {
    if (entry.qname == DnsName::must_parse("a.b.kw.example.test")) {
      saw_full = true;
    }
  }
  EXPECT_TRUE(saw_full);
}

TEST(Recursive, StrictQminTraversesWildcardZone) {
  ResolverConfig config;
  config.qmin = QminMode::kStrict;
  MiniLab lab(config, false, /*wildcard=*/true);
  const auto out = lab.resolve("a.b.kw.example.test");
  // The wildcard prevents mid-walk NXDOMAIN, so minimization walks to the
  // full name and gets the synthesized answer — the paper's proposed fix.
  EXPECT_EQ(out.rcode, Rcode::kNoError);
  ASSERT_FALSE(out.records.empty());
  bool saw_full = false;
  for (const auto& entry : lab.leaf_seen) {
    if (entry.qname == DnsName::must_parse("a.b.kw.example.test")) {
      saw_full = true;
    }
  }
  EXPECT_TRUE(saw_full);
}

TEST(Recursive, TcpFallbackOnTruncation) {
  MiniLab lab;
  const auto out = lab.resolve("probe.tcp.example.test");
  EXPECT_EQ(out.rcode, Rcode::kNxDomain);  // served over TCP
  EXPECT_GE(lab.res->stats().tcp_retries, 1u);
  bool saw_tcp = false;
  for (const auto& entry : lab.leaf_seen) {
    if (entry.tcp) {
      saw_tcp = true;
      EXPECT_TRUE(entry.syn.has_value());
    }
  }
  EXPECT_TRUE(saw_tcp);
}

TEST(Recursive, ForwardingModeUsesUpstream) {
  // Upstream: a second resolver (open) at 41.0.0.2; forwarder points at it.
  MiniLab lab;
  sim::Host upstream_host(lab.network, 2,
                          sim::os_profile(sim::OsId::kUbuntu1904),
                          {IpAddr::must_parse("41.0.0.2")}, Rng(8), "up");
  resolver::RootHints hints;
  hints.servers = {lab.root4};
  ResolverConfig up_config;
  up_config.open = true;
  RecursiveResolver upstream(
      upstream_host, up_config, hints,
      std::make_unique<resolver::UniformRangeAllocator>(1024, 65535, Rng(9)),
      Rng(10));

  sim::Host fwd_host(lab.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
                     {IpAddr::must_parse("41.0.0.3")}, Rng(11), "fwd");
  ResolverConfig fwd_config;
  fwd_config.open = true;
  fwd_config.forwarders = {IpAddr::must_parse("41.0.0.2")};
  RecursiveResolver forwarder(
      fwd_host, fwd_config, resolver::RootHints{},  // no hints needed
      std::make_unique<resolver::UniformRangeAllocator>(1024, 65535, Rng(12)),
      Rng(13));

  bool done = false;
  Rcode rcode = Rcode::kServFail;
  forwarder.resolve(DnsName::must_parse("www.example.test"), RrType::kA,
                    [&](Rcode r, const std::vector<DnsRr>&) {
                      done = true;
                      rcode = r;
                    });
  lab.loop.run(1'000'000);
  ASSERT_TRUE(done);
  EXPECT_EQ(rcode, Rcode::kNoError);
  // The authoritative side saw the upstream, not the forwarder.
  for (const auto& entry : lab.leaf_seen) {
    EXPECT_EQ(entry.client, IpAddr::must_parse("41.0.0.2"));
  }
  EXPECT_GE(upstream.stats().client_queries, 1u);
}

TEST(Recursive, AclRefusesOutsideClients) {
  ResolverConfig config;
  config.open = false;
  config.acl = {net::Prefix::must_parse("41.0.0.0/16")};
  MiniLab lab(config);
  EXPECT_TRUE(lab.res->acl_allows(IpAddr::must_parse("41.0.5.5")));
  EXPECT_FALSE(lab.res->acl_allows(IpAddr::must_parse("40.0.5.5")));
  // Self and loopback are always allowed.
  EXPECT_TRUE(lab.res->acl_allows(lab.res4));
  EXPECT_TRUE(lab.res->acl_allows(IpAddr::must_parse("127.0.0.1")));
}

TEST(Recursive, ClientQueryOverUdpAnsweredAndRefused) {
  ResolverConfig config;
  config.acl = {net::Prefix::must_parse("41.0.0.0/16")};
  MiniLab lab(config);

  // An allowed client host, capturing the response.
  sim::Host client(lab.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
                   {IpAddr::must_parse("41.0.0.200")}, Rng(14), "client");
  std::optional<DnsMessage> response;
  client.bind_udp(5555, [&](const net::Packet& pkt) {
    response = DnsMessage::decode(pkt.payload);
  });
  const auto query = dns::make_query(
      77, DnsName::must_parse("www.example.test"), RrType::kA);
  client.send_udp(IpAddr::must_parse("41.0.0.200"), 5555, lab.res4, 53,
                  query.encode());
  lab.loop.run(1'000'000);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.id, 77);
  EXPECT_TRUE(response->header.ra);
  EXPECT_EQ(response->header.rcode, Rcode::kNoError);
  ASSERT_EQ(response->answers.size(), 1u);

  // A denied client (different AS) gets REFUSED.
  sim::Host outsider(lab.network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
                     {IpAddr::must_parse("40.0.0.200")}, Rng(15), "outsider");
  std::optional<DnsMessage> refused;
  outsider.bind_udp(5556, [&](const net::Packet& pkt) {
    refused = DnsMessage::decode(pkt.payload);
  });
  outsider.send_udp(IpAddr::must_parse("40.0.0.200"), 5556, lab.res4, 53,
                    query.encode());
  lab.loop.run(1'000'000);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->header.rcode, Rcode::kRefused);
  EXPECT_EQ(lab.res->stats().refused, 1u);
}

TEST(Recursive, RetriesThenServfailWhenServerDead) {
  ResolverConfig config;
  config.query_timeout = sim::kSecond;
  config.max_retries = 1;
  MiniLab lab(config);
  lab.root_host.reset();  // the root goes dark
  const auto out = lab.resolve("www.example.test");
  ASSERT_TRUE(out.done);
  EXPECT_EQ(out.rcode, Rcode::kServFail);
  // 1 + 1 retry for the single root server.
  EXPECT_EQ(lab.res->stats().upstream_queries, 2u);
}

TEST(Recursive, SourcePortsComeFromAllocator) {
  // Fixed-port allocator: every upstream query must use port 4053.
  MiniLab lab;
  sim::Host host2(lab.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
                  {IpAddr::must_parse("41.0.0.9")}, Rng(16), "fixedres");
  resolver::RootHints hints;
  hints.servers = {lab.root4};
  RecursiveResolver fixed_res(
      host2, ResolverConfig{.open = true}, hints,
      std::make_unique<resolver::FixedPortAllocator>(4053), Rng(17));
  bool done = false;
  fixed_res.resolve(DnsName::must_parse("www.example.test"), RrType::kA,
                    [&](Rcode, const std::vector<DnsRr>&) { done = true; });
  lab.loop.run(1'000'000);
  ASSERT_TRUE(done);
  for (const auto& entry : lab.leaf_seen) {
    if (entry.client == IpAddr::must_parse("41.0.0.9")) {
      EXPECT_EQ(entry.client_port, 4053);
    }
  }
}

// --- upstream response validation (RFC 5452) ---------------------------------
//
// A resolver with a fixed source port and a sequential txid source is the
// easiest possible off-path target: the forger below knows the port (4053)
// and the txid (100 for the first upstream query). Each test forges a
// response that is correct in every dimension except one, injects it ahead
// of the genuine answer, and asserts the resolution still completes with
// the authoritative data — the forgery must be ignored, not merely lose.

struct ForgeLab {
  const IpAddr res_addr = IpAddr::must_parse("41.0.0.9");
  const IpAddr forged_target = IpAddr::must_parse("6.6.6.6");
  MiniLab lab;
  sim::Host host;
  RecursiveResolver res;

  ForgeLab()
      : host(lab.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
             {res_addr}, Rng(16), "target"),
        res(host, ResolverConfig{.open = true},
            resolver::RootHints{.servers = {lab.root4}},
            std::make_unique<resolver::FixedPortAllocator>(4053), Rng(17)) {
    res.set_txid_source(std::make_unique<resolver::SequentialTxidSource>(100));
  }

  /// Forged response claiming `src`:`src_port` answered our pending query
  /// for `qname` with an attacker-chosen A record.
  void forge(const IpAddr& src, std::uint16_t src_port, std::uint16_t dst_port,
             std::uint16_t txid, const char* qname) {
    DnsMessage fake = dns::make_response(
        dns::make_query(txid, DnsName::must_parse(qname), RrType::kA,
                        /*rd=*/false),
        Rcode::kNoError);
    fake.header.aa = true;
    fake.answers.push_back(
        dns::make_a(DnsName::must_parse(qname), forged_target, 600));
    lab.network.send(net::make_udp(src, src_port, res_addr, dst_port,
                                   dns::encode_pooled(fake)),
                     /*origin_asn=*/1);
  }

  MiniLab::Outcome resolve(const char* qname) {
    MiniLab::Outcome out;
    res.resolve(DnsName::must_parse(qname), RrType::kA,
                [&](Rcode rcode, const std::vector<DnsRr>& records) {
                  out.done = true;
                  out.rcode = rcode;
                  out.records = records;
                });
    lab.loop.run(1'000'000);
    return out;
  }

  void expect_legit(const MiniLab::Outcome& out) {
    ASSERT_TRUE(out.done);
    EXPECT_EQ(out.rcode, Rcode::kNoError);
    ASSERT_EQ(out.records.size(), 1u);
    EXPECT_EQ(std::get<dns::ARdata>(out.records[0].rdata).addr,
              IpAddr::must_parse("40.0.9.9"));
    const auto hit =
        res.cache().lookup(DnsName::must_parse("www.example.test"), RrType::kA,
                           lab.loop.now());
    ASSERT_EQ(hit.kind, dns::CacheHitKind::kPositive);
    EXPECT_EQ(std::get<dns::ARdata>(hit.records[0].rdata).addr,
              IpAddr::must_parse("40.0.9.9"));
  }
};

TEST(RecursiveValidation, TxidMismatchIsIgnored) {
  ForgeLab f;
  // Correct source, port, and question; txid off by one. Lands before the
  // root's genuine answer (cross-AS latency is >= 5ms).
  f.lab.loop.schedule_in(sim::kMillisecond, [&] {
    f.forge(f.lab.root4, 53, 4053, 101, "www.example.test");
  });
  f.expect_legit(f.resolve("www.example.test"));
}

TEST(RecursiveValidation, WrongSourceAddressIsIgnored) {
  ForgeLab f;
  // Exact port and txid, but from an address we never queried.
  f.lab.loop.schedule_in(sim::kMillisecond, [&] {
    f.forge(IpAddr::must_parse("40.0.0.99"), 53, 4053, 100,
            "www.example.test");
  });
  // A matching tuple from the right address but a non-53 source port is an
  // unsolicited datagram, not an answer.
  f.lab.loop.schedule_in(2 * sim::kMillisecond, [&] {
    f.forge(f.lab.root4, 5353, 4053, 100, "www.example.test");
  });
  f.expect_legit(f.resolve("www.example.test"));
}

TEST(RecursiveValidation, WrongQuestionSectionIsIgnored) {
  ForgeLab f;
  // Exact source, port, and txid — the classic pre-RFC 5452 hole — but the
  // echoed question names a different owner the attacker wants planted.
  f.lab.loop.schedule_in(sim::kMillisecond, [&] {
    f.forge(f.lab.root4, 53, 4053, 100, "evil.example.test");
  });
  f.expect_legit(f.resolve("www.example.test"));
  // The off-question name must not have leaked into the cache.
  EXPECT_EQ(f.res.cache()
                .lookup(DnsName::must_parse("evil.example.test"), RrType::kA,
                        f.lab.loop.now())
                .kind,
            dns::CacheHitKind::kMiss);
}

TEST(RecursiveValidation, LateAnswerAfterCacheFillIsDropped) {
  ForgeLab f;
  f.expect_legit(f.resolve("www.example.test"));
  const auto queries_before = f.res.stats().upstream_queries;
  // Replay a perfectly matching forgery after the pending entry is gone:
  // the race is over, the tuple is dead, the cache must keep the
  // authoritative answer.
  f.forge(f.lab.root4, 53, 4053, 100, "www.example.test");
  f.lab.loop.run(1'000'000);
  const auto hit = f.res.cache().lookup(
      DnsName::must_parse("www.example.test"), RrType::kA, f.lab.loop.now());
  ASSERT_EQ(hit.kind, dns::CacheHitKind::kPositive);
  EXPECT_EQ(std::get<dns::ARdata>(hit.records[0].rdata).addr,
            IpAddr::must_parse("40.0.9.9"));
  EXPECT_EQ(f.res.stats().upstream_queries, queries_before);
}

}  // namespace
