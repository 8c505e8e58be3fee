// Unit tests: authoritative server behaviour (answers, negatives, TC
// forcing, query observers, TCP framing).
#include <gtest/gtest.h>

#include <algorithm>

#include "resolver/auth.h"
#include "sim/network.h"
#include "util/error.h"

namespace {

using namespace cd;
using dns::DnsMessage;
using dns::DnsName;
using dns::Rcode;
using dns::RrType;
using net::IpAddr;

struct AuthFixture {
  sim::EventLoop loop;
  sim::Topology topology;
  sim::Network network{topology, loop, Rng(11)};
  std::unique_ptr<sim::Host> host;
  std::unique_ptr<resolver::AuthServer> auth;
  std::vector<resolver::AuthLogEntry> seen;  // every query, via an observer

  AuthFixture() {
    topology.add_as(1);
    topology.announce(1, net::Prefix::must_parse("30.0.0.0/16"));
    topology.add_as(2);
    topology.announce(2, net::Prefix::must_parse("31.0.0.0/16"));
    host = std::make_unique<sim::Host>(
        network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
        std::vector<IpAddr>{IpAddr::must_parse("30.0.0.1")}, Rng(1), "auth");

    resolver::AuthConfig config;
    config.truncate_suffixes.push_back(DnsName::must_parse("tcp.test"));
    auth = std::make_unique<resolver::AuthServer>(*host, config);
    auth->add_observer(
        [this](const resolver::AuthLogEntry& entry) { seen.push_back(entry); });

    dns::SoaRdata soa;
    soa.mname = DnsName::must_parse("ns1.test");
    soa.rname = DnsName::must_parse("admin.test");
    auto zone = std::make_shared<dns::Zone>(DnsName::must_parse("test"), soa);
    zone->add(dns::make_a(DnsName::must_parse("www.test"),
                          IpAddr::must_parse("30.0.0.80")));
    zone->add(dns::make_ns(DnsName::must_parse("child.test"),
                           DnsName::must_parse("ns.child-host.test")));
    zone->add(dns::make_a(DnsName::must_parse("ns.child-host.test"),
                          IpAddr::must_parse("30.0.0.90")));
    auth->add_zone(zone);
  }

  DnsMessage ask(const char* qname, RrType type = RrType::kA,
                 bool tcp = false) {
    return auth->answer(dns::make_query(1, DnsName::must_parse(qname), type),
                        tcp);
  }
};

TEST(AuthServer, AnswersFromZone) {
  AuthFixture f;
  const auto resp = f.ask("www.test");
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(resp.header.aa);
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(resp.answers[0].rdata).addr,
            IpAddr::must_parse("30.0.0.80"));
}

TEST(AuthServer, NxDomainCarriesSoa) {
  AuthFixture f;
  const auto resp = f.ask("missing.test");
  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain);
  ASSERT_EQ(resp.authorities.size(), 1u);
  EXPECT_EQ(resp.authorities[0].type, RrType::kSoa);
}

TEST(AuthServer, NoDataCarriesSoa) {
  AuthFixture f;
  const auto resp = f.ask("www.test", RrType::kAaaa);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(resp.answers.empty());
  ASSERT_EQ(resp.authorities.size(), 1u);
  EXPECT_EQ(resp.authorities[0].type, RrType::kSoa);
}

TEST(AuthServer, DelegationIsNonAuthoritativeWithGlue) {
  AuthFixture f;
  const auto resp = f.ask("deep.child.test");
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_FALSE(resp.header.aa);
  ASSERT_EQ(resp.authorities.size(), 1u);
  EXPECT_EQ(resp.authorities[0].type, RrType::kNs);
  ASSERT_EQ(resp.additionals.size(), 1u);
}

TEST(AuthServer, RefusedOutOfZone) {
  AuthFixture f;
  EXPECT_EQ(f.ask("other.example").header.rcode, Rcode::kRefused);
}

TEST(AuthServer, TruncatesUdpUnderTcSuffix) {
  AuthFixture f;
  const auto udp_resp = f.ask("probe.tcp.test");
  EXPECT_TRUE(udp_resp.header.tc);
  EXPECT_TRUE(udp_resp.answers.empty());
  // Over TCP the truncation hack is bypassed and the zone answers normally.
  const auto tcp_resp = f.ask("probe.tcp.test", RrType::kA, /*tcp=*/true);
  EXPECT_FALSE(tcp_resp.header.tc);
  EXPECT_EQ(tcp_resp.header.rcode, Rcode::kNxDomain);
}

TEST(AuthServer, LogsUdpQueries) {
  AuthFixture f;
  const auto query = dns::make_query(7, DnsName::must_parse("www.test"),
                                     RrType::kA);
  f.network.send(net::make_udp(IpAddr::must_parse("31.0.0.9"), 4242,
                               IpAddr::must_parse("30.0.0.1"), 53,
                               query.encode()),
                 2);
  f.loop.run();
  ASSERT_EQ(f.seen.size(), 1u);
  const auto& entry = f.seen.front();
  EXPECT_EQ(entry.client, IpAddr::must_parse("31.0.0.9"));
  EXPECT_EQ(entry.client_port, 4242);
  EXPECT_EQ(entry.qname, DnsName::must_parse("www.test"));
  EXPECT_FALSE(entry.tcp);
  EXPECT_FALSE(entry.syn.has_value());
  EXPECT_EQ(f.auth->queries_served(), 1u);
}

TEST(AuthServer, ObserverInvoked) {
  AuthFixture f;
  int observed = 0;
  f.auth->add_observer([&](const resolver::AuthLogEntry&) { ++observed; });
  const auto query = dns::make_query(7, DnsName::must_parse("www.test"),
                                     RrType::kA);
  f.network.send(net::make_udp(IpAddr::must_parse("31.0.0.9"), 4242,
                               IpAddr::must_parse("30.0.0.1"), 53,
                               query.encode()),
                 2);
  f.loop.run();
  EXPECT_EQ(observed, 1);
}

TEST(AuthServer, IgnoresGarbageAndResponses) {
  AuthFixture f;
  f.network.send(net::make_udp(IpAddr::must_parse("31.0.0.9"), 4242,
                               IpAddr::must_parse("30.0.0.1"), 53,
                               {0xDE, 0xAD}),
                 2);
  DnsMessage response = dns::make_response(
      dns::make_query(9, DnsName::must_parse("www.test"), RrType::kA),
      Rcode::kNoError);
  f.network.send(net::make_udp(IpAddr::must_parse("31.0.0.9"), 4242,
                               IpAddr::must_parse("30.0.0.1"), 53,
                               response.encode()),
                 2);
  f.loop.run();
  EXPECT_TRUE(f.seen.empty());
  EXPECT_EQ(f.auth->queries_served(), 0u);
}

TEST(TcpFraming, RoundTrip) {
  const auto query = dns::make_query(7, DnsName::must_parse("a.test"),
                                     dns::RrType::kA, false);
  const cd::GatherBuf framed = resolver::tcp_frame_pooled(query);
  const std::vector<std::uint8_t> body = query.encode();
  // Zero-copy gather view: 2-byte BE length prefix inline, pooled body.
  ASSERT_EQ(framed.header_len, 2u);
  EXPECT_EQ(framed.header[0], static_cast<std::uint8_t>(body.size() >> 8));
  EXPECT_EQ(framed.header[1], static_cast<std::uint8_t>(body.size()));
  EXPECT_EQ(framed.body, body);
  EXPECT_EQ(framed.size(), body.size() + 2);
  // The coalesced wire form round-trips through both unframe flavours.
  const std::vector<std::uint8_t> wire = framed.to_vector();
  EXPECT_EQ(resolver::tcp_unframe(wire), body);
  const auto view = resolver::tcp_unframe_view(wire);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), body.begin(), body.end()));
}

TEST(TcpFraming, RejectsBadInput) {
  EXPECT_THROW((void)resolver::tcp_unframe(std::vector<std::uint8_t>{0}),
               ParseError);
  EXPECT_THROW((void)resolver::tcp_unframe(std::vector<std::uint8_t>{0, 9, 1}),
               ParseError);
  EXPECT_THROW(
      (void)resolver::tcp_unframe_view(std::vector<std::uint8_t>{0, 9, 1}),
      ParseError);
}

}  // namespace
