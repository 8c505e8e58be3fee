// Unit tests: collector (auth-side observation) semantics.
#include <gtest/gtest.h>

#include "scanner/collector.h"

namespace {

using namespace cd;
using net::IpAddr;
using scanner::Collector;
using scanner::QnameCodec;
using scanner::QnameInfo;
using scanner::QueryMode;
using scanner::SourceCategory;

QnameCodec codec() {
  return QnameCodec(dns::DnsName::must_parse("dns-lab.org"), "x1");
}

resolver::AuthLogEntry entry_for(const QnameInfo& info, IpAddr client,
                                 sim::SimTime at,
                                 std::uint16_t client_port = 4242,
                                 bool tcp = false) {
  resolver::AuthLogEntry entry;
  entry.time = at;
  entry.client = client;
  entry.client_port = client_port;
  entry.server = IpAddr::must_parse("199.7.2.1");
  entry.qname = codec().encode(info);
  entry.qtype = dns::RrType::kA;
  entry.tcp = tcp;
  if (tcp) {
    entry.syn = net::make_tcp(client, 40000, entry.server, 53,
                              net::TcpFlags{.syn = true});
  }
  return entry;
}

QnameInfo probe(const char* src, const char* dst, sim::SimTime ts,
                QueryMode mode = QueryMode::kInitial) {
  QnameInfo info;
  info.ts = ts;
  info.src = IpAddr::must_parse(src);
  info.dst = IpAddr::must_parse(dst);
  info.asn = 100;
  info.mode = mode;
  return info;
}

TEST(CategorizeSource, AllCategories) {
  const auto dst4 = IpAddr::must_parse("20.0.1.10");
  EXPECT_EQ(scanner::categorize_source(dst4, dst4), SourceCategory::kDstAsSrc);
  EXPECT_EQ(scanner::categorize_source(IpAddr::must_parse("127.0.0.1"), dst4),
            SourceCategory::kLoopback);
  EXPECT_EQ(
      scanner::categorize_source(IpAddr::must_parse("192.168.0.10"), dst4),
      SourceCategory::kPrivate);
  EXPECT_EQ(scanner::categorize_source(IpAddr::must_parse("20.0.1.99"), dst4),
            SourceCategory::kSamePrefix);
  EXPECT_EQ(scanner::categorize_source(IpAddr::must_parse("20.0.2.99"), dst4),
            SourceCategory::kOtherPrefix);

  const auto dst6 = IpAddr::must_parse("2400:1:0:5::10");
  EXPECT_EQ(scanner::categorize_source(IpAddr::must_parse("::1"), dst6),
            SourceCategory::kLoopback);
  EXPECT_EQ(scanner::categorize_source(IpAddr::must_parse("fc00::10"), dst6),
            SourceCategory::kPrivate);
  EXPECT_EQ(
      scanner::categorize_source(IpAddr::must_parse("2400:1:0:5::99"), dst6),
      SourceCategory::kSamePrefix);
  EXPECT_EQ(
      scanner::categorize_source(IpAddr::must_parse("2400:1:0:6::99"), dst6),
      SourceCategory::kOtherPrefix);
}

TEST(Collector, RecordsInitialHitAndFiresFirstHitOnce) {
  Collector collector(codec(), nullptr);
  int fired = 0;
  collector.set_first_hit_handler(
      [&](const scanner::TargetRecord& rec, const IpAddr& src) {
        ++fired;
        EXPECT_EQ(rec.target, IpAddr::must_parse("20.0.1.10"));
        EXPECT_EQ(src, IpAddr::must_parse("20.0.2.99"));
      });

  const auto dst = IpAddr::must_parse("20.0.1.10");
  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 1000),
                              dst, 2000));
  collector.observe(entry_for(probe("20.0.1.77", "20.0.1.10", 3000),
                              dst, 4000));
  EXPECT_EQ(fired, 1);

  const auto& rec = collector.records().at(dst);
  EXPECT_TRUE(rec.reachable());
  EXPECT_EQ(rec.first_hit_time, 2000);
  EXPECT_EQ(rec.sources_hit.size(), 2u);
  EXPECT_TRUE(rec.categories_hit.count(SourceCategory::kOtherPrefix));
  EXPECT_TRUE(rec.categories_hit.count(SourceCategory::kSamePrefix));
  EXPECT_EQ(rec.asn, 100u);
}

TEST(Collector, LifetimeThresholdExcludes) {
  ASSERT_EQ(scanner::kLifetimeThreshold, 10 * sim::kSecond);
  Collector collector(codec(), nullptr);
  // 11 seconds between probe send and auth arrival: a human replay.
  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0),
                              IpAddr::must_parse("20.0.1.10"),
                              11 * sim::kSecond));
  EXPECT_TRUE(collector.records().empty());
  EXPECT_EQ(collector.stats().excluded_lifetime, 1u);
  EXPECT_EQ(collector.lifetime_excluded_targets().size(), 1u);

  // Just inside the threshold is accepted.
  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0),
                              IpAddr::must_parse("20.0.1.10"),
                              10 * sim::kSecond));
  EXPECT_EQ(collector.records().size(), 1u);
}

TEST(Collector, QminPartialTrackedByAsn) {
  sim::Topology topo;
  topo.add_as(77);
  topo.announce(77, net::Prefix::must_parse("20.0.0.0/16"));
  Collector collector(codec(), &topo);

  resolver::AuthLogEntry entry;
  entry.time = 100;
  entry.client = IpAddr::must_parse("20.0.1.10");
  entry.qname = dns::DnsName::must_parse("x1.dns-lab.org");
  collector.observe(entry);

  EXPECT_EQ(collector.stats().qmin_partial, 1u);
  EXPECT_TRUE(collector.qmin_asns().count(77));
  EXPECT_TRUE(collector.records().empty());
}

TEST(Collector, ForeignNamesIgnored) {
  Collector collector(codec(), nullptr);
  resolver::AuthLogEntry entry;
  entry.qname = dns::DnsName::must_parse("www.example.com");
  collector.observe(entry);
  EXPECT_EQ(collector.stats().foreign, 1u);
  EXPECT_TRUE(collector.records().empty());
}

TEST(Collector, PortSamplesOnlyDirectSameFamilyFollowups) {
  Collector collector(codec(), nullptr);
  const auto dst = IpAddr::must_parse("20.0.1.10");
  // Direct v4-only follow-up: port recorded.
  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0,
                                    QueryMode::kV4Only),
                              dst, 1000, 5001));
  // Forwarded (different client): not recorded.
  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0,
                                    QueryMode::kV4Only),
                              IpAddr::must_parse("8.8.8.8"), 1000, 5002));
  // Initial-mode direct query: not a port sample.
  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0),
                              dst, 1000, 5003));
  const auto& rec = collector.records().at(dst);
  EXPECT_EQ(rec.ports_v4, (std::vector<std::uint16_t>{5001}));
  EXPECT_TRUE(rec.ports_v6.empty());
}

TEST(Collector, ForwardingFlagsUseFamilyForcedFollowupsOnly) {
  Collector collector(codec(), nullptr);
  const auto dst = IpAddr::must_parse("20.0.1.10");
  // Initial query via another client must NOT set forwarded.
  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0),
                              IpAddr::must_parse("8.8.8.8"), 1000));
  EXPECT_FALSE(collector.records().at(dst).forwarded_seen);
  // v4-only follow-up via another v4 client: forwarded.
  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0,
                                    QueryMode::kV4Only),
                              IpAddr::must_parse("8.8.8.8"), 1000));
  EXPECT_TRUE(collector.records().at(dst).forwarded_seen);
  EXPECT_TRUE(collector.records().at(dst).forwarders_seen.count(
      IpAddr::must_parse("8.8.8.8")));
  // v6-only follow-up answered from the host's *v4* address: family
  // mismatch, inconclusive, must not mark anything.
  Collector c2(codec(), nullptr);
  c2.observe(entry_for(probe("2400:1::9", "2400:1::10", 0,
                             QueryMode::kV6Only),
                       IpAddr::must_parse("20.0.1.10"), 1000));
  EXPECT_FALSE(c2.records().at(IpAddr::must_parse("2400:1::10")).direct_seen);
  EXPECT_FALSE(
      c2.records().at(IpAddr::must_parse("2400:1::10")).forwarded_seen);
}

TEST(Collector, OpenHitAndTcpSyn) {
  Collector collector(codec(), nullptr);
  const auto dst = IpAddr::must_parse("20.0.1.10");
  collector.observe(entry_for(probe("203.98.0.10", "20.0.1.10", 0,
                                    QueryMode::kOpen),
                              dst, 1000));
  EXPECT_TRUE(collector.records().at(dst).open_hit);

  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0,
                                    QueryMode::kTcp),
                              dst, 1000, 4242, /*tcp=*/true));
  const auto& rec = collector.records().at(dst);
  EXPECT_TRUE(rec.tcp_hit);
  ASSERT_TRUE(rec.tcp_syn.has_value());
  EXPECT_TRUE(rec.tcp_syn->tcp_flags.syn);

  // A forwarded TCP query must not override attribution.
  Collector c2(codec(), nullptr);
  c2.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0, QueryMode::kTcp),
                       IpAddr::must_parse("8.8.8.8"), 1000, 4242, true));
  EXPECT_FALSE(c2.records().at(dst).tcp_hit);
}

TEST(Collector, ClientInTargetAsFlag) {
  sim::Topology topo;
  topo.add_as(100);
  topo.announce(100, net::Prefix::must_parse("20.0.0.0/16"));
  topo.add_as(200);
  topo.announce(200, net::Prefix::must_parse("8.8.8.0/24"));
  Collector collector(codec(), &topo);
  const auto dst = IpAddr::must_parse("20.0.1.10");
  // Query from a *different* host in the same AS (middlebox §3.6.1 case).
  collector.observe(entry_for(probe("20.0.2.99", "20.0.1.10", 0),
                              IpAddr::must_parse("20.0.3.3"), 1000));
  EXPECT_TRUE(collector.records().at(dst).client_in_target_as);
}

}  // namespace
