// Unit + property tests: experiment query-name codec.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "dns/message.h"
#include "scanner/qname.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using dns::DnsName;
using net::IpAddr;
using scanner::QnameCodec;
using scanner::QnameInfo;
using scanner::QueryMode;

QnameCodec codec() {
  return QnameCodec(DnsName::must_parse("dns-lab.org"), "x1");
}

TEST(QnameCodec, EncodeLayout) {
  QnameInfo info;
  info.ts = 123456;
  info.src = IpAddr::must_parse("192.168.0.10");
  info.dst = IpAddr::must_parse("20.1.2.3");
  info.asn = 64512;
  info.mode = QueryMode::kInitial;
  EXPECT_EQ(codec().encode(info).to_string(),
            "123456.c0a8000a.14010203.64512.m0.x1.dns-lab.org.");
}

TEST(QnameCodec, SubzonePerMode) {
  const auto c = codec();
  EXPECT_EQ(c.zone_apex(QueryMode::kInitial).to_string(), "dns-lab.org.");
  EXPECT_EQ(c.zone_apex(QueryMode::kOpen).to_string(), "dns-lab.org.");
  EXPECT_EQ(c.zone_apex(QueryMode::kV4Only).to_string(), "v4.dns-lab.org.");
  EXPECT_EQ(c.zone_apex(QueryMode::kV6Only).to_string(), "v6.dns-lab.org.");
  EXPECT_EQ(c.zone_apex(QueryMode::kTcp).to_string(), "tcp.dns-lab.org.");
}

TEST(QnameCodec, FullRoundTripAllModes) {
  const auto c = codec();
  for (const QueryMode mode :
       {QueryMode::kInitial, QueryMode::kV4Only, QueryMode::kV6Only,
        QueryMode::kTcp, QueryMode::kOpen}) {
    QnameInfo info;
    info.ts = 987654321;
    info.src = IpAddr::must_parse("2001:4860::8888");
    info.dst = IpAddr::must_parse("2400:19::7");
    info.asn = 4200000001;
    info.mode = mode;
    const auto decoded = c.decode(c.encode(info));
    ASSERT_TRUE(decoded.in_experiment);
    ASSERT_TRUE(decoded.full());
    EXPECT_EQ(*decoded.ts, info.ts);
    EXPECT_EQ(*decoded.src, info.src);
    EXPECT_EQ(*decoded.dst, info.dst);
    EXPECT_EQ(*decoded.asn, info.asn);
    EXPECT_EQ(*decoded.mode, mode);
  }
}

TEST(QnameCodec, RandomRoundTripProperty) {
  const auto c = codec();
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    QnameInfo info;
    info.ts = static_cast<sim::SimTime>(rng.u64() >> 2);
    const bool v4 = rng.chance(0.5);
    info.src = v4 ? IpAddr::v4(static_cast<std::uint32_t>(rng.u64()))
                  : IpAddr::v6(rng.u64(), rng.u64());
    info.dst = v4 ? IpAddr::v4(static_cast<std::uint32_t>(rng.u64()))
                  : IpAddr::v6(rng.u64(), rng.u64());
    info.asn = static_cast<sim::Asn>(rng.u64());
    info.mode = static_cast<QueryMode>(rng.uniform(5));
    const auto decoded = c.decode(c.encode(info));
    ASSERT_TRUE(decoded.full());
    ASSERT_EQ(*decoded.ts, info.ts);
    ASSERT_EQ(*decoded.src, info.src);
    ASSERT_EQ(*decoded.dst, info.dst);
    ASSERT_EQ(*decoded.asn, info.asn);
    ASSERT_EQ(*decoded.mode, info.mode);
  }
}

TEST(QnameCodec, PartialDecodeMinimizedNames) {
  const auto c = codec();
  // What a strictly QNAME-minimizing resolver leaks: the keyword suffix only.
  auto d = c.decode(DnsName::must_parse("x1.dns-lab.org"));
  EXPECT_TRUE(d.in_experiment);
  EXPECT_FALSE(d.full());
  EXPECT_FALSE(d.mode.has_value());

  d = c.decode(DnsName::must_parse("x1.v4.dns-lab.org"));
  EXPECT_TRUE(d.in_experiment);
  EXPECT_FALSE(d.full());
  ASSERT_TRUE(d.mode.has_value());  // inferred from the subzone tag
  EXPECT_EQ(*d.mode, QueryMode::kV4Only);

  // One more label: mode explicit, asn still missing.
  d = c.decode(DnsName::must_parse("m0.x1.dns-lab.org"));
  EXPECT_TRUE(d.in_experiment);
  EXPECT_EQ(*d.mode, QueryMode::kInitial);
  EXPECT_FALSE(d.asn.has_value());

  // With ASN but no dst.
  d = c.decode(DnsName::must_parse("64512.m0.x1.dns-lab.org"));
  EXPECT_EQ(*d.asn, 64512u);
  EXPECT_FALSE(d.dst.has_value());
  EXPECT_FALSE(d.full());
}

TEST(QnameCodec, ForeignNamesRejected) {
  const auto c = codec();
  EXPECT_FALSE(c.decode(DnsName::must_parse("www.example.com")).in_experiment);
  EXPECT_FALSE(c.decode(DnsName::must_parse("dns-lab.org")).in_experiment);
  // Right base but wrong keyword.
  EXPECT_FALSE(
      c.decode(DnsName::must_parse("1.2.3.4.m0.other.dns-lab.org"))
          .in_experiment);
  // Keyword present but garbage fields: in-experiment, not attributable.
  const auto d =
      c.decode(DnsName::must_parse("nothex.zz.bad.m0.x1.dns-lab.org"));
  EXPECT_TRUE(d.in_experiment);
  EXPECT_FALSE(d.full());
}

TEST(QnameCodec, InconsistentModeZoneRejected) {
  const auto c = codec();
  // m1 (v4-only) under the v6 subzone: attribution refused.
  const auto d = c.decode(
      DnsName::must_parse("1.0a000001.0a000002.5.m1.x1.v6.dns-lab.org"));
  EXPECT_TRUE(d.in_experiment);
  EXPECT_FALSE(d.full());
}

TEST(QnameCodec, AddrCodec) {
  EXPECT_EQ(QnameCodec::encode_addr(IpAddr::must_parse("10.0.0.1")),
            "0a000001");
  EXPECT_EQ(QnameCodec::decode_addr("0a000001"),
            IpAddr::must_parse("10.0.0.1"));
  const auto v6 = IpAddr::must_parse("2001:db8::42");
  EXPECT_EQ(QnameCodec::decode_addr(QnameCodec::encode_addr(v6)), v6);
  EXPECT_FALSE(QnameCodec::decode_addr("zz"));
  EXPECT_FALSE(QnameCodec::decode_addr("0a00"));      // wrong length
  EXPECT_FALSE(QnameCodec::decode_addr("0a0000xy"));  // bad hex
}

TEST(QnameCodec, KeywordGuards) {
  EXPECT_THROW(QnameCodec(DnsName::must_parse("dns-lab.org"), "v4"),
               InvariantError);
  EXPECT_THROW(QnameCodec(DnsName::must_parse("dns-lab.org"), "tcp"),
               InvariantError);
  EXPECT_THROW(QnameCodec(DnsName::must_parse("dns-lab.org"), ""),
               InvariantError);
}

TEST(QnameCodec, CaseInsensitiveKeyword) {
  const QnameCodec c(DnsName::must_parse("dns-lab.org"), "X1");
  EXPECT_TRUE(c.decode(DnsName::must_parse("x1.DNS-LAB.org")).in_experiment);
}

// The probe query writer against the message codec it stands in for: for
// every field extreme, family and mode, encode_query(id, info) must be the
// bytes of make_query(id, encode(info), A, rd=true).encode().
TEST(QnameCodec, EncodeQueryMatchesMakeQueryEncode) {
  const std::vector<QnameCodec> codecs = {
      codec(), QnameCodec(DnsName::must_parse("dns-lab.org"),
                          std::string(63, 'k'))};
  const std::vector<std::pair<IpAddr, IpAddr>> addrs = {
      {IpAddr::must_parse("192.168.0.10"), IpAddr::must_parse("20.1.2.3")},
      {IpAddr::must_parse("0.0.0.0"), IpAddr::must_parse("255.255.255.255")},
      {IpAddr::must_parse("fc00::10"), IpAddr::must_parse("2400:30:0:5::10")},
      {IpAddr::must_parse("::"),
       IpAddr::must_parse("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")}};
  const sim::SimTime ts_max = std::numeric_limits<sim::SimTime>::max();
  std::size_t checked = 0;
  for (const QnameCodec& c : codecs) {
    for (const auto& [src, dst] : addrs) {
      for (int m = 0; m <= static_cast<int>(QueryMode::kPoison); ++m) {
        for (const sim::SimTime ts : {sim::SimTime{0}, ts_max}) {
          for (const sim::Asn asn : {sim::Asn{0}, sim::Asn{UINT32_MAX}}) {
            const QnameInfo info{ts, src, dst, asn, static_cast<QueryMode>(m)};
            const auto id = static_cast<std::uint16_t>(checked * 7919);
            const std::vector<std::uint8_t> want =
                dns::make_query(id, c.encode(info), dns::RrType::kA,
                                /*rd=*/true)
                    .encode();
            std::vector<std::uint8_t> got = c.encode_query(id, info);
            EXPECT_EQ(got, want) << c.encode(info).to_string();
            BufferPool::release(std::move(got));
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u * 4 * 7 * 2 * 2);
}

TEST(QnameCodec, EncodeQueryRejectsWhatEncodeRejects) {
  // A v6 probe name under a 63-octet keyword and a long base passes 255
  // octets: both paths refuse it with the same error.
  const DnsName base = DnsName::must_parse(std::string(60, 'b') + "." +
                                           std::string(60, 'c') + ".org");
  const QnameCodec c(base, std::string(63, 'k'));
  const QnameInfo info{std::numeric_limits<sim::SimTime>::max(),
                       IpAddr::must_parse("fc00::10"),
                       IpAddr::must_parse("2400:30:0:5::10"), UINT32_MAX,
                       QueryMode::kV6Only};
  std::string encode_error, query_error;
  try {
    (void)c.encode(info);
  } catch (const InvariantError& e) {
    encode_error = e.what();
  }
  try {
    (void)c.encode_query(1, info);
  } catch (const InvariantError& e) {
    query_error = e.what();
  }
  EXPECT_NE(encode_error.find("DNS name too long"), std::string::npos)
      << encode_error;
  EXPECT_EQ(query_error, encode_error);
  // The same codec still writes a v4 probe, which fits.
  QnameInfo v4 = info;
  v4.src = IpAddr::must_parse("192.168.0.10");
  v4.dst = IpAddr::must_parse("20.1.2.3");
  v4.mode = QueryMode::kInitial;
  EXPECT_EQ(c.encode_query(2, v4),
            dns::make_query(2, c.encode(v4), dns::RrType::kA).encode());
}

TEST(QueryModeName, AllNamed) {
  EXPECT_EQ(scanner::query_mode_name(QueryMode::kInitial), "initial");
  EXPECT_EQ(scanner::query_mode_name(QueryMode::kTcp), "tcp");
  EXPECT_EQ(scanner::query_mode_name(QueryMode::kOpen), "open");
}

}  // namespace
