// Unit tests: DNS message wire codec across all record types and flags.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dns/message.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using dns::DnsMessage;
using dns::DnsName;
using dns::DnsRr;
using dns::Rcode;
using dns::RrType;
using net::IpAddr;

DnsMessage round_trip(const DnsMessage& m) {
  return DnsMessage::decode(m.encode());
}

TEST(DnsMessage, HeaderFlagsRoundTrip) {
  DnsMessage m;
  m.header.id = 0xABCD;
  m.header.qr = true;
  m.header.aa = true;
  m.header.tc = true;
  m.header.rd = true;
  m.header.ra = true;
  m.header.rcode = Rcode::kNxDomain;
  m.header.opcode = dns::Opcode::kUpdate;
  EXPECT_EQ(round_trip(m), m);
}

TEST(DnsMessage, QueryRoundTrip) {
  const auto q = dns::make_query(42, DnsName::must_parse("x.example.org"),
                                 RrType::kAaaa);
  EXPECT_EQ(q.header.rd, true);
  EXPECT_EQ(round_trip(q), q);

  // A one-question query (here a probe-shaped name with repeated labels)
  // skips the compressor; its bytes must equal the compressing path's: the
  // header, then the question written through a fresh NameCompressor.
  const auto probe = dns::make_query(
      7, DnsName::must_parse("1a2b.c0000201.c0000202.64500.m1.a.a.dns-lab.org"),
      RrType::kA);
  const std::vector<std::uint8_t> wire = probe.encode();
  std::vector<std::uint8_t> want(wire.begin(), wire.begin() + 12);
  dns::NameCompressor comp;
  dns::encode_name(probe.qname(), want, &comp);
  want.insert(want.end(), {0, 1, 0, 1});  // qtype A, class IN
  EXPECT_EQ(wire, want);
  EXPECT_EQ(round_trip(probe), probe);
}

// Parameterized over every rdata type we interpret.
class RdataRoundTrip : public ::testing::TestWithParam<DnsRr> {};

TEST_P(RdataRoundTrip, EncodesAndDecodes) {
  DnsMessage m;
  m.header.qr = true;
  m.answers.push_back(GetParam());
  const DnsMessage out = round_trip(m);
  ASSERT_EQ(out.answers.size(), 1u);
  EXPECT_EQ(out.answers[0], GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, RdataRoundTrip,
    ::testing::Values(
        dns::make_a(DnsName::must_parse("a.example.org"),
                    IpAddr::must_parse("192.0.2.1"), 60),
        dns::make_aaaa(DnsName::must_parse("a.example.org"),
                       IpAddr::must_parse("2001:db8::1"), 61),
        dns::make_ns(DnsName::must_parse("example.org"),
                     DnsName::must_parse("ns1.example.org"), 62),
        dns::make_cname(DnsName::must_parse("www.example.org"),
                        DnsName::must_parse("host.example.org"), 63),
        dns::make_ptr(DnsName::must_parse("1.2.0.192.in-addr.arpa"),
                      DnsName::must_parse("host.example.org"), 64),
        dns::make_txt(DnsName::must_parse("example.org"), "hello world", 65),
        dns::make_soa(DnsName::must_parse("example.org"),
                      dns::SoaRdata{DnsName::must_parse("mname.example.org"),
                                    DnsName::must_parse("rname.example.org"),
                                    2019, 7200, 3600, 1209600, 300},
                      66)));

TEST(DnsMessage, LongTxtChunks) {
  const std::string text(700, 'x');
  DnsMessage m;
  m.answers.push_back(dns::make_txt(DnsName::must_parse("t.org"), text));
  const DnsMessage out = round_trip(m);
  const auto* txt = std::get_if<dns::TxtRdata>(&out.answers[0].rdata);
  ASSERT_NE(txt, nullptr);
  EXPECT_EQ(txt->text, text);
}

TEST(DnsMessage, EmptyTxt) {
  DnsMessage m;
  m.answers.push_back(dns::make_txt(DnsName::must_parse("t.org"), ""));
  const DnsMessage out = round_trip(m);
  EXPECT_EQ(std::get<dns::TxtRdata>(out.answers[0].rdata).text, "");
}

TEST(DnsMessage, AllSectionsRoundTrip) {
  DnsMessage m = dns::make_query(7, DnsName::must_parse("q.example.org"),
                                 RrType::kA);
  m.header.qr = true;
  m.answers.push_back(dns::make_cname(DnsName::must_parse("q.example.org"),
                                      DnsName::must_parse("r.example.org")));
  m.answers.push_back(dns::make_a(DnsName::must_parse("r.example.org"),
                                  IpAddr::must_parse("192.0.2.7")));
  m.authorities.push_back(dns::make_ns(DnsName::must_parse("example.org"),
                                       DnsName::must_parse("ns.example.org")));
  m.additionals.push_back(dns::make_a(DnsName::must_parse("ns.example.org"),
                                      IpAddr::must_parse("192.0.2.8")));
  EXPECT_EQ(round_trip(m), m);
}

TEST(DnsMessage, CompressionMakesRepeatedNamesCheap) {
  DnsMessage m = dns::make_query(1, DnsName::must_parse("host.example.org"),
                                 RrType::kA);
  DnsMessage big = m;
  for (int i = 0; i < 10; ++i) {
    big.answers.push_back(dns::make_a(DnsName::must_parse("host.example.org"),
                                      IpAddr::v4(0x01020300u + static_cast<unsigned>(i))));
  }
  // Each additional A record should cost far less than a full name.
  const std::size_t per_record =
      (big.encode().size() - m.encode().size()) / 10;
  EXPECT_LE(per_record, 16u);
  EXPECT_EQ(round_trip(big), big);
}

TEST(DnsMessage, UnknownTypeCarriedRaw) {
  DnsMessage m;
  DnsRr rr;
  rr.name = DnsName::must_parse("x.org");
  rr.type = static_cast<RrType>(99);
  rr.rdata = dns::RawRdata{{1, 2, 3, 4}};
  m.answers.push_back(rr);
  const DnsMessage out = round_trip(m);
  EXPECT_EQ(std::get<dns::RawRdata>(out.answers[0].rdata).bytes,
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(DnsMessage, DecodeTruncatedThrows) {
  auto wire = dns::make_query(9, DnsName::must_parse("abc.example.org"),
                              RrType::kA)
                  .encode();
  for (const std::size_t cut : {2ul, 11ul, wire.size() - 1}) {
    std::vector<std::uint8_t> trunc(wire.begin(),
                                    wire.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)DnsMessage::decode(trunc), ParseError) << cut;
  }
}

TEST(DnsMessage, MakeResponseEchoesQuestion) {
  const auto q = dns::make_query(55, DnsName::must_parse("q.org"), RrType::kA);
  const auto r = dns::make_response(q, Rcode::kRefused);
  EXPECT_TRUE(r.header.qr);
  EXPECT_EQ(r.header.id, 55);
  EXPECT_EQ(r.header.rcode, Rcode::kRefused);
  ASSERT_EQ(r.questions.size(), 1u);
  EXPECT_EQ(r.qname(), q.qname());
}

TEST(DnsMessage, QnameOfEmptyMessage) {
  EXPECT_EQ(DnsMessage{}.qname(), DnsName());
}

TEST(DnsMessage, WrongFamilyRdataRejected) {
  DnsMessage m;
  DnsRr rr;
  rr.name = DnsName::must_parse("x.org");
  rr.type = RrType::kA;
  rr.rdata = dns::ARdata{IpAddr::must_parse("2001:db8::1")};  // v6 in A
  m.answers.push_back(rr);
  EXPECT_THROW((void)m.encode(), InvariantError);
}

TEST(DnsMessage, NamesForTypesAndRcodes) {
  EXPECT_EQ(dns::rr_type_name(RrType::kA), "A");
  EXPECT_EQ(dns::rr_type_name(RrType::kAaaa), "AAAA");
  EXPECT_EQ(dns::rr_type_name(static_cast<RrType>(99)), "TYPE99");
  EXPECT_EQ(dns::rcode_name(Rcode::kNxDomain), "NXDOMAIN");
  EXPECT_EQ(dns::rcode_name(Rcode::kRefused), "REFUSED");
}

TEST(DnsMessage, RrToStringContainsFields) {
  const auto rr = dns::make_a(DnsName::must_parse("h.org"),
                              IpAddr::must_parse("192.0.2.1"), 77);
  const std::string s = rr.to_string();
  EXPECT_NE(s.find("h.org."), std::string::npos);
  EXPECT_NE(s.find("77"), std::string::npos);
  EXPECT_NE(s.find("192.0.2.1"), std::string::npos);
}

// --- bit-flip fuzz ----------------------------------------------------------
// Mirrors the test_util_pcap fuzzer: mutate valid wire messages and demand
// that decode() either succeeds (and the result re-encodes without crashing)
// or throws ParseError — never anything else, never an over-read (ASan runs
// this under the "fuzz" CTest label).

/// Seed corpus: one encoding of each interesting message shape.
std::vector<std::vector<std::uint8_t>> fuzz_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;

  // Experiment-template query (the hot path: every probe decodes one).
  corpus.push_back(
      dns::make_query(0x1234,
                      DnsName::must_parse(
                          "1f2e3d.c0000201.c0000202.64.m1.x1.v4.dns-lab.org"),
                      RrType::kA)
          .encode());

  // All-sections response over compression-friendly names (shared suffixes
  // exercise pointer encoding; flips here hit the pointer decode paths).
  {
    const auto q = dns::make_query(7, DnsName::must_parse("a.b.example.org"),
                                   RrType::kA);
    DnsMessage r = dns::make_response(q, Rcode::kNoError);
    r.answers.push_back(
        dns::make_a(q.qname(), IpAddr::must_parse("192.0.2.1"), 60));
    r.answers.push_back(dns::make_cname(
        q.qname(), DnsName::must_parse("c.b.example.org"), 60));
    r.authorities.push_back(
        dns::make_ns(DnsName::must_parse("example.org"),
                     DnsName::must_parse("ns1.example.org"), 300));
    r.additionals.push_back(
        dns::make_aaaa(DnsName::must_parse("ns1.example.org"),
                       IpAddr::must_parse("2001:db8::53"), 300));
    corpus.push_back(r.encode());
  }

  // Long TXT rdata (character-string length bytes to corrupt).
  {
    const auto q =
        dns::make_query(8, DnsName::must_parse("t.example.org"), RrType::kTxt);
    DnsMessage r = dns::make_response(q, Rcode::kNoError);
    r.answers.push_back(
        dns::make_txt(q.qname(), std::string(180, 'x'), 60));
    corpus.push_back(r.encode());
  }

  // Unknown-type RR carried as raw rdata.
  {
    const auto q =
        dns::make_query(9, DnsName::must_parse("raw.example.org"), RrType::kA);
    DnsMessage r = dns::make_response(q, Rcode::kNoError);
    DnsRr rr;
    rr.name = q.qname();
    rr.type = static_cast<RrType>(999);
    rr.ttl = 1;
    rr.rdata = dns::RawRdata{{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}};
    r.answers.push_back(rr);
    corpus.push_back(r.encode());
  }
  return corpus;
}

TEST(DnsBitFlipFuzz, MutationsDecodeOrThrowParseError) {
  const auto corpus = fuzz_corpus();
  Rng rng(0xD45F);
  for (int i = 0; i < 400; ++i) {
    auto wire = corpus[rng.uniform(corpus.size())];
    const std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t j = 0; j < flips; ++j) {
      wire[rng.uniform(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    try {
      const DnsMessage msg = DnsMessage::decode(wire);
      (void)msg.encode();  // a survivor must still round-trip sanely
    } catch (const ParseError&) {
      // expected for most mutations; anything else fails the test
    }
  }
}

// --- malformed-input regressions --------------------------------------------
// Hand-crafted wire bytes for decoder edge cases a random flip rarely finds.

/// A 12-byte header claiming `qdcount` questions and nothing else set.
std::vector<std::uint8_t> header_only(std::uint16_t qdcount) {
  std::vector<std::uint8_t> b(12, 0);
  b[1] = 1;  // id
  b[4] = static_cast<std::uint8_t>(qdcount >> 8);
  b[5] = static_cast<std::uint8_t>(qdcount & 0xFF);
  return b;
}

TEST(DnsMalformed, HeaderShorterThanTwelveBytesThrows) {
  for (std::size_t n = 0; n < 12; ++n) {
    const std::vector<std::uint8_t> wire(n, 0);
    EXPECT_THROW((void)DnsMessage::decode(wire), ParseError) << n;
  }
}

TEST(DnsMalformed, QdcountPastActualQuestionsThrows) {
  EXPECT_THROW((void)DnsMessage::decode(header_only(3)), ParseError);
}

TEST(DnsMalformed, LabelLengthRunsPastEndThrows) {
  auto wire = header_only(1);
  wire.push_back(63);  // 63-byte label announced, one byte present
  wire.push_back('a');
  EXPECT_THROW((void)DnsMessage::decode(wire), ParseError);
}

TEST(DnsMalformed, CompressionPointerSelfLoopRejected) {
  auto wire = header_only(1);
  wire.push_back(0xC0);  // pointer to offset 12 — itself
  wire.push_back(12);
  wire.insert(wire.end(), {0, 1, 0, 1});  // qtype A, qclass IN
  EXPECT_THROW((void)DnsMessage::decode(wire), ParseError);
}

TEST(DnsMalformed, CompressionPointerForwardChainRejected) {
  auto wire = header_only(1);
  wire.push_back(0xC0);  // offset 12 -> 14
  wire.push_back(14);
  wire.push_back(0xC0);  // offset 14 -> 12: a loop either way
  wire.push_back(12);
  wire.insert(wire.end(), {0, 1, 0, 1});
  EXPECT_THROW((void)DnsMessage::decode(wire), ParseError);
}

TEST(DnsMalformed, RdlengthPastEndThrows) {
  auto q = dns::make_query(1, DnsName::must_parse("r.org"), RrType::kA);
  q.header.qr = true;
  auto wire = q.encode();
  // Claim one answer: root name, type A, class IN, ttl 0, rdlength 200,
  // but only 4 rdata bytes follow.
  wire[7] = 1;  // ancount
  wire.insert(wire.end(), {0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00,
                           0x00, 0x00, 200, 1, 2, 3, 4});
  EXPECT_THROW((void)DnsMessage::decode(wire), ParseError);
}

}  // namespace
