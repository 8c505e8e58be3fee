// DNS messages: header, questions, resource records, wire codec.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dns/name.h"
#include "net/ip.h"

namespace cd::dns {

enum class RrType : std::uint16_t {
  kA = 1,
  kNs = 2,
  kCname = 5,
  kSoa = 6,
  kPtr = 12,
  kTxt = 16,
  kAaaa = 28,
  kOpt = 41,  // EDNS pseudo-RR
  kAny = 255,
};

[[nodiscard]] std::string rr_type_name(RrType type);

enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

[[nodiscard]] std::string rcode_name(Rcode rcode);

enum class Opcode : std::uint8_t { kQuery = 0, kNotify = 4, kUpdate = 5 };

// --- rdata variants ---------------------------------------------------------

struct ARdata {
  cd::net::IpAddr addr;  // must be v4
  friend bool operator==(const ARdata&, const ARdata&) = default;
};
struct AaaaRdata {
  cd::net::IpAddr addr;  // must be v6
  friend bool operator==(const AaaaRdata&, const AaaaRdata&) = default;
};
struct NsRdata {
  DnsName nsdname;
  friend bool operator==(const NsRdata&, const NsRdata&) = default;
};
struct CnameRdata {
  DnsName target;
  friend bool operator==(const CnameRdata&, const CnameRdata&) = default;
};
struct PtrRdata {
  DnsName target;
  friend bool operator==(const PtrRdata&, const PtrRdata&) = default;
};
struct TxtRdata {
  std::string text;
  friend bool operator==(const TxtRdata&, const TxtRdata&) = default;
};
struct SoaRdata {
  DnsName mname;  // primary master; the paper points this at a project web host
  DnsName rname;  // responsible mailbox (contact / opt-out address)
  std::uint32_t serial = 0;
  std::uint32_t refresh = 7200;
  std::uint32_t retry = 3600;
  std::uint32_t expire = 1209600;
  std::uint32_t minimum = 300;  // negative-caching TTL
  friend bool operator==(const SoaRdata&, const SoaRdata&) = default;
};
/// Fallback for types we carry but do not interpret.
struct RawRdata {
  std::vector<std::uint8_t> bytes;
  friend bool operator==(const RawRdata&, const RawRdata&) = default;
};

using Rdata = std::variant<ARdata, AaaaRdata, NsRdata, CnameRdata, PtrRdata,
                           TxtRdata, SoaRdata, RawRdata>;

/// One resource record.
struct DnsRr {
  DnsName name;
  RrType type = RrType::kA;
  std::uint32_t ttl = 300;
  Rdata rdata;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const DnsRr&, const DnsRr&) = default;
};

[[nodiscard]] DnsRr make_a(const DnsName& name, const cd::net::IpAddr& addr,
                           std::uint32_t ttl = 300);
[[nodiscard]] DnsRr make_aaaa(const DnsName& name, const cd::net::IpAddr& addr,
                              std::uint32_t ttl = 300);
[[nodiscard]] DnsRr make_ns(const DnsName& name, const DnsName& nsdname,
                            std::uint32_t ttl = 300);
[[nodiscard]] DnsRr make_soa(const DnsName& name, const SoaRdata& soa,
                             std::uint32_t ttl = 300);
[[nodiscard]] DnsRr make_ptr(const DnsName& name, const DnsName& target,
                             std::uint32_t ttl = 300);
[[nodiscard]] DnsRr make_txt(const DnsName& name, std::string text,
                             std::uint32_t ttl = 300);
[[nodiscard]] DnsRr make_cname(const DnsName& name, const DnsName& target,
                               std::uint32_t ttl = 300);

struct DnsQuestion {
  DnsName qname;
  RrType qtype = RrType::kA;

  friend bool operator==(const DnsQuestion&, const DnsQuestion&) = default;
};

struct DnsHeader {
  std::uint16_t id = 0;
  bool qr = false;  // response?
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = false;  // recursion desired
  bool ra = false;  // recursion available
  Rcode rcode = Rcode::kNoError;

  friend bool operator==(const DnsHeader&, const DnsHeader&) = default;
};

/// A complete DNS message. encode()/decode() implement RFC 1035 wire format
/// with name compression in all sections.
struct DnsMessage {
  DnsHeader header;
  std::vector<DnsQuestion> questions;
  std::vector<DnsRr> answers;
  std::vector<DnsRr> authorities;
  std::vector<DnsRr> additionals;

  /// Appends the wire encoding through `w`. The writer's base must be the
  /// message start (compression offsets are writer-relative).
  void encode_into(cd::ByteWriter& w) const;
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Decodes from a reader spanning exactly one message; leaves the cursor
  /// after the last counted record.
  [[nodiscard]] static DnsMessage decode(cd::ByteReader& r);
  [[nodiscard]] static DnsMessage decode(std::span<const std::uint8_t> wire);

  /// First question's name, or root if none (convenience for logging).
  [[nodiscard]] const DnsName& qname() const;

  friend bool operator==(const DnsMessage&, const DnsMessage&) = default;
};

/// Encodes `m` into a buffer drawn from the thread-local cd::BufferPool, so
/// repeated encodes on one thread reuse capacity. Hand the result to a packet
/// payload (or release it back to the pool) instead of copying it.
[[nodiscard]] std::vector<std::uint8_t> encode_pooled(const DnsMessage& m);

/// The bytes of `make_query(id, suffix.prepend(labels), qtype, rd).encode()`
/// in a pooled buffer, written straight from the labels: no DnsName, no
/// DnsMessage. Throws what prepend() throws. Scanner probes, resolver
/// upstream queries and poison triggers are all one-question queries sent
/// once, so they are written this way.
[[nodiscard]] std::vector<std::uint8_t> encode_query_pooled(
    std::uint16_t id, std::span<const std::string_view> labels,
    const DnsName& suffix, RrType qtype, bool rd);

/// Builds a recursion-desired query with the given id.
[[nodiscard]] DnsMessage make_query(std::uint16_t id, const DnsName& qname,
                                    RrType qtype, bool rd = true);

/// Builds a response skeleton matching `query` (id, question echoed).
[[nodiscard]] DnsMessage make_response(const DnsMessage& query, Rcode rcode);

}  // namespace cd::dns
