// Experiment query-name codec.
//
// Implements the paper's §3.3 template `ts.src.dst.asn.kw.dns-lab.org`,
// extended with a mode label and per-mode subzones:
//
//   <ts>.<src>.<dst>.<asn>.<mode>.<kw>[.<v4|v6|tcp>].<base>
//
// where ts is the send time in decimal microseconds, src/dst are hex-encoded
// IP addresses (8 digits v4, 32 digits v6), asn is decimal, mode is `m<N>`,
// and the optional subzone selects IPv4-only / IPv6-only delegations or the
// TC-forcing zone used to elicit DNS-over-TCP. Decoding is tolerant of
// partial names so that QNAME-minimized queries (which only reveal a suffix)
// still yield whatever fields they carry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/name.h"
#include "net/ip.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace cd::scanner {

enum class QueryMode : std::uint8_t {
  kInitial = 0,     // reachability probe (base zone)
  kV4Only = 1,      // follow-up via the v4-only-delegated subzone
  kV6Only = 2,      // follow-up via the v6-only-delegated subzone
  kTcp = 3,         // follow-up via the TC-forcing subzone
  kOpen = 4,        // non-spoofed open-resolver check (base zone)
  kCrossCheck = 5,  // per-/24 prefix-scanner probe (base zone;
                    // scanner/crosscheck.h — the Closed Resolver modality)
  kPoison = 6,      // attacker trigger query via the anycast-delegated
                    // poison subzone (attack/poison.h)
};

[[nodiscard]] std::string query_mode_name(QueryMode mode);

/// Human-analyst replay filter (§3.6.3): a query whose embedded timestamp is
/// older than this on arrival is attributed to someone replaying a logged
/// name, not to our probes. The probe and cross-check collectors share it.
inline constexpr cd::sim::SimTime kLifetimeThreshold = 10 * cd::sim::kSecond;

struct QnameInfo {
  cd::sim::SimTime ts = 0;
  cd::net::IpAddr src;
  cd::net::IpAddr dst;
  cd::sim::Asn asn = 0;
  QueryMode mode = QueryMode::kInitial;
};

class QnameCodec {
 public:
  /// `base` is the experiment apex (e.g. dns-lab.org); `kw` is the
  /// per-experiment keyword label and must not collide with the subzone tags
  /// ("v4", "v6", "tcp", "poison").
  QnameCodec(cd::dns::DnsName base, std::string kw);

  [[nodiscard]] const cd::dns::DnsName& base() const { return base_; }
  [[nodiscard]] const std::string& keyword() const { return kw_; }

  /// The zone apex a mode's queries resolve under (base, or a subzone).
  [[nodiscard]] cd::dns::DnsName zone_apex(QueryMode mode) const;

  [[nodiscard]] cd::dns::DnsName encode(const QnameInfo& info) const;

  /// The wire bytes of `make_query(id, encode(info), A, rd=true)`, written
  /// into a pooled buffer without building the name (dns::encode_query_pooled).
  /// Throws what encode(info) throws.
  [[nodiscard]] std::vector<std::uint8_t> encode_query(
      std::uint16_t id, const QnameInfo& info) const;

  /// What decode() could recover. Fields appear right-to-left as labels are
  /// present; `full()` means the whole template parsed (src attribution is
  /// possible).
  struct Decoded {
    bool in_experiment = false;  // name is under base and carries our kw
    std::optional<QueryMode> mode;
    std::optional<cd::sim::Asn> asn;
    std::optional<cd::net::IpAddr> dst;
    std::optional<cd::net::IpAddr> src;
    std::optional<cd::sim::SimTime> ts;

    [[nodiscard]] bool full() const { return ts.has_value(); }
  };

  [[nodiscard]] Decoded decode(const cd::dns::DnsName& qname) const;

  /// Hex-encodes an address for use as a label (exposed for tests).
  [[nodiscard]] static std::string encode_addr(const cd::net::IpAddr& addr);
  [[nodiscard]] static std::optional<cd::net::IpAddr> decode_addr(
      std::string_view label);

 private:
  cd::dns::DnsName base_;
  std::string kw_;
};

}  // namespace cd::scanner
