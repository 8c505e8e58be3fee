#include "scanner/qname.h"

#include <array>
#include <charconv>
#include <span>

#include "dns/message.h"
#include "util/error.h"
#include "util/str.h"

namespace cd::scanner {

using cd::dns::DnsName;
using cd::net::IpAddr;

std::string query_mode_name(QueryMode mode) {
  switch (mode) {
    case QueryMode::kInitial: return "initial";
    case QueryMode::kV4Only: return "v4-only";
    case QueryMode::kV6Only: return "v6-only";
    case QueryMode::kTcp: return "tcp";
    case QueryMode::kOpen: return "open";
    case QueryMode::kCrossCheck: return "crosscheck";
    case QueryMode::kPoison: return "poison";
  }
  return "?";
}

namespace {

/// The subzone label a mode's queries resolve under; empty for the base zone.
std::string_view subzone_tag(QueryMode mode) {
  switch (mode) {
    case QueryMode::kV4Only: return "v4";
    case QueryMode::kV6Only: return "v6";
    case QueryMode::kTcp: return "tcp";
    case QueryMode::kPoison: return "poison";
    case QueryMode::kInitial:
    case QueryMode::kOpen:
    case QueryMode::kCrossCheck: return {};
  }
  return {};
}

std::optional<QueryMode> parse_mode_label(std::string_view label) {
  if (label.size() != 2 || label[0] != 'm') return std::nullopt;
  switch (label[1]) {
    case '0': return QueryMode::kInitial;
    case '1': return QueryMode::kV4Only;
    case '2': return QueryMode::kV6Only;
    case '3': return QueryMode::kTcp;
    case '4': return QueryMode::kOpen;
    case '5': return QueryMode::kCrossCheck;
    case '6': return QueryMode::kPoison;
    default: return std::nullopt;
  }
}

// Label formatters writing into caller-owned buffers, so encoding a name
// builds no strings.

template <typename Int>
std::string_view decimal_label(Int value, std::span<char, 24> buf) {
  const auto end = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  return {buf.data(), static_cast<std::size_t>(end.ptr - buf.data())};
}

/// 8 lowercase hex digits for v4, 32 for v6.
std::string_view addr_label(const IpAddr& addr, std::span<char, 32> buf) {
  if (addr.is_v4()) {
    cd::to_hex(addr.v4_bits(), buf.first(8));
    return {buf.data(), 8};
  }
  cd::to_hex(addr.bits().hi, buf.first(16));
  cd::to_hex(addr.bits().lo, buf.last(16));
  return {buf.data(), 32};
}

/// The labels a probe name puts in front of the base, leftmost first,
/// formatted into this object's own buffers (so it is neither copied nor
/// moved).
class ProbeLabels {
 public:
  ProbeLabels(const QnameInfo& info, std::string_view kw)
      // Every QueryMode is a single decimal digit.
      : mode_{'m', static_cast<char>('0' + static_cast<int>(info.mode))},
        labels_{decimal_label(info.ts, ts_),
                addr_label(info.src, src_),
                addr_label(info.dst, dst_),
                decimal_label(info.asn, asn_),
                {mode_.data(), mode_.size()},
                kw,
                subzone_tag(info.mode)},
        count_(labels_[6].empty() ? 6 : 7) {}
  ProbeLabels(const ProbeLabels&) = delete;
  ProbeLabels& operator=(const ProbeLabels&) = delete;

  [[nodiscard]] std::span<const std::string_view> labels() const {
    return std::span(labels_).first(count_);
  }

 private:
  std::array<char, 24> ts_, asn_;
  std::array<char, 32> src_, dst_;
  std::array<char, 2> mode_;
  std::array<std::string_view, 7> labels_;
  std::size_t count_;
};

}  // namespace

QnameCodec::QnameCodec(DnsName base, std::string kw)
    : base_(std::move(base)), kw_(cd::to_lower(kw)) {
  CD_ENSURE(!kw_.empty(), "QnameCodec: empty keyword");
  CD_ENSURE(kw_ != "v4" && kw_ != "v6" && kw_ != "tcp" && kw_ != "poison",
            "QnameCodec: keyword collides with subzone tag");
}

DnsName QnameCodec::zone_apex(QueryMode mode) const {
  const std::string_view tag = subzone_tag(mode);
  return tag.empty() ? base_ : base_.prepend(tag);
}

std::string QnameCodec::encode_addr(const IpAddr& addr) {
  std::array<char, 32> buf;
  return std::string(addr_label(addr, buf));
}

std::optional<IpAddr> QnameCodec::decode_addr(std::string_view label) {
  if (label.size() == 8) {
    const auto bits = cd::parse_hex_u64(label);
    if (!bits) return std::nullopt;
    return IpAddr::v4(static_cast<std::uint32_t>(*bits));
  }
  if (label.size() == 32) {
    const auto hi = cd::parse_hex_u64(label.substr(0, 16));
    const auto lo = cd::parse_hex_u64(label.substr(16));
    if (!hi || !lo) return std::nullopt;
    return IpAddr::v6(*hi, *lo);
  }
  return std::nullopt;
}

DnsName QnameCodec::encode(const QnameInfo& info) const {
  return base_.prepend(ProbeLabels(info, kw_).labels());
}

std::vector<std::uint8_t> QnameCodec::encode_query(
    std::uint16_t id, const QnameInfo& info) const {
  return cd::dns::encode_query_pooled(id, ProbeLabels(info, kw_).labels(),
                                      base_, cd::dns::RrType::kA, /*rd=*/true);
}

QnameCodec::Decoded QnameCodec::decode(const DnsName& qname) const {
  Decoded out;
  if (!qname.is_subdomain_of(base_)) return out;

  // Peel labels right-to-left above the base.
  const std::size_t remaining = qname.label_count() - base_.label_count();
  auto peek = [&](std::size_t from_right) -> std::optional<std::string_view> {
    if (from_right >= remaining) return std::nullopt;
    return qname.label(remaining - 1 - from_right);
  };

  std::size_t idx = 0;

  // Optional subzone tag.
  std::optional<QueryMode> zone_mode;
  if (const auto l = peek(idx)) {
    if (cd::iequals(*l, "v4")) zone_mode = QueryMode::kV4Only;
    if (cd::iequals(*l, "v6")) zone_mode = QueryMode::kV6Only;
    if (cd::iequals(*l, "tcp")) zone_mode = QueryMode::kTcp;
    if (cd::iequals(*l, "poison")) zone_mode = QueryMode::kPoison;
    if (zone_mode) ++idx;
  }

  // Keyword.
  const auto kw = peek(idx);
  if (!kw || !cd::iequals(*kw, kw_)) return out;
  out.in_experiment = true;
  out.mode = zone_mode;
  ++idx;

  // Mode label.
  if (const auto l = peek(idx)) {
    const auto mode = parse_mode_label(*l);
    if (!mode) return out;
    if (zone_mode && *zone_mode != *mode) return out;  // inconsistent name
    out.mode = mode;
    ++idx;
  } else {
    return out;
  }

  // ASN.
  if (const auto l = peek(idx)) {
    const auto asn = cd::parse_u64(*l);
    if (!asn || *asn > UINT32_MAX) return out;
    out.asn = static_cast<cd::sim::Asn>(*asn);
    ++idx;
  } else {
    return out;
  }

  // dst, then src.
  if (const auto l = peek(idx)) {
    out.dst = decode_addr(*l);
    if (!out.dst) return out;
    ++idx;
  } else {
    return out;
  }
  if (const auto l = peek(idx)) {
    out.src = decode_addr(*l);
    if (!out.src) return out;
    ++idx;
  } else {
    return out;
  }

  // Timestamp.
  if (const auto l = peek(idx)) {
    const auto ts = cd::parse_u64(*l);
    if (!ts) return out;
    out.ts = static_cast<cd::sim::SimTime>(*ts);
  }
  return out;
}

}  // namespace cd::scanner
