#include "dns/message.h"

#include <algorithm>
#include <array>

#include "util/error.h"

namespace cd::dns {
namespace {

void encode_rdata(const DnsRr& rr, cd::ByteWriter& w, NameCompressor* comp) {
  // Reserve the RDLENGTH slot, then backfill after encoding.
  const std::size_t len_pos = w.reserve_u16();
  const std::size_t start = w.size();

  std::visit(
      [&](const auto& rd) {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          CD_ENSURE(rd.addr.is_v4(), "A rdata must be IPv4");
          w.bytes(rd.addr.to_bytes());
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          CD_ENSURE(rd.addr.is_v6(), "AAAA rdata must be IPv6");
          w.bytes(rd.addr.to_bytes());
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          encode_name(rd.nsdname, w, comp);
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          encode_name(rd.target, w, comp);
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          encode_name(rd.target, w, comp);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          // Character-strings of <= 255 bytes each.
          std::size_t pos = 0;
          while (pos < rd.text.size() || pos == 0) {
            const std::size_t chunk =
                std::min<std::size_t>(255, rd.text.size() - pos);
            w.u8(static_cast<std::uint8_t>(chunk));
            w.text(std::string_view(rd.text).substr(pos, chunk));
            pos += chunk;
            if (pos >= rd.text.size()) break;
          }
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          encode_name(rd.mname, w, comp);
          encode_name(rd.rname, w, comp);
          w.u32(rd.serial);
          w.u32(rd.refresh);
          w.u32(rd.retry);
          w.u32(rd.expire);
          w.u32(rd.minimum);
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          w.bytes(rd.bytes);
        }
      },
      rr.rdata);

  const std::size_t rdlen = w.size() - start;
  CD_ENSURE(rdlen <= 0xFFFF, "rdata too long");
  w.patch_u16(len_pos, static_cast<std::uint16_t>(rdlen));
}

// `r` spans the whole message with the cursor at the rdata start; on return
// the cursor is at the rdata end. Name-bearing rdata must keep its in-place
// bytes inside RDLENGTH (compression targets may point anywhere earlier).
Rdata decode_rdata(RrType type, cd::ByteReader& r, std::size_t rdlen) {
  const std::size_t rd_end = r.pos() + rdlen;
  const auto check_in_bounds = [&] {
    if (r.pos() > rd_end) throw ParseError("rdata name overruns RDLENGTH");
  };
  switch (type) {
    case RrType::kA: {
      if (rdlen != 4) throw ParseError("bad A rdlength");
      return ARdata{cd::net::IpAddr::v4(r.u32())};
    }
    case RrType::kAaaa: {
      if (rdlen != 16) throw ParseError("bad AAAA rdlength");
      // Sequence the reads: chaining r.u32() calls inside one expression
      // would leave their order unspecified.
      const auto u64be = [&r] {
        const std::uint64_t hi = r.u32();
        const std::uint64_t lo = r.u32();
        return (hi << 32) | lo;
      };
      const std::uint64_t hi = u64be();
      const std::uint64_t lo = u64be();
      return AaaaRdata{cd::net::IpAddr::v6(hi, lo)};
    }
    case RrType::kNs: {
      NsRdata rd{decode_name(r)};
      check_in_bounds();
      return rd;
    }
    case RrType::kCname: {
      CnameRdata rd{decode_name(r)};
      check_in_bounds();
      return rd;
    }
    case RrType::kPtr: {
      PtrRdata rd{decode_name(r)};
      check_in_bounds();
      return rd;
    }
    case RrType::kTxt: {
      cd::ByteReader rd(r.bytes(rdlen), "TXT rdata");
      std::string text;
      while (!rd.done()) {
        const std::size_t chunk = rd.u8();
        if (rd.remaining() < chunk) throw ParseError("bad TXT rdata");
        const auto s = rd.bytes(chunk);
        text.append(reinterpret_cast<const char*>(s.data()), s.size());
      }
      return TxtRdata{std::move(text)};
    }
    case RrType::kSoa: {
      SoaRdata soa;
      soa.mname = decode_name(r);
      soa.rname = decode_name(r);
      soa.serial = r.u32();
      soa.refresh = r.u32();
      soa.retry = r.u32();
      soa.expire = r.u32();
      soa.minimum = r.u32();
      if (r.pos() > rd_end) throw ParseError("bad SOA rdata");
      return soa;
    }
    default: {
      const auto raw = r.bytes(rdlen);
      return RawRdata{{raw.begin(), raw.end()}};
    }
  }
}

constexpr std::size_t kHeaderSize = 12;

/// The header's wire octets, for a message with the given section counts.
std::array<std::uint8_t, kHeaderSize> header_bytes(const DnsHeader& header,
                                                   std::uint16_t qd,
                                                   std::uint16_t an,
                                                   std::uint16_t ns,
                                                   std::uint16_t ar) {
  std::uint16_t flags = 0;
  if (header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(header.opcode) << 11;
  if (header.aa) flags |= 0x0400;
  if (header.tc) flags |= 0x0200;
  if (header.rd) flags |= 0x0100;
  if (header.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(header.rcode);
  std::array<std::uint8_t, kHeaderSize> out;
  std::size_t at = 0;
  for (const std::uint16_t v : {header.id, flags, qd, an, ns, ar}) {
    out[at++] = static_cast<std::uint8_t>(v >> 8);
    out[at++] = static_cast<std::uint8_t>(v);
  }
  return out;
}

/// A question's type and class (IN) octets, which follow its name.
std::array<std::uint8_t, 4> question_tail(RrType qtype) {
  const auto type = static_cast<std::uint16_t>(qtype);
  return {static_cast<std::uint8_t>(type >> 8), static_cast<std::uint8_t>(type),
          0, 1};
}

void encode_rr(const DnsRr& rr, cd::ByteWriter& w, NameCompressor* comp) {
  encode_name(rr.name, w, comp);
  w.u16(static_cast<std::uint16_t>(rr.type));
  w.u16(1);  // class IN
  w.u32(rr.ttl);
  encode_rdata(rr, w, comp);
}

DnsRr decode_rr(cd::ByteReader& r) {
  DnsRr rr;
  rr.name = decode_name(r);
  rr.type = static_cast<RrType>(r.u16());
  const std::uint16_t klass = r.u16();
  (void)klass;  // only IN supported; EDNS OPT reuses this field for UDP size
  rr.ttl = r.u32();
  const std::uint16_t rdlen = r.u16();
  if (r.remaining() < rdlen) throw ParseError("DnsMessage: truncated rdata");
  const std::size_t rd_end = r.pos() + rdlen;
  rr.rdata = decode_rdata(rr.type, r, rdlen);
  r.seek(rd_end);
  return rr;
}

}  // namespace

std::string rr_type_name(RrType type) {
  switch (type) {
    case RrType::kA: return "A";
    case RrType::kNs: return "NS";
    case RrType::kCname: return "CNAME";
    case RrType::kSoa: return "SOA";
    case RrType::kPtr: return "PTR";
    case RrType::kTxt: return "TXT";
    case RrType::kAaaa: return "AAAA";
    case RrType::kOpt: return "OPT";
    case RrType::kAny: return "ANY";
  }
  return "TYPE" + std::to_string(static_cast<int>(type));
}

std::string rcode_name(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError: return "NOERROR";
    case Rcode::kFormErr: return "FORMERR";
    case Rcode::kServFail: return "SERVFAIL";
    case Rcode::kNxDomain: return "NXDOMAIN";
    case Rcode::kNotImp: return "NOTIMP";
    case Rcode::kRefused: return "REFUSED";
  }
  return "RCODE" + std::to_string(static_cast<int>(rcode));
}

std::string DnsRr::to_string() const {
  std::string out = name.to_string() + " " + std::to_string(ttl) + " IN " +
                    rr_type_name(type) + " ";
  std::visit(
      [&](const auto& rd) {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          out += rd.addr.to_string();
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          out += rd.addr.to_string();
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          out += rd.nsdname.to_string();
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          out += rd.target.to_string();
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          out += rd.target.to_string();
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          out += '"' + rd.text + '"';
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          out += rd.mname.to_string() + " " + rd.rname.to_string() + " " +
                 std::to_string(rd.serial);
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          out += "\\# " + std::to_string(rd.bytes.size());
        }
      },
      rdata);
  return out;
}

DnsRr make_a(const DnsName& name, const cd::net::IpAddr& addr,
             std::uint32_t ttl) {
  return DnsRr{name, RrType::kA, ttl, ARdata{addr}};
}
DnsRr make_aaaa(const DnsName& name, const cd::net::IpAddr& addr,
                std::uint32_t ttl) {
  return DnsRr{name, RrType::kAaaa, ttl, AaaaRdata{addr}};
}
DnsRr make_ns(const DnsName& name, const DnsName& nsdname, std::uint32_t ttl) {
  return DnsRr{name, RrType::kNs, ttl, NsRdata{nsdname}};
}
DnsRr make_soa(const DnsName& name, const SoaRdata& soa, std::uint32_t ttl) {
  return DnsRr{name, RrType::kSoa, ttl, soa};
}
DnsRr make_ptr(const DnsName& name, const DnsName& target, std::uint32_t ttl) {
  return DnsRr{name, RrType::kPtr, ttl, PtrRdata{target}};
}
DnsRr make_txt(const DnsName& name, std::string text, std::uint32_t ttl) {
  return DnsRr{name, RrType::kTxt, ttl, TxtRdata{std::move(text)}};
}
DnsRr make_cname(const DnsName& name, const DnsName& target,
                 std::uint32_t ttl) {
  return DnsRr{name, RrType::kCname, ttl, CnameRdata{target}};
}

void DnsMessage::encode_into(cd::ByteWriter& w) const {
  NameCompressor comp;
  w.bytes(header_bytes(header, static_cast<std::uint16_t>(questions.size()),
                       static_cast<std::uint16_t>(answers.size()),
                       static_cast<std::uint16_t>(authorities.size()),
                       static_cast<std::uint16_t>(additionals.size())));

  // A lone question is the message's only name and nothing precedes it that
  // a pointer could reach, so it is written as is: the same bytes, without
  // hashing its suffixes (encode_query_pooled relies on this).
  const bool one_name = questions.size() == 1 && answers.empty() &&
                        authorities.empty() && additionals.empty();
  for (const DnsQuestion& q : questions) {
    encode_name(q.qname, w, one_name ? nullptr : &comp);
    w.bytes(question_tail(q.qtype));
  }
  for (const DnsRr& rr : answers) encode_rr(rr, w, &comp);
  for (const DnsRr& rr : authorities) encode_rr(rr, w, &comp);
  for (const DnsRr& rr : additionals) encode_rr(rr, w, &comp);
}

std::vector<std::uint8_t> DnsMessage::encode() const {
  std::vector<std::uint8_t> out;
  cd::ByteWriter w(out);
  encode_into(w);
  return out;
}

std::vector<std::uint8_t> encode_pooled(const DnsMessage& m) {
  std::vector<std::uint8_t> out = cd::BufferPool::acquire();
  cd::ByteWriter w(out);
  m.encode_into(w);
  return out;
}

std::vector<std::uint8_t> encode_query_pooled(
    std::uint16_t id, std::span<const std::string_view> labels,
    const DnsName& suffix, RrType qtype, bool rd) {
  DnsHeader header;
  header.id = id;
  header.rd = rd;
  std::array<std::uint8_t, kHeaderSize + DnsName::kMaxWire + 4> buf;
  std::ranges::copy(header_bytes(header, 1, 0, 0, 0), buf.begin());
  std::size_t len =
      kHeaderSize + write_name(labels, suffix,
                               std::span(buf).subspan<kHeaderSize,
                                                      DnsName::kMaxWire>());
  std::ranges::copy(question_tail(qtype), buf.begin() + len);
  len += 4;
  std::vector<std::uint8_t> out = cd::BufferPool::acquire();
  out.assign(buf.begin(), buf.begin() + len);
  return out;
}

DnsMessage DnsMessage::decode(cd::ByteReader& r) {
  DnsMessage m;
  m.header.id = r.u16();
  const std::uint16_t flags = r.u16();
  m.header.qr = flags & 0x8000;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  m.header.aa = flags & 0x0400;
  m.header.tc = flags & 0x0200;
  m.header.rd = flags & 0x0100;
  m.header.ra = flags & 0x0080;
  m.header.rcode = static_cast<Rcode>(flags & 0xF);
  const std::uint16_t qd = r.u16();
  const std::uint16_t an = r.u16();
  const std::uint16_t ns = r.u16();
  const std::uint16_t ar = r.u16();

  for (int i = 0; i < qd; ++i) {
    DnsQuestion q;
    q.qname = decode_name(r);
    q.qtype = static_cast<RrType>(r.u16());
    r.u16();  // class
    m.questions.push_back(std::move(q));
  }
  for (int i = 0; i < an; ++i) m.answers.push_back(decode_rr(r));
  for (int i = 0; i < ns; ++i) m.authorities.push_back(decode_rr(r));
  for (int i = 0; i < ar; ++i) m.additionals.push_back(decode_rr(r));
  return m;
}

DnsMessage DnsMessage::decode(std::span<const std::uint8_t> wire) {
  cd::ByteReader r(wire, "DnsMessage");
  return decode(r);
}

const DnsName& DnsMessage::qname() const {
  static const DnsName kRoot;
  return questions.empty() ? kRoot : questions.front().qname;
}

DnsMessage make_query(std::uint16_t id, const DnsName& qname, RrType qtype,
                      bool rd) {
  DnsMessage m;
  m.header.id = id;
  m.header.rd = rd;
  m.questions.push_back(DnsQuestion{qname, qtype});
  return m;
}

DnsMessage make_response(const DnsMessage& query, Rcode rcode) {
  DnsMessage m;
  m.header.id = query.header.id;
  m.header.qr = true;
  m.header.rd = query.header.rd;
  m.header.rcode = rcode;
  m.questions = query.questions;
  return m;
}

}  // namespace cd::dns
