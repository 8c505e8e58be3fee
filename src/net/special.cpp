#include "net/special.h"

namespace cd::net {
namespace {

std::vector<Prefix> make_v4_registry() {
  // RFC 6890 IPv4 special-purpose registry (plus multicast and class E).
  const char* kEntries[] = {
      "0.0.0.0/8",          // "this network"
      "10.0.0.0/8",         // private
      "100.64.0.0/10",      // shared address space (CGN)
      "127.0.0.0/8",        // loopback
      "169.254.0.0/16",     // link local
      "172.16.0.0/12",      // private
      "192.0.0.0/24",       // IETF protocol assignments
      "192.0.2.0/24",       // TEST-NET-1
      "192.88.99.0/24",     // 6to4 relay anycast
      "192.168.0.0/16",     // private
      "198.18.0.0/15",      // benchmarking
      "198.51.100.0/24",    // TEST-NET-2
      "203.0.113.0/24",     // TEST-NET-3
      "224.0.0.0/4",        // multicast
      "240.0.0.0/4",        // reserved (includes 255.255.255.255)
  };
  std::vector<Prefix> out;
  for (const char* e : kEntries) out.push_back(Prefix::must_parse(e));
  return out;
}

std::vector<Prefix> make_v6_registry() {
  const char* kEntries[] = {
      "::/128",            // unspecified
      "::1/128",           // loopback
      "::ffff:0:0/96",     // IPv4-mapped
      "64:ff9b::/96",      // IPv4-IPv6 translation
      "100::/64",          // discard-only
      "2001::/32",         // TEREDO
      "2001:2::/48",       // benchmarking
      "2001:db8::/32",     // documentation
      "2001:10::/28",      // ORCHID
      "2002::/16",         // 6to4
      "fc00::/7",          // unique-local
      "fe80::/10",         // link-local
      "ff00::/8",          // multicast
  };
  std::vector<Prefix> out;
  for (const char* e : kEntries) out.push_back(Prefix::must_parse(e));
  return out;
}

}  // namespace

const std::vector<Prefix>& special_purpose_registry(IpFamily family) {
  static const std::vector<Prefix> v4 = make_v4_registry();
  static const std::vector<Prefix> v6 = make_v6_registry();
  return family == IpFamily::kV4 ? v4 : v6;
}

bool is_special_purpose(const IpAddr& addr) {
  // The registry compiled to (mask, value) pairs: an address is inside an
  // entry when its masked bits equal the entry's base. A v4 address sits in
  // the low 32 bits with zeros above, so its masks cover those zeros too.
  struct Masked {
    U128 mask;
    U128 value;
  };
  const auto compile = [](IpFamily family) {
    std::vector<Masked> out;
    for (const Prefix& p : special_purpose_registry(family)) {
      const int pad = 128 - p.base().width();
      out.push_back({mask128(pad + p.length()), p.base().bits()});
    }
    return out;
  };
  static const std::vector<Masked> v4 = compile(IpFamily::kV4);
  static const std::vector<Masked> v6 = compile(IpFamily::kV6);
  const U128 bits = addr.bits();
  for (const Masked& m : addr.is_v4() ? v4 : v6) {
    if ((bits & m.mask) == m.value) return true;
  }
  return false;
}

bool is_private_v4(const IpAddr& addr) {
  static const Prefix k10 = Prefix::must_parse("10.0.0.0/8");
  static const Prefix k172 = Prefix::must_parse("172.16.0.0/12");
  static const Prefix k192 = Prefix::must_parse("192.168.0.0/16");
  return addr.is_v4() &&
         (k10.contains(addr) || k172.contains(addr) || k192.contains(addr));
}

bool is_unique_local_v6(const IpAddr& addr) {
  static const Prefix kUla = Prefix::must_parse("fc00::/7");
  return addr.is_v6() && kUla.contains(addr);
}

bool is_loopback(const IpAddr& addr) {
  // 127.0.0.0/8 or ::1. Every packet a host stack screens asks, so nothing
  // is parsed here.
  if (addr.is_v4()) return addr.v4_bits() >> 24 == 127;
  return addr.bits() == U128{0, 1};
}

}  // namespace cd::net
