#include "core/spill.h"

#include <algorithm>
#include <concepts>
#include <optional>
#include <string_view>
#include <type_traits>

#include "net/packet.h"
#include "util/bytes.h"
#include "util/pcap.h"

namespace cd::core {

namespace {

using cd::net::IpAddr;

template <class R, class T>
concept Is = std::same_as<std::remove_const_t<R>, T>;

// --- field walks: the CDSP v4 layout of each record type ---------------------
//
// io(x...) encodes each member by its type (see Writer::put). io.key marks
// the member a keyed map indexes the record by; io.u32 marks 32-bit members
// stored at their own width (other 32-bit integers -- ASNs -- travel as u64
// and are range-checked on read); io.flags packs bools, and the presence of
// an optional, into one byte.

template <class IO, Is<cd::scanner::TargetRecord> R>
void fields(IO& io, R& r) {
  io.key(r.target);
  io(r.asn, r.sources_hit, r.categories_hit, r.first_hit_time,
     r.first_hit_source);
  io.flags(r.direct_seen, r.forwarded_seen, r.client_in_target_as, r.open_hit,
           r.tcp_hit, r.tcp_syn);
  io(r.forwarders_seen, r.ports_v4, r.ports_v6, r.tcp_syn);
}

template <class IO, Is<cd::scanner::PrefixRecord> R>
void fields(IO& io, R& r) {
  io.key(r.prefix);
  io(r.asn, r.hits);
  io.flags(r.direct_seen, r.forwarded_seen);
  io(r.responding);
}

template <class IO, Is<cd::attack::PoisonRecord> R>
void fields(IO& io, R& r) {
  io.key(r.victim);
  io(r.asn, r.software, r.os);
  io.flags(r.open, r.reachable, r.success);
  io.u32(r.rounds, r.success_round, r.poisoned_ttl);
  io(r.triggers, r.forged, r.observed_ports);
}

template <class IO, Is<cd::scanner::CollectorStats> R>
void fields(IO& io, R& s) {
  io(s.entries_seen, s.foreign, s.excluded_lifetime, s.qmin_partial);
}

template <class IO, Is<cd::sim::NetworkStats> R>
void fields(IO& io, R& s) {
  io(s.sent, s.delivered, s.delivery_batches, s.dropped_osav, s.dropped_dsav,
     s.dropped_martian, s.dropped_urpf, s.dropped_unrouted, s.dropped_no_host,
     s.dropped_stack);
}

template <class IO, Is<cd::sim::TransportCounters> R>
void fields(IO& io, R& s) {
  io(s.dials, s.accepts, s.session_reuses, s.session_messages, s.idle_closes,
     s.handshake_bytes);
}

// Capture records travel raw (time/annotation/bytes), not as a rendered
// pcap: merge re-canonicalizes, so rendering per shard would be waste.
template <class IO, Is<cd::pcap::PcapRecord> R>
void fields(IO& io, R& r) {
  io(r.time_us);
  io.u32(r.orig_len);
  io(r.annotation, r.bytes);
}

template <class IO, Is<cd::pcap::Capture> R>
void fields(IO& io, R& c) {
  io.u32(c.snaplen, c.linktype);
  io(c.records);
}

// --- the two directions ------------------------------------------------------

constexpr int enum_count(cd::scanner::SourceCategory) {
  return cd::scanner::kSourceCategoryCount;
}
constexpr int enum_count(cd::resolver::DnsSoftware) {
  return cd::resolver::kDnsSoftwareCount;
}
constexpr int enum_count(cd::sim::OsId) { return cd::sim::kOsIdCount; }

/// A lower bound on the bytes one encoded T occupies (bounds element counts
/// on read).
template <class T>
constexpr std::size_t min_size() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) return sizeof(T);
  return 1;
}

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : w_(out) {}

  template <class... T>
  void operator()(const T&... x) {
    (put(x), ...);
  }
  void key(const IpAddr& a) { put(a); }
  template <std::same_as<std::uint32_t>... T>
  void u32(const T&... x) {
    (w_.u32le(x), ...);
  }
  template <class... T>
  void flags(const T&... x) {
    unsigned byte = 0, bit = 1;
    ((byte |= present(x) ? bit : 0, bit <<= 1), ...);
    w_.u8(static_cast<std::uint8_t>(byte));
  }

 private:
  static bool present(bool b) { return b; }
  template <class T>
  static bool present(const std::optional<T>& o) {
    return o.has_value();
  }

  template <class T>
  void put(const T& x) {
    static_assert(!std::is_same_v<T, bool>, "bools travel in io.flags");
    if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>) {
      w_.u8(static_cast<std::uint8_t>(x));
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
      w_.u16le(x);
    } else if constexpr (std::is_integral_v<T>) {
      w_.u64le(static_cast<std::uint64_t>(x));
    } else if constexpr (std::is_same_v<T, IpAddr>) {
      w_.u8(x.is_v6() ? 6 : 4);
      w_.u64le(x.bits().hi);
      w_.u64le(x.bits().lo);
    } else if constexpr (std::is_same_v<T, cd::net::Packet>) {
      put(x.serialize());  // a packet travels as its wire bytes
    } else if constexpr (requires { x.has_value(); }) {
      if (x) put(*x);  // presence travels in a flags byte
    } else if constexpr (requires { typename T::mapped_type; }) {
      // Keyed by address and emitted in key order, whatever the container's
      // iteration order, so the encoding is a function of the value.
      std::vector<const typename T::value_type*> entries;
      entries.reserve(x.size());
      for (const auto& entry : x) entries.push_back(&entry);
      std::sort(entries.begin(), entries.end(),
                [](auto* a, auto* b) { return a->first < b->first; });
      w_.u64le(entries.size());
      for (const auto* entry : entries) {
        // A record's walk carries its own key (io.key).
        if constexpr (!std::is_class_v<typename T::mapped_type>) {
          put(entry->first);
        }
        put(entry->second);
      }
    } else if constexpr (requires { x.size(); x.begin(); }) {
      w_.u64le(x.size());
      for (const auto& element : x) put(element);
    } else {
      fields(*this, x);
    }
  }

  cd::ByteWriter w_;
};

/// Strict inverse of Writer: every value the writer cannot emit throws.
/// Reads always fill freshly constructed, empty values.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : r_(bytes, "spill") {}

  template <class... T>
  void operator()(T&... x) {
    (get(x), ...);
  }
  void key(IpAddr& a) {
    get(a);
    key_ = a;
  }
  template <std::same_as<std::uint32_t>... T>
  void u32(T&... x) {
    ((x = r_.u32le()), ...);
  }
  template <class... T>
  void flags(T&... x) {
    const unsigned byte = r_.u8();
    if ((byte >> sizeof...(T)) != 0) r_.fail("unknown flag bits");
    unsigned bit = 1;
    ((set(x, (byte & bit) != 0), bit <<= 1), ...);
  }

  [[noreturn]] void fail(std::string_view msg) const { r_.fail(msg); }
  [[nodiscard]] bool done() const { return r_.done(); }

 private:
  static void set(bool& b, bool v) { b = v; }
  template <class T>
  static void set(std::optional<T>& o, bool v) {
    if (v) o.emplace();  // placeholder: the payload follows later in the walk
  }

  template <class T>
  std::uint64_t count() {
    const std::uint64_t n = r_.u64le();
    if (n > r_.remaining() / min_size<T>()) r_.fail("count exceeds the file");
    return n;
  }

  template <class T>
  void get(T& x) {
    static_assert(!std::is_same_v<T, bool>, "bools travel in io.flags");
    if constexpr (std::is_enum_v<T>) {
      const std::uint8_t v = r_.u8();
      if (v >= enum_count(T{})) r_.fail("enum value out of range");
      x = static_cast<T>(v);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      x = r_.u8();
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
      x = r_.u16le();
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      const std::uint64_t v = r_.u64le();
      if (v > UINT32_MAX) r_.fail("32-bit value out of range");
      x = static_cast<std::uint32_t>(v);
    } else if constexpr (std::is_integral_v<T>) {
      x = static_cast<T>(r_.u64le());
    } else if constexpr (std::is_same_v<T, IpAddr>) {
      const std::uint8_t family = r_.u8();
      if (family != 4 && family != 6) r_.fail("bad address family");
      const std::uint64_t hi = r_.u64le();
      const std::uint64_t lo = r_.u64le();
      x = IpAddr::from_bits(
          family == 6 ? cd::net::IpFamily::kV6 : cd::net::IpFamily::kV4,
          cd::net::U128{hi, lo});
    } else if constexpr (std::is_same_v<T, cd::net::Packet>) {
      std::vector<std::uint8_t> wire;
      get(wire);
      x = cd::net::Packet::parse(wire);
      // The writer emits serialize() output; other bytes that parse (a
      // corrupted checksum, which parse ignores) are not a spill's.
      if (x.serialize() != wire) r_.fail("non-canonical packet bytes");
    } else if constexpr (requires { x.has_value(); }) {
      if (x) get(*x);
    } else if constexpr (requires { typename T::mapped_type; }) {
      const auto n = count<IpAddr>();
      for (std::uint64_t i = 0; i < n; ++i) {
        typename T::mapped_type v{};
        if constexpr (!std::is_class_v<decltype(v)>) get(key_);
        get(v);  // a record's walk reads its own key (io.key)
        if (!x.emplace(key_, std::move(v)).second) r_.fail("duplicate map key");
      }
    } else if constexpr (requires { typename T::key_type; }) {  // a set
      const auto n = count<typename T::value_type>();
      for (std::uint64_t i = 0; i < n; ++i) {
        typename T::value_type v{};
        get(v);
        if (!x.insert(v).second) r_.fail("duplicate set element");
      }
    } else if constexpr (requires { x.emplace_back(); }) {
      const auto n = count<typename T::value_type>();
      for (std::uint64_t i = 0; i < n; ++i) get(x.emplace_back());
    } else {
      fields(*this, x);
    }
  }

  cd::ByteReader r_;
  IpAddr key_;  // the key of the map entry being read
};

}  // namespace

std::vector<std::uint8_t> serialize_results(const ExperimentResults& results) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(kSpillMagic, kSpillVersion);
  fields(w, results);
  return out;
}

ExperimentResults parse_results(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  std::uint32_t magic = 0, version = 0;
  r.u32(magic, version);
  if (magic != kSpillMagic) r.fail("bad magic");
  if (version != kSpillVersion) r.fail("unsupported version");
  ExperimentResults results;
  fields(r, results);
  if (!r.done()) r.fail("trailing bytes");
  return results;
}

void write_results(const ExperimentResults& results, const std::string& path) {
  cd::pcap::write_file(path, serialize_results(results));
}

ExperimentResults read_results(const std::string& path) {
  return parse_results(cd::pcap::read_file(path));
}

}  // namespace cd::core
