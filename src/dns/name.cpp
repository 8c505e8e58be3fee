#include "dns/name.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "util/error.h"

namespace cd::dns {
namespace {

constexpr std::size_t kMaxLabel = 63;

constexpr std::uint64_t kHashSeed = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kHashMul = 0xFF51AFD7ED558CCDULL;

/// ASCII case fold of one octet (RFC 4343: only A-Z change).
std::uint8_t fold(std::uint8_t c) {
  return static_cast<std::uint8_t>(
      static_cast<unsigned>(c - 'A') < 26u ? c | 0x20 : c);
}

/// ASCII case fold of eight octets at once: every byte in 'A'..'Z' gains
/// 0x20; bytes with the high bit set are left alone.
std::uint64_t fold8(std::uint64_t x) {
  constexpr std::uint64_t k7f = 0x7F7F7F7F7F7F7F7FULL;
  constexpr std::uint64_t k80 = 0x8080808080808080ULL;
  const std::uint64_t low = x & k7f;
  const std::uint64_t at_least_a = low + 0x3F3F3F3F3F3F3F3FULL;  // >= 'A'
  const std::uint64_t past_z = low + 0x2525252525252525ULL;      // > 'Z'
  const std::uint64_t upper = at_least_a & ~past_z & ~x & k80;
  return x | (upper >> 2);
}

// load() masks by little-endian byte position.
static_assert(std::endian::native == std::endian::little);

/// The first min(n, 8) octets at `p` (n >= 1) as one zero-padded word. Reads
/// eight octets, so it is only used inside a name's block, which keeps
/// kSlack readable octets past its wire form.
std::uint64_t load(const std::uint8_t* p, std::size_t n) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return n >= 8 ? w : w & ((std::uint64_t{1} << (8 * n)) - 1);
}

bool folded_equal(const std::uint8_t* a, const std::uint8_t* b,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; i += 8) {
    if (fold8(load(a + i, n - i)) != fold8(load(b + i, n - i))) return false;
  }
  return true;
}

/// The hash of every suffix of the name whose labels start at offsets[0..n)
/// in `block`, in one right-to-left pass: out[k] hashes its k rightmost
/// labels. Each label's wire segment (length byte and octets) is folded
/// sixteen octets per multiply.
void hash_suffixes(const std::uint8_t* block, const std::uint8_t* offsets,
                   std::size_t n, std::uint32_t* out) {
  std::uint64_t h = kHashSeed;
  out[0] = static_cast<std::uint32_t>(h);
  for (std::size_t k = 1; k <= n; ++k) {
    const std::uint8_t* seg = block + offsets[n - k];
    const std::size_t len = 1 + std::size_t{seg[0]};
    for (std::size_t i = 0; i < len; i += 16) {
      const std::uint64_t a = fold8(load(seg + i, len - i));
      const std::uint64_t b =
          len - i > 8 ? fold8(load(seg + i + 8, len - i - 8)) : 0;
      const unsigned __int128 m =
          static_cast<unsigned __int128>(h ^ a) * (b ^ kHashMul);
      h = static_cast<std::uint64_t>(m) ^ static_cast<std::uint64_t>(m >> 64);
    }
    out[k] = static_cast<std::uint32_t>(h);
  }
}

/// Writes `labels` (leftmost first) into `out` as length-prefixed wire
/// labels and returns the octets written. Throws unless every label is 1-63
/// octets and the labels still fit in a name when followed by a
/// `tail`-octet suffix.
std::size_t write_labels(std::span<const std::string_view> labels,
                         std::size_t tail, std::uint8_t* out) {
  std::size_t len = 0;
  for (const std::string_view l : labels) {
    CD_ENSURE(!l.empty() && l.size() <= kMaxLabel, "bad DNS label");
    CD_ENSURE(len + 1 + l.size() + tail <= DnsName::kMaxWire,
              "DNS name too long");
    out[len] = static_cast<std::uint8_t>(l.size());
    std::memcpy(out + len + 1, l.data(), l.size());
    len += 1 + l.size();
  }
  return len;
}

/// True if the (possibly compressed) name written at `pos` in `msg` folds
/// equal to the uncompressed wire form `want`.
bool spells(std::span<const std::uint8_t> msg, std::size_t pos,
            std::span<const std::uint8_t> want) {
  std::size_t k = 0;
  for (std::size_t hops = 0; hops <= DnsName::kMaxLabels;) {
    if (pos >= msg.size()) return false;
    const std::uint8_t len = msg[pos];
    if ((len & 0xC0) == 0xC0) {
      if (pos + 1 >= msg.size()) return false;
      pos = (static_cast<std::size_t>(len & 0x3F) << 8) | msg[pos + 1];
      ++hops;
      continue;
    }
    if (len != want[k]) return false;
    if (len == 0) return true;
    if (pos + 1 + len > msg.size()) return false;
    for (std::size_t i = 1; i <= len; ++i) {
      if (fold(msg[pos + i]) != fold(want[k + i])) return false;
    }
    pos += 1 + len;
    k += 1 + len;
  }
  return false;
}

}  // namespace

DnsName::DnsName() noexcept
    : hash_(static_cast<std::uint32_t>(kHashSeed)), size_(1), labels_(0) {
  std::memset(inline_, 0, 1 + kSlack);  // the root byte and its slack
}

DnsName::DnsName(const DnsName& other)
    : hash_(other.hash_), size_(other.size_), labels_(other.labels_) {
  if (on_heap()) {
    heap_ = new std::uint8_t[block_size()];
    std::memcpy(heap_, other.heap_, block_size());
  } else {
    std::memcpy(inline_, other.inline_, kInline);
  }
}

DnsName::DnsName(DnsName&& other) noexcept
    : hash_(other.hash_), size_(other.size_), labels_(other.labels_) {
  std::memcpy(inline_, other.inline_, kInline);
  if (on_heap()) new (&other) DnsName();  // the heap block moved here
}

DnsName& DnsName::operator=(const DnsName& other) {
  if (this != &other) *this = DnsName(other);
  return *this;
}

DnsName& DnsName::operator=(DnsName&& other) noexcept {
  if (this != &other) {
    release();
    new (this) DnsName(std::move(other));
  }
  return *this;
}

DnsName::~DnsName() { release(); }

void DnsName::release() noexcept {
  if (on_heap()) delete[] heap_;
}

void DnsName::assign(std::span<const std::uint8_t> wire) {
  std::uint8_t starts[kMaxLabels];
  std::size_t n = 0;
  for (std::size_t pos = 0; wire[pos] != 0; pos += 1 + wire[pos]) {
    starts[n++] = static_cast<std::uint8_t>(pos);
  }
  assign(wire, {starts, n}, 0);
}

void DnsName::assign(std::span<const std::uint8_t> wire,
                     std::span<const std::uint8_t> starts, std::size_t base) {
  release();
  size_ = static_cast<std::uint8_t>(wire.size());
  labels_ = static_cast<std::uint8_t>(starts.size());
  std::uint8_t* block = inline_;
  if (on_heap()) block = heap_ = new std::uint8_t[block_size()];
  std::memcpy(block, wire.data(), wire.size());
  std::uint8_t* offsets = block + wire.size();
  std::memset(offsets, 0, kSlack);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    offsets[i] = static_cast<std::uint8_t>(starts[i] - base);
  }
  std::uint32_t hashes[kMaxLabels + 1];
  hash_suffixes(block, offsets, labels_, hashes);
  hash_ = hashes[labels_];
}

std::optional<DnsName> DnsName::parse(std::string_view s) {
  if (s.empty()) return std::nullopt;
  if (s == ".") return DnsName();
  if (s.back() == '.') s.remove_suffix(1);
  std::uint8_t wire[kMaxWire];
  std::size_t len = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i < s.size() && s[i] != '.') continue;
    const std::size_t l = i - start;
    if (l == 0 || l > kMaxLabel || len + 1 + l + 1 > kMaxWire) {
      return std::nullopt;
    }
    wire[len] = static_cast<std::uint8_t>(l);
    std::memcpy(wire + len + 1, s.data() + start, l);
    len += 1 + l;
    start = i + 1;
  }
  wire[len++] = 0;
  DnsName out;
  out.assign({wire, len});
  return out;
}

DnsName DnsName::must_parse(std::string_view s) {
  auto n = parse(s);
  if (!n) throw ParseError("bad DNS name: " + std::string(s));
  return std::move(*n);
}

std::string_view DnsName::label(std::size_t i) const {
  const std::uint8_t* seg = data() + offsets()[i];
  return {reinterpret_cast<const char*>(seg + 1), seg[0]};
}

std::string DnsName::to_string() const {
  if (is_root()) return ".";
  std::string out;
  out.reserve(size_);
  for (std::size_t i = 0; i < labels_; ++i) {
    out += label(i);
    out += '.';
  }
  return out;
}

DnsName DnsName::parent() const {
  return is_root() ? DnsName() : suffix(labels_ - 1u);
}

DnsName DnsName::prepend(std::string_view label) const {
  return prepend(std::span<const std::string_view>(&label, 1));
}

DnsName DnsName::prepend(std::span<const std::string_view> labels) const {
  std::uint8_t wire[kMaxWire];
  const std::size_t len = write_name(labels, *this, wire);
  DnsName out;
  out.assign({wire, len});
  return out;
}

bool DnsName::is_subdomain_of(const DnsName& ancestor) const {
  return suffix_equals(ancestor.labels_, ancestor);
}

DnsName DnsName::suffix(std::size_t n) const {
  if (n >= labels_) return *this;
  const auto wire = suffix_wire(n);
  DnsName out;
  out.assign(wire, {offsets() + (labels_ - n), n}, size_ - wire.size());
  return out;
}

std::span<const std::uint8_t> DnsName::suffix_wire(std::size_t n) const {
  const std::size_t start = n == 0 ? size_ - 1u : offsets()[labels_ - n];
  return {data() + start, size_ - start};
}

bool DnsName::suffix_equals(std::size_t n, const DnsName& other) const {
  if (n > labels_) return false;
  const auto wire = suffix_wire(n);
  return wire.size() == other.size_ &&
         folded_equal(wire.data(), other.data(), wire.size());
}

bool DnsName::operator==(const DnsName& other) const {
  return hash_ == other.hash_ && size_ == other.size_ &&
         folded_equal(data(), other.data(), size_);
}

bool DnsName::operator<(const DnsName& other) const {
  // Canonical DNS ordering: compare case-folded labels right to left.
  const std::size_t n = std::min(labels_, other.labels_);
  for (std::size_t i = 1; i <= n; ++i) {
    const std::string_view a = label(labels_ - i);
    const std::string_view b = other.label(other.labels_ - i);
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t k = 0; k < common; ++k) {
      const std::uint8_t ca = fold(static_cast<std::uint8_t>(a[k]));
      const std::uint8_t cb = fold(static_cast<std::uint8_t>(b[k]));
      if (ca != cb) return ca < cb;
    }
    if (a.size() != b.size()) return a.size() < b.size();
  }
  return labels_ < other.labels_;
}

SuffixHashes::SuffixHashes(const DnsName& name) : name_(name) {
  hash_suffixes(name.data(), name.offsets(), name.labels_, hashes_.data());
}

std::optional<std::uint16_t> NameCompressor::find(
    std::span<const std::uint8_t> wire, std::size_t hash,
    std::span<const std::uint8_t> msg) const {
  const auto h = static_cast<std::uint32_t>(hash);
  for (std::size_t i = 0; i < count_; ++i) {
    const Entry& e = inline_[i];
    if (e.hash == h && spells(msg, e.offset, wire)) return e.offset;
  }
  for (const Entry& e : overflow_) {
    if (e.hash == h && spells(msg, e.offset, wire)) return e.offset;
  }
  return std::nullopt;
}

void NameCompressor::add(std::size_t hash, std::uint16_t offset) {
  const Entry e{static_cast<std::uint32_t>(hash), offset};
  if (count_ < kInline) {
    inline_[count_++] = e;
  } else {
    overflow_.push_back(e);
  }
}

void encode_name(const DnsName& name, cd::ByteWriter& w,
                 NameCompressor* comp) {
  if (!comp) {
    w.bytes(name.wire());
    return;
  }
  // Find the longest suffix already in the message, remembering where each
  // missed suffix will land; then write the labels in front of the hit in
  // one piece, followed by a pointer to it (or by the root byte).
  const SuffixHashes hashes(name);
  const auto wire = name.wire();
  const std::size_t at = w.size();
  for (std::size_t n = name.label_count(); n > 0; --n) {
    const auto suffix = name.suffix_wire(n);
    const std::size_t start = wire.size() - suffix.size();
    if (const auto off = comp->find(suffix, hashes.hash(n), w.written())) {
      w.bytes(wire.first(start));
      w.u16(static_cast<std::uint16_t>(0xC000 | *off));
      return;
    }
    // Remember this suffix's offset if it is pointer-representable.
    if (at + start <= 0x3FFF) {
      comp->add(hashes.hash(n), static_cast<std::uint16_t>(at + start));
    }
  }
  w.bytes(wire);
}

std::size_t write_name(std::span<const std::string_view> labels,
                       const DnsName& suffix,
                       std::span<std::uint8_t, DnsName::kMaxWire> out) {
  const auto tail = suffix.wire();
  const std::size_t len = write_labels(labels, tail.size(), out.data());
  std::memcpy(out.data() + len, tail.data(), tail.size());
  return len + tail.size();
}

void encode_name(const DnsName& name, std::vector<std::uint8_t>& out,
                 NameCompressor* comp) {
  // Base the writer at offset 0: legacy callers treat `out` as the whole
  // message, so compression offsets must be absolute vector offsets.
  cd::ByteWriter w(out, 0);
  encode_name(name, w, comp);
}

DnsName decode_name(cd::ByteReader& r) {
  const std::span<const std::uint8_t> msg = r.whole();
  std::uint8_t wire[DnsName::kMaxWire];
  std::size_t len = 0;
  std::size_t pos = r.pos();
  std::size_t run = pos;  // start of the labels read in place since a jump
  bool jumped = false;
  std::size_t after_first_pointer = 0;
  int hops = 0;
  const auto flush_run = [&] {
    std::memcpy(wire + len, &msg[run], pos - run);
    len += pos - run;
  };

  for (;;) {
    if (pos >= msg.size()) throw ParseError("decode_name: out of bounds");
    const std::uint8_t l = msg[pos];
    if ((l & 0xC0) == 0xC0) {
      if (pos + 1 >= msg.size()) throw ParseError("decode_name: bad pointer");
      if (++hops > 32) throw ParseError("decode_name: pointer loop");
      const std::size_t target =
          (static_cast<std::size_t>(l & 0x3F) << 8) | msg[pos + 1];
      if (!jumped) {
        after_first_pointer = pos + 2;
        jumped = true;
      }
      if (target >= pos) throw ParseError("decode_name: forward pointer");
      flush_run();
      pos = run = target;
      continue;
    }
    if ((l & 0xC0) != 0) throw ParseError("decode_name: bad label type");
    if (l == 0) {
      flush_run();
      ++pos;
      break;
    }
    if (pos + 1 + l > msg.size()) {
      throw ParseError("decode_name: truncated label");
    }
    if (len + (pos - run) + 1 + l + 1 > DnsName::kMaxWire) {
      throw ParseError("decode_name: name too long");
    }
    pos += 1 + l;
  }
  wire[len++] = 0;

  r.seek(jumped ? after_first_pointer : pos);
  DnsName name;
  name.assign({wire, len});
  return name;
}

DnsName decode_name(std::span<const std::uint8_t> msg, std::size_t& offset) {
  cd::ByteReader r(msg, "decode_name");
  r.seek(offset);
  DnsName name = decode_name(r);
  offset = r.pos();
  return name;
}

}  // namespace cd::dns
