// Reference DNS names for the name-layer property tests: the original
// label-list DnsName (one std::string per label) and its string-keyed
// NameCompressor, kept verbatim as the oracle for the flat wire-form
// dns::DnsName (tests/test_dns_name.cpp). Every operation is the direct
// textbook form — lowercase copies for comparison and hashing, a joined
// lowercase suffix string as the compression key — so randomized programs
// can demand byte-identical wire output and identical ==/< answers from the
// production type.
#pragma once

#include <cctype>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"
#include "util/error.h"
#include "util/str.h"

namespace cd::dns::ref {
namespace detail {

constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;

inline std::string lower(std::string_view s) { return cd::to_lower(s); }

}  // namespace detail

/// A fully-qualified DNS name as an ordered list of labels (root = empty
/// list). Comparison and hashing are case-insensitive per RFC 1035 §2.3.3;
/// the original case is preserved for display.
class DnsName {
 public:
  /// The root name ".".
  DnsName() = default;

  explicit DnsName(std::vector<std::string> labels)
      : labels_(std::move(labels)) {
    for (const auto& l : labels_) {
      CD_ENSURE(!l.empty() && l.size() <= detail::kMaxLabel, "bad DNS label");
    }
    CD_ENSURE(wire_length() <= detail::kMaxName, "DNS name too long");
  }

  /// Parses dotted presentation form ("a.b.example.org", optional trailing
  /// dot; "." is the root). Returns nullopt for invalid names (empty labels,
  /// label > 63 octets, total > 255 octets).
  [[nodiscard]] static std::optional<DnsName> parse(std::string_view s) {
    if (s.empty()) return std::nullopt;
    if (s == ".") return DnsName();
    if (s.back() == '.') s.remove_suffix(1);
    std::vector<std::string> labels = cd::split(s, '.');
    std::size_t wire = 1;
    for (const auto& l : labels) {
      if (l.empty() || l.size() > detail::kMaxLabel) return std::nullopt;
      wire += 1 + l.size();
    }
    if (wire > detail::kMaxName) return std::nullopt;
    return DnsName(std::move(labels));
  }

  [[nodiscard]] const std::vector<std::string>& labels() const {
    return labels_;
  }
  [[nodiscard]] std::size_t label_count() const { return labels_.size(); }
  [[nodiscard]] bool is_root() const { return labels_.empty(); }

  /// Presentation form with trailing dot ("a.example.org.", root is ".").
  [[nodiscard]] std::string to_string() const {
    if (labels_.empty()) return ".";
    std::string out;
    for (const auto& l : labels_) {
      out += l;
      out += '.';
    }
    return out;
  }

  /// The name with the leftmost label removed; parent of root is root.
  [[nodiscard]] DnsName parent() const {
    if (labels_.empty()) return DnsName();
    return DnsName(
        std::vector<std::string>(labels_.begin() + 1, labels_.end()));
  }

  /// New name with `label` prepended on the left.
  [[nodiscard]] DnsName prepend(std::string label) const {
    std::vector<std::string> labels;
    labels.reserve(labels_.size() + 1);
    labels.push_back(std::move(label));
    labels.insert(labels.end(), labels_.begin(), labels_.end());
    return DnsName(std::move(labels));
  }

  /// True if this name equals `ancestor` or is underneath it.
  [[nodiscard]] bool is_subdomain_of(const DnsName& ancestor) const {
    if (ancestor.labels_.size() > labels_.size()) return false;
    const std::size_t skip = labels_.size() - ancestor.labels_.size();
    for (std::size_t i = 0; i < ancestor.labels_.size(); ++i) {
      if (!cd::iequals(labels_[skip + i], ancestor.labels_[i])) return false;
    }
    return true;
  }

  /// The `n` rightmost labels as a name (n clamped to label_count()).
  [[nodiscard]] DnsName suffix(std::size_t n) const {
    if (n >= labels_.size()) return *this;
    return DnsName(std::vector<std::string>(
        labels_.end() - static_cast<std::ptrdiff_t>(n), labels_.end()));
  }

  /// Total wire length in octets (labels + length bytes + root byte).
  [[nodiscard]] std::size_t wire_length() const {
    std::size_t len = 1;  // root byte
    for (const auto& l : labels_) len += 1 + l.size();
    return len;
  }

  bool operator==(const DnsName& other) const {
    if (labels_.size() != other.labels_.size()) return false;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      if (!cd::iequals(labels_[i], other.labels_[i])) return false;
    }
    return true;
  }
  bool operator!=(const DnsName& other) const { return !(*this == other); }
  /// Canonical ordering (case-insensitive, right-to-left by label).
  bool operator<(const DnsName& other) const {
    // Canonical DNS ordering: compare labels right to left.
    const std::size_t n = std::min(labels_.size(), other.labels_.size());
    for (std::size_t i = 1; i <= n; ++i) {
      const std::string a = detail::lower(labels_[labels_.size() - i]);
      const std::string b =
          detail::lower(other.labels_[other.labels_.size() - i]);
      if (a != b) return a < b;
    }
    return labels_.size() < other.labels_.size();
  }

 private:
  std::vector<std::string> labels_;
};

/// Compression context threaded through message encoding: maps already
/// emitted names to their offsets so later names can point at them.
struct NameCompressor {
  std::unordered_map<std::string, std::uint16_t> offsets;
};

/// Appends the wire encoding of `name` through `w`, compressing against
/// (and updating) `comp` when provided.
inline void encode_name(const DnsName& name, cd::ByteWriter& w,
                        NameCompressor* comp) {
  const auto& labels = name.labels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (comp) {
      // Can we point at an already-encoded suffix starting here?
      std::string key;
      for (std::size_t j = i; j < labels.size(); ++j) {
        key += detail::lower(labels[j]);
        key += '.';
      }
      const auto it = comp->offsets.find(key);
      if (it != comp->offsets.end()) {
        w.u16(static_cast<std::uint16_t>(0xC000 | it->second));
        return;
      }
      // Remember this suffix's offset if it is pointer-representable.
      if (w.size() <= 0x3FFF) {
        comp->offsets.emplace(std::move(key),
                              static_cast<std::uint16_t>(w.size()));
      }
    }
    w.u8(static_cast<std::uint8_t>(labels[i].size()));
    w.text(labels[i]);
  }
  w.u8(0);  // root
}

/// Decodes a (possibly compressed) name at the reader's cursor, leaving the
/// cursor past the name's in-place bytes. Throws cd::ParseError on malformed
/// input, including pointer loops.
[[nodiscard]] inline DnsName decode_name(cd::ByteReader& r) {
  const std::span<const std::uint8_t> msg = r.whole();
  std::vector<std::string> labels;
  std::size_t pos = r.pos();
  bool jumped = false;
  std::size_t after_first_pointer = 0;
  int hops = 0;
  std::size_t total = 0;

  for (;;) {
    if (pos >= msg.size()) throw ParseError("decode_name: out of bounds");
    const std::uint8_t len = msg[pos];
    if ((len & 0xC0) == 0xC0) {
      if (pos + 1 >= msg.size()) throw ParseError("decode_name: bad pointer");
      if (++hops > 32) throw ParseError("decode_name: pointer loop");
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | msg[pos + 1];
      if (!jumped) {
        after_first_pointer = pos + 2;
        jumped = true;
      }
      if (target >= pos) throw ParseError("decode_name: forward pointer");
      pos = target;
      continue;
    }
    if ((len & 0xC0) != 0) throw ParseError("decode_name: bad label type");
    if (len == 0) {
      ++pos;
      break;
    }
    if (pos + 1 + len > msg.size()) {
      throw ParseError("decode_name: truncated label");
    }
    total += 1 + len;
    if (total > 255) throw ParseError("decode_name: name too long");
    labels.emplace_back(reinterpret_cast<const char*>(&msg[pos + 1]), len);
    pos += 1 + len;
  }

  r.seek(jumped ? after_first_pointer : pos);
  return DnsName(std::move(labels));
}

}  // namespace cd::dns::ref
