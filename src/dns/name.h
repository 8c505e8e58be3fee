// DNS domain names stored as their uncompressed RFC 1035 wire bytes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace cd::dns {

/// A fully-qualified DNS name, held as its uncompressed wire form (length-
/// prefixed labels, then the root byte) with the original case preserved
/// for display. Comparison and hashing fold ASCII case only (RFC 4343);
/// length bytes are at most 63, so folding the whole wire form never touches
/// them. The bytes, one start offset per label and a hash of the folded
/// bytes live in an inline buffer that holds a v4 probe name; a longer name
/// takes one heap block. Copies, parent() and suffix() allocate nothing for
/// names that fit inline.
class DnsName {
 public:
  static constexpr std::size_t kMaxWire = 255;
  static constexpr std::size_t kMaxLabels = 127;

  /// The root name ".".
  DnsName() noexcept;
  DnsName(const DnsName& other);
  DnsName(DnsName&& other) noexcept;
  DnsName& operator=(const DnsName& other);
  DnsName& operator=(DnsName&& other) noexcept;
  ~DnsName();

  /// Parses dotted presentation form ("a.b.example.org", optional trailing
  /// dot; "." is the root). Returns nullopt for invalid names (empty labels,
  /// label > 63 octets, total > 255 octets).
  [[nodiscard]] static std::optional<DnsName> parse(std::string_view s);
  [[nodiscard]] static DnsName must_parse(std::string_view s);

  [[nodiscard]] std::size_t label_count() const { return labels_; }
  [[nodiscard]] bool is_root() const { return labels_ == 0; }
  /// The `i`-th label counted from the left (0 is the leftmost).
  [[nodiscard]] std::string_view label(std::size_t i) const;

  /// The uncompressed wire form, root byte included.
  [[nodiscard]] std::span<const std::uint8_t> wire() const {
    return {data(), size_};
  }
  /// Total wire length in octets (labels + length bytes + root byte).
  [[nodiscard]] std::size_t wire_length() const { return size_; }
  /// Hash of the case-folded wire form; equal names hash equal.
  [[nodiscard]] std::size_t hash() const { return hash_; }

  /// Presentation form with trailing dot ("a.example.org.", root is ".").
  [[nodiscard]] std::string to_string() const;

  /// The name with the leftmost label removed; parent of root is root.
  [[nodiscard]] DnsName parent() const;

  /// New name with `label` prepended on the left.
  [[nodiscard]] DnsName prepend(std::string_view label) const;
  /// New name with `labels` (leftmost first) prepended on the left.
  [[nodiscard]] DnsName prepend(std::span<const std::string_view> labels) const;

  /// True if this name equals `ancestor` or is underneath it.
  [[nodiscard]] bool is_subdomain_of(const DnsName& ancestor) const;

  /// The `n` rightmost labels as a name (n clamped to label_count()).
  [[nodiscard]] DnsName suffix(std::size_t n) const;
  /// The wire form of suffix(n), viewed in place (n <= label_count()).
  [[nodiscard]] std::span<const std::uint8_t> suffix_wire(std::size_t n) const;
  /// True if suffix(n) == other, without building suffix(n).
  [[nodiscard]] bool suffix_equals(std::size_t n, const DnsName& other) const;

  bool operator==(const DnsName& other) const;
  bool operator!=(const DnsName& other) const { return !(*this == other); }
  /// Canonical ordering (case-insensitive, right-to-left by label).
  bool operator<(const DnsName& other) const;

 private:
  friend class SuffixHashes;
  friend DnsName decode_name(cd::ByteReader& r);

  // Bytes and offsets share one block: the wire form, then the label starts.
  // The kSlack octets past the wire form are always inside the block and
  // initialized, so word-at-a-time compares and hashing may read them.
  static constexpr std::size_t kInline = 88;
  static constexpr std::size_t kSlack = 8;

  /// Takes `wire` (a well-formed uncompressed wire form, root byte included,
  /// at most kMaxWire octets) as this name's bytes.
  void assign(std::span<const std::uint8_t> wire);
  /// assign() with the label starts already known: `starts[i] - base` is
  /// where label i begins in `wire`.
  void assign(std::span<const std::uint8_t> wire,
              std::span<const std::uint8_t> starts, std::size_t base);
  void release() noexcept;
  [[nodiscard]] std::size_t block_size() const {
    return std::size_t{size_} + std::max<std::size_t>(labels_, kSlack);
  }
  [[nodiscard]] bool on_heap() const { return block_size() > kInline; }
  [[nodiscard]] const std::uint8_t* data() const {
    return on_heap() ? heap_ : inline_;
  }
  [[nodiscard]] const std::uint8_t* offsets() const { return data() + size_; }

  std::uint32_t hash_;
  std::uint8_t size_;    // wire octets, root byte included
  std::uint8_t labels_;  // label count
  union {
    std::uint8_t inline_[kInline];
    std::uint8_t* heap_;
  };
};

/// The hash of every suffix of one name from a single right-to-left pass:
/// `hash(n)` equals `name.suffix(n).hash()` without building that suffix,
/// so hash tables keyed by DnsName can probe every ancestor in place.
class SuffixHashes {
 public:
  explicit SuffixHashes(const DnsName& name);

  [[nodiscard]] const DnsName& name() const { return name_; }
  [[nodiscard]] std::size_t hash(std::size_t n) const { return hashes_[n]; }

 private:
  const DnsName& name_;
  std::array<std::uint32_t, DnsName::kMaxLabels + 1> hashes_;
};

/// Suffix `n` of a name, hashed in place: how tables keyed by DnsName are
/// probed for a name's ancestors without building them.
struct NameRef {
  const SuffixHashes* name;
  std::size_t n;
};

/// Transparent hash and equality for tables keyed by DnsName, so they can be
/// probed with a DnsName or a NameRef. Both fold case, as DnsName's == does.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(const DnsName& name) const noexcept {
    return name.hash();
  }
  std::size_t operator()(const NameRef& ref) const noexcept {
    return ref.name->hash(ref.n);
  }
};
struct NameEq {
  using is_transparent = void;
  bool operator()(const DnsName& a, const DnsName& b) const { return a == b; }
  bool operator()(const NameRef& a, const DnsName& b) const {
    return a.name->name().suffix_equals(a.n, b);
  }
  bool operator()(const DnsName& a, const NameRef& b) const {
    return (*this)(b, a);
  }
};

/// Compression context threaded through message encoding: the suffixes
/// already emitted, as (suffix hash, offset) pairs in emission order, so
/// later names can point at them. A hash hit is only taken after the bytes
/// written at its offset are checked to spell the same name.
class NameCompressor {
 public:
  /// Offset of an emitted name whose wire form folds equal to `wire` (hash
  /// `hash`); `msg` holds the message written so far.
  [[nodiscard]] std::optional<std::uint16_t> find(
      std::span<const std::uint8_t> wire, std::size_t hash,
      std::span<const std::uint8_t> msg) const;
  void add(std::size_t hash, std::uint16_t offset);

 private:
  struct Entry {
    std::uint32_t hash;
    std::uint16_t offset;
  };
  static constexpr std::size_t kInline = 48;

  std::array<Entry, kInline> inline_;
  std::size_t count_ = 0;
  std::vector<Entry> overflow_;
};

/// Appends the wire encoding of `name` through `w`, compressing against
/// (and updating) `comp` when provided. Compression offsets are relative to
/// the writer's base, so `w` must have been constructed at the start of the
/// DNS message.
void encode_name(const DnsName& name, cd::ByteWriter& w, NameCompressor* comp);

/// Writes the uncompressed wire form of `suffix.prepend(labels)` to the
/// front of `out` and returns its length, without building that name: no
/// DnsName, no suffix hashes. Throws what prepend() throws.
[[nodiscard]] std::size_t write_name(
    std::span<const std::string_view> labels, const DnsName& suffix,
    std::span<std::uint8_t, DnsName::kMaxWire> out);

/// Convenience shim over the ByteWriter form.
void encode_name(const DnsName& name, std::vector<std::uint8_t>& out,
                 NameCompressor* comp);

/// Decodes a (possibly compressed) name at the reader's cursor, leaving the
/// cursor past the name's in-place bytes. The reader must span the whole DNS
/// message (compression pointers are message-relative). Throws cd::ParseError
/// on malformed input, including pointer loops.
[[nodiscard]] DnsName decode_name(cd::ByteReader& r);

/// Convenience shim over the ByteReader form.
[[nodiscard]] DnsName decode_name(std::span<const std::uint8_t> msg,
                                  std::size_t& offset);

}  // namespace cd::dns
