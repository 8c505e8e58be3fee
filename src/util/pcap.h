// Wire-level packet capture: a standard little-endian pcap file writer and
// a bounds-checked reader, plus the simulator's capture container.
//
// Format choices (DESIGN.md §5.9):
//  - Classic pcap (magic 0xA1B2C3D4, version 2.4), microsecond timestamps —
//    SimTime is already a microsecond count, so the capture clock is the sim
//    clock verbatim: ts_sec = t / 1e6, ts_usec = t % 1e6, epoch = experiment
//    start. Captures from equal seeds are byte-identical.
//  - LINKTYPE_RAW (101): records hold the packet's genuine IPv4/IPv6 wire
//    bytes (`Packet::serialize_into` output) with no synthetic link-layer
//    framing, so tcpdump/wireshark/p0f read the files directly.
//  - A sidecar index ("CDX1", little-endian) carries what pcap cannot: the
//    record count and a per-record annotation byte (the sim's DropReason).
//    Cross-validating pcap against index makes truncation detectable at
//    *every* byte: pcap alone cannot reject a file cut at a record boundary
//    (the format has no record count), the pair can.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cd::pcap {

inline constexpr std::uint32_t kMagicMicros = 0xA1B2C3D4;
inline constexpr std::uint16_t kVersionMajor = 2;
inline constexpr std::uint16_t kVersionMinor = 4;
inline constexpr std::uint32_t kLinktypeRaw = 101;  // raw IPv4/IPv6
inline constexpr std::uint32_t kDefaultSnaplen = 65535;
inline constexpr std::size_t kFileHeaderSize = 24;
inline constexpr std::size_t kRecordHeaderSize = 16;

inline constexpr std::uint32_t kIndexMagic = 0x31584443;  // "CDX1" LE
inline constexpr std::size_t kIndexHeaderSize = 8;
inline constexpr std::size_t kIndexEntrySize = 13;

/// One captured packet. `bytes` holds the captured (possibly snapped) wire
/// bytes; `orig_len` the packet's full on-the-wire length; `annotation` the
/// sidecar byte (a sim::DropReason — 0 means delivered).
struct PcapRecord {
  std::int64_t time_us = 0;
  std::uint32_t orig_len = 0;
  std::uint8_t annotation = 0;
  std::vector<std::uint8_t> bytes;

  friend bool operator==(const PcapRecord&, const PcapRecord&) = default;
};

/// An in-memory capture: what a Network tap accumulates and what the pcap +
/// index pair serializes. `linktype` is kLinktypeRaw for captures we write;
/// parse_pcap preserves whatever the file says.
struct Capture {
  std::uint32_t snaplen = kDefaultSnaplen;
  std::uint32_t linktype = kLinktypeRaw;
  std::vector<PcapRecord> records;

  /// Serializes the standard pcap file (header + records, little-endian,
  /// microsecond timestamps, records snapped to `snaplen`).
  [[nodiscard]] std::vector<std::uint8_t> to_pcap() const;

  /// Serializes the sidecar index (record count + per-record annotations).
  [[nodiscard]] std::vector<std::uint8_t> to_index() const;

  /// Strict inverse of to_pcap()/to_index(): parses both, cross-validates
  /// record count, timestamps and original lengths, and requires
  /// LINKTYPE_RAW. Throws cd::ParseError on any inconsistency — including a
  /// pcap truncated at a record boundary, which the index count exposes.
  [[nodiscard]] static Capture parse(std::span<const std::uint8_t> pcap_bytes,
                                     std::span<const std::uint8_t> index_bytes);

  friend bool operator==(const Capture&, const Capture&) = default;
};

/// Parses a standalone pcap file (no sidecar): bounds-checked, rejects bad
/// magic (including byte-swapped and nanosecond captures — unsupported),
/// snaplen 0, record lengths past EOF or beyond snaplen, and incl_len >
/// orig_len. Annotations come back 0. Accepts any linktype.
[[nodiscard]] Capture parse_pcap(std::span<const std::uint8_t> bytes);

/// Canonical record order: (time, annotation, orig_len, bytes). Identical
/// keys mean identical records, so the sorted byte serialization is unique
/// for a given record multiset — the property that makes serial and sharded
/// captures comparable byte-for-byte.
void canonicalize(Capture& capture);

/// Merges per-shard captures (taken in deterministic shard order) into one
/// canonical capture. All parts must agree on snaplen and linktype.
[[nodiscard]] Capture merge_captures(std::vector<Capture> parts);

/// One step of merge_captures, without the final canonicalize: the `first`
/// part donates snaplen and linktype, every later one must agree, and its
/// records are appended in order.
void merge_into(Capture& acc, Capture part, bool first);

// --- file I/O (the one subsystem that touches the filesystem) ---------------

/// Writes `bytes` to `path`, throwing cd::Error on failure.
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);

/// Reads the whole file at `path`, throwing cd::Error on failure.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// Writes `capture` as `path` (pcap) plus `path + ".idx"` (sidecar index).
void write_capture(const Capture& capture, const std::string& path);

}  // namespace cd::pcap
