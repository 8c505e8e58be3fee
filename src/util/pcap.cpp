#include "util/pcap.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "util/bytes.h"
#include "util/error.h"

namespace cd::pcap {

namespace {

// Other well-known pcap magics we recognize only to reject with a precise
// message: byte-swapped classic, and nanosecond-resolution (both orders).
constexpr std::uint32_t kMagicMicrosSwapped = 0xD4B2C3A1;
constexpr std::uint32_t kMagicNanos = 0xA1B23C4D;
constexpr std::uint32_t kMagicNanosSwapped = 0x4D3CB2A1;

std::uint32_t checked_ts_sec(std::int64_t time_us) {
  CD_ENSURE(time_us >= 0, "pcap: negative capture timestamp");
  const std::int64_t sec = time_us / 1'000'000;
  CD_ENSURE(sec <= 0xFFFFFFFF, "pcap: capture timestamp overflows ts_sec");
  return static_cast<std::uint32_t>(sec);
}

}  // namespace

std::vector<std::uint8_t> Capture::to_pcap() const {
  CD_ENSURE(snaplen > 0, "pcap: snaplen must be positive");
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.reserve(kFileHeaderSize + records.size() * (kRecordHeaderSize + 64));
  w.u32le(kMagicMicros);
  w.u16le(kVersionMajor);
  w.u16le(kVersionMinor);
  w.u32le(0);  // thiszone: sim time is already "UTC"
  w.u32le(0);  // sigfigs: zero per the spec
  w.u32le(snaplen);
  w.u32le(linktype);
  for (const PcapRecord& rec : records) {
    const std::uint32_t incl =
        static_cast<std::uint32_t>(std::min<std::size_t>(rec.bytes.size(),
                                                         snaplen));
    w.u32le(checked_ts_sec(rec.time_us));
    w.u32le(static_cast<std::uint32_t>(rec.time_us % 1'000'000));
    w.u32le(incl);
    w.u32le(std::max(rec.orig_len, incl));
    w.bytes(std::span(rec.bytes).first(incl));
  }
  return out;
}

std::vector<std::uint8_t> Capture::to_index() const {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.reserve(kIndexHeaderSize + records.size() * kIndexEntrySize);
  w.u32le(kIndexMagic);
  w.u32le(static_cast<std::uint32_t>(records.size()));
  for (const PcapRecord& rec : records) {
    w.u64le(static_cast<std::uint64_t>(rec.time_us));
    w.u32le(std::max(rec.orig_len,
                     static_cast<std::uint32_t>(rec.bytes.size())));
    w.u8(rec.annotation);
  }
  return out;
}

Capture parse_pcap(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "pcap");
  const std::uint32_t magic = r.u32le();
  if (magic != kMagicMicros) {
    if (magic == kMagicMicrosSwapped || magic == kMagicNanosSwapped) {
      r.fail("byte-swapped capture (unsupported)");
    }
    if (magic == kMagicNanos) {
      r.fail("nanosecond-resolution capture (unsupported)");
    }
    r.fail("bad magic");
  }
  const std::uint16_t major = r.u16le();
  const std::uint16_t minor = r.u16le();
  if (major != kVersionMajor || minor != kVersionMinor) {
    r.fail("unsupported version");
  }
  r.skip(8);  // thiszone + sigfigs: ignored on read
  Capture capture;
  capture.snaplen = r.u32le();
  if (capture.snaplen == 0) r.fail("snaplen 0");
  capture.linktype = r.u32le();

  while (!r.done()) {
    PcapRecord rec;
    const std::uint32_t ts_sec = r.u32le();
    const std::uint32_t ts_usec = r.u32le();
    if (ts_usec >= 1'000'000) r.fail("ts_usec out of range");
    rec.time_us = static_cast<std::int64_t>(ts_sec) * 1'000'000 + ts_usec;
    const std::uint32_t incl_len = r.u32le();
    rec.orig_len = r.u32le();
    if (incl_len > capture.snaplen) r.fail("record length beyond snaplen");
    if (incl_len > rec.orig_len) r.fail("incl_len exceeds orig_len");
    if (incl_len > r.remaining()) r.fail("record length past end of file");
    const auto body = r.bytes(incl_len);
    rec.bytes.assign(body.begin(), body.end());
    capture.records.push_back(std::move(rec));
  }
  return capture;
}

namespace {

struct IndexEntry {
  std::int64_t time_us;
  std::uint32_t orig_len;
  std::uint8_t annotation;
};

std::vector<IndexEntry> parse_index(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "pcap-index");
  if (r.u32le() != kIndexMagic) r.fail("bad magic");
  const std::uint32_t count = r.u32le();
  // The index is exact-length by construction: trailing garbage is as
  // suspect as truncation.
  if (r.remaining() != static_cast<std::uint64_t>(count) * kIndexEntrySize) {
    r.fail("size inconsistent with record count");
  }
  std::vector<IndexEntry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    IndexEntry e;
    e.time_us = static_cast<std::int64_t>(r.u64le());
    e.orig_len = r.u32le();
    e.annotation = r.u8();
    entries.push_back(e);
  }
  return entries;
}

}  // namespace

Capture Capture::parse(std::span<const std::uint8_t> pcap_bytes,
                       std::span<const std::uint8_t> index_bytes) {
  Capture capture = parse_pcap(pcap_bytes);
  if (capture.linktype != kLinktypeRaw) {
    throw ParseError("pcap: capture is not LINKTYPE_RAW");
  }
  const std::vector<IndexEntry> entries = parse_index(index_bytes);
  if (entries.size() != capture.records.size()) {
    throw ParseError("pcap: record count disagrees with index (truncated?)");
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    PcapRecord& rec = capture.records[i];
    if (entries[i].time_us != rec.time_us ||
        entries[i].orig_len != rec.orig_len) {
      throw ParseError("pcap: index entry disagrees with record");
    }
    rec.annotation = entries[i].annotation;
  }
  return capture;
}

void canonicalize(Capture& capture) {
  std::sort(capture.records.begin(), capture.records.end(),
            [](const PcapRecord& a, const PcapRecord& b) {
              return std::tie(a.time_us, a.annotation, a.orig_len, a.bytes) <
                     std::tie(b.time_us, b.annotation, b.orig_len, b.bytes);
            });
}

Capture merge_captures(std::vector<Capture> parts) {
  Capture merged;
  bool first = true;
  for (Capture& part : parts) {
    merge_into(merged, std::move(part), first);
    first = false;
  }
  canonicalize(merged);
  return merged;
}

void merge_into(Capture& acc, Capture part, bool first) {
  if (first) {
    acc = std::move(part);
    return;
  }
  CD_ENSURE(part.snaplen == acc.snaplen && part.linktype == acc.linktype,
            "merge_captures: snaplen/linktype mismatch between shards");
  acc.records.insert(acc.records.end(),
                     std::make_move_iterator(part.records.begin()),
                     std::make_move_iterator(part.records.end()));
}

void write_file(const std::string& path,
                std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw Error("pcap: cannot open " + path + " for writing");
  const std::size_t n =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = (n == bytes.size()) && std::fclose(f) == 0;
  if (!ok) throw Error("pcap: short write to " + path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw Error("pcap: cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool ok = !std::ferror(f);
  std::fclose(f);
  if (!ok) throw Error("pcap: read error on " + path);
  return bytes;
}

void write_capture(const Capture& capture, const std::string& path) {
  write_file(path, capture.to_pcap());
  write_file(path + ".idx", capture.to_index());
}

}  // namespace cd::pcap
