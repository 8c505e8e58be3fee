// On-disk spill codec for per-shard experiment results ("CDSP" v4).
//
// The sharded runner can run far more shards than fit in memory at once:
// each shard's ExperimentResults is serialized to a compact binary file the
// moment the shard finishes, freed, and streamed back in shard order during
// the merge. The codec is a strict ByteReader/ByteWriter round-trip —
// parse(serialize(r)) == r field-for-field — so spilling cannot change
// results_digest or capture_digest: the merged evidence is bit-identical to
// the all-in-memory path (tests/test_campaign_stream.cpp).
//
// The layout is described once, as field walks: the top-level list of
// ExperimentResults members (core/experiment.h, shared with merge_into) and
// one walk per record and counter type (core/spill.cpp). A writer and a
// strict reader run the same walks and pick each member's encoding from its
// type, so the two directions cannot drift apart. Target records are
// written in address order, making the bytes a function of the value:
// serialize(parse(b)) == b for every file the writer emits. A new plane adds
// its members and their walk entries; appending them changes the format, so
// bump kSpillVersion. Spills are transient per-run artifacts, not an
// archival format, so there is no cross-version reader.
//
// Safety property: *every* strict byte prefix of a valid spill file fails to
// parse with cd::ParseError, and so does trailing garbage (the reader
// requires exact consumption). A truncated spill can therefore never merge
// silently as partial results. The same strictness covers in-place
// corruption: enums, flag bytes, range-limited fields, element counts,
// duplicate map keys or set elements and non-canonical packet bytes reject
// values the writer can never emit, so a flipped bit either throws or
// produces a decoded value whose re-serialization no longer matches the file
// (tests/test_campaign_stream.cpp flips every bit of a fixture).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace cd::core {

inline constexpr std::uint32_t kSpillMagic = 0x50534443;  // "CDSP" LE
inline constexpr std::uint32_t kSpillVersion = 4;

/// Serializes `results` into the CDSP v4 byte format.
[[nodiscard]] std::vector<std::uint8_t> serialize_results(
    const ExperimentResults& results);

/// Strict inverse of serialize_results(): throws cd::ParseError on bad
/// magic/version, any truncation, any value the writer cannot emit, or
/// trailing bytes.
[[nodiscard]] ExperimentResults parse_results(
    std::span<const std::uint8_t> bytes);

/// serialize_results() to a file (cd::Error on I/O failure).
void write_results(const ExperimentResults& results, const std::string& path);

/// Reads and parses a spill file written by write_results().
[[nodiscard]] ExperimentResults read_results(const std::string& path);

}  // namespace cd::core
