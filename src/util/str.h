// Small string helpers used across modules.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cd {

/// Split `s` on every occurrence of `sep`; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Join pieces with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// ASCII lowercase copy.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Case-insensitive ASCII equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

/// Parse an unsigned decimal integer; nullopt on any non-digit or overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s);

/// Parse hex (no 0x prefix); nullopt on invalid input or overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_hex_u64(std::string_view s);

/// Writes the low 4 * out.size() bits of `value` into `out` as zero-padded
/// lowercase hex, most significant digit first.
void to_hex(std::uint64_t value, std::span<char> out);

/// Human-friendly "12,345" formatting of a non-negative integer.
[[nodiscard]] std::string with_commas(std::uint64_t value);

/// "12.3%" style percent of a ratio; `digits` decimal places.
[[nodiscard]] std::string percent(double numer, double denom, int digits = 1);

}  // namespace cd
