// Special-purpose IP address registries (RFC 6890 and friends).
//
// The paper excludes ~4M DITL source addresses designated "special purpose"
// by IANA; this module reproduces that exclusion logic.
#pragma once

#include <string_view>
#include <vector>

#include "net/ip.h"

namespace cd::net {

/// True if `addr` falls in any IANA special-purpose registry entry
/// (private, loopback, link-local, documentation, multicast, reserved, ...).
[[nodiscard]] bool is_special_purpose(const IpAddr& addr);

/// RFC 1918 (v4) private space.
[[nodiscard]] bool is_private_v4(const IpAddr& addr);

/// RFC 4193 unique-local (fc00::/7).
[[nodiscard]] bool is_unique_local_v6(const IpAddr& addr);

/// 127.0.0.0/8 or ::1.
[[nodiscard]] bool is_loopback(const IpAddr& addr);

/// The registry entries for a family, for enumeration in tests/docs.
[[nodiscard]] const std::vector<Prefix>& special_purpose_registry(
    IpFamily family);

}  // namespace cd::net
