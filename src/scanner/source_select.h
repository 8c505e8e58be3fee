// Spoofed-source address selection (paper §3.2).
//
// For each target the scanner probes with up to 101 spoofed sources across
// five categories: other-prefix (<=97 addresses, one per other /24 or /64 of
// the target's AS, IPv6 biased toward hitlist-active /64s), same-prefix,
// private/unique-local, destination-as-source, and loopback.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/ip.h"
#include "sim/topology.h"
#include "util/rng.h"

namespace cd::scanner {

enum class SourceCategory : std::uint8_t {
  kOtherPrefix = 0,
  kSamePrefix = 1,
  kPrivate = 2,
  kDstAsSrc = 3,
  kLoopback = 4,
};
constexpr int kSourceCategoryCount = 5;

[[nodiscard]] std::string source_category_name(SourceCategory category);

struct SpoofedSource {
  cd::net::IpAddr addr;
  SourceCategory category = SourceCategory::kOtherPrefix;

  friend bool operator==(const SpoofedSource&, const SpoofedSource&) = default;
};

struct SourceSelectConfig {
  std::size_t max_other_prefixes = 97;
};

class SourceSelector {
 public:
  /// `hitlist_v6` may be empty; entries bias v6 other-prefix selection
  /// toward /64s with observed activity.
  SourceSelector(const cd::sim::Topology& topology,
                 std::vector<cd::net::IpAddr> hitlist_v6,
                 SourceSelectConfig config, cd::Rng rng);

  /// Spoofed sources for one target, in probe order. `asn` must be the
  /// target's origin AS. Deterministic given the constructor seed and
  /// arguments.
  [[nodiscard]] std::vector<SpoofedSource> sources_for(
      const cd::net::IpAddr& target, cd::sim::Asn asn);

 private:
  [[nodiscard]] std::vector<cd::net::IpAddr> other_prefix_v4(
      const cd::net::IpAddr& target, cd::sim::Asn asn, cd::Rng& rng);
  [[nodiscard]] std::vector<cd::net::IpAddr> other_prefix_v6(
      const cd::net::IpAddr& target, cd::sim::Asn asn, cd::Rng& rng);
  [[nodiscard]] cd::net::IpAddr pick_v4_host(const cd::net::Prefix& p24,
                                             cd::Rng& rng) const;
  [[nodiscard]] cd::net::IpAddr pick_v6_host(const cd::net::Prefix& p64,
                                             cd::Rng& rng) const;

  const cd::sim::Topology& topology_;
  SourceSelectConfig config_;
  std::uint64_t seed_;  // per-target generators derive from this, stateless
  // hitlist /64 bases grouped by ASN for fast preference lookup
  std::unordered_map<cd::sim::Asn, std::vector<cd::net::Prefix>> hitlist_by_asn_;
};

}  // namespace cd::scanner
