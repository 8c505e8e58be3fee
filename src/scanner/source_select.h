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
  /// arguments. An AS's v4 announcements are read once, on its first
  /// target, so the topology must not change after that.
  [[nodiscard]] std::vector<SpoofedSource> sources_for(
      const cd::net::IpAddr& target, cd::sim::Asn asn);

 private:
  /// An AS's v4 announcements counted in /24s (a /24 is an address >> 8),
  /// built on its first target. Announcement i covers the /24s
  /// first24[i] .. first24[i] + (ends[i] - ends[i-1]) - 1; one longer than
  /// /24 counts as its own /24. A small AS (ends.back() <= 4 x the cap)
  /// also keeps `pool`: its distinct /24s, in announcement and then address
  /// order.
  struct V4Table {
    std::vector<std::uint64_t> ends;  // running /24 count through each
    std::vector<std::uint32_t> first24;
    std::vector<std::uint32_t> pool;
  };

  [[nodiscard]] const V4Table& v4_table(cd::sim::Asn asn);
  void other_prefix_v4(const cd::net::IpAddr& target, cd::sim::Asn asn,
                       cd::Rng& rng, std::vector<SpoofedSource>& out);
  void other_prefix_v6(const cd::net::IpAddr& target, cd::sim::Asn asn,
                       cd::Rng& rng, std::vector<SpoofedSource>& out);

  const cd::sim::Topology& topology_;
  SourceSelectConfig config_;
  std::uint64_t seed_;  // per-target generators derive from this, stateless
  // hitlist /64 bases grouped by ASN for fast preference lookup
  std::unordered_map<cd::sim::Asn, std::vector<cd::net::Prefix>> hitlist_by_asn_;
  std::unordered_map<cd::sim::Asn, V4Table> v4_tables_;
  std::vector<std::uint32_t> candidates_;  // one target's other /24s
};

}  // namespace cd::scanner
