// Reference spoofed-source selection for the source-selection property
// program (tests/test_scanner_sources.cpp): the selector as it was before it
// kept per-AS /24 pools, kept verbatim as the oracle. Per target it
// subdivides every v4 announcement into a fresh vector of /24s and dedupes
// through an unordered_set; the production scanner::SourceSelector must
// return exactly the same list for every (seed, topology, target).
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/ip.h"
#include "scanner/source_select.h"
#include "sim/topology.h"
#include "util/rng.h"

namespace cd::scanner::ref {

class SourceSelector {
 public:
  SourceSelector(const cd::sim::Topology& topology,
                 std::vector<cd::net::IpAddr> hitlist_v6,
                 SourceSelectConfig config, cd::Rng rng)
      : topology_(topology), config_(config), seed_(rng.u64()) {
    for (const cd::net::IpAddr& addr : hitlist_v6) {
      if (!addr.is_v6()) continue;
      const auto asn = topology_.asn_of(addr);
      if (!asn) continue;
      const cd::net::Prefix p64(addr, 64);
      auto& list = hitlist_by_asn_[*asn];
      if (std::find(list.begin(), list.end(), p64) == list.end()) {
        list.push_back(p64);
      }
    }
  }

  std::vector<SpoofedSource> sources_for(const cd::net::IpAddr& target,
                                         cd::sim::Asn asn) {
    using cd::net::IpAddr;
    using cd::net::Prefix;
    // Derive a per-target generator from the fixed seed so selection is a
    // pure function of (seed, target), independent of call order.
    std::uint64_t mix = seed_ ^ (0x9E3779B97F4A7C15ULL *
                                 static_cast<std::uint64_t>(
                                     cd::net::IpAddrHash{}(target)));
    cd::Rng rng(mix);

    std::vector<SpoofedSource> out;
    const bool v4 = target.is_v4();

    // Other-prefix (up to 97).
    const auto others = v4 ? other_prefix_v4(target, asn, rng)
                           : other_prefix_v6(target, asn, rng);
    for (const IpAddr& addr : others) {
      out.push_back({addr, SourceCategory::kOtherPrefix});
    }

    // Same-prefix: an address in the target's own /24 or /64, distinct from
    // the target.
    {
      const Prefix same = v4 ? Prefix(target, 24) : Prefix(target, 64);
      for (int attempt = 0; attempt < 16; ++attempt) {
        const IpAddr candidate =
            v4 ? pick_v4_host(same, rng) : pick_v6_host(same, rng);
        if (!(candidate == target)) {
          out.push_back({candidate, SourceCategory::kSamePrefix});
          break;
        }
      }
    }

    // Private / unique-local.
    out.push_back({v4 ? IpAddr::must_parse("192.168.0.10")
                      : IpAddr::must_parse("fc00::10"),
                   SourceCategory::kPrivate});

    // Destination-as-source.
    out.push_back({target, SourceCategory::kDstAsSrc});

    // Loopback.
    out.push_back({v4 ? IpAddr::must_parse("127.0.0.1")
                      : IpAddr::must_parse("::1"),
                   SourceCategory::kLoopback});

    return out;
  }

 private:
  cd::net::IpAddr pick_v4_host(const cd::net::Prefix& p24,
                               cd::Rng& rng) const {
    // Skip network (.0) and broadcast (.255).
    const std::uint64_t offset = 1 + rng.uniform(254);
    return p24.nth(offset);
  }

  cd::net::IpAddr pick_v6_host(const cd::net::Prefix& p64,
                               cd::Rng& rng) const {
    // One of the first 100 addresses of the /64, skipping the first two
    // (router addresses).
    constexpr std::uint64_t kV6Window = 100;
    constexpr std::uint64_t kV6Skip = 2;
    return p64.nth(kV6Skip + rng.uniform(kV6Window - kV6Skip));
  }

  std::vector<cd::net::IpAddr> other_prefix_v4(const cd::net::IpAddr& target,
                                               cd::sim::Asn asn,
                                               cd::Rng& rng) {
    using cd::net::IpAddr;
    using cd::net::Prefix;
    const auto& prefixes =
        topology_.prefixes_of(asn, cd::net::IpFamily::kV4);
    const Prefix target_p24(target, 24);

    // Total /24 population across announcements.
    std::uint64_t total = 0;
    std::vector<std::uint64_t> counts;
    counts.reserve(prefixes.size());
    for (const Prefix& p : prefixes) {
      const std::uint64_t c = p.length() <= 24 ? p.count_subprefixes(24) : 1;
      counts.push_back(c);
      total += c;
    }
    if (total == 0) return {};

    std::vector<IpAddr> out;
    std::unordered_set<cd::net::U128, cd::net::U128Hash> seen_bases;

    if (total <= 4 * config_.max_other_prefixes) {
      // Small AS: enumerate every /24, drop the target's own, sample.
      std::vector<Prefix> all;
      for (const Prefix& p : prefixes) {
        if (p.length() <= 24) {
          const auto subs = p.subdivide(24, static_cast<std::size_t>(total));
          all.insert(all.end(), subs.begin(), subs.end());
        } else {
          all.emplace_back(p.base(), 24);
        }
      }
      std::erase_if(all, [&](const Prefix& p) {
        return p.contains(target) || seen_bases.count(p.base().bits()) ||
               (seen_bases.insert(p.base().bits()), false);
      });
      rng.shuffle(all);
      if (all.size() > config_.max_other_prefixes) {
        all.resize(config_.max_other_prefixes);
      }
      for (const Prefix& p : all) out.push_back(pick_v4_host(p, rng));
      return out;
    }

    // Large AS: weighted random /24 draws with rejection of duplicates and
    // of the target's own /24.
    const std::size_t want = config_.max_other_prefixes;
    const std::size_t max_attempts = want * 8;
    for (std::size_t attempt = 0; attempt < max_attempts && out.size() < want;
         ++attempt) {
      std::uint64_t pick = rng.uniform(total);
      std::size_t i = 0;
      while (pick >= counts[i]) {
        pick -= counts[i];
        ++i;
      }
      const Prefix& announced = prefixes[i];
      // pick-th /24 inside the announcement (a /24 spans 256 addresses).
      const Prefix p24 =
          announced.length() <= 24
              ? Prefix(announced.base().offset_by(pick << 8), 24)
              : Prefix(announced.base(), 24);
      if (p24.contains(target)) continue;
      if (!seen_bases.insert(p24.base().bits()).second) continue;
      out.push_back(pick_v4_host(p24, rng));
    }
    return out;
  }

  std::vector<cd::net::IpAddr> other_prefix_v6(const cd::net::IpAddr& target,
                                               cd::sim::Asn asn,
                                               cd::Rng& rng) {
    using cd::net::IpAddr;
    using cd::net::Prefix;
    const auto& prefixes =
        topology_.prefixes_of(asn, cd::net::IpFamily::kV6);
    const Prefix target_p64(target, 64);

    std::vector<IpAddr> out;
    std::unordered_set<cd::net::U128, cd::net::U128Hash> seen_bases;
    const std::size_t want = config_.max_other_prefixes;

    // Preference pass: hitlist-active /64s in this AS (observed activity).
    if (const auto it = hitlist_by_asn_.find(asn);
        it != hitlist_by_asn_.end()) {
      std::vector<Prefix> active = it->second;
      rng.shuffle(active);
      for (const Prefix& p64 : active) {
        if (out.size() >= want) break;
        if (p64 == target_p64) continue;
        if (!seen_bases.insert(p64.base().bits()).second) continue;
        out.push_back(pick_v6_host(p64, rng));
      }
    }

    // Fill the remainder with random /64s from the AS's announcements.
    if (prefixes.empty()) return out;
    const std::size_t max_attempts = want * 8;
    for (std::size_t attempt = 0; attempt < max_attempts && out.size() < want;
         ++attempt) {
      const Prefix& announced =
          prefixes[static_cast<std::size_t>(rng.uniform(prefixes.size()))];
      Prefix p64 = Prefix(announced.base(), 64);
      if (announced.length() < 64) {
        // pick-th /64 inside the announcement: the /64 index occupies the
        // high half of the 128-bit address.
        const std::uint64_t count = announced.count_subprefixes(64);
        const std::uint64_t pick = rng.uniform(count);
        const cd::net::U128 step = cd::net::U128{pick} << 64;
        p64 = Prefix(cd::net::IpAddr::from_bits(
                         announced.base().family(),
                         announced.base().bits() + step),
                     64);
      }
      if (p64 == target_p64) continue;
      if (!seen_bases.insert(p64.base().bits()).second) continue;
      out.push_back(pick_v6_host(p64, rng));
    }
    return out;
  }

  const cd::sim::Topology& topology_;
  SourceSelectConfig config_;
  std::uint64_t seed_;
  std::unordered_map<cd::sim::Asn, std::vector<cd::net::Prefix>>
      hitlist_by_asn_;
};

}  // namespace cd::scanner::ref
