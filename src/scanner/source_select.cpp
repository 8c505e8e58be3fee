#include "scanner/source_select.h"

#include <algorithm>

#include "util/error.h"

namespace cd::scanner {

using cd::net::IpAddr;
using cd::net::IpFamily;
using cd::net::Prefix;

std::string source_category_name(SourceCategory category) {
  switch (category) {
    case SourceCategory::kOtherPrefix: return "Other Prefix";
    case SourceCategory::kSamePrefix: return "Same Prefix";
    case SourceCategory::kPrivate: return "Private";
    case SourceCategory::kDstAsSrc: return "Dst-as-Src";
    case SourceCategory::kLoopback: return "Loopback";
  }
  return "?";
}

SourceSelector::SourceSelector(const cd::sim::Topology& topology,
                               std::vector<IpAddr> hitlist_v6,
                               SourceSelectConfig config, cd::Rng rng)
    : topology_(topology), config_(config), seed_(rng.u64()) {
  for (const IpAddr& addr : hitlist_v6) {
    if (!addr.is_v6()) continue;
    const auto asn = topology_.asn_of(addr);
    if (!asn) continue;
    const Prefix p64(addr, 64);
    auto& list = hitlist_by_asn_[*asn];
    if (std::find(list.begin(), list.end(), p64) == list.end()) {
      list.push_back(p64);
    }
  }
}

namespace {

/// A host of the /24 `p24`, skipping network (.0) and broadcast (.255).
IpAddr v4_host(std::uint32_t p24, cd::Rng& rng) {
  return IpAddr::v4((p24 << 8) | static_cast<std::uint32_t>(
                                     1 + rng.uniform(254)));
}

/// One of the first 100 addresses of the /64 `p64`, skipping the first two
/// (router addresses).
IpAddr v6_host(const Prefix& p64, cd::Rng& rng) {
  constexpr std::uint64_t kV6Window = 100;
  constexpr std::uint64_t kV6Skip = 2;
  return p64.nth(kV6Skip + rng.uniform(kV6Window - kV6Skip));
}

/// True if a source already in out[first..] lies in the /24 `p24` (v4) or
/// the /64 with high half `p64_hi` (v6). Every other-prefix source is a host
/// of the subprefix it was drawn for, so these are the subprefixes taken.
bool taken_v4(const std::vector<SpoofedSource>& out, std::size_t first,
              std::uint32_t p24) {
  for (std::size_t i = first; i < out.size(); ++i) {
    if (out[i].addr.v4_bits() >> 8 == p24) return true;
  }
  return false;
}

bool taken_v6(const std::vector<SpoofedSource>& out, std::size_t first,
              std::uint64_t p64_hi) {
  for (std::size_t i = first; i < out.size(); ++i) {
    if (out[i].addr.bits().hi == p64_hi) return true;
  }
  return false;
}

}  // namespace

const SourceSelector::V4Table& SourceSelector::v4_table(cd::sim::Asn asn) {
  const auto [it, fresh] = v4_tables_.try_emplace(asn);
  V4Table& t = it->second;
  if (!fresh) return t;
  std::uint64_t total = 0;
  for (const Prefix& p : topology_.prefixes_of(asn, IpFamily::kV4)) {
    total += p.length() <= 24 ? p.count_subprefixes(24) : 1;
    t.ends.push_back(total);
    t.first24.push_back(p.base().v4_bits() >> 8);
  }
  if (total > 4 * config_.max_other_prefixes) return t;
  // Small AS: every distinct /24, first occurrence kept, so overlapping or
  // repeated announcements add none twice.
  std::uint64_t begin = 0;
  for (std::size_t i = 0; i < t.ends.size(); ++i) {
    for (std::uint64_t k = 0; k < t.ends[i] - begin; ++k) {
      const auto p24 = static_cast<std::uint32_t>(t.first24[i] + k);
      if (std::find(t.pool.begin(), t.pool.end(), p24) == t.pool.end()) {
        t.pool.push_back(p24);
      }
    }
    begin = t.ends[i];
  }
  return t;
}

void SourceSelector::other_prefix_v4(const IpAddr& target, cd::sim::Asn asn,
                                     cd::Rng& rng,
                                     std::vector<SpoofedSource>& out) {
  const V4Table& t = v4_table(asn);
  if (t.ends.empty()) return;
  const std::uint32_t own = target.v4_bits() >> 8;
  const std::size_t want = config_.max_other_prefixes;

  if (!t.pool.empty()) {
    // Small AS: the pool minus the target's own /24, shuffled, capped.
    candidates_.clear();
    for (const std::uint32_t p24 : t.pool) {
      if (p24 != own) candidates_.push_back(p24);
    }
    rng.shuffle(candidates_);
    const std::size_t n = std::min(candidates_.size(), want);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(
          {v4_host(candidates_[i], rng), SourceCategory::kOtherPrefix});
    }
    return;
  }

  // Large AS: weighted random /24 draws with rejection of duplicates and of
  // the target's own /24.
  const std::size_t first = out.size();
  const std::uint64_t total = t.ends.back();
  const std::size_t max_attempts = want * 8;
  for (std::size_t attempt = 0;
       attempt < max_attempts && out.size() - first < want; ++attempt) {
    const std::uint64_t pick = rng.uniform(total);
    const auto i = static_cast<std::size_t>(
        std::upper_bound(t.ends.begin(), t.ends.end(), pick) - t.ends.begin());
    const std::uint64_t begin = i == 0 ? 0 : t.ends[i - 1];
    const auto p24 = static_cast<std::uint32_t>(t.first24[i] + (pick - begin));
    if (p24 == own || taken_v4(out, first, p24)) continue;
    out.push_back({v4_host(p24, rng), SourceCategory::kOtherPrefix});
  }
}

void SourceSelector::other_prefix_v6(const IpAddr& target, cd::sim::Asn asn,
                                     cd::Rng& rng,
                                     std::vector<SpoofedSource>& out) {
  const auto& prefixes = topology_.prefixes_of(asn, IpFamily::kV6);
  const Prefix target_p64(target, 64);
  const std::size_t first = out.size();
  const std::size_t want = config_.max_other_prefixes;
  const auto add = [&](const Prefix& p64) {
    if (p64 == target_p64 || taken_v6(out, first, p64.base().bits().hi)) {
      return;
    }
    out.push_back({v6_host(p64, rng), SourceCategory::kOtherPrefix});
  };

  // Preference pass: hitlist-active /64s in this AS (observed activity).
  if (const auto it = hitlist_by_asn_.find(asn); it != hitlist_by_asn_.end()) {
    std::vector<Prefix> active = it->second;
    rng.shuffle(active);
    for (const Prefix& p64 : active) {
      if (out.size() - first >= want) break;
      add(p64);
    }
  }

  // Fill the remainder with random /64s from the AS's announcements.
  if (prefixes.empty()) return;
  const std::size_t max_attempts = want * 8;
  for (std::size_t attempt = 0;
       attempt < max_attempts && out.size() - first < want; ++attempt) {
    const Prefix& announced =
        prefixes[static_cast<std::size_t>(rng.uniform(prefixes.size()))];
    Prefix p64 = Prefix(announced.base(), 64);
    if (announced.length() < 64) {
      // pick-th /64 inside the announcement: the /64 index occupies the
      // high half of the 128-bit address.
      const std::uint64_t count = announced.count_subprefixes(64);
      const std::uint64_t pick = rng.uniform(count);
      const cd::net::U128 step = cd::net::U128{pick} << 64;
      p64 = Prefix(cd::net::IpAddr::from_bits(announced.base().family(),
                                              announced.base().bits() + step),
                   64);
    }
    add(p64);
  }
}

std::vector<SpoofedSource> SourceSelector::sources_for(const IpAddr& target,
                                                       cd::sim::Asn asn) {
  // Derive a per-target generator from the fixed seed so selection is a
  // pure function of (seed, target), independent of call order.
  std::uint64_t mix = seed_ ^ (0x9E3779B97F4A7C15ULL *
                               static_cast<std::uint64_t>(
                                   cd::net::IpAddrHash{}(target)));
  cd::Rng rng(mix);

  std::vector<SpoofedSource> out;
  const bool v4 = target.is_v4();

  // Other-prefix (up to 97).
  if (v4) {
    other_prefix_v4(target, asn, rng, out);
  } else {
    other_prefix_v6(target, asn, rng, out);
  }

  // Same-prefix: an address in the target's own /24 or /64, distinct from
  // the target.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const IpAddr candidate = v4 ? v4_host(target.v4_bits() >> 8, rng)
                                : v6_host(Prefix(target, 64), rng);
    if (!(candidate == target)) {
      out.push_back({candidate, SourceCategory::kSamePrefix});
      break;
    }
  }

  // Private / unique-local.
  out.push_back({v4 ? IpAddr::v4(192, 168, 0, 10)
                    : IpAddr::v6(0xFC00ULL << 48, 0x10),
                 SourceCategory::kPrivate});

  // Destination-as-source.
  out.push_back({target, SourceCategory::kDstAsSrc});

  // Loopback.
  out.push_back({v4 ? IpAddr::v4(127, 0, 0, 1) : IpAddr::v6(0, 1),
                 SourceCategory::kLoopback});

  return out;
}

}  // namespace cd::scanner
