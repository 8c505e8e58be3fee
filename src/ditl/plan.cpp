#include "ditl/plan.h"

#include <algorithm>

#include "net/special.h"
#include "scanner/prober.h"
#include "util/rng.h"

namespace cd::ditl {

using cd::net::IpAddr;
using cd::net::Prefix;

namespace {

/// Sequential edge address-block assignment: /16s from 20.0.0.0 upward,
/// skipping special-purpose space and the 11.0.0.0/8 block reserved as
/// never-announced noise; /22s carved 64 to a /16; v6 /32s from 2400::/8.
/// Counter state advances only by per-AS shape decisions, so the assignment
/// is a pure function of the plan's visit order (always all ASes, dense).
class BlockAllocator {
 public:
  Prefix next_v4_block16() {
    for (;;) {
      const std::uint32_t base = ((20u + v4_block_ / 256) << 24) |
                                 ((v4_block_ % 256) << 16);
      ++v4_block_;
      const Prefix p(IpAddr::v4(base), 16);
      if ((base >> 24) == 11) continue;
      if (cd::net::is_special_purpose(p.first()) ||
          cd::net::is_special_purpose(p.last())) {
        continue;
      }
      return p;
    }
  }

  Prefix next_v4_block22() {
    if (v4_sub_count_ == 0 || v4_sub_count_ >= 64) {
      v4_sub_parent_ = next_v4_block16();
      v4_sub_count_ = 0;
    }
    const Prefix p(v4_sub_parent_.base().offset_by(
                       static_cast<std::uint64_t>(v4_sub_count_) << 10),
                   22);
    ++v4_sub_count_;
    return p;
  }

  Prefix next_v6_block32() {
    const std::uint64_t hi =
        (static_cast<std::uint64_t>(0x24000000u + v6_block_)) << 32;
    ++v6_block_;
    return Prefix(IpAddr::v6(hi, 0), 32);
  }

 private:
  std::uint32_t v4_block_ = 0;
  Prefix v4_sub_parent_;
  int v4_sub_count_ = 0;
  std::uint32_t v6_block_ = 1;
};

std::uint16_t choose_country(const WorldSpec& spec, cd::Rng& rng) {
  double total = 0;
  for (const CountryWeight& cw : spec.countries) total += cw.as_share;
  double roll = rng.real() * total;
  for (std::size_t i = 0; i < spec.countries.size(); ++i) {
    if (roll < spec.countries[i].as_share) return static_cast<std::uint16_t>(i);
    roll -= spec.countries[i].as_share;
  }
  return static_cast<std::uint16_t>(spec.countries.size() - 1);
}

}  // namespace

std::unique_ptr<CampaignPlan> build_campaign_plan(const WorldSpec& spec) {
  auto plan = std::make_unique<CampaignPlan>();
  plan->spec = spec;

  // Seed derivation mirrors the generator's root-split discipline: distinct
  // stateless bases for the plan, resolver and noise passes so the three
  // per-AS streams never overlap.
  cd::Rng root(spec.seed);
  plan->plan_seed = root.split("plan").u64();
  plan->resolver_seed = root.split("resolvers").u64();
  plan->noise_seed = root.split("noise").u64();

  const std::size_t n = static_cast<std::size_t>(std::max(0, spec.n_asns));
  cd::Arena& arena = plan->arena();
  plan->flags = arena.alloc_array<std::uint8_t>(n);
  plan->n_resolvers = arena.alloc_array<std::uint8_t>(n);
  plan->country = arena.alloc_array<std::uint16_t>(n);
  plan->country2 = arena.alloc_array<std::uint16_t>(n);
  plan->v4a = arena.alloc_array<Prefix>(n);
  plan->v4b = arena.alloc_array<Prefix>(n);
  plan->v6 = arena.alloc_array<Prefix>(n);

  BlockAllocator blocks;
  for (std::size_t i = 0; i < n; ++i) {
    cd::Rng rng = cd::Rng::substream(plan->plan_seed, i);
    std::uint8_t flags = 0;

    const std::uint16_t country_idx = choose_country(spec, rng);
    const CountryWeight& country = spec.countries[country_idx];
    plan->country[i] = country_idx;
    plan->country2[i] = country_idx;

    const bool dsav = rng.chance(country.dsav_rate);
    if (dsav) flags |= kAsDsav;
    if (rng.chance(spec.osav_fraction)) flags |= kAsOsav;
    if (rng.chance(dsav ? spec.martian_fraction_with_dsav
                        : spec.martian_fraction_without_dsav)) {
      flags |= kAsMartians;
    }
    if (rng.chance(spec.urpf_subnet_fraction)) flags |= kAsUrpfSubnet;
    if (rng.chance(spec.ids_fraction)) flags |= kAsIds;

    // Prefixes: a minority of ASes are large (/16, exercising the 97-prefix
    // other-prefix cap); the rest announce one or two /22s.
    if (rng.chance(0.2)) {
      plan->v4a[i] = blocks.next_v4_block16();
    } else {
      plan->v4a[i] = blocks.next_v4_block22();
      if (rng.chance(0.3)) {
        plan->v4b[i] = blocks.next_v4_block22();
        flags |= kAsHasSecondV4;
      }
    }
    // A handful of two-prefix ASes geolocate the second prefix elsewhere
    // (multi-national operators).
    if ((flags & kAsHasSecondV4) && rng.chance(0.05)) {
      plan->country2[i] = choose_country(spec, rng);
    }

    if (rng.chance(spec.v6_as_fraction)) {
      plan->v6[i] = blocks.next_v6_block32();
      flags |= kAsHasV6;
    }

    // Resolver fleet size: geometric with country-weighted mean.
    const double mean =
        std::max(1.0, spec.resolvers_per_as_mean * country.resolver_density);
    int n_resolvers = 1;
    while (n_resolvers < 64 && rng.chance(1.0 - 1.0 / mean)) ++n_resolvers;
    plan->n_resolvers[i] = static_cast<std::uint8_t>(n_resolvers);

    plan->flags[i] = flags;
  }
  return plan;
}

std::vector<cd::scanner::PrefixTarget> prefix24_targets(
    const CampaignPlan& plan, std::size_t shard, std::size_t num_shards) {
  const auto in_shard = [&](std::size_t id) {
    return cd::scanner::shard_of(plan.asn_of(id), num_shards) == shard;
  };
  // Count first, so the list is allocated once at its exact size.
  std::uint64_t n = 0;
  for (std::size_t id = 0; id < plan.size(); ++id) {
    if (!in_shard(id)) continue;
    for (std::size_t p = 0; p < plan.v4_count(id); ++p) {
      n += plan.v4_prefix(id, p).count_subprefixes(24);
    }
  }
  std::vector<cd::scanner::PrefixTarget> out;
  out.reserve(n);
  for (std::size_t id = 0; id < plan.size(); ++id) {
    if (!in_shard(id)) continue;
    for (std::size_t p = 0; p < plan.v4_count(id); ++p) {
      const Prefix& announced = plan.v4_prefix(id, p);
      const std::uint64_t n24 = announced.count_subprefixes(24);
      for (std::uint64_t j = 0; j < n24; ++j) {
        out.push_back({Prefix(announced.nth(j << 8), 24), plan.asn_of(id)});
      }
    }
  }
  return out;
}

cd::analysis::GeoDb geo_db(const CampaignPlan& plan) {
  const auto& countries = plan.spec.countries;
  cd::analysis::GeoDb geo;
  for (std::size_t id = 0; id < plan.size(); ++id) {
    geo.add(plan.v4a[id], countries[plan.country[id]].country);
    if (plan.flags[id] & kAsHasSecondV4) {
      geo.add(plan.v4b[id], countries[plan.country2[id]].country);
    }
    if (plan.flags[id] & kAsHasV6) {
      geo.add(plan.v6[id], countries[plan.country[id]].country);
    }
  }
  return geo;
}

}  // namespace cd::ditl
