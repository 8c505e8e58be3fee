// The campaign plan: every per-AS decision of world generation, precomputed
// as flat arena-backed SoA columns indexed by dense AS id.
//
// World generation used to thread one sequential RNG through all edge ASes,
// so building AS i required replaying ASes 0..i-1 — the reason shard worlds
// had to materialize everything. The plan splits generation into two stages:
//
//   1. build_campaign_plan (this header): one cheap O(n_asns) pass drawing
//      each AS's shape — country, border policy, prefixes, fleet size — from
//      a *stateless* per-AS substream (Rng::substream(plan_seed, id)).
//      Address blocks are still assigned from sequential counters (the world
//      keeps its dense, collision-free numbering plan), which is fine: the
//      counters advance by amounts that depend only on each AS's own
//      substream, and the plan pass always visits every AS.
//   2. TargetStream (ditl/target_stream.h): per-AS resolver/target
//      generation from a second per-AS substream, replayable for any subset
//      of ASes — the property that lets a shard materialize only its own
//      slice of the world.
//
// Every column lives in one cd::Arena, so a paper-scale plan (~62k ASes) is
// a few contiguous slabs (~3 MB), not a graph of heap objects.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/geo.h"
#include "ditl/world_spec.h"
#include "net/ip.h"
#include "scanner/crosscheck.h"
#include "sim/topology.h"
#include "util/arena.h"

namespace cd::ditl {

// Fixed AS numbering shared by the plan and the world builder.
inline constexpr cd::sim::Asn kInfraAsn = 64500;
inline constexpr cd::sim::Asn kVantageAsn = 64501;
inline constexpr cd::sim::Asn kPublicDnsAsnBase = 64510;
inline constexpr cd::sim::Asn kEdgeAsnBase = 100;
/// Number of simulated public DNS services (each dual-stack, so the world's
/// public_dns_addrs list holds twice this many addresses, v4 at even
/// indices).
inline constexpr std::size_t kNumPublicDns = 4;

/// Per-AS flag bits (CampaignPlan::flags).
enum AsFlag : std::uint8_t {
  kAsDsav = 1u << 0,
  kAsOsav = 1u << 1,
  kAsMartians = 1u << 2,
  kAsUrpfSubnet = 1u << 3,
  kAsIds = 1u << 4,
  kAsHasSecondV4 = 1u << 5,
  kAsHasV6 = 1u << 6,
};

/// SoA per-AS table. Column i describes edge AS kEdgeAsnBase + i. All spans
/// point into `arena`.
class CampaignPlan {
 public:
  WorldSpec spec;

  /// Seeds for the stateless per-AS substreams: the plan pass consumed
  /// substream(plan_seed, id); resolver generation (TargetStream) consumes
  /// substream(resolver_seed, id) and stale-noise generation
  /// substream(noise_seed, id).
  std::uint64_t plan_seed = 0;
  std::uint64_t resolver_seed = 0;
  std::uint64_t noise_seed = 0;

  std::span<std::uint8_t> flags;        // AsFlag bits
  std::span<std::uint8_t> n_resolvers;  // fleet size, 1..64
  std::span<std::uint16_t> country;     // index into spec.countries
  std::span<std::uint16_t> country2;    // second v4 prefix's country index
  std::span<cd::net::Prefix> v4a;       // first (or only) v4 prefix
  std::span<cd::net::Prefix> v4b;       // second v4 prefix (kAsHasSecondV4)
  std::span<cd::net::Prefix> v6;        // v6 prefix (kAsHasV6)

  [[nodiscard]] std::size_t size() const { return flags.size(); }
  [[nodiscard]] cd::sim::Asn asn_of(std::size_t id) const {
    return kEdgeAsnBase + static_cast<cd::sim::Asn>(id);
  }
  [[nodiscard]] cd::sim::FilterPolicy policy_of(std::size_t id) const {
    const std::uint8_t f = flags[id];
    return cd::sim::FilterPolicy{
        .osav = (f & kAsOsav) != 0,
        .dsav = (f & kAsDsav) != 0,
        .drop_inbound_martians = (f & kAsMartians) != 0,
        .drop_inbound_same_subnet = (f & kAsUrpfSubnet) != 0,
    };
  }
  /// The AS's announced v4 prefixes (1 or 2), as a span into the columns.
  [[nodiscard]] std::size_t v4_count(std::size_t id) const {
    return (flags[id] & kAsHasSecondV4) ? 2 : 1;
  }
  [[nodiscard]] const cd::net::Prefix& v4_prefix(std::size_t id,
                                                 std::size_t p) const {
    return p == 0 ? v4a[id] : v4b[id];
  }

  [[nodiscard]] std::size_t bytes() const { return arena_.bytes_allocated(); }

  /// The arena backing every column (exposed for allocation during build).
  [[nodiscard]] cd::Arena& arena() { return arena_; }

 private:
  cd::Arena arena_;
};

/// Builds the plan for `spec`. Deterministic: equal specs produce identical
/// plans. O(n_asns) time and memory, independent of resolver/target counts.
[[nodiscard]] std::unique_ptr<CampaignPlan> build_campaign_plan(
    const WorldSpec& spec);

/// Every announced IPv4 /24 of one campaign shard with its owning AS, in
/// dense-id / prefix order: the Closed Resolver cross-check modality's
/// target universe (scanner/crosscheck.h). Sharding follows
/// scanner::shard_of on the owning AS — the same partition the probe plane
/// uses — so each /24 belongs to exactly one shard and per-shard lists
/// concatenate to the serial enumeration. IPv6 prefixes are skipped (the
/// prefix scanner is a v4 /24 walk).
[[nodiscard]] std::vector<cd::scanner::PrefixTarget> prefix24_targets(
    const CampaignPlan& plan, std::size_t shard = 0,
    std::size_t num_shards = 1);

/// The analysis-side geolocation database (the paper's MaxMind stand-in):
/// every edge AS's announced prefixes mapped to its planned country (the
/// second v4 prefix to country2). Shared infrastructure is not listed — no
/// probe target lies inside it.
[[nodiscard]] cd::analysis::GeoDb geo_db(const CampaignPlan& plan);

}  // namespace cd::ditl
