// Golden digests of the small-world campaign with every delivery consumer
// on — IDS analyst replays and a full capture with drop annotations — per
// seed and shard count. results_digest is shard-invariant; capture_digest
// is pinned per shard count (TCP initial sequence numbers draw from each
// host's RNG in arrival order, which re-slicing legitimately reseeds).
//
// The values were produced by the last tree that still shipped the
// priority-queue event engine, per-packet delivery, single-buffer TCP and
// materialized shard worlds, each of which reproduced them exactly: they are
// the behaviour those retired baselines used to pin differentially.
#pragma once

#include <cstdint>

#include "core/experiment.h"
#include "ditl/world_spec.h"
#include "util/error.h"

namespace cd::golden {

struct CampaignGolden {
  std::uint64_t seed;
  std::size_t shards;
  std::uint64_t results;
  std::uint64_t capture;
};

inline constexpr CampaignGolden kFullFat[] = {
    {7, 1, 0x10fb4567cc54e534ull, 0x379601b4283d0d30ull},
    {7, 4, 0x10fb4567cc54e534ull, 0x0667f464f8d341daull},
    {42, 1, 0xcd54a47d35eb2474ull, 0x9a7cb07e5ec22b47ull},
    {42, 4, 0xcd54a47d35eb2474ull, 0x69c236b24acd7ffdull},
    {99, 1, 0x2caeb45f8ba1251aull, 0xe9f2f2ccff6c5250ull},
    {99, 4, 0x2caeb45f8ba1251aull, 0x956d5b18f146b630ull},
    {1337, 1, 0xa8367bcc69b2120cull, 0x974eb168e4dd109cull},
    {1337, 4, 0xa8367bcc69b2120cull, 0x315cc975244ffe27ull},
    {2020, 1, 0x1de54d096c01d281ull, 0x843f8935a196d0c1ull},
    {2020, 4, 0x1de54d096c01d281ull, 0xda8bd5f46f1d3111ull},
    {9001, 1, 0x794bf78001a668f0ull, 0x714424cba9c1f263ull},
    {9001, 4, 0x794bf78001a668f0ull, 0x9cc0d6fd2ed82744ull},
};

inline const CampaignGolden& full_fat(std::uint64_t seed, std::size_t shards) {
  for (const CampaignGolden& g : kFullFat) {
    if (g.seed == seed && g.shards == shards) return g;
  }
  throw InvariantError("campaign_goldens: no golden for this seed/shards");
}

inline cd::ditl::WorldSpec small_spec(std::uint64_t seed) {
  cd::ditl::WorldSpec spec = cd::ditl::small_world_spec();
  spec.seed = seed;
  return spec;
}

/// The golden campaign's config on `shards` shards (two worker threads when
/// sharded, so the threaded runner is exercised too).
inline cd::core::ExperimentConfig full_fat_config(std::size_t shards) {
  cd::core::ExperimentConfig config;
  config.analyst = cd::scanner::AnalystConfig{};
  config.capture = cd::core::CaptureSpec{};  // include_drops defaults on
  config.num_shards = shards;
  config.num_threads = shards > 1 ? 2 : 1;
  return config;
}

}  // namespace cd::golden
