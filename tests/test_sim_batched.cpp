// The delivery-order guarantee: every accepted packet is one event-loop
// entry at its arrival time (sim::Network), the order that produced every
// campaign golden. The harness runs the quickstart campaign across seeds and
// shard counts — full captures, drops included, follow-ups and analyst
// replays on — and demands the golden results_digest and capture_digest
// (tests/campaign_goldens.h), plus the golden per-record first-hit times,
// which results_digest leaves out. The checked-in pcap fixture is
// re-verified byte-for-byte by tests/test_golden_pcap.cpp. The suite keeps
// its name and "batched" label from the retired same-tick coalescing of
// deliveries, which reproduced these same goldens.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "campaign_goldens.h"
#include "core/parallel.h"

namespace {

using cd::core::capture_digest;
using cd::core::ExperimentResults;
using cd::core::results_digest;
using cd::core::run_sharded_experiment;
using cd::core::ShardedResults;

/// FNV-1a over (target, first_hit_time, first_hit_source) in target order:
/// the arrival-time evidence results_digest excludes.
std::uint64_t first_hit_digest(const ExperimentResults& results) {
  std::vector<const cd::scanner::TargetRecord*> records;
  for (const auto& [addr, record] : results.records) records.push_back(&record);
  std::sort(records.begin(), records.end(),
            [](const auto* a, const auto* b) { return a->target < b->target; });
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x00000100000001B3ULL;
    }
  };
  for (const auto* r : records) {
    mix(r->target.bits().hi);
    mix(r->target.bits().lo);
    mix(static_cast<std::uint64_t>(r->first_hit_time));
    mix(r->first_hit_source.bits().hi);
    mix(r->first_hit_source.bits().lo);
  }
  return h;
}

/// First-hit digests per (seed, shards), from the same tree as the
/// campaign goldens, where per-packet delivery reproduced them exactly.
struct FirstHitGolden {
  std::uint64_t seed;
  std::size_t shards;
  std::uint64_t digest;
};
constexpr FirstHitGolden kFirstHit[] = {
    {7, 1, 0x177f310fcebebaefull},    {7, 4, 0x77b2165604fcecfcull},
    {42, 1, 0x9e87610e04723e75ull},   {42, 4, 0xb601369a3a0f0e69ull},
    {99, 1, 0xfb0994e769f8c7b1ull},   {99, 4, 0xcfbd15133b84ba02ull},
    {1337, 1, 0xcf80f62816a8c61aull}, {1337, 4, 0xb5e184afb159dfc5ull},
    {2020, 1, 0x2e5fcf81a5466485ull}, {2020, 4, 0xe39bea815b4bc23eull},
};

TEST(BatchedDelivery, DigestsMatchGoldensAcrossSeedsAndShards) {
  for (const FirstHitGolden& fh : kFirstHit) {
    const cd::golden::CampaignGolden& want =
        cd::golden::full_fat(fh.seed, fh.shards);
    const ShardedResults out =
        run_sharded_experiment(cd::golden::small_spec(fh.seed),
                               cd::golden::full_fat_config(fh.shards));
    const ExperimentResults& r = out.merged;
    ASSERT_GT(r.records.size(), 0u) << "seed=" << fh.seed;
    ASSERT_FALSE(r.capture.records.empty()) << "seed=" << fh.seed;
    EXPECT_EQ(results_digest(r), want.results)
        << "seed=" << fh.seed << " shards=" << fh.shards;
    EXPECT_EQ(capture_digest(r.capture), want.capture)
        << "seed=" << fh.seed << " shards=" << fh.shards;
    // Even the timing artifacts sharding is allowed to perturb hold:
    // arrival times are pinned per record, not just per digest.
    EXPECT_EQ(first_hit_digest(r), fh.digest)
        << "seed=" << fh.seed << " shards=" << fh.shards;

    // One delivery event per delivered packet; every packet sent was
    // delivered or dropped.
    EXPECT_GT(r.network_stats.delivery_batches, 0u);
    EXPECT_EQ(r.network_stats.delivery_batches, r.network_stats.delivered);
    EXPECT_EQ(r.network_stats.sent,
              r.network_stats.delivered + r.network_stats.dropped());
  }
}

}  // namespace
