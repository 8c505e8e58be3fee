// The tentpole guarantee of the sharded runner: for any seed, a sharded
// parallel campaign produces exactly the evidence a serial campaign does —
// same records, same analysis tables, same digest — for every shard and
// thread count. Plus a determinism regression: same seed twice is
// bit-identical, different seeds are not.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "analysis/classify.h"
#include "core/parallel.h"
#include "ditl/world.h"
#include "scanner/prober.h"

namespace {

using cd::core::ExperimentConfig;
using cd::core::ExperimentResults;
using cd::core::results_digest;
using cd::core::run_sharded_experiment;
using cd::core::ShardedResults;

cd::ditl::WorldSpec test_spec(std::uint64_t seed) {
  cd::ditl::WorldSpec spec = cd::ditl::small_world_spec();
  spec.seed = seed;
  return spec;
}

ExperimentConfig test_config(std::size_t shards, std::size_t threads) {
  ExperimentConfig config;
  config.analyst = cd::scanner::AnalystConfig{};  // exercise the replay path
  config.num_shards = shards;
  config.num_threads = threads;
  return config;
}

/// Canonical CSV of the analysis tables built from merged results — the
/// downstream artifact the equivalence guarantee is really about.
std::string tables_csv(const ExperimentResults& results,
                       const cd::ditl::World& reference) {
  std::ostringstream csv;
  const auto summary =
      cd::analysis::summarize_dsav(results.records, reference.targets);
  csv << "dsav,v4," << summary.v4.targets_total << ','
      << summary.v4.targets_reachable << ',' << summary.v4.asns_total << ','
      << summary.v4.asns_reachable << '\n';
  csv << "dsav,v6," << summary.v6.targets_total << ','
      << summary.v6.targets_reachable << ',' << summary.v6.asns_total << ','
      << summary.v6.asns_reachable << '\n';

  const auto table =
      cd::analysis::build_category_table(results.records, reference.targets);
  for (std::size_t cat = 0; cat < cd::scanner::kSourceCategoryCount; ++cat) {
    for (int fam = 0; fam < 2; ++fam) {
      csv << "cat," << cat << ',' << fam << ','
          << table.inclusive[cat][fam].addrs << ','
          << table.inclusive[cat][fam].asns << ','
          << table.exclusive[cat][fam].addrs << ','
          << table.exclusive[cat][fam].asns << '\n';
    }
  }
  for (int fam = 0; fam < 2; ++fam) {
    csv << "tot," << fam << ',' << table.queried[fam].addrs << ','
        << table.queried[fam].asns << ',' << table.reachable[fam].addrs << ','
        << table.reachable[fam].asns << '\n';
  }
  return csv.str();
}

class ParallelEquivalence : public ::testing::Test {
 protected:
  /// The serial baseline (1 shard, 1 thread) everything is compared to.
  ShardedResults baseline(std::uint64_t seed) {
    return run_sharded_experiment(test_spec(seed), test_config(1, 1));
  }
};

TEST_F(ParallelEquivalence, ShardAndThreadCountsDoNotChangeResults) {
  for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{1337}}) {
    const auto reference = cd::ditl::generate_world(
        cd::ditl::build_campaign_plan(test_spec(seed)));
    const ShardedResults serial = baseline(seed);
    const std::uint64_t serial_digest = results_digest(serial.merged);
    const std::string serial_csv = tables_csv(serial.merged, *reference);
    ASSERT_GT(serial.merged.records.size(), 0u) << "campaign saw no targets";

    for (const auto& [shards, threads] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {2, 1}, {2, 4}, {8, 1}, {8, 4}}) {
      const ShardedResults sharded =
          run_sharded_experiment(test_spec(seed), test_config(shards, threads));
      EXPECT_EQ(results_digest(sharded.merged), serial_digest)
          << "seed=" << seed << " shards=" << shards << " threads=" << threads;
      EXPECT_EQ(tables_csv(sharded.merged, *reference), serial_csv)
          << "seed=" << seed << " shards=" << shards << " threads=" << threads;
      EXPECT_EQ(sharded.merged.records.size(), serial.merged.records.size());
      EXPECT_EQ(sharded.merged.queries_sent, serial.merged.queries_sent);
      EXPECT_EQ(sharded.merged.followup_batteries,
                serial.merged.followup_batteries);
      EXPECT_EQ(sharded.merged.analyst_replays, serial.merged.analyst_replays);
      EXPECT_EQ(sharded.shards.size(), shards);
    }
  }
}

TEST_F(ParallelEquivalence, RecordContentMatchesNotJustDigest) {
  // Digest collisions are astronomically unlikely but cheap to rule out on
  // one configuration: compare a full record field-by-field.
  const ShardedResults serial = baseline(42);
  const ShardedResults sharded =
      run_sharded_experiment(test_spec(42), test_config(8, 4));
  ASSERT_EQ(sharded.merged.records.size(), serial.merged.records.size());
  for (const auto& [addr, expect] : serial.merged.records) {
    const auto it = sharded.merged.records.find(addr);
    ASSERT_NE(it, sharded.merged.records.end()) << addr.to_string();
    const auto& got = it->second;
    EXPECT_EQ(got.asn, expect.asn);
    EXPECT_EQ(got.sources_hit, expect.sources_hit);
    EXPECT_EQ(got.categories_hit, expect.categories_hit);
    EXPECT_EQ(got.first_hit_source, expect.first_hit_source);
    EXPECT_EQ(got.direct_seen, expect.direct_seen);
    EXPECT_EQ(got.forwarded_seen, expect.forwarded_seen);
    EXPECT_EQ(got.forwarders_seen, expect.forwarders_seen);
    EXPECT_EQ(got.client_in_target_as, expect.client_in_target_as);
    EXPECT_EQ(got.ports_v4, expect.ports_v4);
    EXPECT_EQ(got.ports_v6, expect.ports_v6);
    EXPECT_EQ(got.open_hit, expect.open_hit);
    EXPECT_EQ(got.tcp_hit, expect.tcp_hit);
  }
  EXPECT_EQ(sharded.merged.qmin_asns, serial.merged.qmin_asns);
  EXPECT_EQ(sharded.merged.lifetime_excluded_targets,
            serial.merged.lifetime_excluded_targets);
}

TEST_F(ParallelEquivalence, ShardsPartitionTargetsByAs) {
  const auto world =
      cd::ditl::generate_world(cd::ditl::build_campaign_plan(test_spec(42)));
  const std::size_t n_shards = 8;
  std::map<std::size_t, std::size_t> per_shard;
  std::map<cd::sim::Asn, std::size_t> as_shard;
  for (const auto& target : world->targets) {
    const std::size_t shard = cd::scanner::shard_of(target.asn, n_shards);
    ASSERT_LT(shard, n_shards);
    ++per_shard[shard];
    const auto [it, inserted] = as_shard.emplace(target.asn, shard);
    EXPECT_EQ(it->second, shard) << "AS " << target.asn << " split";
  }
  std::size_t total = 0;
  for (const auto& [shard, count] : per_shard) total += count;
  EXPECT_EQ(total, world->targets.size());
  // shard_of should actually spread ASes around, not collapse to one shard.
  EXPECT_GT(per_shard.size(), 1u);

  const ShardedResults sharded =
      run_sharded_experiment(test_spec(42), test_config(n_shards, 2));
  std::size_t assigned = 0;
  for (const auto& timing : sharded.shards) assigned += timing.targets;
  EXPECT_EQ(assigned, world->targets.size());
}

TEST_F(ParallelEquivalence, ProbePlaneCaptureIsByteIdenticalAcrossShards) {
  // The wire-level analogue of the digest guarantee: a probe-plane capture
  // (packets physically originating in the vantage AS) merged from N shards
  // must serialize to exactly the bytes of the serial campaign's capture.
  // Follow-ups are disabled because their *timing* keys off first-hit
  // arrival, which shared-cache warmness (and therefore sharding) perturbs;
  // the probe schedule itself is a pure function of the global target index.
  auto config = [](std::size_t shards, std::size_t threads) {
    ExperimentConfig c = test_config(shards, threads);
    c.analyst.reset();
    c.followups = false;
    cd::core::CaptureSpec capture;
    capture.include_drops = true;
    capture.probes_only = true;
    c.capture = capture;
    return c;
  };

  const ShardedResults serial =
      run_sharded_experiment(test_spec(42), config(1, 1));
  ASSERT_FALSE(serial.merged.capture.records.empty())
      << "campaign captured no probes";
  const auto serial_pcap = serial.merged.capture.to_pcap();
  const auto serial_index = serial.merged.capture.to_index();
  const std::uint64_t serial_digest =
      cd::core::capture_digest(serial.merged.capture);

  for (const auto& [shards, threads] :
       std::vector<std::pair<std::size_t, std::size_t>>{{2, 1}, {4, 2}}) {
    const ShardedResults sharded =
        run_sharded_experiment(test_spec(42), config(shards, threads));
    EXPECT_EQ(cd::core::capture_digest(sharded.merged.capture), serial_digest)
        << "shards=" << shards << " threads=" << threads;
    EXPECT_EQ(sharded.merged.capture.to_pcap(), serial_pcap)
        << "shards=" << shards << " threads=" << threads;
    EXPECT_EQ(sharded.merged.capture.to_index(), serial_index)
        << "shards=" << shards << " threads=" << threads;
  }
}

TEST(ParallelDeterminism, SameSeedSameDigestAcrossRuns) {
  const auto first =
      run_sharded_experiment(test_spec(42), test_config(4, 2));
  const auto second =
      run_sharded_experiment(test_spec(42), test_config(4, 2));
  EXPECT_EQ(results_digest(first.merged), results_digest(second.merged));
  EXPECT_EQ(first.merged.queries_sent, second.merged.queries_sent);
}

TEST(ParallelDeterminism, DifferentSeedsDiverge) {
  const auto a = run_sharded_experiment(test_spec(42), test_config(2, 2));
  const auto b = run_sharded_experiment(test_spec(1337), test_config(2, 2));
  EXPECT_NE(results_digest(a.merged), results_digest(b.merged));
}

TEST(MergeResults, SumsCountersAndRejectsOverlap) {
  ExperimentResults a;
  a.queries_sent = 3;
  a.followup_batteries = 1;
  a.collector_stats.entries_seen = 10;
  a.network_stats.sent = 7;
  a.qmin_asns = {1, 2};
  cd::scanner::TargetRecord ra;
  ra.target = cd::net::IpAddr::v4(10, 0, 0, 1);
  a.records.emplace(ra.target, ra);

  ExperimentResults b;
  b.queries_sent = 5;
  b.followup_batteries = 2;
  b.collector_stats.entries_seen = 4;
  b.network_stats.sent = 9;
  b.qmin_asns = {2, 3};
  cd::scanner::TargetRecord rb;
  rb.target = cd::net::IpAddr::v4(10, 0, 0, 2);
  b.records.emplace(rb.target, rb);

  const ExperimentResults merged = cd::core::merge_results({a, b});
  EXPECT_EQ(merged.queries_sent, 8u);
  EXPECT_EQ(merged.followup_batteries, 3u);
  EXPECT_EQ(merged.collector_stats.entries_seen, 14u);
  EXPECT_EQ(merged.network_stats.sent, 16u);
  EXPECT_EQ(merged.qmin_asns, (std::set<cd::sim::Asn>{1, 2, 3}));
  EXPECT_EQ(merged.records.size(), 2u);

  // A target present in two shards means the AS partition is broken.
  ExperimentResults dup;
  dup.records.emplace(ra.target, ra);
  EXPECT_THROW((void)cd::core::merge_results({a, dup}), std::exception);
}

}  // namespace
