// Integration tests: prober + follow-up engine + experiment façade behaviour
// that the smoke test does not pin down.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "ditl/world.h"

namespace {

using namespace cd;

TEST(Followup, ExactlyOneBatteryPerTarget) {
  auto spec = ditl::small_world_spec();
  auto world = ditl::generate_world(ditl::build_campaign_plan(spec));
  core::ExperimentConfig config;
  core::Experiment experiment(*world, config);
  const auto& results = experiment.run();

  std::size_t reachable = 0;
  for (const auto& [addr, rec] : results.records) {
    if (rec.reachable()) ++reachable;
  }
  EXPECT_EQ(results.followup_batteries, reachable);

  // Direct targets collect ~10 port samples per family: the 10 follow-ups,
  // plus up to a couple of delegation-walk queries that also land on our
  // authoritative servers before the referral is cached.
  for (const auto& [addr, rec] : results.records) {
    EXPECT_LE(rec.ports_v4.size(), 13u);
    EXPECT_LE(rec.ports_v6.size(), 13u);
  }
}

TEST(Followup, OpenHitImpliesReachable) {
  auto spec = ditl::small_world_spec();
  auto world = ditl::generate_world(ditl::build_campaign_plan(spec));
  core::Experiment experiment(*world, {});
  const auto& results = experiment.run();
  for (const auto& [addr, rec] : results.records) {
    if (rec.open_hit) {
      // The open check only runs as part of a follow-up battery, which only
      // runs after a reachability hit.
      EXPECT_TRUE(rec.reachable());
      // And the planted truth agrees the resolver serves strangers.
      const auto it = world->truth_resolvers.find(addr);
      ASSERT_NE(it, world->truth_resolvers.end());
      EXPECT_TRUE(it->second.open);
    }
  }
}

TEST(Followup, ClosedVerdictMatchesTruth) {
  auto spec = ditl::small_world_spec();
  auto world = ditl::generate_world(ditl::build_campaign_plan(spec));
  core::Experiment experiment(*world, {});
  const auto& results = experiment.run();
  std::size_t checked = 0;
  for (const auto& [addr, rec] : results.records) {
    if (!rec.reachable()) continue;
    const auto it = world->truth_resolvers.find(addr);
    if (it == world->truth_resolvers.end()) continue;
    // A QNAME-minimizing open resolver can fail the open check even though
    // it serves strangers: strict minimization halts on NXDOMAIN before the
    // full open-check name ever reaches our servers (§3.6.4's blind spot —
    // e.g. an open forward-first forwarder whose failover iteration
    // minimizes). The verdict invariant only holds for non-qmin truth.
    if (it->second.qmin) continue;
    ++checked;
    EXPECT_EQ(rec.open_hit, it->second.open) << addr.to_string();
  }
  EXPECT_GT(checked, 0u);
}

TEST(Experiment, RunIsIdempotent) {
  auto world = ditl::generate_world(
      ditl::build_campaign_plan(ditl::small_world_spec()));
  core::Experiment experiment(*world, {});
  const auto& first = experiment.run();
  const auto first_sent = first.queries_sent;
  const auto& second = experiment.run();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.queries_sent, first_sent);
}

TEST(Experiment, DeterministicAcrossRuns) {
  auto spec = ditl::small_world_spec();
  auto w1 = ditl::generate_world(ditl::build_campaign_plan(spec));
  auto w2 = ditl::generate_world(ditl::build_campaign_plan(spec));
  core::Experiment e1(*w1, {});
  core::Experiment e2(*w2, {});
  const auto& r1 = e1.run();
  const auto& r2 = e2.run();
  EXPECT_EQ(r1.queries_sent, r2.queries_sent);
  EXPECT_EQ(r1.records.size(), r2.records.size());
  for (const auto& [addr, rec] : r1.records) {
    const auto it = r2.records.find(addr);
    ASSERT_NE(it, r2.records.end());
    EXPECT_EQ(rec.sources_hit, it->second.sources_hit);
    EXPECT_EQ(rec.ports_v4, it->second.ports_v4);
  }
}

TEST(Experiment, AnalystInjectionProducesLifetimeExclusions) {
  auto spec = ditl::small_world_spec();
  spec.ids_fraction = 1.0;  // every AS watches
  auto world = ditl::generate_world(ditl::build_campaign_plan(spec));

  core::ExperimentConfig config;
  scanner::AnalystConfig analyst;
  analyst.replay_probability = 0.05;
  analyst.max_replays = 200;
  config.analyst = analyst;
  core::Experiment experiment(*world, config);
  const auto& results = experiment.run();

  EXPECT_GT(results.analyst_replays, 0u);
  // Replays arrive hours late and are excluded by the 10s threshold.
  EXPECT_GT(results.collector_stats.excluded_lifetime, 0u);
  // And exclusion does not erase legitimate evidence: excluded targets that
  // also answered promptly remain in the records.
  EXPECT_FALSE(results.records.empty());
}

TEST(Experiment, WildcardWorldClosesQminGap) {
  auto spec = ditl::small_world_spec();
  spec.qmin_fraction = 0.3;  // flood the world with minimizers
  spec.qmin_strict_share = 1.0;
  auto nx_world = ditl::generate_world(ditl::build_campaign_plan(spec));
  core::Experiment nx_exp(*nx_world, {});
  const auto& nx = nx_exp.run();

  spec.wildcard_answers = true;
  auto wc_world = ditl::generate_world(ditl::build_campaign_plan(spec));
  core::Experiment wc_exp(*wc_world, {});
  const auto& wc = wc_exp.run();

  // NXDOMAIN world: strict minimizers leak only partial names. (The
  // wildcard world actually logs *more* partial entries — each minimization
  // step reaches us — but attribution, not entry count, is what §3.6.4 is
  // about.)
  EXPECT_GT(nx.collector_stats.qmin_partial, 0u);
  // Attribution is what improves: strictly-minimizing planted resolvers
  // appear in the records only when wildcards let the full name through.
  std::size_t nx_qmin_attributed = 0, wc_qmin_attributed = 0;
  for (const auto& [addr, rec] : nx.records) {
    const auto it = nx_world->truth_resolvers.find(addr);
    if (it != nx_world->truth_resolvers.end() && it->second.qmin &&
        rec.reachable()) {
      ++nx_qmin_attributed;
    }
  }
  for (const auto& [addr, rec] : wc.records) {
    const auto it = wc_world->truth_resolvers.find(addr);
    if (it != wc_world->truth_resolvers.end() && it->second.qmin &&
        rec.reachable()) {
      ++wc_qmin_attributed;
    }
  }
  EXPECT_GT(wc_qmin_attributed, nx_qmin_attributed);
}

TEST(Experiment, NetworkStatsAccountForAllSends) {
  auto world = ditl::generate_world(
      ditl::build_campaign_plan(ditl::small_world_spec()));
  core::Experiment experiment(*world, {});
  const auto& results = experiment.run();
  const auto& s = results.network_stats;
  EXPECT_EQ(s.sent, s.delivered + s.dropped_osav + s.dropped_dsav +
                        s.dropped_martian + s.dropped_urpf +
                        s.dropped_unrouted + s.dropped_no_host +
                        s.dropped_stack);
  EXPECT_GT(s.dropped_no_host, 0u);  // stale targets exist
  EXPECT_GT(s.dropped_dsav, 0u);     // filtering ASes exist
}

}  // namespace
