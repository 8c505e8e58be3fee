// End-to-end smoke: generate a small world, run the experiment, verify the
// pipeline produces sane, internally consistent results.
#include <gtest/gtest.h>

#include "analysis/classify.h"
#include "core/experiment.h"
#include "ditl/world.h"

namespace {

using namespace cd;

TEST(Smoke, WorldGeneratesDeterministically) {
  const auto spec = ditl::small_world_spec();
  const auto w1 = ditl::generate_world(ditl::build_campaign_plan(spec));
  const auto w2 = ditl::generate_world(ditl::build_campaign_plan(spec));
  ASSERT_EQ(w1->targets.size(), w2->targets.size());
  for (std::size_t i = 0; i < w1->targets.size(); ++i) {
    EXPECT_EQ(w1->targets[i].addr, w2->targets[i].addr);
    EXPECT_EQ(w1->targets[i].asn, w2->targets[i].asn);
  }
  EXPECT_GT(w1->targets.size(), 50u);
  EXPECT_GT(w1->resolvers.size(), 30u);
}

TEST(Smoke, EndToEndExperiment) {
  auto world =
      ditl::generate_world(ditl::build_campaign_plan(ditl::small_world_spec()));
  const ditl::CampaignPlan& plan = *world->plan;

  core::ExperimentConfig config;
  config.probe.duration = 30 * sim::kMinute;
  config.probe.per_query_spacing = 5 * sim::kSecond;
  core::Experiment experiment(*world, config);
  const core::ExperimentResults& results = experiment.run();

  // Probes went out and some resolutions reached our auth servers.
  EXPECT_GT(results.queries_sent, 1000u);
  EXPECT_GT(results.collector_stats.entries_seen, 0u);
  ASSERT_FALSE(results.records.empty());

  // Every reached target is a planted resolver in an AS lacking DSAV.
  std::size_t reachable = 0;
  for (const auto& [addr, rec] : results.records) {
    if (!rec.reachable()) continue;
    ++reachable;
    ASSERT_TRUE(world->truth_resolvers.count(addr))
        << addr.to_string() << " reached but never planted";
    const std::size_t id = rec.asn - ditl::kEdgeAsnBase;
    ASSERT_LT(id, plan.size()) << "AS " << rec.asn << " is not an edge AS";
    if (plan.flags[id] & ditl::kAsDsav) {
      // A DSAV-deploying AS can still be infiltrated — but only via
      // private/loopback sources, which DSAV (internal-address filtering)
      // does not cover unless martian filtering is also deployed.
      for (const scanner::SourceCategory cat : rec.categories_hit) {
        EXPECT_TRUE(cat == scanner::SourceCategory::kPrivate ||
                    cat == scanner::SourceCategory::kLoopback)
            << "AS " << rec.asn << " deploys DSAV yet was infiltrated via "
            << scanner::source_category_name(cat);
      }
    }
  }
  EXPECT_GT(reachable, 0u);

  // DSAV summary consistency.
  const auto summary = analysis::summarize_dsav(results.records,
                                                world->targets);
  EXPECT_GT(summary.v4.targets_total, 0u);
  EXPECT_LE(summary.v4.targets_reachable, summary.v4.targets_total);
  EXPECT_LE(summary.v4.asns_reachable, summary.v4.asns_total);
  EXPECT_GT(summary.v4.targets_reachable + summary.v6.targets_reachable, 0u);

  // Follow-ups produced port samples and open/closed evidence.
  std::size_t with_ports = 0, open_hits = 0;
  for (const auto& [addr, rec] : results.records) {
    if (rec.ports_v4.size() + rec.ports_v6.size() >= 8) ++with_ports;
    if (rec.open_hit) ++open_hits;
  }
  EXPECT_GT(with_ports, 0u);
  EXPECT_GT(open_hits, 0u);
  EXPECT_GT(results.followup_batteries, 0u);
}

}  // namespace
