// Tests: the one-call report renderer over a real experiment run.
#include <gtest/gtest.h>

#include "analysis/report.h"
#include "core/experiment.h"
#include "ditl/target_stream.h"
#include "ditl/world.h"

namespace {

using namespace cd;

TEST(Report, RendersEverySectionFromRealRun) {
  auto world =
      ditl::generate_world(ditl::build_campaign_plan(ditl::small_world_spec()));
  core::Experiment experiment(*world, {});
  const auto& results = experiment.run();

  const std::string report = analysis::render_report(
      results.records, world->targets, ditl::geo_db(*world->plan),
      ditl::passive_capture(*world->plan), world->public_dns_addrs);

  for (const char* section :
       {"DSAV prevalence", "DSAV by country", "Spoofed-source categories",
        "Open vs. closed", "Forwarding", "Middlebox check",
        "Source-port ranges", "Zero source-port randomization",
        "Ineffective allocation", "Passive cross-check"}) {
    EXPECT_NE(report.find(section), std::string::npos) << section;
  }
  EXPECT_NE(report.find("IPv4"), std::string::npos);
  EXPECT_GT(report.size(), 1500u);
}

TEST(Report, EmptyGeoOrPassiveOmitsItsSection) {
  auto world =
      ditl::generate_world(ditl::build_campaign_plan(ditl::small_world_spec()));
  core::Experiment experiment(*world, {});
  const auto& results = experiment.run();

  const std::string no_geo = analysis::render_report(
      results.records, world->targets, analysis::GeoDb{},
      ditl::passive_capture(*world->plan), world->public_dns_addrs);
  EXPECT_EQ(no_geo.find("DSAV by country"), std::string::npos);
  EXPECT_NE(no_geo.find("Passive cross-check"), std::string::npos);

  const std::string no_passive = analysis::render_report(
      results.records, world->targets, ditl::geo_db(*world->plan),
      analysis::PassiveCapture{}, world->public_dns_addrs);
  EXPECT_NE(no_passive.find("DSAV by country"), std::string::npos);
  EXPECT_EQ(no_passive.find("Passive cross-check"), std::string::npos);
  EXPECT_NE(no_passive.find("DSAV prevalence"), std::string::npos);
}

TEST(Report, PureFunctionOfInputs) {
  auto world =
      ditl::generate_world(ditl::build_campaign_plan(ditl::small_world_spec()));
  core::Experiment experiment(*world, {});
  const auto& results = experiment.run();
  const analysis::GeoDb geo = ditl::geo_db(*world->plan);
  const analysis::PassiveCapture passive = ditl::passive_capture(*world->plan);
  const auto render = [&] {
    return analysis::render_report(results.records, world->targets, geo,
                                   passive, world->public_dns_addrs);
  };
  EXPECT_EQ(render(), render());
}

}  // namespace
