// Quickstart: generate a synthetic Internet, run the paper's measurement
// end-to-end, and print the headline DSAV findings.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "analysis/classify.h"
#include "analysis/report.h"
#include "core/experiment.h"
#include "ditl/target_stream.h"
#include "ditl/world.h"
#include "util/str.h"

int main() {
  using namespace cd;

  // 1. A world: ASes announcing prefixes, resolver fleets with realistic
  //    software/OS behaviour, border filtering policies, and a DITL-style
  //    target capture. small_world_spec() keeps this instant.
  ditl::WorldSpec spec = ditl::small_world_spec();
  spec.seed = 2026;
  auto world = ditl::generate_world(ditl::build_campaign_plan(spec));
  std::printf("world: %zu ASes, %zu resolvers, %zu scan targets\n",
              world->topology.as_count(), world->resolvers.size(),
              world->targets.size());

  // 2. The experiment: spoofed-source probes from the vantage, follow-up
  //    batteries on first hit, collection at our authoritative servers.
  core::Experiment experiment(*world, core::ExperimentConfig{});
  const core::ExperimentResults& results = experiment.run();
  std::printf("campaign: %s spoofed queries sent, %s auth-side log entries\n",
              with_commas(results.queries_sent).c_str(),
              with_commas(results.collector_stats.entries_seen).c_str());

  // 3. Analysis: who let our spoofed packets in?
  const auto summary = analysis::summarize_dsav(results.records,
                                                world->targets);
  std::printf(
      "\nDSAV findings:\n"
      "  IPv4: %s of %s targets reachable; %s of %s ASes infiltrated (%s)\n"
      "  IPv6: %s of %s targets reachable; %s of %s ASes infiltrated (%s)\n",
      with_commas(summary.v4.targets_reachable).c_str(),
      with_commas(summary.v4.targets_total).c_str(),
      with_commas(summary.v4.asns_reachable).c_str(),
      with_commas(summary.v4.asns_total).c_str(),
      percent(static_cast<double>(summary.v4.asns_reachable),
              static_cast<double>(summary.v4.asns_total))
          .c_str(),
      with_commas(summary.v6.targets_reachable).c_str(),
      with_commas(summary.v6.targets_total).c_str(),
      with_commas(summary.v6.asns_reachable).c_str(),
      with_commas(summary.v6.asns_total).c_str(),
      percent(static_cast<double>(summary.v6.asns_reachable),
              static_cast<double>(summary.v6.asns_total))
          .c_str());

  const auto oc = analysis::open_closed_stats(results.records);
  std::printf(
      "  resolvers reached: %s open, %s closed — the closed ones believed "
      "their ACLs protected them\n",
      with_commas(oc.open).c_str(), with_commas(oc.closed).c_str());

  // 4. Against ground truth: the blind measurement vs. what was planted.
  //    AS-level truth lives in the campaign plan the world was built from.
  const ditl::CampaignPlan& plan = *world->plan;
  std::size_t truth_lacking = 0;
  for (std::size_t id = 0; id < plan.size(); ++id) {
    if (!(plan.flags[id] & ditl::kAsDsav)) ++truth_lacking;
  }
  std::printf("  ground truth: %s of %s ASes actually lack DSAV\n",
              with_commas(truth_lacking).c_str(),
              with_commas(plan.size()).c_str());

  // 5. Or let the library write the whole evaluation section for you:
  std::printf("\n%s", analysis::render_report(
                          results.records, world->targets, ditl::geo_db(plan),
                          ditl::passive_capture(plan), world->public_dns_addrs)
                          .c_str());
  return 0;
}
