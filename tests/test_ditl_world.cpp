// Tests: DITL filtering and generated-world invariants.
#include <gtest/gtest.h>

#include <set>

#include "ditl/ditl.h"
#include "ditl/plan.h"
#include "ditl/world.h"
#include "net/special.h"

namespace {

using namespace cd;
using net::IpAddr;

TEST(DitlFilter, AppliesPaperExclusions) {
  sim::Topology topo;
  topo.add_as(1);
  topo.announce(1, net::Prefix::must_parse("20.0.0.0/16"));

  const std::vector<IpAddr> raw = {
      IpAddr::must_parse("20.0.0.1"),      // routed: kept
      IpAddr::must_parse("10.1.2.3"),      // special purpose: dropped
      IpAddr::must_parse("192.168.5.5"),   // special purpose: dropped
      IpAddr::must_parse("11.0.0.1"),      // unrouted: dropped
      IpAddr::must_parse("20.0.200.9"),    // routed: kept
  };
  ditl::DitlFilterStats stats;
  const auto targets = ditl::filter_ditl(raw, topo, &stats);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].asn, 1u);
  EXPECT_EQ(stats.raw, 5u);
  EXPECT_EQ(stats.excluded_special, 2u);
  EXPECT_EQ(stats.excluded_unrouted, 1u);
  EXPECT_EQ(stats.accepted, 2u);
}

class WorldInvariants : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = ditl::generate_world(
                 ditl::build_campaign_plan(ditl::small_world_spec()))
                 .release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static ditl::World* world_;
};

ditl::World* WorldInvariants::world_ = nullptr;

TEST_F(WorldInvariants, EveryTargetRoutesToItsAsn) {
  for (const auto& target : world_->targets) {
    EXPECT_EQ(world_->topology.asn_of(target.addr), target.asn)
        << target.addr.to_string();
  }
}

TEST_F(WorldInvariants, NoSpecialPurposeTargets) {
  for (const auto& target : world_->targets) {
    EXPECT_FALSE(net::is_special_purpose(target.addr));
  }
}

TEST_F(WorldInvariants, ResolverAddressesUniqueAndHosted) {
  std::set<IpAddr> seen;
  for (const auto& [addr, truth] : world_->truth_resolvers) {
    EXPECT_TRUE(seen.insert(addr).second);
    EXPECT_NE(world_->network->host_at(addr), nullptr)
        << addr.to_string() << " has truth but no host";
  }
}

TEST_F(WorldInvariants, RootHintsPointAtLiveAuthServers) {
  ASSERT_FALSE(world_->hints.servers.empty());
  for (const IpAddr& addr : world_->hints.servers) {
    EXPECT_NE(world_->network->host_at(addr), nullptr);
  }
}

TEST_F(WorldInvariants, ExperimentAuthsRegistered) {
  // Base zone + v4 + v6 subzone servers.
  EXPECT_EQ(world_->experiment_auths.size(), 3u);
  EXPECT_NE(world_->vantage, nullptr);
  // The vantage AS must not deploy OSAV (the §3.4 requirement).
  const auto* as_info = world_->topology.find(world_->vantage->asn());
  ASSERT_NE(as_info, nullptr);
  EXPECT_FALSE(as_info->policy.osav);
}

TEST_F(WorldInvariants, TruthTablesCoverEdgeAses) {
  const ditl::CampaignPlan& plan = *world_->plan;
  EXPECT_EQ(plan.size(), static_cast<std::size_t>(plan.spec.n_asns));
  for (std::size_t id = 0; id < plan.size(); ++id) {
    const auto* info = world_->topology.find(plan.asn_of(id));
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->policy.dsav, (plan.flags[id] & ditl::kAsDsav) != 0);
  }
}

TEST_F(WorldInvariants, HitlistEntriesAreV6ResolverAddresses) {
  for (const IpAddr& addr : world_->hitlist_v6) {
    EXPECT_TRUE(addr.is_v6());
    EXPECT_TRUE(world_->truth_resolvers.count(addr));
  }
}

TEST_F(WorldInvariants, SomeTargetsAreStale) {
  // The capture carries stale entries (once-resolvers, now dark) beside the
  // live resolvers, and they survive the pre-scan exclusions: some targets
  // are no resolver at all. (The exclusion rules themselves are pinned by
  // DitlFilter.AppliesPaperExclusions.)
  std::size_t stale = 0;
  for (const auto& target : world_->targets) {
    if (world_->truth_resolvers.count(target.addr) == 0) ++stale;
  }
  EXPECT_GT(stale, 0u);
  EXPECT_LT(stale, world_->targets.size());
}

TEST_F(WorldInvariants, MarginalsRoughlyHonored) {
  // DSAV deployment should be in a plausible band around the country-mix
  // average (small world -> generous tolerance).
  const ditl::CampaignPlan& plan = *world_->plan;
  std::size_t dsav = 0;
  for (std::size_t id = 0; id < plan.size(); ++id) {
    if (plan.flags[id] & ditl::kAsDsav) ++dsav;
  }
  const double rate =
      static_cast<double>(dsav) / static_cast<double>(plan.size());
  EXPECT_GT(rate, 0.25);
  EXPECT_LT(rate, 0.80);

  // Forwarders exist but are not everything.
  std::size_t forwards = 0;
  for (const auto& [addr, truth] : world_->truth_resolvers) {
    if (truth.forwards) ++forwards;
  }
  EXPECT_GT(forwards, 0u);
  EXPECT_LT(forwards, world_->truth_resolvers.size());
}

TEST(WorldGen, SeedsChangeWorlds) {
  auto spec = ditl::small_world_spec();
  const auto w1 = ditl::generate_world(ditl::build_campaign_plan(spec));
  spec.seed = 777;
  const auto w2 = ditl::generate_world(ditl::build_campaign_plan(spec));
  const auto addrs = [](const ditl::World& w) {
    std::vector<IpAddr> out;
    for (const auto& target : w.targets) out.push_back(target.addr);
    return out;
  };
  EXPECT_NE(addrs(*w1), addrs(*w2));
}

TEST(WorldGen, WildcardSpecAddsZoneRecords) {
  auto spec = ditl::small_world_spec();
  spec.wildcard_answers = true;
  const auto world = ditl::generate_world(ditl::build_campaign_plan(spec));
  // The base zone can now answer an arbitrary experiment name.
  bool found_wildcard_answer = false;
  for (const auto& zone : world->zones) {
    const auto result = zone->lookup(
        dns::DnsName::must_parse("1.2.3.4.m0." + spec.keyword + "." +
                                 spec.base_zone),
        dns::RrType::kA);
    if (result.kind == dns::LookupKind::kAnswer && result.wildcard) {
      found_wildcard_answer = true;
    }
  }
  EXPECT_TRUE(found_wildcard_answer);
}

TEST(WorldGen, PublicDnsServicesAreOpenResolvers) {
  const auto world =
      ditl::generate_world(ditl::build_campaign_plan(ditl::small_world_spec()));
  ASSERT_EQ(world->public_dns_addrs.size(), 8u);  // 4 services, dual-stack
  for (const IpAddr& addr : world->public_dns_addrs) {
    EXPECT_NE(world->network->host_at(addr), nullptr);
  }
}

// --- plan-backed analysis views ---------------------------------------------

/// Every target geolocates to its AS's planned country: `country2` inside
/// the second v4 prefix, `country` everywhere else (first v4 prefix, v6).
/// Returns how many targets sit in a second prefix planned elsewhere.
std::size_t expect_targets_get_planned_country(const ditl::WorldSpec& spec) {
  const auto world = ditl::generate_world(ditl::build_campaign_plan(spec));
  const ditl::CampaignPlan& plan = *world->plan;
  const analysis::GeoDb geo = ditl::geo_db(plan);
  EXPECT_FALSE(world->targets.empty());
  std::size_t relocated = 0;
  for (const auto& target : world->targets) {
    const std::size_t id = target.asn - ditl::kEdgeAsnBase;
    if (id >= plan.size()) {
      ADD_FAILURE() << target.addr.to_string() << " is not in an edge AS";
      continue;
    }
    const bool second = (plan.flags[id] & ditl::kAsHasSecondV4) &&
                        plan.v4b[id].contains(target.addr);
    const std::uint16_t country =
        second ? plan.country2[id] : plan.country[id];
    if (country != plan.country[id]) ++relocated;
    EXPECT_EQ(geo.country_of(target.addr),
              std::optional<std::string>(spec.countries[country].country))
        << target.addr.to_string();
  }
  return relocated;
}

TEST(PlanViews, GeoDbGivesEveryTargetItsAsCountry) {
  expect_targets_get_planned_country(ditl::small_world_spec());
  // The bench world has multi-national ASes, so country2 is exercised.
  EXPECT_GT(expect_targets_get_planned_country(ditl::bench_world_spec()), 0u);
}

}  // namespace
