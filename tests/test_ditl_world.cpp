// Tests: DITL filtering and generated-world invariants.
#include <gtest/gtest.h>

#include <set>

#include "ditl/ditl.h"
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
    world_ = ditl::generate_world(ditl::small_world_spec()).release();
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
  EXPECT_EQ(world_->truth_dsav.size(),
            static_cast<std::size_t>(world_->spec.n_asns));
  for (const auto& [asn, dsav] : world_->truth_dsav) {
    const auto* info = world_->topology.find(asn);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->policy.dsav, dsav);
  }
}

TEST_F(WorldInvariants, GeoCoversAllTargets) {
  for (const auto& target : world_->targets) {
    EXPECT_TRUE(world_->geo.country_of(target.addr).has_value())
        << target.addr.to_string();
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
  std::size_t dsav = 0;
  for (const auto& [asn, d] : world_->truth_dsav) {
    if (d) ++dsav;
  }
  const double rate =
      static_cast<double>(dsav) / static_cast<double>(world_->truth_dsav.size());
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
  const auto w1 = ditl::generate_world(spec);
  spec.seed = 777;
  const auto w2 = ditl::generate_world(spec);
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
  const auto world = ditl::generate_world(spec);
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
  const auto world = ditl::generate_world(ditl::small_world_spec());
  ASSERT_EQ(world->public_dns_addrs.size(), 8u);  // 4 services, dual-stack
  for (const IpAddr& addr : world->public_dns_addrs) {
    EXPECT_NE(world->network->host_at(addr), nullptr);
  }
}

}  // namespace
