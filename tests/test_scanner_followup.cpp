// Unit/integration tests: the follow-up query engine (scanner/followup).
//
// Pins the §3.5 battery contract: on a target's FIRST reachability hit — and
// only the first — the engine sends 10 IPv4-only-delegation queries, 10
// IPv6-only-delegation queries, one non-spoofed open-resolver check, and one
// TC-eliciting query, spaced `kFollowupSpacing` apart and reusing the
// spoofed source that hit.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dns/message.h"
#include "ditl/world.h"
#include "scanner/followup.h"
#include "util/error.h"

namespace {

using namespace cd;
using net::IpAddr;
using scanner::Collector;
using scanner::FollowupConfig;
using scanner::FollowupEngine;
using scanner::Prober;
using scanner::QnameCodec;
using scanner::QnameInfo;
using scanner::QueryMode;
using scanner::SourceSelector;
using scanner::TargetInfo;

/// One probe query the vantage put on the wire, as seen by a network tap.
struct SentQuery {
  QueryMode mode;
  IpAddr spoofed_src;
  sim::SimTime at;
};

/// A world plus a hand-built scanner stack (the same wiring
/// core::Experiment does) whose collector is fed synthetic auth-log
/// entries, so first hits happen exactly when the test says they do.
struct Fixture {
  std::unique_ptr<ditl::World> world =
      ditl::generate_world(ditl::build_campaign_plan([] {
        auto spec = ditl::small_world_spec();
        spec.seed = 4242;
        return spec;
      }()));
  Rng rng{world->plan->spec.seed ^ 0xF0110};
  QnameCodec codec{world->base_zone, world->keyword};
  SourceSelector selector{world->topology, world->hitlist_v6,
                          scanner::SourceSelectConfig{}, rng.split("select")};
  Prober prober{*world->vantage, codec, selector, scanner::ProbeConfig{},
                rng.split("probe")};
  Collector collector{codec, &world->topology};
  FollowupEngine engine{prober, collector, FollowupConfig{}};

  /// Battery queries sent toward `target`, keyed off the embedded qname.
  std::map<IpAddr, std::vector<SentQuery>> sent;

  Fixture() {
    world->network->add_tap([this](const net::Packet& packet,
                                   sim::DropReason, sim::SimTime at) {
      if (packet.proto != net::IpProto::kUdp || packet.dst_port != 53) return;
      dns::DnsMessage msg;
      try {
        msg = dns::DnsMessage::decode(packet.payload);
      } catch (const ParseError&) {
        return;  // not DNS (or a response fragment) — not ours
      }
      if (msg.header.qr || msg.questions.empty()) return;
      const auto decoded = codec.decode(msg.qname());
      if (!decoded.in_experiment || !decoded.full()) return;
      // Battery traffic only: the query the wire says targets `dst`.
      if (!world->network->host_at(packet.dst)) return;
      sent[packet.dst].push_back(
          SentQuery{*decoded.mode, packet.src, at});
    });
  }

  /// Feeds the collector a synthetic auth-side observation: `target`
  /// answered a spoofed probe from `spoofed` right now.
  void observe_hit(const TargetInfo& target, const IpAddr& spoofed) {
    QnameInfo info;
    info.ts = world->loop.now();
    info.src = spoofed;
    info.dst = target.addr;
    info.asn = target.asn;
    info.mode = QueryMode::kInitial;
    resolver::AuthLogEntry entry;
    entry.time = world->loop.now();
    entry.client = target.addr;  // direct answer
    entry.client_port = 5353;
    entry.server = IpAddr::must_parse("199.7.2.1");
    entry.qname = codec.encode(info);
    collector.observe(entry);
  }

  [[nodiscard]] TargetInfo v4_target(std::size_t skip = 0) const {
    for (const TargetInfo& t : world->targets) {
      if (t.addr.is_v4() && world->network->host_at(t.addr) != nullptr) {
        if (skip == 0) return t;
        --skip;
      }
    }
    ADD_FAILURE() << "world has too few v4 targets";
    return {};
  }

  [[nodiscard]] std::map<QueryMode, int> mode_counts(
      const IpAddr& target) const {
    std::map<QueryMode, int> counts;
    const auto it = sent.find(target);
    if (it == sent.end()) return counts;
    for (const SentQuery& q : it->second) ++counts[q.mode];
    return counts;
  }
};

TEST(Followup, BatteryIsTenTenOpenAndTcp) {
  Fixture f;
  const TargetInfo target = f.v4_target();
  const IpAddr spoofed = IpAddr::must_parse("198.51.100.7");

  f.observe_hit(target, spoofed);
  EXPECT_EQ(f.engine.batteries_sent(), 1u);
  f.world->loop.run();

  const auto counts = f.mode_counts(target.addr);
  EXPECT_EQ(counts.at(QueryMode::kV4Only), 10);
  EXPECT_EQ(counts.at(QueryMode::kV6Only), 10);
  EXPECT_EQ(counts.at(QueryMode::kOpen), 1);
  EXPECT_EQ(counts.at(QueryMode::kTcp), 1);
  EXPECT_EQ(counts.count(QueryMode::kInitial), 0u);

  // Spoofed legs reuse the source that hit; the open check uses the
  // vantage's real address.
  const auto vantage_v4 = f.world->vantage->address(net::IpFamily::kV4);
  ASSERT_TRUE(vantage_v4.has_value());
  for (const SentQuery& q : f.sent.at(target.addr)) {
    if (q.mode == QueryMode::kOpen) {
      EXPECT_EQ(q.spoofed_src, *vantage_v4);
    } else {
      EXPECT_EQ(q.spoofed_src, spoofed);
    }
  }
}

TEST(Followup, QueriesAreSpacedOneSecondApartInModeOrder) {
  Fixture f;
  const TargetInfo target = f.v4_target();
  f.observe_hit(target, IpAddr::must_parse("198.51.100.7"));
  f.world->loop.run();

  const auto& queries = f.sent.at(target.addr);
  ASSERT_EQ(queries.size(), 22u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(queries[i].at,
              static_cast<sim::SimTime>(i + 1) * scanner::kFollowupSpacing)
        << "query " << i;
    const QueryMode expect = i < 10   ? QueryMode::kV4Only
                             : i < 20 ? QueryMode::kV6Only
                             : i < 21 ? QueryMode::kOpen
                                      : QueryMode::kTcp;
    EXPECT_EQ(queries[i].mode, expect) << "query " << i;
  }
}

TEST(Followup, FirstHitGatingSendsOneBatteryPerTarget) {
  Fixture f;
  const TargetInfo target = f.v4_target();

  f.observe_hit(target, IpAddr::must_parse("198.51.100.7"));
  EXPECT_EQ(f.engine.batteries_sent(), 1u);
  // A second qualifying hit from a different spoofed source: gated.
  f.observe_hit(target, IpAddr::must_parse("203.0.113.9"));
  EXPECT_EQ(f.engine.batteries_sent(), 1u);
  f.world->loop.run();

  const auto counts = f.mode_counts(target.addr);
  EXPECT_EQ(counts.at(QueryMode::kV4Only), 10);
  EXPECT_EQ(counts.at(QueryMode::kOpen), 1);

  // A different target is its own battery.
  const TargetInfo other = f.v4_target(1);
  ASSERT_FALSE(other.addr == target.addr);
  f.observe_hit(other, IpAddr::must_parse("198.51.100.7"));
  EXPECT_EQ(f.engine.batteries_sent(), 2u);
  f.world->loop.run();
  EXPECT_EQ(f.mode_counts(other.addr).at(QueryMode::kV4Only), 10);
}

}  // namespace
