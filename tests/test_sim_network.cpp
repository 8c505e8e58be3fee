// Unit + integration tests: network filtering (OSAV/DSAV/martian), host
// stacks (Table 6 rules as parameterized sweep), UDP delivery, and TCP.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/host.h"
#include "sim/network.h"
#include "util/rng.h"

namespace {

using namespace cd;
using net::IpAddr;
using net::Packet;
using net::Prefix;
using sim::DropReason;
using sim::FilterPolicy;
using sim::Host;
using sim::Network;

struct Fixture {
  sim::EventLoop loop;
  sim::Topology topology;
  Network network{topology, loop, Rng(77)};

  Fixture() {
    topology.add_as(1, FilterPolicy{});  // vanilla origin
    topology.add_as(2, FilterPolicy{});  // vanilla destination
    topology.add_as(3, FilterPolicy{.osav = true});
    topology.add_as(4, FilterPolicy{.dsav = true});
    topology.add_as(5, FilterPolicy{.drop_inbound_martians = true});
    topology.announce(1, Prefix::must_parse("21.0.0.0/16"));
    topology.announce(2, Prefix::must_parse("22.0.0.0/16"));
    topology.announce(3, Prefix::must_parse("23.0.0.0/16"));
    topology.announce(4, Prefix::must_parse("24.0.0.0/16"));
    topology.announce(5, Prefix::must_parse("25.0.0.0/16"));
  }

  DropReason last = DropReason::kNone;
  void tap() {
    network.add_tap([this](const Packet&, DropReason r, sim::SimTime) {
      last = r;
    });
  }
};

Packet udp(const char* src, const char* dst) {
  return net::make_udp(IpAddr::must_parse(src), 1000,
                       IpAddr::must_parse(dst), 53, {1});
}

TEST(Network, DeliversToBoundService) {
  Fixture f;
  Host host(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  int received = 0;
  host.bind_udp(53, [&](const Packet&) { ++received; });
  f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
  EXPECT_EQ(f.network.packets_in_flight(), 1u);
  f.loop.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.network.stats().delivered, 1u);
  EXPECT_EQ(f.network.packets_in_flight(), 0u);
}

// Every accepted packet is its own event-loop entry: a timer scheduled for
// a packet's arrival tick between two sends of that packet runs between
// their deliveries, in scheduling order (same-tick FIFO).
TEST(Network, SameTickDeliveriesInterleaveWithOtherEventsInScheduleOrder) {
  sim::SimTime arrival = -1;
  {
    Fixture f;
    Host host(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
              {IpAddr::must_parse("22.0.0.1")}, Rng(1));
    host.bind_udp(53, [&](const Packet&) { arrival = f.loop.now(); });
    f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
    f.loop.run();
  }
  ASSERT_GT(arrival, 0);

  Fixture f;
  Host host(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  std::string order;
  host.bind_udp(53, [&](const Packet&) {
    EXPECT_EQ(f.loop.now(), arrival);
    order += 'P';
  });
  f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
  f.loop.schedule_at(arrival, [&] { order += 'T'; });
  f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
  EXPECT_EQ(f.network.packets_in_flight(), 2u);
  f.loop.run();
  EXPECT_EQ(order, "PTP");
  EXPECT_EQ(f.network.stats().delivery_batches, 2u);
}

// A handler that sends from inside its own delivery grows the in-flight
// table while the packet it was handed is still in use; the packet must
// survive that (ASan checks the reads after the burst) and every packet of
// the burst must arrive.
TEST(Network, HandlerBurstFromInsideDeliveryArrivesWhole) {
  constexpr int kBurst = 64;
  Fixture f;
  Host relay(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
             {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  Host sink(f.network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("21.0.0.9")}, Rng(2));
  int relayed = 0;
  relay.bind_udp(53, [&](const Packet& packet) {
    const std::vector<std::uint8_t> before = packet.payload;
    for (int i = 0; i < kBurst; ++i) {
      f.network.send(net::make_udp(IpAddr::must_parse("22.0.0.1"),
                                   static_cast<std::uint16_t>(2000 + i),
                                   IpAddr::must_parse("21.0.0.9"), 53,
                                   {static_cast<std::uint8_t>(i), 7, 7, 7}),
                     2);
    }
    EXPECT_EQ(packet.payload, before);
    EXPECT_EQ(packet.src, IpAddr::must_parse("21.0.0.5"));
    ++relayed;
  });
  std::vector<int> seen(kBurst, 0);
  sink.bind_udp(53, [&](const Packet& packet) {
    ASSERT_EQ(packet.payload.size(), 4u);
    ++seen.at(packet.payload[0]);
  });
  f.network.send(net::make_udp(IpAddr::must_parse("21.0.0.5"), 1000,
                               IpAddr::must_parse("22.0.0.1"), 53,
                               {1, 2, 3, 4, 5, 6, 7, 8}),
                 1);
  f.loop.run();
  EXPECT_EQ(relayed, 1);
  EXPECT_EQ(seen, std::vector<int>(kBurst, 1));
  EXPECT_EQ(f.network.stats().delivered, 1u + kBurst);
  EXPECT_EQ(f.network.stats().delivery_batches, 1u + kBurst);
  EXPECT_EQ(f.network.packets_in_flight(), 0u);
}

TEST(Network, OsavDropsForeignSourceAtEgress) {
  Fixture f;
  Host host(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  f.tap();
  // Spoofed src 22.x leaving AS 3 (OSAV): dropped at origin border.
  f.network.send(udp("22.0.0.99", "22.0.0.1"), 3);
  EXPECT_EQ(f.last, DropReason::kOsav);
  EXPECT_EQ(f.network.stats().dropped_osav, 1u);
  // The same packet from AS 1 (no OSAV) sails through.
  f.network.send(udp("22.0.0.99", "22.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kNone);
}

TEST(Network, OsavAllowsOwnSource) {
  Fixture f;
  Host host(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  f.tap();
  f.network.send(udp("23.0.0.5", "22.0.0.1"), 3);
  EXPECT_EQ(f.last, DropReason::kNone);
}

TEST(Network, DsavDropsInternalSourceAtIngress) {
  Fixture f;
  Host host(f.network, 4, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("24.0.0.1")}, Rng(1));
  f.tap();
  // Claimed source inside the destination AS (other-prefix style spoof).
  f.network.send(udp("24.0.5.5", "24.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kDsav);
  // Destination-as-source is equally internal.
  f.network.send(udp("24.0.0.1", "24.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kDsav);
  // External source passes.
  f.network.send(udp("21.0.0.5", "24.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kNone);
}

TEST(Network, DsavDoesNotCoverPrivateSources) {
  Fixture f;
  Host host(f.network, 4, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("24.0.0.1")}, Rng(1));
  f.tap();
  // The blind spot the smoke test documents: DSAV filters *internal*
  // addresses; a private source is not internal, and AS 4 has no martian
  // filtering.
  f.network.send(udp("192.168.0.10", "24.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kNone);
}

TEST(Network, MartianFilterDropsSpecialSources) {
  Fixture f;
  Host host(f.network, 5, sim::os_profile(sim::OsId::kFreeBsd121),
            {IpAddr::must_parse("25.0.0.1")}, Rng(1));
  f.tap();
  f.network.send(udp("192.168.0.10", "25.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kMartian);
  f.network.send(udp("127.0.0.1", "25.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kMartian);
  f.network.send(udp("21.0.0.5", "25.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kNone);
}

TEST(Network, UrpfSubnetFilterDropsSameSubnetSpoofs) {
  Fixture f;
  f.topology.add_as(6, FilterPolicy{.drop_inbound_same_subnet = true});
  f.topology.announce(6, Prefix::must_parse("26.0.0.0/16"));
  Host host(f.network, 6, sim::os_profile(sim::OsId::kFreeBsd121),
            {IpAddr::must_parse("26.0.1.10")}, Rng(1));
  f.tap();
  // Same-/24 spoof arriving from outside: dropped by last-hop uRPF.
  f.network.send(udp("26.0.1.99", "26.0.1.10"), 1);
  EXPECT_EQ(f.last, DropReason::kUrpfSubnet);
  EXPECT_EQ(f.network.stats().dropped_urpf, 1u);
  // Other-prefix spoofs inside the AS are NOT covered (that is DSAV's job).
  f.network.send(udp("26.0.2.99", "26.0.1.10"), 1);
  EXPECT_EQ(f.last, DropReason::kNone);
  // Strict uRPF also covers destination-as-source: the reverse path for
  // that source points at the local interface, not the border.
  f.network.send(udp("26.0.1.10", "26.0.1.10"), 1);
  EXPECT_EQ(f.last, DropReason::kUrpfSubnet);
}

TEST(Network, IntraAsTrafficSkipsBorderFilters) {
  Fixture f;
  Host host(f.network, 4, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("24.0.0.1")}, Rng(1));
  f.tap();
  // Same-AS origin: DSAV is a *border* filter and must not apply.
  f.network.send(udp("24.0.5.5", "24.0.0.1"), 4);
  EXPECT_EQ(f.last, DropReason::kNone);
}

TEST(Network, UnroutedAndNoHost) {
  Fixture f;
  f.tap();
  f.network.send(udp("21.0.0.5", "99.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kUnrouted);
  f.network.send(udp("21.0.0.5", "22.0.0.200"), 1);
  EXPECT_EQ(f.last, DropReason::kNoHost);
}

TEST(Network, DetachRemovesHost) {
  Fixture f;
  f.tap();
  {
    Host host(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
              {IpAddr::must_parse("22.0.0.1")}, Rng(1));
    f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
    EXPECT_EQ(f.last, DropReason::kNone);
    f.loop.run();
  }
  f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
  EXPECT_EQ(f.last, DropReason::kNoHost);
}

// --- Table 6 stack rules as a parameterized sweep --------------------------------

struct StackCase {
  sim::OsId os;
  bool ds_v4, lb_v4, ds_v6, lb_v6;
};

class StackAcceptance : public ::testing::TestWithParam<StackCase> {};

TEST_P(StackAcceptance, MatchesTable6) {
  const StackCase& c = GetParam();
  Fixture f;
  const auto v4 = IpAddr::must_parse("22.0.0.1");
  const auto v6 = IpAddr::must_parse("2400:22::1");
  f.topology.announce(2, Prefix::must_parse("2400:22::/32"));
  Host host(f.network, 2, sim::os_profile(c.os), {v4, v6}, Rng(1));

  auto accepts = [&](const IpAddr& src, const IpAddr& dst) {
    Packet pkt = net::make_udp(src, 1000, dst, 53, {1});
    return host.stack_accepts(pkt);
  };
  EXPECT_EQ(accepts(v4, v4), c.ds_v4) << "DS v4";
  EXPECT_EQ(accepts(IpAddr::must_parse("127.0.0.1"), v4), c.lb_v4) << "LB v4";
  EXPECT_EQ(accepts(v6, v6), c.ds_v6) << "DS v6";
  EXPECT_EQ(accepts(IpAddr::must_parse("::1"), v6), c.lb_v6) << "LB v6";
  // Ordinary external sources are always accepted.
  EXPECT_TRUE(accepts(IpAddr::must_parse("21.0.0.9"), v4));
  // Packets for someone else are not.
  EXPECT_FALSE(accepts(IpAddr::must_parse("21.0.0.9"),
                       IpAddr::must_parse("22.0.0.2")));
}

INSTANTIATE_TEST_SUITE_P(
    Table6, StackAcceptance,
    ::testing::Values(
        StackCase{sim::OsId::kUbuntu1904, false, false, true, false},
        StackCase{sim::OsId::kUbuntu1604, false, false, true, false},
        StackCase{sim::OsId::kUbuntu1004, false, false, true, true},
        StackCase{sim::OsId::kUbuntu1404, false, false, true, true},
        StackCase{sim::OsId::kFreeBsd121, true, false, true, false},
        StackCase{sim::OsId::kWin2019, true, false, true, false},
        StackCase{sim::OsId::kWin2008R2, true, false, true, false},
        StackCase{sim::OsId::kWin2003, true, true, true, false}));

// --- TCP ---------------------------------------------------------------------------

TEST(Tcp, RequestResponseExchange) {
  Fixture f;
  Host server(f.network, 2, sim::os_profile(sim::OsId::kFreeBsd121),
              {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  Host client(f.network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
              {IpAddr::must_parse("21.0.0.1")}, Rng(2));

  // Requests and replies are length-prefixed messages (RFC 1035 §4.2.2);
  // the first two body bytes are the DNS ID the client pairs replies by.
  std::optional<sim::TcpConnInfo> seen_conn;
  server.tcp_listen(53, [&](const sim::TcpConnInfo& info,
                            std::span<const std::uint8_t> req,
                            sim::Host::TcpSessionReply reply) {
    seen_conn = info;
    // Echo the body with one more byte, re-framed.
    std::vector<std::uint8_t> resp{0, static_cast<std::uint8_t>(req[1] + 1)};
    resp.insert(resp.end(), req.begin() + 2, req.end());
    resp.push_back(0xFF);
    reply(std::move(resp));
  });

  std::optional<std::vector<std::uint8_t>> reply;
  client.tcp_query(IpAddr::must_parse("21.0.0.1"),
                   IpAddr::must_parse("22.0.0.1"), 53,
                   std::vector<std::uint8_t>{0, 3, 0x12, 0x34, 3},
                   [&](auto r) { reply = std::move(*r); });
  f.loop.run();

  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, (std::vector<std::uint8_t>{0, 4, 0x12, 0x34, 3, 0xFF}));
  ASSERT_TRUE(seen_conn.has_value());
  // The server kept the client's SYN with its fingerprintable fields.
  EXPECT_TRUE(seen_conn->syn.tcp_flags.syn);
  EXPECT_EQ(seen_conn->syn.tcp_window,
            sim::os_profile(sim::OsId::kUbuntu1904).fp.window);
  EXPECT_EQ(seen_conn->syn.ttl,
            sim::os_profile(sim::OsId::kUbuntu1904).fp.initial_ttl);
  EXPECT_EQ(seen_conn->syn.tcp_options,
            sim::os_profile(sim::OsId::kUbuntu1904).fp.syn_options);
}

TEST(Tcp, TimeoutWhenNoListener) {
  Fixture f;
  Host server(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
              {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  Host client(f.network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
              {IpAddr::must_parse("21.0.0.1")}, Rng(2));
  bool failed = false;
  client.tcp_query(IpAddr::must_parse("21.0.0.1"),
                   IpAddr::must_parse("22.0.0.1"), 53,
                   std::vector<std::uint8_t>{0, 2, 0x12, 0x34},
                   [&](auto r) { failed = !r.has_value(); },
                   2 * sim::kSecond);
  f.loop.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(client.open_tcp_connections(), 0u);
}

TEST(Tcp, SpoofedSynCannotComplete) {
  Fixture f;
  Host server(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
              {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  int served = 0;
  server.tcp_listen(53, [&](const sim::TcpConnInfo&,
                            std::span<const std::uint8_t>,
                            sim::Host::TcpSessionReply) { ++served; });
  // A spoofed SYN: the SYN-ACK goes to the claimed source (no host there),
  // so the handshake never finishes and the service never runs.
  Packet syn = net::make_tcp(IpAddr::must_parse("21.0.9.9"), 1234,
                             IpAddr::must_parse("22.0.0.1"), 53,
                             net::TcpFlags{.syn = true});
  f.network.send(std::move(syn), 1);
  f.loop.run();
  EXPECT_EQ(served, 0);
}

TEST(Host, EphemeralPortsWithinOsRange) {
  Fixture f;
  const auto& os = sim::os_profile(sim::OsId::kUbuntu1904);
  Host host(f.network, 2, os, {IpAddr::must_parse("22.0.0.1")}, Rng(5));
  for (int i = 0; i < 5000; ++i) {
    const std::uint16_t p = host.ephemeral_port();
    EXPECT_GE(p, os.ephemeral_lo);
    EXPECT_LE(p, os.ephemeral_hi);
  }
}

// --- capture taps ------------------------------------------------------------

struct CaptureFixture : Fixture {
  Host a{network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
         {IpAddr::must_parse("21.0.0.1")}, Rng(1)};
  Host b{network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
         {IpAddr::must_parse("22.0.0.1")}, Rng(2)};
  std::vector<std::vector<std::uint8_t>> delivered_wire;

  CaptureFixture() {
    // Hosts record the wire form of each delivery, in delivery order.
    auto log = [this](const Packet& pkt) {
      delivered_wire.push_back(pkt.serialize());
    };
    a.bind_udp(53, log);
    b.bind_udp(53, log);
  }

  /// Sends `n` packets with distinguishable payloads toward both hosts.
  void send_batch(int n) {
    for (int i = 0; i < n; ++i) {
      const char* dst = (i % 2 == 0) ? "22.0.0.1" : "21.0.0.1";
      Packet pkt = net::make_udp(IpAddr::must_parse("21.0.0.5"),
                                 static_cast<std::uint16_t>(1000 + i),
                                 IpAddr::must_parse(dst), 53,
                                 {static_cast<std::uint8_t>(i)});
      network.send(std::move(pkt), 1);
    }
  }
};

TEST(CaptureTap, ObservesPacketsInExactDeliveryOrder) {
  CaptureFixture f;
  pcap::Capture capture;
  f.network.attach_capture(capture);
  f.send_batch(12);
  f.loop.run();

  // Latency jitter reorders deliveries relative to send order; the capture
  // must match what the hosts actually saw, byte for byte, record by record.
  ASSERT_EQ(f.delivered_wire.size(), 12u);
  ASSERT_EQ(capture.records.size(), 12u);
  for (std::size_t i = 0; i < capture.records.size(); ++i) {
    EXPECT_EQ(capture.records[i].bytes, f.delivered_wire[i]) << "record " << i;
    EXPECT_EQ(capture.records[i].annotation, 0) << "record " << i;
  }
  for (std::size_t i = 1; i < capture.records.size(); ++i) {
    EXPECT_GE(capture.records[i].time_us, capture.records[i - 1].time_us);
  }
}

TEST(CaptureTap, DropsAppearOnlyWhenDropCaptureEnabled) {
  CaptureFixture f;
  pcap::Capture delivered_only, with_drops;
  f.network.attach_capture(delivered_only);
  sim::CaptureOptions opts;
  opts.include_drops = true;
  f.network.attach_capture(with_drops, std::move(opts));

  // One delivery, one OSAV drop, one martian drop, one no-host drop.
  f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
  f.network.send(udp("22.0.0.99", "22.0.0.1"), 3);
  f.network.send(udp("192.168.0.10", "25.0.0.1"), 1);
  f.network.send(udp("21.0.0.5", "22.0.0.200"), 1);
  f.loop.run();

  ASSERT_EQ(delivered_only.records.size(), 1u);
  EXPECT_EQ(delivered_only.records[0].annotation,
            static_cast<std::uint8_t>(DropReason::kNone));

  ASSERT_EQ(with_drops.records.size(), 4u);
  // Drops are recorded at send time (time 0), the delivery later: the
  // drop-annotated records come first and carry their reasons.
  EXPECT_EQ(with_drops.records[0].annotation,
            static_cast<std::uint8_t>(DropReason::kOsav));
  EXPECT_EQ(with_drops.records[1].annotation,
            static_cast<std::uint8_t>(DropReason::kMartian));
  EXPECT_EQ(with_drops.records[2].annotation,
            static_cast<std::uint8_t>(DropReason::kNoHost));
  EXPECT_EQ(with_drops.records[3].annotation,
            static_cast<std::uint8_t>(DropReason::kNone));
  EXPECT_EQ(with_drops.records[3].bytes, delivered_only.records[0].bytes);
}

TEST(CaptureTap, OriginRecordsOnlyThatAsnsPackets) {
  Fixture f;
  Host host(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  pcap::Capture capture;
  sim::CaptureOptions opts;
  opts.origin = 3;
  f.network.attach_capture(capture, opts);
  f.network.send(udp("23.0.0.5", "22.0.0.1"), 3);
  f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
  f.loop.run();
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(Packet::parse(capture.records[0].bytes).src,
            IpAddr::must_parse("23.0.0.5"));
}

TEST(CaptureTap, RemovingTapMidCampaignIsSafe) {
  CaptureFixture f;
  pcap::Capture capture;
  const Network::TapId id = f.network.attach_capture(capture);
  f.send_batch(6);
  // Remove the tap while deliveries are still in flight: packets already
  // scheduled must not be recorded after removal, and nothing may touch the
  // (soon dangling-unsafe) sink.
  f.loop.run_until(0);  // classify/sends happened, deliveries pending
  f.network.remove_tap(id);
  const std::size_t at_removal = capture.records.size();
  f.loop.run();
  EXPECT_EQ(capture.records.size(), at_removal);
  EXPECT_EQ(f.delivered_wire.size(), 6u) << "delivery itself must continue";
  // Removing twice (or an unknown id) is harmless.
  f.network.remove_tap(id);
  f.network.remove_tap(9999);
}

TEST(CaptureTap, RemovingTapFromInsideTapThrows) {
  CaptureFixture f;
  pcap::Capture capture;
  const Network::TapId cap_id = f.network.attach_capture(capture);
  // Taps are dispatched in place, so a tap may not change the tap list:
  // removing a capture (or itself) from inside one is a caller bug.
  f.network.add_tap([&](const Packet&, DropReason, sim::SimTime) {
    f.network.remove_tap(cap_id);
  });
  EXPECT_THROW(f.send_batch(1), InvariantError);
}

TEST(CaptureTap, LegacyAddTapStillObservesSends) {
  Fixture f;
  Host host(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
            {IpAddr::must_parse("22.0.0.1")}, Rng(1));
  int seen = 0;
  const Network::TapId id = f.network.add_tap(
      [&](const Packet&, DropReason, sim::SimTime) { ++seen; });
  f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
  f.network.send(udp("21.0.0.5", "99.0.0.1"), 1);  // drop: still observed
  EXPECT_EQ(seen, 2);
  f.network.remove_tap(id);
  f.network.send(udp("21.0.0.5", "22.0.0.1"), 1);
  EXPECT_EQ(seen, 2);
  f.loop.run();
}

TEST(Host, AddressHelpers) {
  Fixture f;
  const auto v4 = IpAddr::must_parse("22.0.0.1");
  Host host(f.network, 2, sim::os_profile(sim::OsId::kUbuntu1904), {v4},
            Rng(5));
  EXPECT_TRUE(host.has_address(v4));
  EXPECT_FALSE(host.has_address(IpAddr::must_parse("22.0.0.2")));
  EXPECT_EQ(host.address(net::IpFamily::kV4), v4);
  EXPECT_FALSE(host.address(net::IpFamily::kV6));
}

// --- anycast -----------------------------------------------------------------

TEST(Anycast, CatchmentPicksTopologicallyNearestSite) {
  Fixture f;
  const auto service = IpAddr::must_parse("11.3.0.53");
  const auto& os = sim::os_profile(sim::OsId::kUbuntu1904);
  Host site1(f.network, 1, os, {IpAddr::must_parse("21.0.0.53")}, Rng(1));
  Host site2(f.network, 2, os, {IpAddr::must_parse("22.0.0.53")}, Rng(2));
  f.network.add_anycast_site(service, &site1);
  f.network.add_anycast_site(service, &site2);
  // Catchment per origin AS must agree exactly with the shared pair-latency
  // metric: whichever site is cheaper to reach from that AS wins.
  for (const sim::Asn origin : {1u, 2u, 3u, 4u, 5u}) {
    Host* got = f.network.anycast_catchment(service, origin);
    ASSERT_NE(got, nullptr);
    const auto d1 = Network::pair_base_latency(origin, 1);
    const auto d2 = Network::pair_base_latency(origin, 2);
    EXPECT_EQ(got, d2 < d1 ? &site2 : &site1) << "origin=" << origin;
  }
  // A site's own AS always reaches itself (same-AS distance is zero).
  EXPECT_EQ(f.network.anycast_catchment(service, 1), &site1);
  EXPECT_EQ(f.network.anycast_catchment(service, 2), &site2);
}

TEST(Anycast, EqualDistanceBreaksTiesByRegistrationOrder) {
  Fixture f;
  const auto service = IpAddr::must_parse("11.3.0.53");
  const auto& os = sim::os_profile(sim::OsId::kUbuntu1904);
  // Two sites in the SAME AS are equidistant from everywhere; the first
  // registered must win deterministically.
  Host site1(f.network, 1, os, {IpAddr::must_parse("21.0.0.53")}, Rng(1));
  Host site2(f.network, 1, os, {IpAddr::must_parse("21.0.1.53")}, Rng(2));
  f.network.add_anycast_site(service, &site1);
  f.network.add_anycast_site(service, &site2);
  for (const sim::Asn origin : {1u, 2u, 5u}) {
    EXPECT_EQ(f.network.anycast_catchment(service, origin), &site1);
  }
}

TEST(Anycast, UnknownServiceHasNoCatchment) {
  Fixture f;
  EXPECT_EQ(f.network.anycast_catchment(IpAddr::must_parse("11.3.0.53"), 1),
            nullptr);
}

TEST(Anycast, DeliveryReachesCatchmentSiteWithoutAnnouncement) {
  // The service prefix is never announced by any AS — anycast classification
  // must route the packet to the catchment site anyway, exactly as a covert
  // attack-plane deployment would behave.
  Fixture f;
  const auto service = IpAddr::must_parse("11.3.0.53");
  const auto& os = sim::os_profile(sim::OsId::kUbuntu1904);
  Host site(f.network, 2, os, {service}, Rng(1));
  f.network.add_anycast_site(service, &site);
  bool got = false;
  site.bind_udp(53, [&](const Packet& pkt) {
    got = pkt.src == IpAddr::must_parse("21.0.0.1");
  });
  f.network.send(net::make_udp(IpAddr::must_parse("21.0.0.1"), 1000, service,
                               53, {1}),
                 /*origin_asn=*/1);
  f.loop.run(1'000'000);
  EXPECT_TRUE(got);
}

}  // namespace
