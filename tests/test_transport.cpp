// Persistent-transport battery: RFC 7766 session reuse and pipelining,
// idle-timeout edge semantics (an exchange landing exactly on the idle
// deadline loses to the close; one tick earlier survives; reuse after a
// server close falls back to a fresh dial), DoT-style handshake cost, the
// one-shot mode (one dial per message, ID-paired replies, no FIN), and the
// campaign differential proving per-target reply bytes identical between
// one-shot and persistent transport — while dial (SYN) counts drop — across
// seeds, disk spills and, in these small worlds, shard counts. Reply bytes
// hold across shard counts only for targets whose first_hit_time does: the
// battery starts at the first hit and its query names encode their send
// time, so forwarders whose first hit depends on shared public-resolver
// cache warmness legitimately differ by layout in larger worlds (see
// ExperimentResults::transport_replies).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "ditl/world.h"
#include "net/packet.h"
#include "scanner/followup.h"
#include "sim/host.h"
#include "sim/network.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using net::IpAddr;
using net::Packet;
using sim::Host;
using sim::Network;
using sim::SimTime;
using sim::TransportCounters;
using sim::TransportOptions;

/// A 2-byte big-endian length prefix over `body`, gather-framed the way the
/// resolver frames DNS-over-TCP messages.
cd::GatherBuf framed(std::vector<std::uint8_t> body) {
  cd::GatherBuf g(std::move(body));
  const std::uint8_t prefix[2] = {
      static_cast<std::uint8_t>(g.body.size() >> 8),
      static_cast<std::uint8_t>(g.body.size())};
  g.set_header(prefix);
  return g;
}

/// A framed pseudo-DNS message whose first two body bytes carry `id` (the
/// bytes Host::tcp_query matches responses by).
cd::GatherBuf framed_msg(std::uint16_t id, std::size_t extra = 16,
                         std::uint8_t salt = 0) {
  std::vector<std::uint8_t> body;
  body.push_back(static_cast<std::uint8_t>(id >> 8));
  body.push_back(static_cast<std::uint8_t>(id));
  for (std::size_t i = 0; i < extra; ++i) {
    body.push_back(static_cast<std::uint8_t>(salt + i * 7));
  }
  return framed(std::move(body));
}

std::uint16_t framed_id(const std::vector<std::uint8_t>& framed_bytes) {
  if (framed_bytes.size() < 4) return 0;
  return static_cast<std::uint16_t>((framed_bytes[2] << 8) | framed_bytes[3]);
}

struct TransportFixture {
  sim::EventLoop loop;
  sim::Topology topology;
  Network network;
  std::optional<Host> client;
  std::optional<Host> server;
  IpAddr caddr = IpAddr::must_parse("21.0.0.5");
  IpAddr saddr = IpAddr::must_parse("22.0.0.1");

  explicit TransportFixture(TransportOptions transport, std::uint64_t seed = 7)
      : network(topology, loop, Rng(seed)) {
    topology.add_as(1);
    topology.add_as(2);
    topology.announce(1, net::Prefix::must_parse("21.0.0.0/16"));
    topology.announce(2, net::Prefix::must_parse("22.0.0.0/16"));
    network.set_transport(transport);
    client.emplace(network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
                   std::vector<IpAddr>{caddr}, Rng(seed + 1));
    server.emplace(network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
                   std::vector<IpAddr>{saddr}, Rng(seed + 2));
  }

  /// Session listener echoing each framed message's body back as the
  /// response (so the reply carries the request's message ID).
  void serve_echo() {
    server->tcp_listen(
        53, [](const sim::TcpConnInfo&, std::span<const std::uint8_t> msg,
               Host::TcpSessionReply reply) {
          ASSERT_GE(msg.size(), 2u);
          reply(framed({msg.begin() + 2, msg.end()}));
        });
  }
};

TransportOptions persistent_options() {
  TransportOptions t;
  t.persistent = true;
  return t;
}

// --- session reuse -----------------------------------------------------------

TEST(TransportSession, ReusesOneConnectionAcrossMessages) {
  TransportFixture f(persistent_options());
  f.serve_echo();

  std::vector<std::vector<std::uint8_t>> replies;
  // Three strictly sequential exchanges: each next query is issued from the
  // previous reply handler, so reuse (not pipelining) is what's exercised.
  std::function<void(std::uint16_t)> next = [&](std::uint16_t id) {
    f.client->tcp_query(f.caddr, f.saddr, 53, framed_msg(id),
                        [&, id](std::optional<std::vector<std::uint8_t>> r) {
                          ASSERT_TRUE(r.has_value());
                          replies.push_back(std::move(*r));
                          if (id < 0x1003) next(id + 1);
                        });
  };
  next(0x1001);
  f.loop.run();

  ASSERT_EQ(replies.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto expected =
        framed_msg(static_cast<std::uint16_t>(0x1001 + i)).to_vector();
    EXPECT_EQ(replies[i], expected);
  }
  const TransportCounters& c = f.client->transport_counters();
  EXPECT_EQ(c.dials, 1u);
  EXPECT_EQ(c.session_reuses, 2u);
  EXPECT_EQ(c.session_messages, 3u);
  const TransportCounters& s = f.server->transport_counters();
  EXPECT_EQ(s.accepts, 1u);
  EXPECT_EQ(s.idle_closes, 1u);  // server FIN after the 10s idle window
  // Network-wide aggregation sums the two hosts.
  const TransportCounters total = f.network.transport_counters();
  EXPECT_EQ(total.dials, 1u);
  EXPECT_EQ(total.accepts, 1u);
  EXPECT_EQ(total.session_messages, 3u);
  EXPECT_EQ(f.network.open_tcp_connections(), 0u);
}

// --- pipelining window + out-of-order responses ------------------------------

TEST(TransportSession, PipelineWindowCapsInFlightAndMatchesOutOfOrder) {
  TransportOptions t = persistent_options();
  t.max_pipeline = 2;
  TransportFixture f(t);

  // Deferred server: hold every reply; the test releases them in REVERSE
  // order, so responses come back out of order and the client must match
  // them to handlers by message ID.
  std::vector<std::pair<std::uint16_t, Host::TcpSessionReply>> held;
  f.server->tcp_listen(
      53, [&held](const sim::TcpConnInfo&, std::span<const std::uint8_t> msg,
                  Host::TcpSessionReply reply) {
        const std::uint16_t id =
            static_cast<std::uint16_t>((msg[2] << 8) | msg[3]);
        held.emplace_back(id, std::move(reply));
      });
  const auto release_held = [&held] {
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      std::vector<std::uint8_t> body;
      body.push_back(static_cast<std::uint8_t>(it->first >> 8));
      body.push_back(static_cast<std::uint8_t>(it->first));
      it->second(framed(std::move(body)));
    }
    held.clear();
  };

  std::map<std::uint16_t, std::uint16_t> reply_ids;  // query id -> reply id
  for (std::uint16_t id = 0x2001; id <= 0x2005; ++id) {
    f.client->tcp_query(f.caddr, f.saddr, 53, framed_msg(id),
                        [&reply_ids, id](auto r) {
                          ASSERT_TRUE(r.has_value());
                          reply_ids[id] = framed_id(*r);
                        });
  }

  // The pipeline window admits exactly 2 in-flight messages per round: the
  // server holds 2, the other 3 wait in the client's queue.
  f.loop.schedule_at(1 * sim::kSecond, [&] {
    EXPECT_EQ(held.size(), 2u);
    release_held();
  });
  f.loop.schedule_at(2 * sim::kSecond, [&] {
    EXPECT_EQ(held.size(), 2u);  // freed slots admitted the next two
    release_held();
  });
  f.loop.schedule_at(3 * sim::kSecond, [&] {
    EXPECT_EQ(held.size(), 1u);
    release_held();
  });
  f.loop.run();

  ASSERT_EQ(reply_ids.size(), 5u);
  for (std::uint16_t id = 0x2001; id <= 0x2005; ++id) {
    EXPECT_EQ(reply_ids[id], id) << "reply matched to the wrong handler";
  }
  EXPECT_EQ(f.client->transport_counters().dials, 1u);
  EXPECT_EQ(f.client->transport_counters().session_messages, 5u);
  EXPECT_EQ(f.network.open_tcp_connections(), 0u);
}

// --- idle-timeout edges ------------------------------------------------------

constexpr SimTime kIdleWindow = 2 * sim::kSecond;

struct IdleRun {
  bool reply1_ok = false;
  std::optional<std::optional<std::vector<std::uint8_t>>> reply2;
  SimTime fin_time = -1;
  TransportCounters client;
  TransportCounters server;
};

/// One query at t=0 and (optionally) a second at `query2_at`, against a 2s
/// server idle window. Packet latencies are pure hashes of packet identity
/// (never of time), so timings measured in one run hold exactly in the next.
IdleRun run_idle(std::optional<SimTime> query2_at) {
  TransportOptions t = persistent_options();
  t.idle_timeout = kIdleWindow;
  TransportFixture f(t);
  f.serve_echo();

  IdleRun out;
  f.network.add_tap([&](const Packet& pkt, sim::DropReason, SimTime now) {
    if (pkt.src == f.saddr && pkt.tcp_flags.fin) out.fin_time = now;
  });

  f.client->tcp_query(f.caddr, f.saddr, 53, framed_msg(0x1111),
                      [&out](auto r) { out.reply1_ok = r.has_value(); });
  if (query2_at) {
    f.loop.schedule_at(*query2_at, [&f, &out] {
      f.client->tcp_query(f.caddr, f.saddr, 53, framed_msg(0x2222),
                          [&out](auto r) { out.reply2 = std::move(r); });
    });
  }
  f.loop.run();
  out.client = f.client->transport_counters();
  out.server = f.server->transport_counters();
  EXPECT_EQ(f.network.open_tcp_connections(), 0u);
  return out;
}

TEST(TransportIdle, DeadlineEdgesAndReuseAfterClose) {
  // Calibration A: only query 1. The server's FIN lands exactly one idle
  // window after the query's data arrived, which recovers that arrival time.
  const IdleRun a = run_idle(std::nullopt);
  ASSERT_TRUE(a.reply1_ok);
  ASSERT_GT(a.fin_time, 0);
  EXPECT_EQ(a.server.idle_closes, 1u);
  const SimTime activity1 = a.fin_time - kIdleWindow;
  const SimTime deadline = activity1 + kIdleWindow;

  // Calibration B: query 2 rides the live session at t=1s; its FIN-derived
  // arrival time recovers the one-way latency of query 2's data segment.
  const IdleRun b = run_idle(1 * sim::kSecond);
  ASSERT_TRUE(b.reply2.has_value());
  EXPECT_TRUE(b.reply2->has_value());
  const SimTime one_way = (b.fin_time - kIdleWindow) - 1 * sim::kSecond;
  ASSERT_GT(one_way, 0);

  // Edge 1: query 2's data arrives EXACTLY at the idle deadline. The idle
  // event was scheduled earlier in wall-clock than the delivery, so on the
  // shared tick the close runs first: the server is gone when the bytes
  // land, the FIN fails the in-flight message, and the FIN is stamped at
  // the deadline itself.
  const IdleRun exact = run_idle(deadline - one_way);
  ASSERT_TRUE(exact.reply1_ok);
  ASSERT_TRUE(exact.reply2.has_value());
  EXPECT_FALSE(exact.reply2->has_value()) << "close must win the tie";
  EXPECT_EQ(exact.fin_time, deadline);
  EXPECT_EQ(exact.client.dials, 1u);
  EXPECT_EQ(exact.client.session_reuses, 1u);
  EXPECT_EQ(exact.server.idle_closes, 1u);

  // Edge 2: the same request one tick earlier refreshes the idle window —
  // the session survives, the exchange completes, and the close slides a
  // full window past the new activity.
  const IdleRun early = run_idle(deadline - one_way - 1);
  ASSERT_TRUE(early.reply2.has_value());
  EXPECT_TRUE(early.reply2->has_value());
  EXPECT_EQ(early.fin_time, deadline - 1 + kIdleWindow);
  EXPECT_EQ(early.client.dials, 1u);
  EXPECT_EQ(early.server.idle_closes, 1u);

  // Edge 3: reuse AFTER the server closed falls back to a fresh dial — the
  // client's session index entry died with the FIN, so the late query
  // redials instead of writing into a dead stream.
  const IdleRun late = run_idle(deadline + 3 * kIdleWindow);
  ASSERT_TRUE(late.reply2.has_value());
  EXPECT_TRUE(late.reply2->has_value());
  EXPECT_EQ(late.client.dials, 2u);
  EXPECT_EQ(late.client.session_reuses, 0u);
  EXPECT_EQ(late.server.idle_closes, 2u);
}

TEST(TransportIdle, UnansweredReplyDefersThenForcesClose) {
  // A server application that never replies must not pin the session (or
  // the event loop) forever: the idle timer defers a bounded number of
  // times for the outstanding reply, then force-closes, failing the
  // client's message via the FIN.
  TransportOptions t = persistent_options();
  t.idle_timeout = 100 * sim::kMillisecond;
  TransportFixture f(t);
  f.server->tcp_listen(
      53, [](const sim::TcpConnInfo&, std::span<const std::uint8_t>,
             Host::TcpSessionReply) { /* never replies */ });

  std::optional<std::optional<std::vector<std::uint8_t>>> reply;
  f.client->tcp_query(f.caddr, f.saddr, 53, framed_msg(0x3333),
                      [&reply](auto r) { reply = std::move(r); });
  f.loop.run();

  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->has_value());
  EXPECT_EQ(f.server->transport_counters().idle_closes, 1u);
  EXPECT_EQ(f.network.open_tcp_connections(), 0u);
  EXPECT_EQ(f.loop.pending(), 0u);
}

// --- DoT-style sessions ------------------------------------------------------

TEST(TransportDot, HandshakePaysBytesAndSetupDelayOncePerConnection) {
  const auto run_one = [](bool dot, SimTime& first_reply_at,
                          TransportCounters& total) {
    TransportOptions t = persistent_options();
    t.dot = dot;
    TransportFixture f(t);
    f.serve_echo();
    SimTime second_reply_at = -1;
    f.client->tcp_query(f.caddr, f.saddr, 53, framed_msg(0x4001),
                        [&](auto r) {
                          ASSERT_TRUE(r.has_value());
                          first_reply_at = f.loop.now();
                          // Reuse: the second message must not pay the
                          // handshake again.
                          f.client->tcp_query(
                              f.caddr, f.saddr, 53, framed_msg(0x4002),
                              [&](auto r2) {
                                ASSERT_TRUE(r2.has_value());
                                second_reply_at = f.loop.now();
                              });
                        });
    f.loop.run();
    ASSERT_GT(second_reply_at, first_reply_at);
    total = f.network.transport_counters();
    EXPECT_EQ(f.network.open_tcp_connections(), 0u);
  };

  SimTime plain_at = -1;
  SimTime dot_at = -1;
  TransportCounters plain;
  TransportCounters dot;
  run_one(false, plain_at, plain);
  run_one(true, dot_at, dot);

  EXPECT_EQ(plain.handshake_bytes, 0u);
  // One connection, kDotHandshakeRtts (2) round trips: each side sends one
  // 32-byte hello flight per round — and the reused second message adds
  // nothing.
  EXPECT_EQ(dot.dials, 1u);
  EXPECT_EQ(dot.handshake_bytes, (dot.dials + dot.accepts) *
                                     Host::kDotHandshakeRtts *
                                     Host::kDotHelloBytes);
  // The handshake round trips plus the setup cost delay the first DNS byte.
  EXPECT_GE(dot_at, plain_at + Host::kDotSetupCost);
}

// --- one-shot fallback -------------------------------------------------------

TEST(TransportFallback, OneShotQueriesEachDialAndEndWithoutFin) {
  TransportFixture f(TransportOptions{});  // persistent off (the default)
  f.serve_echo();
  int fins = 0;
  f.network.add_tap([&fins](const Packet& pkt, sim::DropReason, SimTime) {
    if (pkt.tcp_flags.fin) ++fins;
  });

  std::optional<std::vector<std::uint8_t>> first;
  std::optional<std::vector<std::uint8_t>> second;
  f.client->tcp_query(f.caddr, f.saddr, 53, framed_msg(0x5001),
                      [&](auto r) { first = std::move(r); });
  f.client->tcp_query(f.caddr, f.saddr, 53, framed_msg(0x5002),
                      [&](auto r) { second = std::move(r); });
  f.loop.run();

  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, framed_msg(0x5001).to_vector());
  EXPECT_EQ(*second, framed_msg(0x5002).to_vector());
  // One connection per message, each carrying one exchange that both ends
  // forget without a FIN; session counters stay untouched off-knob.
  const TransportCounters total = f.network.transport_counters();
  EXPECT_EQ(total.dials, 2u);
  EXPECT_EQ(total.accepts, 2u);
  EXPECT_EQ(total.session_reuses, 0u);
  EXPECT_EQ(total.session_messages, 0u);
  EXPECT_EQ(total.idle_closes, 0u);
  EXPECT_EQ(total.handshake_bytes, 0u);
  EXPECT_EQ(fins, 0);
  EXPECT_EQ(f.network.open_tcp_connections(), 0u);
  EXPECT_EQ(f.loop.pending(), 0u);
}

TEST(TransportFallback, OneShotReplyIsPairedByMessageId) {
  // A one-shot reply pairs by DNS message ID like a session reply: a
  // response carrying another ID is dropped and the query times out.
  TransportFixture f(TransportOptions{});
  f.server->tcp_listen(
      53, [](const sim::TcpConnInfo&, std::span<const std::uint8_t> msg,
             sim::Host::TcpSessionReply reply) {
        reply(framed_msg(static_cast<std::uint16_t>(
            framed_id({msg.begin(), msg.end()}) + 1)));
      });
  std::optional<std::optional<std::vector<std::uint8_t>>> reply;
  f.client->tcp_query(f.caddr, f.saddr, 53, framed_msg(0x6001),
                      [&reply](auto r) { reply = std::move(r); },
                      2 * sim::kSecond);
  f.loop.run();

  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->has_value()) << "a wrong-ID reply must not pair";
  EXPECT_EQ(f.loop.now(), 2 * sim::kSecond);  // failed at the timeout
  EXPECT_EQ(f.network.open_tcp_connections(), 0u);
}

// --- campaign differential ---------------------------------------------------

ditl::WorldSpec camp_spec(std::uint64_t seed) {
  ditl::WorldSpec spec = ditl::small_world_spec();
  spec.n_asns = 6;
  spec.seed = seed;
  return spec;
}

core::ExperimentConfig camp_config(bool persistent, std::size_t shards,
                                   const std::string& spill_dir = {}) {
  core::ExperimentConfig config;
  config.followup.transport = scanner::FollowupTransport::kTcp;
  config.persistent_tcp = persistent;
  config.num_shards = shards;
  config.num_threads = shards > 1 ? 2 : 1;
  config.spill_dir = spill_dir;
  return config;
}

TEST(TransportCampaign, PersistentRepliesMatchOneShotWhileDialsDrop) {
  const auto spill =
      std::filesystem::temp_directory_path() / "cd_transport_spill";
  std::filesystem::create_directories(spill);

  for (const std::uint64_t seed : {7ULL, 42ULL, 99ULL}) {
    // One-shot baseline (persistent off): serial, and 4 shards with disk
    // spill.
    const auto base1 =
        core::run_sharded_experiment(camp_spec(seed), camp_config(false, 1));
    const auto base4 = core::run_sharded_experiment(
        camp_spec(seed), camp_config(false, 4, spill.string()));
    // Persistent transport on: same layouts.
    const auto sess1 =
        core::run_sharded_experiment(camp_spec(seed), camp_config(true, 1));
    const auto sess4 = core::run_sharded_experiment(
        camp_spec(seed), camp_config(true, 4, spill.string()));

    ASSERT_FALSE(base1.merged.transport_replies.empty()) << "seed " << seed;

    // Per-target evidence is layout-invariant within each transport...
    EXPECT_EQ(core::results_digest(base1.merged),
              core::results_digest(base4.merged))
        << "seed " << seed;
    EXPECT_EQ(core::results_digest(sess1.merged),
              core::results_digest(sess4.merged))
        << "seed " << seed;
    // ...and invariant ACROSS transports: reply bytes per target are
    // identical whether each message dialed its own connection or rode a
    // pipelined session.
    EXPECT_EQ(base1.merged.transport_replies, base4.merged.transport_replies)
        << "seed " << seed;
    EXPECT_EQ(sess1.merged.transport_replies, sess4.merged.transport_replies)
        << "seed " << seed;
    EXPECT_EQ(sess1.merged.transport_replies, base1.merged.transport_replies)
        << "seed " << seed;
    // (results_digest is NOT compared across transports: connection reuse
    // legitimately thins SYN-derived fingerprint evidence and shifts
    // arrival timing, exactly like the documented sharding exclusions.)

    // Connection economics: the baseline never reuses; the persistent
    // transport collapses each target's battery onto few dials, so total
    // SYN counts drop measurably.
    EXPECT_EQ(base1.merged.transport.session_reuses, 0u);
    EXPECT_GT(sess1.merged.transport.session_reuses, 0u);
    EXPECT_GT(sess1.merged.transport.idle_closes, 0u);
    EXPECT_LT(sess1.merged.transport.dials * 2, base1.merged.transport.dials)
        << "seed " << seed;
    EXPECT_EQ(base1.merged.transport.handshake_bytes, 0u);
    EXPECT_EQ(sess1.merged.transport.handshake_bytes, 0u);
  }

  // One extra layout on one seed: 4 shards merged in memory, no spill —
  // the differential holds on that axis too.
  const auto sess4 =
      core::run_sharded_experiment(camp_spec(42), camp_config(true, 4));
  const auto sess1ref =
      core::run_sharded_experiment(camp_spec(42), camp_config(true, 1));
  EXPECT_EQ(core::results_digest(sess4.merged),
            core::results_digest(sess1ref.merged));
  EXPECT_EQ(sess4.merged.transport_replies, sess1ref.merged.transport_replies);

  std::filesystem::remove_all(spill);
}

TEST(TransportCampaign, DotSessionsPayHandshakeWithoutChangingReplies) {
  core::ExperimentConfig dot_config = camp_config(true, 1);
  dot_config.dot_sessions = true;
  const auto dot =
      core::run_sharded_experiment(camp_spec(42), dot_config);
  const auto plain =
      core::run_sharded_experiment(camp_spec(42), camp_config(true, 1));

  // The handshake is pure wire overhead: every per-target reply digest is
  // unchanged, but each dial (both sides) paid its hello flights.
  EXPECT_EQ(dot.merged.transport_replies, plain.merged.transport_replies);
  const TransportCounters& c = dot.merged.transport;
  EXPECT_GT(c.handshake_bytes, 0u);
  EXPECT_EQ(c.handshake_bytes,
            (c.dials + c.accepts) * 2 * Host::kDotHelloBytes);
}

}  // namespace
