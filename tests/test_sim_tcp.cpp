// Unit + integration tests: streaming MSS-segmented TCP — stream
// reassembly and length-prefix cutting, segmentation caps at the peer's
// SYN-advertised MSS, deterministic one-shot connection teardown (no stray
// timeout events), the truncated-mid-stream timeout path, a loud failure
// when no ephemeral port is free, and campaign digests pinned to the
// goldens the single-buffer baseline reproduced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "core/parallel.h"
#include "ditl/world.h"
#include "net/packet.h"
#include "sim/host.h"
#include "sim/network.h"
#include "util/error.h"
#include "util/pcap.h"
#include "util/rng.h"

namespace {

using namespace cd;
using net::IpAddr;
using net::Packet;
using sim::Host;
using sim::Network;
using sim::TcpReassembly;

/// Every OS profile used below advertises this MSS in its SYN options
/// (asserted in the first segmentation test so a table change is loud).
constexpr std::uint16_t kMss = 1460;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(salt + i * 7 + (i >> 8));
  }
  return v;
}

std::span<const std::uint8_t> sub(const std::vector<std::uint8_t>& v,
                                  std::size_t off, std::size_t len) {
  return std::span<const std::uint8_t>(v).subspan(off, len);
}

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

/// A framed message of exactly `stream_bytes` bytes on the wire (prefix
/// included) whose DNS ID field carries `id`, the rest patterned filler.
cd::GatherBuf framed_stream(std::size_t stream_bytes, std::uint16_t id,
                            std::uint8_t salt) {
  std::vector<std::uint8_t> body = pattern(stream_bytes - 2, salt);
  body[0] = static_cast<std::uint8_t>(id >> 8);
  body[1] = static_cast<std::uint8_t>(id);
  return framed(std::move(body));
}

/// The DNS ID field of a framed request (bytes 2..3).
std::uint16_t framed_id(std::span<const std::uint8_t> framed_bytes) {
  return static_cast<std::uint16_t>((framed_bytes[2] << 8) | framed_bytes[3]);
}

/// The 4-byte framed request every exchange below sends: a 2-byte message
/// that is nothing but the ID 0xABCD.
constexpr std::uint16_t kQueryId = 0xABCD;
cd::GatherBuf query() { return framed({0xAB, 0xCD}); }

std::vector<std::uint8_t> read_all(TcpReassembly& rx) {
  std::vector<std::uint8_t> out;
  rx.read(rx.available(), out);
  return out;
}

// --- TcpReassembly ---------------------------------------------------------

TEST(TcpReassemblyTest, InOrderAndCursor) {
  TcpReassembly rx;
  const auto data = pattern(10);
  EXPECT_TRUE(rx.add(0, sub(data, 0, 4)));
  EXPECT_EQ(rx.available(), 4u);
  EXPECT_TRUE(rx.add(4, sub(data, 4, 6)));
  ASSERT_EQ(rx.available(), 10u);
  EXPECT_EQ(rx.peek(9), data[9]);
  // Cut the front off, skip a byte, and rebase: the cursor keeps its place
  // in the stream while the origin moves.
  std::vector<std::uint8_t> head;
  rx.read(3, head);
  EXPECT_EQ(head, std::vector<std::uint8_t>(data.begin(), data.begin() + 3));
  rx.skip(1);
  EXPECT_EQ(rx.consumed(), 4u);
  EXPECT_EQ(rx.rebase(), 4u);
  EXPECT_EQ(rx.consumed(), 0u);
  EXPECT_EQ(rx.available(), 6u);
  EXPECT_EQ(rx.peek(0), data[4]);
  EXPECT_EQ(read_all(rx),
            std::vector<std::uint8_t>(data.begin() + 4, data.end()));
  EXPECT_EQ(rx.available(), 0u);
  rx.discard();
}

TEST(TcpReassemblyTest, OutOfOrderOverlapAndDuplicates) {
  const auto data = pattern(9, 3);
  TcpReassembly rx;
  // Tail first, then a middle duplicate pair, then a head segment
  // overlapping the middle — the assembled stream is still exact, and no
  // byte is available before the gap at the front closes.
  EXPECT_TRUE(rx.add(6, sub(data, 6, 3)));
  EXPECT_EQ(rx.available(), 0u);
  EXPECT_TRUE(rx.add(3, sub(data, 3, 3)));
  EXPECT_TRUE(rx.add(3, sub(data, 3, 3)));
  EXPECT_EQ(rx.available(), 0u);
  EXPECT_TRUE(rx.add(0, sub(data, 0, 5)));
  ASSERT_EQ(rx.available(), 9u);
  EXPECT_EQ(read_all(rx), data);
}

TEST(TcpReassemblyTest, RangeTableOverflowDropsSegment) {
  TcpReassembly rx;
  const auto data = pattern(64);
  // kMaxRanges disjoint one-byte islands fill the inline table...
  for (std::size_t i = 0; i < TcpReassembly::kMaxRanges; ++i) {
    EXPECT_TRUE(rx.add(i * 4, sub(data, i * 4, 1)));
  }
  // ...a further disjoint island is dropped (stream will stall into the
  // message timeout), but a segment that merges into an existing range
  // still lands.
  EXPECT_FALSE(rx.add(60, sub(data, 60, 1)));
  EXPECT_EQ(rx.available(), 1u);
  EXPECT_TRUE(rx.add(0, sub(data, 0, 2)));
  EXPECT_EQ(rx.available(), 2u);
  rx.discard();
}

TEST(TcpReassemblyTest, RejectsOversizedSegments) {
  TcpReassembly rx;
  const auto data = pattern(4);
  EXPECT_FALSE(rx.add(TcpReassembly::kMaxStreamBytes, sub(data, 0, 4)));
  // One byte past the cap is enough to drop the whole segment.
  EXPECT_FALSE(rx.add(TcpReassembly::kMaxStreamBytes - 3, sub(data, 0, 4)));
  EXPECT_EQ(rx.available(), 0u);
  EXPECT_TRUE(rx.add(0, sub(data, 0, 4)));
  EXPECT_EQ(read_all(rx), data);
}

// --- segmentation against a live host pair ---------------------------------

struct TcpFixture {
  sim::EventLoop loop;
  sim::Topology topology;
  Network network;
  std::optional<Host> client;
  std::optional<Host> server;
  IpAddr caddr = IpAddr::must_parse("21.0.0.5");
  IpAddr saddr = IpAddr::must_parse("22.0.0.1");

  explicit TcpFixture(std::uint64_t seed = 7)
      : network(topology, loop, Rng(seed)) {
    topology.add_as(1);
    topology.add_as(2);
    topology.announce(1, net::Prefix::must_parse("21.0.0.0/16"));
    topology.announce(2, net::Prefix::must_parse("22.0.0.0/16"));
    client.emplace(network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
                   std::vector<IpAddr>{caddr}, Rng(seed + 1));
    server.emplace(network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
                   std::vector<IpAddr>{saddr}, Rng(seed + 2));
  }
};

struct Seg {
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// Data segments (TCP, non-SYN, non-empty payload) from `from` to `to`,
/// sorted by sequence number.
std::vector<Seg> data_segments(const pcap::Capture& capture,
                               const IpAddr& from, const IpAddr& to) {
  std::vector<Seg> segs;
  for (const auto& rec : capture.records) {
    const Packet pkt = Packet::parse(rec.bytes);
    if (pkt.proto != net::IpProto::kTcp || pkt.payload.empty()) continue;
    if (!(pkt.src == from) || !(pkt.dst == to)) continue;
    if (pkt.tcp_flags.syn) continue;
    segs.push_back({pkt.tcp_seq, pkt.payload});
  }
  std::sort(segs.begin(), segs.end(),
            [](const Seg& a, const Seg& b) { return a.seq < b.seq; });
  return segs;
}

/// One exchange where the server answers with a framed response of exactly
/// `resp_size` stream bytes; returns the captured server->client data
/// segments and the client's reassembled reply.
void exchange_sized(std::size_t resp_size, std::vector<Seg>& segs,
                    std::vector<std::uint8_t>& reply) {
  TcpFixture f;
  f.server->tcp_listen(
      53, [resp_size](const sim::TcpConnInfo&,
                      std::span<const std::uint8_t> req,
                      sim::Host::TcpSessionReply reply) {
        reply(framed_stream(resp_size, framed_id(req), 0x5A));
      });
  pcap::Capture capture;
  f.network.attach_capture(capture);
  std::optional<std::vector<std::uint8_t>> r;
  f.client->tcp_query(f.caddr, f.saddr, 53, query(),
                      [&r](auto x) { r = std::move(x); });
  f.loop.run();
  ASSERT_TRUE(r.has_value());
  reply = std::move(*r);
  segs = data_segments(capture, f.saddr, f.caddr);
  EXPECT_EQ(f.client->open_tcp_connections(), 0u);
  EXPECT_EQ(f.server->open_tcp_connections(), 0u);
}

TEST(TcpSegmentation, ResponseExactlyAtMssIsOneSegment) {
  // The segmentation cap is the *client's* SYN-advertised MSS.
  ASSERT_EQ(sim::os_profile(sim::OsId::kUbuntu1904).fp.mss, kMss);
  std::vector<Seg> segs;
  std::vector<std::uint8_t> reply;
  exchange_sized(kMss, segs, reply);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].payload.size(), kMss);
  EXPECT_EQ(reply, framed_stream(kMss, kQueryId, 0x5A).to_vector());
}

TEST(TcpSegmentation, ResponseOneByteOverMssSplitsInTwo) {
  std::vector<Seg> segs;
  std::vector<std::uint8_t> reply;
  exchange_sized(kMss + 1, segs, reply);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].payload.size(), kMss);
  EXPECT_EQ(segs[1].payload.size(), 1u);
  // Sequence numbers advance by actual payload bytes.
  EXPECT_EQ(segs[1].seq, segs[0].seq + kMss);
  EXPECT_EQ(reply, framed_stream(kMss + 1, kQueryId, 0x5A).to_vector());
}

TEST(TcpSegmentation, MultiSegmentStreamConcatenatesToFramedResponse) {
  TcpFixture f;
  const cd::GatherBuf resp = framed_stream(8002, kQueryId, 0x11);
  const std::vector<std::uint8_t> expected = resp.to_vector();
  f.server->tcp_listen(
      53, [&resp](const sim::TcpConnInfo&, std::span<const std::uint8_t>,
                  sim::Host::TcpSessionReply reply) { reply(resp); });
  pcap::Capture capture;
  f.network.attach_capture(capture);
  std::optional<std::vector<std::uint8_t>> r;
  f.client->tcp_query(f.caddr, f.saddr, 53, query(),
                      [&r](auto x) { r = std::move(x); });
  f.loop.run();

  // The client's reassembled stream is byte-identical to the framed
  // response (length prefix + body crossing six segment boundaries).
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, expected);

  // On the wire: every segment's payload is capped at the advertised MSS,
  // sequence numbers are contiguous, and concatenating the captured
  // payloads in sequence order reproduces the stream exactly.
  const auto segs = data_segments(capture, f.saddr, f.caddr);
  ASSERT_EQ(segs.size(), (expected.size() + kMss - 1) / kMss);
  std::vector<std::uint8_t> concat;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_LE(segs[i].payload.size(), kMss);
    if (i > 0) {
      EXPECT_EQ(segs[i].seq,
                segs[i - 1].seq +
                    static_cast<std::uint32_t>(segs[i - 1].payload.size()));
    }
    concat.insert(concat.end(), segs[i].payload.begin(),
                  segs[i].payload.end());
  }
  EXPECT_EQ(concat, expected);
}

// --- deterministic teardown / timeout accounting ----------------------------

struct ExchangeOutcome {
  std::uint64_t executed = 0;
  int replies = 0;
};

/// One full exchange with the given client timeout; asserts clean teardown
/// and returns the event-loop accounting for cross-run comparison.
ExchangeOutcome run_exchange_with_timeout(sim::SimTime timeout,
                                          std::uint64_t budget = UINT64_MAX) {
  TcpFixture f(11);
  f.server->tcp_listen(
      53, [](const sim::TcpConnInfo&, std::span<const std::uint8_t> req,
             sim::Host::TcpSessionReply reply) {
        reply(std::vector<std::uint8_t>(req.begin(), req.end()));
      });
  ExchangeOutcome out;
  f.client->tcp_query(f.caddr, f.saddr, 53, query(),
                      [&out](auto r) {
                        if (r.has_value()) ++out.replies;
                      },
                      timeout);
  f.loop.run(budget);
  EXPECT_EQ(out.replies, 1);
  EXPECT_EQ(f.client->open_tcp_connections(), 0u);
  EXPECT_EQ(f.server->open_tcp_connections(), 0u);
  EXPECT_EQ(f.loop.pending(), 0u);
  out.executed = f.loop.executed();
  return out;
}

TEST(TcpTeardown, NoStrayTimeoutAndStableEventAccounting) {
  // A successful exchange cancels the client's timeout and the server's
  // half-open reaper and erases both connection entries on the spot: the
  // executed-event count must not depend on the timeout value (a cancelled
  // timer never runs, never counts).
  const ExchangeOutcome a = run_exchange_with_timeout(5 * sim::kSecond);
  const ExchangeOutcome b = run_exchange_with_timeout(3600 * sim::kSecond);
  EXPECT_EQ(a.executed, b.executed);
  // And the exchange fits in exactly that many events: a stray timeout
  // would exceed the budget and throw InvariantError.
  EXPECT_NO_THROW(run_exchange_with_timeout(5 * sim::kSecond, a.executed));
}

TEST(TcpTimeout, TruncatedMidStreamTimesOut) {
  TcpFixture f(13);
  // Nobody owns 22.0.0.9 — the test plays that server by hand, injecting a
  // handshake and then a deliberately truncated response stream.
  const IpAddr fake = IpAddr::must_parse("22.0.0.9");

  std::optional<Packet> syn;
  bool injected = false;
  f.network.add_tap([&](const Packet& pkt, sim::DropReason, sim::SimTime now) {
    if (!(pkt.src == f.caddr) || pkt.proto != net::IpProto::kTcp) return;
    if (pkt.tcp_flags.syn) {
      syn = pkt;
      return;
    }
    if (!pkt.payload.empty() && pkt.tcp_flags.psh && !injected) {
      injected = true;
      // The client finished streaming its request: answer with the first
      // and last kilobyte of a 3000-byte framed reply carrying the query's
      // ID — the middle never comes.
      f.loop.schedule_at(
          now + 50 * sim::kMillisecond, [&f, &fake, sport = pkt.src_port] {
            const auto stream =
                framed_stream(3000, kQueryId, 0x77).to_vector();
            Packet head = net::make_tcp(
                fake, 53, f.caddr, sport, net::TcpFlags{.ack = true},
                {stream.begin(), stream.begin() + 1000});
            head.tcp_seq = 5000 + 1;
            f.network.send(std::move(head), 2);
            Packet tail = net::make_tcp(fake, 53, f.caddr, sport,
                                        net::TcpFlags{.ack = true, .psh = true},
                                        {stream.begin() + 2000, stream.end()});
            tail.tcp_seq = 5000 + 1 + 2000;
            f.network.send(std::move(tail), 2);
          });
    }
  });

  std::optional<std::optional<std::vector<std::uint8_t>>> result;
  f.client->tcp_query(f.caddr, fake, 53, query(),
                      [&result](auto r) { result = std::move(r); },
                      2 * sim::kSecond);
  // The SYN went out synchronously; complete the handshake so the client
  // streams its request and waits on the (truncated) reply.
  ASSERT_TRUE(syn.has_value());
  Packet synack = net::make_tcp(fake, 53, f.caddr, syn->src_port,
                                net::TcpFlags{.syn = true, .ack = true});
  synack.tcp_seq = 5000;
  synack.tcp_ack = syn->tcp_seq + 1;
  synack.tcp_options = {{net::TcpOptionKind::kMss, 1400}};
  f.network.send(std::move(synack), 2);
  f.loop.run();

  EXPECT_TRUE(injected);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->has_value()) << "partial stream must time out";
  EXPECT_EQ(f.client->open_tcp_connections(), 0u);
}

// --- dialing ----------------------------------------------------------------

TEST(TcpDial, NoFreeEphemeralPortThrows) {
  // A one-port ephemeral range: the second concurrent query toward the same
  // server finds its only 4-tuple live. It must fail loudly rather than
  // send a SYN on the other connection's 4-tuple and lose a query.
  TcpFixture f(17);
  sim::OsProfile one_port = sim::os_profile(sim::OsId::kUbuntu1904);
  one_port.ephemeral_hi = one_port.ephemeral_lo;
  Host client(f.network, 1, one_port,
              std::vector<IpAddr>{IpAddr::must_parse("21.0.0.6")}, Rng(3));
  f.server->tcp_listen(
      53, [](const sim::TcpConnInfo&, std::span<const std::uint8_t> req,
             sim::Host::TcpSessionReply reply) {
        reply(std::vector<std::uint8_t>(req.begin(), req.end()));
      });
  const IpAddr src = client.addresses().front();
  std::optional<std::vector<std::uint8_t>> first;
  client.tcp_query(src, f.saddr, 53, query(),
                   [&first](auto r) { first = std::move(r); });
  EXPECT_THROW(client.tcp_query(src, f.saddr, 53, query(), [](auto) {}),
               InvariantError);
  // The refused dial left the first exchange untouched.
  f.loop.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, query().to_vector());
  EXPECT_EQ(client.open_tcp_connections(), 0u);
  EXPECT_EQ(client.transport_counters().dials, 1u);
}

// --- segmented stream integrity ---------------------------------------------

TEST(TcpSegmentation, SegmentedStreamReassemblesAcrossSeeds) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    TcpFixture f(seed);
    const cd::GatherBuf resp = framed_stream(
        4002 + seed % 700, kQueryId, static_cast<std::uint8_t>(seed));
    const std::vector<std::uint8_t> expected = resp.to_vector();
    f.server->tcp_listen(
        53, [&resp](const sim::TcpConnInfo&, std::span<const std::uint8_t>,
                    sim::Host::TcpSessionReply reply) { reply(resp); });
    pcap::Capture capture;
    f.network.attach_capture(capture);
    std::optional<std::vector<std::uint8_t>> reply;
    f.client->tcp_query(f.caddr, f.saddr, 53, query(),
                        [&reply](auto x) { reply = std::move(x); });
    f.loop.run();
    // The stream reassembles to the exact framed response, and the captured
    // MSS-capped payloads concatenate to the same bytes.
    ASSERT_TRUE(reply.has_value()) << "seed " << seed;
    EXPECT_EQ(*reply, expected) << "seed " << seed;
    std::vector<std::uint8_t> concat;
    for (const Seg& s : data_segments(capture, f.saddr, f.caddr)) {
      EXPECT_LE(s.payload.size(), kMss) << "seed " << seed;
      concat.insert(concat.end(), s.payload.begin(), s.payload.end());
    }
    EXPECT_EQ(concat, expected) << "seed " << seed;
  }
}

// --- campaign level ----------------------------------------------------------

core::ExperimentConfig campaign_config(std::size_t shards) {
  core::ExperimentConfig config;
  core::CaptureSpec capture;
  capture.include_drops = true;
  config.capture = capture;
  config.num_shards = shards;
  config.num_threads = shards > 1 ? 2 : 1;
  return config;
}

ditl::WorldSpec campaign_spec(std::uint64_t seed) {
  ditl::WorldSpec spec = ditl::small_world_spec();
  spec.n_asns = 6;
  spec.seed = seed;
  return spec;
}

TEST(TcpCampaign, DigestsMatchGoldensAcrossSeedsAndShards) {
  // The TCP-heavy campaign (every TC=1 retry exercises handshake timers,
  // per-segment delivery events and teardown cancellations) must reproduce
  // the evidence and wire bytes pinned by the tree that still shipped the
  // single-buffer TCP baseline and the priority-queue event engine, both of
  // which reproduced these values exactly. results_digest is
  // shard-invariant; capture_digest is pinned per shard count.
  struct Golden {
    std::uint64_t seed;
    std::size_t shards;
    std::uint64_t results;
    std::uint64_t capture;
  };
  const Golden goldens[] = {
      {7, 1, 0x4f36b13e2babedfbull, 0x02759772cce31ec7ull},
      {7, 4, 0x4f36b13e2babedfbull, 0xad646acfc4686a09ull},
      {42, 1, 0x738f7bc2a3ad786aull, 0x3129e9fedc0252feull},
      {42, 4, 0x738f7bc2a3ad786aull, 0x4d54204782eae21cull},
      {99, 1, 0xf1ff7b5315fb63a1ull, 0x2311d48451340b68ull},
      {99, 4, 0xf1ff7b5315fb63a1ull, 0x1d69a145dd2cf4e8ull},
      {1337, 1, 0xb704f2af3207d61cull, 0xd3a80f2477feb275ull},
      {1337, 4, 0xb704f2af3207d61cull, 0x64ae16ebb6fbe228ull},
      {2020, 1, 0x9599a6b18931b4e0ull, 0x58c3dd68c810e5c0ull},
      {2020, 4, 0x9599a6b18931b4e0ull, 0xe18850357fe5c2f1ull},
  };
  for (const Golden& g : goldens) {
    const auto out = core::run_sharded_experiment(campaign_spec(g.seed),
                                                  campaign_config(g.shards));
    EXPECT_EQ(core::results_digest(out.merged), g.results)
        << "seed " << g.seed << " shards " << g.shards;
    EXPECT_EQ(core::capture_digest(out.merged.capture), g.capture)
        << "seed " << g.seed << " shards " << g.shards;
  }
}

TEST(TcpSegmentation, NoCampaignSegmentExceedsAdvertisedMss) {
  // Over a full captured campaign (TC=1 elicitation drives real
  // DNS-over-TCP): every TCP data segment from A to B is capped at the MSS
  // that B advertised on that connection's SYN or SYN-ACK.
  const auto sharded =
      core::run_sharded_experiment(campaign_spec(42), campaign_config(1));
  const pcap::Capture& capture = sharded.merged.capture;

  using FlowKey = std::tuple<IpAddr, std::uint16_t, IpAddr, std::uint16_t>;
  std::map<FlowKey, std::uint32_t> advertised;  // (advertiser, peer) -> MSS
  for (const auto& rec : capture.records) {
    const Packet pkt = Packet::parse(rec.bytes);
    if (pkt.proto != net::IpProto::kTcp || !pkt.tcp_flags.syn) continue;
    for (const net::TcpOption& o : pkt.tcp_options) {
      if (o.kind == net::TcpOptionKind::kMss && o.value != 0) {
        advertised[{pkt.src, pkt.src_port, pkt.dst, pkt.dst_port}] = o.value;
      }
    }
  }

  std::size_t data_records = 0;
  for (const auto& rec : capture.records) {
    const Packet pkt = Packet::parse(rec.bytes);
    if (pkt.proto != net::IpProto::kTcp || pkt.tcp_flags.syn ||
        pkt.payload.empty()) {
      continue;
    }
    ++data_records;
    const auto it = advertised.find(
        {pkt.dst, pkt.dst_port, pkt.src, pkt.src_port});
    ASSERT_NE(it, advertised.end())
        << "TCP data segment with no reverse SYN in the capture";
    EXPECT_LE(pkt.payload.size(), it->second);
  }
  EXPECT_GT(data_records, 0u) << "campaign produced no DNS-over-TCP data";
}

}  // namespace
