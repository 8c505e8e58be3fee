// Allocation-regression guard (ctest label: alloc): the zero-alloc claims of
// the event core and the delivery path, asserted with a real operator-new
// counter so they cannot silently regress. After a warmup that fills the
// pools (event nodes, wire buffers, in-flight packet slots), a steady-state
// send->deliver cycle must perform ZERO heap allocations — same-tick bursts
// and jittered singleton arrivals alike — and so must a steady-state
// schedule/run cycle on the bare loop. The DNS name layer holds the same
// line: building a v4 probe name, stepping to its parent or a suffix,
// encoding a one-question query into a pooled buffer, and writing a probe
// query straight from its fields allocate nothing. So does carrying a
// per-message callback: a [this, ConnKey]-sized session reply is stored,
// moved and invoked inside SmallFn's inline buffer. A recursive resolver
// answering a client from its cache is not zero-alloc (decode, continuation,
// answer copy); its count is pinned so it cannot creep back up.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "dns/message.h"
#include "dns/zone.h"
#include "net/packet.h"
#include "resolver/auth.h"
#include "resolver/port_alloc.h"
#include "resolver/recursive.h"
#include "scanner/qname.h"
#include "sim/event_loop.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/os_model.h"
#include "sim/topology.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cd;

constexpr int kBurst = 256;

/// Two-AS world with one bound UDP host (the bench fixture, verbatim).
struct DeliveryFixture {
  sim::EventLoop loop;
  sim::Topology topo;
  sim::Network network{topo, loop, Rng(7)};
  std::optional<sim::Host> host;
  std::uint64_t received = 0;

  DeliveryFixture() {
    topo.add_as(1);
    topo.add_as(2);
    topo.announce(1, net::Prefix::must_parse("21.0.0.0/16"));
    topo.announce(2, net::Prefix::must_parse("22.0.0.0/16"));
    host.emplace(network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
                 std::vector<net::IpAddr>{net::IpAddr::must_parse("22.0.0.1")},
                 Rng(1));
    host->bind_udp(53, [this](const net::Packet&) { ++received; });
  }
};

/// Sends one burst (pool-recycled payloads), drains it, and returns the heap
/// allocations the whole cycle performed. `vary_payload` spreads arrivals
/// over distinct ticks (content-hashed latency); identical payloads land on
/// one tick, a burst of same-time delivery events.
std::uint64_t burst_allocs(DeliveryFixture& f, bool vary_payload) {
  const auto src = net::IpAddr::must_parse("21.0.0.5");
  const auto dst = net::IpAddr::must_parse("22.0.0.1");
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kBurst; ++i) {
    const std::uint8_t lo = vary_payload ? static_cast<std::uint8_t>(i) : 0;
    const std::uint8_t hi = vary_payload ? static_cast<std::uint8_t>(i >> 8) : 0;
    auto payload = cd::BufferPool::acquire();
    payload.assign({lo, hi, 3, 4});
    f.network.send(net::make_udp(src, 1000, dst, 53, std::move(payload)), 1);
  }
  f.loop.run();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocRegression, SameTickDeliveryIsZeroAllocSteadyState) {
  DeliveryFixture f;
  for (int warm = 0; warm < 8; ++warm) burst_allocs(f, false);
  std::uint64_t allocs = 0;
  for (int round = 0; round < 4; ++round) allocs += burst_allocs(f, false);
  EXPECT_EQ(allocs, 0u) << "per-packet: "
                        << static_cast<double>(allocs) / (4.0 * kBurst);
  EXPECT_EQ(f.received, 12u * kBurst);
}

TEST(AllocRegression, JitteredDeliveryIsZeroAllocSteadyState) {
  DeliveryFixture f;
  for (int warm = 0; warm < 8; ++warm) burst_allocs(f, true);
  std::uint64_t allocs = 0;
  for (int round = 0; round < 4; ++round) allocs += burst_allocs(f, true);
  EXPECT_EQ(allocs, 0u) << "per-packet: "
                        << static_cast<double>(allocs) / (4.0 * kBurst);
  EXPECT_EQ(f.received, 12u * kBurst);
}

TEST(AllocRegression, EventLoopScheduleRunIsZeroAllocSteadyState) {
  sim::EventLoop loop;
  Rng rng(42);
  std::vector<sim::SimTime> delays;
  for (int i = 0; i < 4096; ++i) {
    delays.push_back(static_cast<sim::SimTime>(rng.u64() % 100'000));
  }
  std::uint64_t sum = 0;
  auto cycle = [&] {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (const sim::SimTime d : delays) {
      loop.schedule_in(d, [&sum] { ++sum; });
    }
    loop.run();
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  for (int warm = 0; warm < 4; ++warm) cycle();
  std::uint64_t allocs = 0;
  for (int round = 0; round < 4; ++round) allocs += cycle();
  EXPECT_EQ(allocs, 0u) << "per-event: "
                        << static_cast<double>(allocs) / (4.0 * 4096.0);
  EXPECT_EQ(sum, 8u * 4096u);
}

TEST(AllocRegression, SmallFnStoresHotClosuresInline) {
  // The closures the simulator schedules in steady state must fit SmallFn's
  // inline buffer; a pointer-pair capture stays inline, a >48-byte capture
  // documents the heap fallback.
  struct TwoPtrs {
    void* a;
    void* b;
    void operator()() const {}
  };
  static_assert(sim::EventLoop::Callback::fits_inline<TwoPtrs>());
  sim::EventLoop::Callback small(TwoPtrs{nullptr, nullptr});
  EXPECT_TRUE(small.is_inline());

  struct Fat {
    unsigned char blob[64];
    void operator()() const {}
  };
  static_assert(!sim::EventLoop::Callback::fits_inline<Fat>());
  sim::EventLoop::Callback fat(Fat{});
  EXPECT_FALSE(fat.is_inline());

  // The shape of Host's deferred session reply: [this, ConnKey] with
  // ConnKey = {IpAddr peer, u16 peer_port, u16 local_port}, taking the
  // response by value.
  struct ConnKeyShape {
    net::IpAddr peer;
    std::uint16_t peer_port;
    std::uint16_t local_port;
  };
  std::size_t replied = 0;
  std::size_t* const self = &replied;
  const ConnKeyShape key{net::IpAddr::v4(0x0A000001u), 40000, 53};
  auto reply = [self, key](GatherBuf response) {
    *self += response.size() + key.local_port;
  };
  static_assert(sizeof(reply) == 40);
  static_assert(sim::Host::TcpSessionReply::fits_inline<decltype(reply)>());
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  {
    sim::Host::TcpSessionReply held(reply);
    EXPECT_TRUE(held.is_inline());
    sim::Host::TcpSessionReply moved(std::move(held));
    sim::Host::TcpSessionReply assigned;
    assigned = std::move(moved);
    assigned(GatherBuf{});
    EXPECT_FALSE(held);
    EXPECT_FALSE(moved);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(replied, 53u);
}

// --- DNS name layer ----------------------------------------------------------

/// Heap allocations made by `fn` run `n` times, after one warmup run.
template <typename Fn>
std::uint64_t allocs_of(int n, Fn&& fn) {
  fn();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

scanner::QnameInfo v4_probe(std::uint64_t i) {
  scanner::QnameInfo info;
  info.ts = 1'699'999'999'000 + static_cast<sim::SimTime>(i);
  info.src = net::IpAddr::v4(0xC0A8000Au + static_cast<std::uint32_t>(i));
  info.dst = net::IpAddr::v4(0xC6336414u);
  info.asn = 4'200'000'000u;
  info.mode = scanner::QueryMode::kPoison;  // the longest v4 template
  return info;
}

TEST(AllocRegression, QnameEncodeOfV4ProbeIsZeroAlloc) {
  const scanner::QnameCodec codec(dns::DnsName::must_parse("dns-lab.org"),
                                  "x1");
  std::uint64_t i = 0;
  std::size_t total = 0;
  const std::uint64_t allocs = allocs_of(1000, [&] {
    total += codec.encode(v4_probe(i++)).wire_length();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(total, 0u);
}

TEST(AllocRegression, NameParentAndSuffixAreZeroAlloc) {
  const scanner::QnameCodec codec(dns::DnsName::must_parse("dns-lab.org"),
                                  "x1");
  const dns::DnsName name = codec.encode(v4_probe(7));
  std::size_t labels = 0;
  const std::uint64_t allocs = allocs_of(1000, [&] {
    for (dns::DnsName walk = name; !walk.is_root(); walk = walk.parent()) {
      labels += walk.label_count();
    }
    for (std::size_t n = 0; n <= name.label_count(); ++n) {
      labels += name.suffix(n).label_count();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(labels, 0u);
}

TEST(AllocRegression, PooledQueryEncodeIsZeroAlloc) {
  const scanner::QnameCodec codec(dns::DnsName::must_parse("dns-lab.org"),
                                  "x1");
  const dns::DnsMessage query =
      dns::make_query(0x1234, codec.encode(v4_probe(9)), dns::RrType::kA);
  std::size_t bytes = 0;
  const std::uint64_t allocs = allocs_of(1000, [&] {
    std::vector<std::uint8_t> wire = dns::encode_pooled(query);
    bytes += wire.size();
    BufferPool::release(std::move(wire));
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(bytes, 0u);
}

TEST(AllocRegression, ProbeQueryEncodeIsZeroAlloc) {
  const scanner::QnameCodec codec(dns::DnsName::must_parse("dns-lab.org"),
                                  "x1");
  std::uint64_t i = 0;
  std::size_t bytes = 0;
  const std::uint64_t allocs = allocs_of(1000, [&] {
    std::vector<std::uint8_t> wire =
        codec.encode_query(static_cast<std::uint16_t>(i), v4_probe(i));
    ++i;
    bytes += wire.size();
    BufferPool::release(std::move(wire));
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(bytes, 0u);
}

// --- resolver client path ----------------------------------------------------

/// A client, an open recursive resolver and the authoritative server its
/// only root hint points at, which holds www.test directly.
struct CacheHitFixture {
  sim::EventLoop loop;
  sim::Topology topo;
  sim::Network network{topo, loop, Rng(7)};
  const net::IpAddr auth_addr = net::IpAddr::must_parse("21.0.0.1");
  const net::IpAddr res_addr = net::IpAddr::must_parse("22.0.0.1");
  const net::IpAddr client_addr = net::IpAddr::must_parse("23.0.0.1");
  std::optional<sim::Host> auth_host;
  std::optional<sim::Host> res_host;
  std::optional<sim::Host> client;
  std::optional<resolver::AuthServer> auth;
  std::optional<resolver::RecursiveResolver> res;
  dns::DnsMessage request = dns::make_query(
      0, dns::DnsName::must_parse("www.test"), dns::RrType::kA);
  std::uint64_t replies = 0;

  CacheHitFixture() {
    const auto& os = sim::os_profile(sim::OsId::kUbuntu1904);
    for (sim::Asn asn = 1; asn <= 3; ++asn) {
      topo.add_as(asn);
      topo.announce(asn, net::Prefix(net::IpAddr::v4((20u + asn) << 24), 16));
    }
    auth_host.emplace(network, 1, os, std::vector<net::IpAddr>{auth_addr},
                      Rng(1));
    res_host.emplace(network, 2, os, std::vector<net::IpAddr>{res_addr},
                     Rng(2));
    client.emplace(network, 3, os, std::vector<net::IpAddr>{client_addr},
                   Rng(3));

    dns::SoaRdata soa;
    soa.mname = dns::DnsName::must_parse("ns.root");
    soa.rname = dns::DnsName::must_parse("admin.root");
    auto zone = std::make_shared<dns::Zone>(dns::DnsName(), soa);
    zone->add(dns::make_a(dns::DnsName::must_parse("www.test"),
                          net::IpAddr::must_parse("21.0.0.80"), 86400));
    auth.emplace(*auth_host, resolver::AuthConfig{});
    auth->add_zone(zone);

    resolver::ResolverConfig config;
    config.open = true;
    res.emplace(*res_host, config, resolver::RootHints{{auth_addr}},
                std::make_unique<resolver::FixedPortAllocator>(40000), Rng(4));
    client->bind_udp(5353, [this](const net::Packet&) { ++replies; });
  }

  /// One client query for www.test, sent and drained.
  void query(std::uint16_t id) {
    request.header.id = id;
    client->send_udp(client_addr, 5353, res_addr, 53,
                     dns::encode_pooled(request));
    loop.run();
  }
};

/// Heap allocations of one cache-hit client query, from the client's send
/// to its receipt of the reply.
constexpr std::uint64_t kCacheHitAllocsPerQuery = 6;

TEST(AllocRegression, CacheHitClientQueryAllocationsArePinned) {
  CacheHitFixture f;
  f.query(0);  // resolves through the authoritative server, fills the cache
  ASSERT_EQ(f.replies, 1u);
  const std::uint64_t upstream = f.res->stats().upstream_queries;

  constexpr int kQueries = 100;
  std::uint16_t id = 1;
  const std::uint64_t allocs = allocs_of(kQueries, [&] { f.query(id++); });
  EXPECT_EQ(f.replies, 2u + kQueries);
  EXPECT_EQ(f.res->stats().upstream_queries, upstream) << "not a cache hit";
  // Per query: the resolver decodes the query, keeps the reply's id, rd bit
  // and questions in its continuation, and copies the cached answer.
  EXPECT_EQ(allocs, kQueries * kCacheHitAllocsPerQuery)
      << "per query: " << static_cast<double>(allocs) / kQueries;
}

}  // namespace
