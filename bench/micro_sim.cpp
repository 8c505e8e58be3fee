// Microbenchmarks: simulator hot paths — longest-prefix routing, zone
// lookup, the event loop, resolver cache, port allocators, the Beta range
// model, and the packet-delivery path, one event per packet (events/s +
// allocs/packet).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "analysis/beta.h"
#include "dns/cache.h"
#include "dns/zone.h"
#include "net/packet.h"
#include "resolver/port_alloc.h"
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

// Count every heap allocation so the delivery benchmarks can report
// allocs/packet. Relaxed atomic: benchmark threads only ever read deltas
// they produced themselves.
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

sim::Topology make_topology(int n_asns) {
  sim::Topology topo;
  for (int i = 0; i < n_asns; ++i) {
    const auto asn = static_cast<sim::Asn>(100 + i);
    topo.add_as(asn);
    const std::uint32_t base = ((20u + static_cast<unsigned>(i) / 256) << 24) |
                               ((static_cast<unsigned>(i) % 256) << 16);
    topo.announce(asn, net::Prefix(net::IpAddr::v4(base), 16));
    topo.announce(
        asn, net::Prefix(net::IpAddr::v6(
                             (0x2400000000000000ULL) |
                                 (static_cast<std::uint64_t>(i) << 32),
                             0),
                         32));
  }
  return topo;
}

void BM_RoutingLookupV4(benchmark::State& state) {
  const auto topo = make_topology(static_cast<int>(state.range(0)));
  Rng rng(1);
  std::vector<net::IpAddr> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(net::IpAddr::v4(
        static_cast<std::uint32_t>((20u << 24) + rng.u64())));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.asn_of(probes[i++ & 1023]));
  }
}
BENCHMARK(BM_RoutingLookupV4)->Arg(100)->Arg(1000)->Arg(10000);

/// Authoritative lookups as a campaign makes them, on zones shaped like the
/// world's: a §3.3 probe name answered from the experiment zone's wildcard
/// (referral:0), and the same name referred to org by the root zone, with
/// glue (referral:1). Reports allocs/op.
void BM_ZoneLookup(benchmark::State& state) {
  const auto name = [](const char* s) { return dns::DnsName::must_parse(s); };
  const auto addr = [](const char* s) { return net::IpAddr::must_parse(s); };
  dns::SoaRdata soa;
  soa.mname = name("www.dns-lab.org");
  soa.rname = name("research.dns-lab.org");
  soa.minimum = 300;

  dns::Zone root(dns::DnsName(), soa);
  root.add(dns::make_ns(dns::DnsName(), name("a.root-servers.cdnet")));
  root.add(dns::make_a(name("a.root-servers.cdnet"), addr("199.7.0.1")));
  root.add(dns::make_ns(name("org"), name("ns1.org-servers.cdnet")));
  root.add(dns::make_a(name("ns1.org-servers.cdnet"), addr("199.7.1.1")));
  root.add(dns::make_aaaa(name("ns1.org-servers.cdnet"), addr("2620:4f:1::1")));

  dns::Zone base(name("dns-lab.org"), soa);
  base.add(dns::make_ns(name("dns-lab.org"), name("ns1.dns-lab.org")));
  base.add(dns::make_a(name("ns1.dns-lab.org"), addr("199.7.2.1")));
  base.add(dns::make_aaaa(name("ns1.dns-lab.org"), addr("2620:4f:2::1")));
  base.add(dns::make_a(name("www.dns-lab.org"), addr("199.7.2.1")));
  base.add(dns::make_ns(name("v4.dns-lab.org"), name("nsv4.dns-lab.org")));
  base.add(dns::make_a(name("nsv4.dns-lab.org"), addr("199.7.2.4")));
  base.add(dns::make_ns(name("v6.dns-lab.org"), name("nsv6.dns-lab.org")));
  base.add(dns::make_aaaa(name("nsv6.dns-lab.org"), addr("2620:4f:2::6")));
  base.add(dns::make_a(name("*.x1.dns-lab.org"), addr("199.7.2.1")));
  base.add(dns::make_a(name("*.x1.tcp.dns-lab.org"), addr("199.7.2.1")));

  // ts.src.dst.asn.mode.kw.base: an initial probe's query name.
  const dns::DnsName probe =
      name("1575389436123456.cb620a0a.c6336401.64512.m0.x1.dns-lab.org");
  const dns::Zone& zone = state.range(0) == 1 ? root : base;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    dns::LookupResult result = zone.lookup(probe, dns::RrType::kA);
    benchmark::DoNotOptimize(result);
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ZoneLookup)->ArgName("referral")->Arg(0)->Arg(1);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    std::uint64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(i * 10, [&sum] { ++sum; });
    }
    loop.run();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_EventLoopScheduleRun);

/// The event core on a persistent loop (the pools reach steady state,
/// unlike BM_EventLoopScheduleRun's cold loop-per-iteration): a jittered
/// 4096-event schedule/run cycle, reporting events/s and allocs/event.
void BM_EventLoopEngine(benchmark::State& state) {
  sim::EventLoop loop;
  constexpr int kEvents = 4096;
  Rng rng(42);
  std::vector<sim::SimTime> delays;
  for (int i = 0; i < kEvents; ++i) {
    delays.push_back(static_cast<sim::SimTime>(rng.u64() % 100'000));
  }
  std::uint64_t sum = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule_in(delays[static_cast<std::size_t>(i)], [&sum] { ++sum; });
    }
    loop.run();
    allocs += g_allocs.load(std::memory_order_relaxed) - before;
    events += kEvents;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs/event"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(events));
}
BENCHMARK(BM_EventLoopEngine);

void BM_CacheInsertLookup(benchmark::State& state) {
  dns::Cache cache;
  const auto name = dns::DnsName::must_parse("host.example.org");
  cache.insert_positive({dns::make_a(name, net::IpAddr::v4(0x01020304))}, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(name, dns::RrType::kA, 1000));
  }
}
BENCHMARK(BM_CacheInsertLookup);

void BM_Rfc8020AncestorWalk(benchmark::State& state) {
  dns::Cache cache;
  cache.insert_nxdomain(dns::DnsName::must_parse("x1.dns-lab.org"), 300, 0);
  const auto deep = dns::DnsName::must_parse(
      "123.abcd.ef01.64512.m0.x1.dns-lab.org");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(deep, dns::RrType::kA, 1000));
  }
}
BENCHMARK(BM_Rfc8020AncestorWalk);

void BM_PortAllocators(benchmark::State& state) {
  Rng rng(7);
  resolver::UniformRangeAllocator uniform(1024, 65535, rng.split(1));
  resolver::WindowsPoolAllocator windows(rng.split(2));
  resolver::SequentialAllocator seq(1024, 1224, 1100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(uniform.next());
    benchmark::DoNotOptimize(windows.next());
    benchmark::DoNotOptimize(seq.next());
  }
}
BENCHMARK(BM_PortAllocators);

// --- delivery path -----------------------------------------------------------

/// Two-AS world with one bound UDP host; the sender injects straight into
/// the network (no source host needed).
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

/// Shared body: send `kBurst` packets, drain, report events/s (delivered
/// packets) and allocs/packet. `vary_payload` breaks the content-hash tie so
/// packets spread over distinct arrival ticks.
void delivery_bench(benchmark::State& state, bool vary_payload) {
  constexpr int kBurst = 256;
  DeliveryFixture f;
  const auto src = net::IpAddr::must_parse("21.0.0.5");
  const auto dst = net::IpAddr::must_parse("22.0.0.1");
  std::uint64_t packets = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < kBurst; ++i) {
      const std::uint8_t lo = vary_payload ? static_cast<std::uint8_t>(i) : 0;
      const std::uint8_t hi =
          vary_payload ? static_cast<std::uint8_t>(i >> 8) : 0;
      // Pool-recycled payload: the delivery path releases it on receipt, so
      // in steady state the whole send->deliver cycle allocates nothing.
      auto payload = cd::BufferPool::acquire();
      payload.assign({lo, hi, 3, 4});
      f.network.send(net::make_udp(src, 1000, dst, 53, std::move(payload)), 1);
    }
    f.loop.run();
    allocs += g_allocs.load(std::memory_order_relaxed) - before;
    packets += kBurst;
  }
  benchmark::DoNotOptimize(f.received);
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.counters["allocs/pkt"] =
      benchmark::Counter(static_cast<double>(allocs) / packets);
}

/// Identical packets get identical content-hashed latency, so the whole
/// burst lands on one tick: 256 delivery events queued for the same time.
void BM_DeliverySameTickBurst(benchmark::State& state) {
  delivery_bench(state, /*vary_payload=*/false);
}
BENCHMARK(BM_DeliverySameTickBurst);

/// Distinct payloads spread arrivals over distinct ticks, at most a few
/// packets per tick: the shape campaign traffic has.
void BM_DeliveryJitteredSingletons(benchmark::State& state) {
  delivery_bench(state, /*vary_payload=*/true);
}
BENCHMARK(BM_DeliveryJitteredSingletons);

// --- TCP response path: bytes/s + allocs/response ---------------------------

/// Client in AS1, DNS-over-TCP server in AS2 answering every request with a
/// framed response of exactly `resp_size` stream bytes (2-byte length prefix
/// included) that echoes the request's ID.
struct TcpFixture {
  sim::EventLoop loop;
  sim::Topology topo;
  sim::Network network{topo, loop, Rng(7)};
  std::optional<sim::Host> client;
  std::optional<sim::Host> server;
  std::vector<std::uint8_t> body;

  explicit TcpFixture(std::size_t resp_size) : body(resp_size - 2, 0xAB) {
    topo.add_as(1);
    topo.add_as(2);
    topo.announce(1, net::Prefix::must_parse("21.0.0.0/16"));
    topo.announce(2, net::Prefix::must_parse("22.0.0.0/16"));
    client.emplace(network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
                   std::vector<net::IpAddr>{net::IpAddr::must_parse("21.0.0.5")},
                   Rng(1));
    server.emplace(network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
                   std::vector<net::IpAddr>{net::IpAddr::must_parse("22.0.0.1")},
                   Rng(2));
    server->tcp_listen(
        53, [this](const sim::TcpConnInfo&, std::span<const std::uint8_t> req,
                   sim::Host::TcpSessionReply reply) {
          body[0] = req[2];  // echo the ID
          body[1] = req[3];
          cd::GatherBuf resp(body);
          const std::uint8_t prefix[2] = {
              static_cast<std::uint8_t>(body.size() >> 8),
              static_cast<std::uint8_t>(body.size())};
          resp.set_header(prefix);
          reply(std::move(resp));
        });
  }
};

/// One full one-shot dial/query/response exchange per iteration (ID
/// 0xdead); reports response bytes/s and heap allocs per response via the
/// operator-new counter, and fails if an exchange ends without a reply.
/// Arg: response stream size in bytes.
void BM_TcpResponse(benchmark::State& state) {
  const auto resp_size = static_cast<std::size_t>(state.range(0));
  TcpFixture f(resp_size);
  const auto src = net::IpAddr::must_parse("21.0.0.5");
  const auto dst = net::IpAddr::must_parse("22.0.0.1");
  std::uint64_t responses = 0;
  std::uint64_t allocs = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    bool replied = false;
    f.client->tcp_query(src, dst, 53,
                        std::vector<std::uint8_t>{0x00, 0x02, 0xde, 0xad},
                        [&](std::optional<std::vector<std::uint8_t>> r) {
                          if (!r) return;
                          replied = true;
                          delivered += r->size();
                          // Consume, then recycle — what the resolver's
                          // TCP-retry path does with its reply buffer.
                          cd::BufferPool::release(std::move(*r));
                        });
    f.loop.run();
    allocs += g_allocs.load(std::memory_order_relaxed) - before;
    if (!replied) {
      state.SkipWithError("TCP exchange ended without a reply");
      break;
    }
    ++responses;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetBytesProcessed(static_cast<std::int64_t>(responses * resp_size));
  if (responses > 0) {
    state.counters["allocs/resp"] =
        benchmark::Counter(static_cast<double>(allocs) / responses);
  }
}
BENCHMARK(BM_TcpResponse)->Arg(512)->Arg(1400)->Arg(16 * 1024);

void BM_BetaRangeCdf(benchmark::State& state) {
  double x = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::range_cdf(x, 28233));
    x = (x < 28000) ? x + 1 : 100;
  }
}
BENCHMARK(BM_BetaRangeCdf);

}  // namespace

BENCHMARK_MAIN();
