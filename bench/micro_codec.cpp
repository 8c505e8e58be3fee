// Microbenchmarks: wire codecs (DNS messages, names, packets, query-name
// encoding) — the per-packet cost floor of the simulator.
//
// Beyond wall-clock time, every codec benchmark reports:
//   bytes_per_second  — wire throughput (set via SetBytesProcessed)
//   allocs/op         — heap allocations per operation, counted by a global
//                       operator new hook; the pooled variants show what the
//                       thread-local BufferPool saves over fresh vectors.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "dns/message.h"
#include "net/packet.h"
#include "scanner/qname.h"
#include "util/bytes.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace

// Global allocation hook: counts every operator-new call in the process.
// Benchmark loops measure the delta across their iterations, so framework
// setup allocations outside the loop do not pollute allocs/op.
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

dns::DnsMessage sample_response() {
  dns::DnsMessage query = dns::make_query(
      0x1234,
      dns::DnsName::must_parse("1699999999.c0a8000a.c0a80001.64512.m0.x1.dns-lab.org"),
      dns::RrType::kA);
  dns::DnsMessage resp = dns::make_response(query, dns::Rcode::kNxDomain);
  dns::SoaRdata soa;
  soa.mname = dns::DnsName::must_parse("www.dns-lab.org");
  soa.rname = dns::DnsName::must_parse("research.dns-lab.org");
  resp.authorities.push_back(
      dns::make_soa(dns::DnsName::must_parse("dns-lab.org"), soa));
  return resp;
}

void report_allocs(benchmark::State& state, std::uint64_t since) {
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(alloc_count() - since) /
      static_cast<double>(state.iterations()));
}

void BM_DnsMessageEncode(benchmark::State& state) {
  const dns::DnsMessage msg = sample_response();
  const std::size_t wire_size = msg.encode().size();
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.encode());
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size));
}
BENCHMARK(BM_DnsMessageEncode);

void BM_DnsMessageEncodePooled(benchmark::State& state) {
  // Steady-state simulator pattern: encode into a pooled buffer, hand it to
  // the network, get the capacity back when the packet dies.
  const dns::DnsMessage msg = sample_response();
  std::vector<std::uint8_t> warm = dns::encode_pooled(msg);
  const std::size_t wire_size = warm.size();
  BufferPool::release(std::move(warm));  // the loop reuses its capacity
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    std::vector<std::uint8_t> wire = dns::encode_pooled(msg);
    benchmark::DoNotOptimize(wire.data());
    BufferPool::release(std::move(wire));
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size));
}
BENCHMARK(BM_DnsMessageEncodePooled);

void BM_DnsMessageDecode(benchmark::State& state) {
  const auto wire = sample_response().encode();
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DnsMessage::decode(wire));
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DnsMessageDecode);

void BM_DnsNameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dns::DnsName::parse("a.long.query.name.example.dns-lab.org"));
  }
}
BENCHMARK(BM_DnsNameParse);

// The names of sample_response(), in message order: a v4 probe qname, then
// the SOA owner and its two rdata names, all sharing the base zone.
std::vector<dns::DnsName> sample_names() {
  std::vector<dns::DnsName> names;
  for (const char* s : {"1699999999.c0a8000a.c0a80001.64512.m0.x1.dns-lab.org",
                        "dns-lab.org", "www.dns-lab.org",
                        "research.dns-lab.org"}) {
    names.push_back(dns::DnsName::must_parse(s));
  }
  return names;
}

void BM_NameHash(benchmark::State& state) {
  // What a hash-table probe keyed by a probe qname pays per lookup.
  const dns::DnsName name = sample_names().front();
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(name.hash());
  }
  report_allocs(state, a0);
}
BENCHMARK(BM_NameHash);

void BM_NameEncode(benchmark::State& state) {
  // One probe qname, uncompressed, into a reused buffer.
  const dns::DnsName name = sample_names().front();
  std::vector<std::uint8_t> wire;
  dns::encode_name(name, wire, nullptr);  // warm the buffer's capacity
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    wire.clear();
    dns::encode_name(name, wire, nullptr);
    benchmark::DoNotOptimize(wire.data());
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_NameEncode);

void BM_NameCompress(benchmark::State& state) {
  // All four sample names through one fresh compressor, as one message.
  const std::vector<dns::DnsName> names = sample_names();
  std::vector<std::uint8_t> wire(256);  // capacity for the whole message
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    wire.clear();
    dns::NameCompressor comp;
    for (const dns::DnsName& n : names) dns::encode_name(n, wire, &comp);
    benchmark::DoNotOptimize(wire.data());
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_NameCompress);

void BM_NameDecode(benchmark::State& state) {
  // The four compressed sample names back out of one message.
  std::vector<std::uint8_t> wire;
  dns::NameCompressor comp;
  for (const dns::DnsName& n : sample_names()) {
    dns::encode_name(n, wire, &comp);
  }
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    std::size_t off = 0;
    while (off < wire.size()) {
      benchmark::DoNotOptimize(dns::decode_name(wire, off));
    }
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_NameDecode);

void BM_PacketSerializeUdp(benchmark::State& state) {
  const auto payload = sample_response().encode();
  const net::Packet pkt = net::make_udp(
      net::IpAddr::must_parse("192.0.2.1"), 5353,
      net::IpAddr::must_parse("198.51.100.2"), 53, payload);
  const std::size_t wire_size = pkt.serialize().size();
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt.serialize());
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size));
}
BENCHMARK(BM_PacketSerializeUdp);

void BM_PacketSerializeUdpPooled(benchmark::State& state) {
  const auto payload = sample_response().encode();
  const net::Packet pkt = net::make_udp(
      net::IpAddr::must_parse("192.0.2.1"), 5353,
      net::IpAddr::must_parse("198.51.100.2"), 53, payload);
  const std::size_t wire_size = pkt.serialize().size();
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    std::vector<std::uint8_t> wire = pkt.serialize();
    benchmark::DoNotOptimize(wire.data());
    BufferPool::release(std::move(wire));
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size));
}
BENCHMARK(BM_PacketSerializeUdpPooled);

void BM_PacketRoundTripTcpSyn(benchmark::State& state) {
  net::Packet pkt = net::make_tcp(net::IpAddr::must_parse("2001:db8::1"),
                                  40000, net::IpAddr::must_parse("2001:db8::2"),
                                  53, net::TcpFlags{.syn = true});
  pkt.tcp_window = 29200;
  pkt.tcp_options = {{net::TcpOptionKind::kMss, 1460},
                     {net::TcpOptionKind::kSackPermitted, 0},
                     {net::TcpOptionKind::kTimestamp, 1},
                     {net::TcpOptionKind::kNop, 0},
                     {net::TcpOptionKind::kWindowScale, 7}};
  const std::size_t wire_size = pkt.serialize().size();
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    std::vector<std::uint8_t> wire = pkt.serialize();
    benchmark::DoNotOptimize(net::Packet::parse(wire));
    BufferPool::release(std::move(wire));
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size));
}
BENCHMARK(BM_PacketRoundTripTcpSyn);

void BM_QnameEncodeDecode(benchmark::State& state) {
  const scanner::QnameCodec codec(dns::DnsName::must_parse("dns-lab.org"),
                                  "x1");
  scanner::QnameInfo info;
  info.ts = 123456789;
  info.src = net::IpAddr::must_parse("192.0.2.10");
  info.dst = net::IpAddr::must_parse("198.51.100.20");
  info.asn = 64512;
  info.mode = scanner::QueryMode::kV4Only;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(codec.encode(info)));
  }
}
BENCHMARK(BM_QnameEncodeDecode);

// One spoofed probe's query bytes, the per-probe emission cost: the v4
// probe name of a campaign, id and timestamp advancing per iteration.
scanner::QnameInfo probe_info(std::uint64_t i) {
  scanner::QnameInfo info;
  info.ts = 1'699'999'999'000 + static_cast<sim::SimTime>(i);
  info.src = net::IpAddr::v4(0xC0A8000Au + static_cast<std::uint32_t>(i));
  info.dst = net::IpAddr::v4(198, 51, 100, 20);
  info.asn = 64512;
  return info;
}

/// Times `encode(i)`, a pooled probe-query encode, with the pooled-bench
/// warm-up: one encode is released before the loop, so allocs/op is the
/// steady state.
template <typename Encode>
void probe_query_bench(benchmark::State& state, Encode&& encode) {
  std::vector<std::uint8_t> warm = encode(0);
  const std::size_t wire_size = warm.size();
  BufferPool::release(std::move(warm));
  std::uint64_t i = 1;
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    std::vector<std::uint8_t> wire = encode(i++);
    benchmark::DoNotOptimize(wire.data());
    BufferPool::release(std::move(wire));
  }
  report_allocs(state, a0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size));
}

// The probe query built as a name and a message, then encoded.
void BM_ProbeQueryMakeThenEncode(benchmark::State& state) {
  const scanner::QnameCodec codec(dns::DnsName::must_parse("dns-lab.org"),
                                  "x1");
  probe_query_bench(state, [&](std::uint64_t i) {
    return dns::encode_pooled(
        dns::make_query(static_cast<std::uint16_t>(i),
                        codec.encode(probe_info(i)), dns::RrType::kA));
  });
}
BENCHMARK(BM_ProbeQueryMakeThenEncode);

// The same bytes written straight from the fields (QnameCodec::encode_query).
void BM_ProbeQueryEncode(benchmark::State& state) {
  const scanner::QnameCodec codec(dns::DnsName::must_parse("dns-lab.org"),
                                  "x1");
  probe_query_bench(state, [&](std::uint64_t i) {
    return codec.encode_query(static_cast<std::uint16_t>(i), probe_info(i));
  });
}
BENCHMARK(BM_ProbeQueryEncode);

}  // namespace

BENCHMARK_MAIN();
