// One benchmark repetition: builds the workload's world spec from a seed,
// runs one sharded campaign through core::run_sharded_experiment (the entry
// point campaign_scale drives), checks the conservation law on the network
// counters, and prints one JSON object of raw measurements on stdout.
// perfbench/run.py runs this binary repeatedly and reduces the
// repetitions to medians.
//
//   campaign --workload poison --seed 7 --shards 64 --threads 2
//            --spill-dir .bench_build/spill [--codec]
//
// Workloads (each runs the whole spoofed-source probe plane with its §3.5
// follow-up battery, plus the load of one more scan plane):
//   poison      the off-path cache-poisoning attacker plane
//   transport   the follow-up battery over persistent, pipelined RFC 7766 TCP
//
// Set-up is the campaign's own world generation: the sum over shards of
// ShardTiming::gen_ms, the work each shard does before its first probe.
//
// --codec adds a DNS-codec span measured from here, around calls into the
// dns layer: query encode and decode of campaign-shaped probe names.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel.h"
#include "dns/message.h"
#include "dns/name.h"
#include "ditl/world.h"
#include "util/rss.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::string spill_dir;
  bool codec = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "campaign: %s\nusage: campaign --workload "
               "poison|transport --seed N --shards N "
               "--threads N --spill-dir DIR [--codec]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) {
    usage("malformed number");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--codec") {
      opt.codec = true;
      continue;
    }
    if (i + 1 >= argc) usage("flag without a value");
    const std::string_view value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(value);
    } else if (arg == "--shards") {
      opt.shards = parse_u64(value);
    } else if (arg == "--threads") {
      opt.threads = parse_u64(value);
    } else if (arg == "--spill-dir") {
      opt.spill_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (opt.shards == 0 || opt.threads == 0) usage("--shards/--threads >= 1");
  if (opt.spill_dir.empty()) usage("--spill-dir is required");
  return opt;
}

/// World shape and plane configuration of one workload. The world is the
/// repository's bench shape (ditl::bench_world_spec: fleet mean 5.0,
/// oversampled port bands) at half its 600 ASes, so that one run fits
/// several distinct worlds, each under two shard layouts; each plane runs
/// with its defaults except where noted.
bool configure(const std::string& workload, cd::ditl::WorldSpec& spec,
               cd::core::ExperimentConfig& config) {
  spec = cd::ditl::bench_world_spec();
  spec.n_asns = 300;
  if (workload == "poison") {
    config.poison = cd::attack::PoisonConfig{};
    return true;
  }
  if (workload == "transport") {
    // campaign_scale's --transport-window=8 persistent row.
    config.followup.transport = cd::scanner::FollowupTransport::kTcp;
    config.persistent_tcp = true;
    config.max_pipeline = 8;
    return true;
  }
  return false;
}

double cpu_ms() {
  return 1000.0 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// FNV-1a over the per-target TCP reply digests (the transport plane's
/// evidence, which results_digest leaves out).
std::uint64_t replies_digest(const cd::core::ExperimentResults& r) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x00000100000001B3ULL;
    }
  };
  for (const auto& [addr, digest] : r.transport_replies) {
    mix(addr.bits().hi);
    mix(addr.bits().lo);
    mix(digest);
  }
  return h;
}

/// Median per-message nanoseconds of encoding and decoding probe queries
/// whose names follow the §3.3 template (ts.src.dst.asn.mode.kw.base).
struct CodecSpan {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

CodecSpan measure_codec(std::uint64_t seed) {
  constexpr int kNames = 4096;
  constexpr int kPasses = 7;
  std::mt19937_64 rng(seed);
  std::vector<cd::dns::DnsName> names;
  names.reserve(kNames);
  char buf[160];
  for (int i = 0; i < kNames; ++i) {
    const std::uint64_t r = rng();
    std::snprintf(buf, sizeof buf, "%llu.%08x.%08x.%u.m%u.kw%02x.dns-lab.org",
                  (unsigned long long)(r % 86400000000ULL),
                  (unsigned)(r >> 32), (unsigned)rng(),
                  (unsigned)(r % 65000) + 1, (unsigned)(r % 5),
                  (unsigned)(seed & 0xFF));
    auto name = cd::dns::DnsName::parse(buf);
    if (!name) throw std::runtime_error("codec: unparsable probe name");
    names.push_back(std::move(*name));
  }
  std::vector<std::vector<std::uint8_t>> wires(kNames);
  std::vector<double> enc, dec;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto start = Clock::now();
    for (int i = 0; i < kNames; ++i) {
      wires[i] = cd::dns::make_query(static_cast<std::uint16_t>(i), names[i],
                                     cd::dns::RrType::kA)
                     .encode();
    }
    enc.push_back(ms_since(start) * 1e6 / kNames);
    start = Clock::now();
    for (int i = 0; i < kNames; ++i) {
      const cd::dns::DnsMessage m = cd::dns::DnsMessage::decode(wires[i]);
      if (!(m.qname() == names[i])) {
        throw std::runtime_error("codec: decoded name differs");
      }
    }
    dec.push_back(ms_since(start) * 1e6 / kNames);
  }
  std::sort(enc.begin(), enc.end());
  std::sort(dec.begin(), dec.end());
  return {enc[kPasses / 2], dec[kPasses / 2]};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  cd::ditl::WorldSpec spec;
  cd::core::ExperimentConfig config;
  if (!configure(opt.workload, spec, config)) usage("unknown workload");
  spec.seed = opt.seed;
  config.num_shards = opt.shards;
  config.num_threads = opt.threads;
  config.spill_dir = opt.spill_dir;

  try {
    const double cpu_start = cpu_ms();
    const cd::core::ShardedResults out =
        cd::core::run_sharded_experiment(spec, config);
    const double cpu = cpu_ms() - cpu_start;
    const cd::core::ExperimentResults& r = out.merged;

    double gen_ms = 0.0, run_ms = 0.0, max_run_ms = 0.0, spill_ms = 0.0;
    for (const cd::core::ShardTiming& s : out.shards) {
      gen_ms += s.gen_ms;
      run_ms += s.run_ms;
      max_run_ms = std::max(max_run_ms, s.run_ms);
      spill_ms += s.spill_ms;
    }
    const cd::sim::NetworkStats& n = r.network_stats;
    const std::uint64_t dropped = n.dropped_osav + n.dropped_dsav +
                                  n.dropped_martian + n.dropped_urpf +
                                  n.dropped_unrouted + n.dropped_no_host +
                                  n.dropped_stack;
    // Every packet a scan plane originates: probe-plane queries and the
    // attacker's triggers and forgeries.
    const std::uint64_t probes =
        r.queries_sent + r.poison_triggers + r.poison_forged;

    std::printf(
        "{\"probes\":%llu,\"queries_sent\":%llu,\"records\":%zu,"
        "\"digest\":\"%016llx\",\"replies_digest\":\"%016llx\","
        "\"wall_ms\":%.4f,\"cpu_ms\":%.4f,\"gen_ms\":%.4f,"
        "\"run_ms\":%.4f,\"max_run_ms\":%.4f,\"spill_ms\":%.4f,"
        "\"merge_ms\":%.4f,\"peak_rss_kib\":%zu,\"net_sent\":%llu,"
        "\"net_delivered\":%llu,\"net_batches\":%llu,\"auth_entries\":%llu,"
        "\"poison_triggers\":%llu,"
        "\"poison_forged\":%llu,\"tcp_dials\":%llu,\"tcp_reuses\":%llu",
        (unsigned long long)probes, (unsigned long long)r.queries_sent,
        r.records.size(), (unsigned long long)cd::core::results_digest(r),
        (unsigned long long)replies_digest(r), out.wall_ms, cpu,
        gen_ms, run_ms, max_run_ms, spill_ms, out.merge_ms, cd::peak_rss_kb(),
        (unsigned long long)n.sent, (unsigned long long)n.delivered,
        (unsigned long long)n.delivery_batches,
        (unsigned long long)r.collector_stats.entries_seen,
        (unsigned long long)r.poison_triggers,
        (unsigned long long)r.poison_forged,
        (unsigned long long)r.transport.dials,
        (unsigned long long)r.transport.session_reuses);
    if (opt.codec) {
      const CodecSpan codec = measure_codec(opt.seed);
      std::printf(",\"codec_encode_ns\":%.4f,\"codec_decode_ns\":%.4f",
                  codec.encode_ns, codec.decode_ns);
    }
    std::printf(",\"conserved\":%s}\n",
                n.sent == n.delivered + dropped ? "true" : "false");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign: %s\n", e.what());
    return 1;
  }
  return 0;
}
