// Campaign-scale bench: paper-magnitude campaigns in bounded memory.
//
// Three timed phases:
//   plan     — build_campaign_plan: the O(n_asns) SoA shape pass (arena
//              bytes reported; a paper-scale plan is a few MB, not a world)
//   stream   — one full TargetStream sweep with nothing materialized: the
//              pure per-AS generation rate a shard world pays
//   campaign — run_sharded_experiment with streamed shard worlds and
//              (by default) disk-spilled shard results; probes/s and
//              peak RSS (VmHWM) are the headline numbers
//
// Appends one JSON line per run to BENCH_campaign.json (--out=... to
// redirect), so repeated runs accumulate a trajectory. The default shape
// (7000 ASes, mean fleet 14) crosses one million DITL targets locally;
// --paper sets the paper's magnitude (62k ASes, mean 17.6 → ~12M targets),
// which is practical for plan+stream on any machine and for the campaign
// phase on a long-running one (--no-campaign skips it).
//
//   ./campaign_scale                         # ≥1M-target spilled campaign
//   ./campaign_scale --paper --no-campaign   # 12M-target plan+stream sweep
//   ./campaign_scale --shards=64 --threads=8 --spill-dir=/tmp/cdsp
//
// --crosscheck-window=N additionally runs the Closed Resolver cross-check
// plane (scanner/crosscheck.h) over every announced /24, probing host
// offsets [10, 10+N) — the window the world's resolver addressing occupies —
// and reports the per-AS methodology-agreement aggregates
// (analysis/crosscheck.h). The world is materialized once for the join's
// target list, so pick a shape that fits in memory when enabling this.
//
// --poison-window=N additionally runs the off-path cache-poisoning attacker
// plane (attack/poison.h) with N burst rounds per victim, and reports the
// realized per-profile success rates joined against the port-entropy
// predictions (analysis/poisoning.h).
//
// --transport-window=N additionally reruns the campaign three times with the
// follow-up battery switched to TCP (scanner::FollowupTransport::kTcp) to
// price the transports against each other: one-shot dial-per-exchange
// (RFC 7766 §5 legacy behavior), persistent sessions pipelined N deep
// (§6.2.1.1), and persistent DoT-style sessions that pay a fixed handshake
// per connection. Each pass reports connection counts (dials/accepts/
// reuses), handshake overhead bytes, and probes/s; all three land in the
// JSON row.
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "analysis/crosscheck.h"
#include "analysis/poisoning.h"
#include "bench_common.h"
#include "core/parallel.h"
#include "ditl/plan.h"
#include "ditl/target_stream.h"
#include "ditl/world.h"
#include "util/rss.h"

namespace {

using cd::bench::parse_number;
using cd::bench::parse_path;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  int asns = 7000;
  double mean = 14.0;
  std::size_t shards = 64;
  std::size_t threads = std::max(1u, std::thread::hardware_concurrency() / 2);
  std::uint64_t seed = 42;
  bool campaign = true;
  bool spill = true;
  std::uint32_t crosscheck_window = 0;  // 0 = cross-check plane off
  std::uint32_t poison_window = 0;      // 0 = attacker plane off
  std::uint32_t transport_window = 0;   // 0 = transport sweep off; else the
                                        // persistent-session pipeline depth
  std::string spill_dir = "campaign_spill";
  std::string out = "BENCH_campaign.json";
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--asns=", 7) == 0) {
      opt.asns = parse_number("--asns", arg + 7, 1, INT_MAX);
    } else if (std::strncmp(arg, "--mean=", 7) == 0) {
      opt.mean = parse_number("--mean", arg + 7,
                              std::numeric_limits<double>::min(),
                              std::numeric_limits<double>::max());
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      opt.shards = parse_number<std::size_t>("--shards", arg + 9, 1);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      opt.threads = parse_number<std::size_t>("--threads", arg + 10, 1);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.seed = parse_number<std::uint64_t>("--seed", arg + 7);
    } else if (std::strncmp(arg, "--crosscheck-window=", 20) == 0) {
      opt.crosscheck_window =
          parse_number<std::uint32_t>("--crosscheck-window", arg + 20);
    } else if (std::strncmp(arg, "--poison-window=", 16) == 0) {
      opt.poison_window =
          parse_number<std::uint32_t>("--poison-window", arg + 16);
    } else if (std::strncmp(arg, "--transport-window=", 19) == 0) {
      opt.transport_window =
          parse_number<std::uint32_t>("--transport-window", arg + 19);
    } else if (std::strncmp(arg, "--spill-dir=", 12) == 0) {
      opt.spill_dir = parse_path("--spill-dir", arg + 12);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opt.out = parse_path("--out", arg + 6);
    } else if (std::strcmp(arg, "--paper") == 0) {
      opt.asns = 62000;   // §3.1: ~62k ASes behind the 13.6M scanned addrs
      opt.mean = 17.6;    // → ~12M DITL targets after exclusions
    } else if (std::strcmp(arg, "--no-campaign") == 0) {
      opt.campaign = false;
    } else if (std::strcmp(arg, "--no-spill") == 0) {
      opt.spill = false;
    } else {
      // A typo such as --shard=8 must not silently run the default shape.
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg);
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  cd::ditl::WorldSpec spec = cd::ditl::bench_world_spec();
  spec.n_asns = opt.asns;
  spec.resolvers_per_as_mean = opt.mean;
  spec.seed = opt.seed;

  std::printf("# campaign_scale: %d ASes, mean fleet %.1f, seed %llu\n",
              opt.asns, opt.mean, (unsigned long long)opt.seed);

  // --- phase 1: plan --------------------------------------------------------
  const auto plan_start = Clock::now();
  const std::shared_ptr<const cd::ditl::CampaignPlan> plan =
      cd::ditl::build_campaign_plan(spec);
  const double plan_ms = ms_since(plan_start);
  std::printf("# plan: %zu ASes in %.1fms (%zu KiB arena)\n", plan->size(),
              plan_ms, plan->bytes() / 1024);

  // --- phase 2: stream sweep ------------------------------------------------
  const auto stream_start = Clock::now();
  const cd::ditl::StreamCounts counts = cd::ditl::count_stream(*plan);
  const double stream_ms = ms_since(stream_start);
  std::printf(
      "# stream: %llu resolvers, %llu live addrs, %llu targets "
      "(%llu captured live + %llu stale) in %.0fms (%.0fk targets/s)\n",
      (unsigned long long)counts.resolvers,
      (unsigned long long)counts.live_addrs, (unsigned long long)counts.targets,
      (unsigned long long)counts.captured_live,
      (unsigned long long)counts.stale, stream_ms,
      stream_ms > 0 ? (double)counts.targets / stream_ms : 0.0);

  // --- phase 3: sharded streamed campaign -----------------------------------
  double campaign_ms = 0.0, merge_ms = 0.0, probes_per_s = 0.0;
  double max_shard_gen_ms = 0.0, max_shard_run_ms = 0.0;
  unsigned long long probes = 0, records = 0;
  unsigned long long digest = 0;
  unsigned long long cc_probes = 0, cc_prefixes = 0, cc_vulnerable = 0;
  cd::analysis::AgreementReport agreement;
  cd::analysis::PoisonReport poison;
  cd::attack::PoisonConfig poison_config;
  // Per-transport pricing rows (--transport-window): one-shot baseline,
  // persistent pipelined sessions, persistent DoT-style sessions.
  struct TransportRow {
    double wall_ms = 0.0;
    double probes_per_s = 0.0;
    unsigned long long probes = 0;
    cd::sim::TransportCounters tc;
  };
  TransportRow t_rows[3];
  static constexpr const char* kTransportLabels[3] = {"oneshot", "persistent",
                                                      "dot"};
  if (opt.campaign) {
    cd::core::ExperimentConfig config;
    config.num_shards = opt.shards;
    config.num_threads = opt.threads;
    if (opt.spill) config.spill_dir = opt.spill_dir;
    if (opt.crosscheck_window > 0) {
      cd::scanner::CrossCheckConfig cc;
      cc.host_lo = 10;  // resolver v4 addressing starts at offset 10
      cc.host_hi = 10 + opt.crosscheck_window;
      config.crosscheck = cc;
    }
    if (opt.poison_window > 0) {
      poison_config.rounds = static_cast<int>(opt.poison_window);
      config.poison = poison_config;
    }

    const auto run_start = Clock::now();
    const cd::core::ShardedResults out =
        cd::core::run_sharded_experiment(spec, config);
    campaign_ms = out.wall_ms;
    merge_ms = out.merge_ms;
    probes = out.merged.queries_sent;
    records = out.merged.records.size();
    digest = cd::core::results_digest(out.merged);
    probes_per_s = campaign_ms > 0 ? 1000.0 * (double)probes / campaign_ms : 0;
    for (const cd::core::ShardTiming& s : out.shards) {
      if (s.gen_ms > max_shard_gen_ms) max_shard_gen_ms = s.gen_ms;
      if (s.run_ms > max_shard_run_ms) max_shard_run_ms = s.run_ms;
    }
    std::printf(
        "# campaign: %llu probes over %zu shards on %zu threads in %.0fms "
        "(%.0f probes/s, merge %.0fms, slowest shard gen %.0fms run %.0fms)\n"
        "# records %llu, digest %016llx, wall total %.0fms\n",
        probes, opt.shards, opt.threads, campaign_ms, probes_per_s, merge_ms,
        max_shard_gen_ms, max_shard_run_ms, records, digest,
        ms_since(run_start));

    if (opt.crosscheck_window > 0) {
      cc_probes = out.merged.crosscheck_probes;
      const std::vector<cd::scanner::PrefixTarget> probed =
          cd::ditl::prefix24_targets(*plan);
      cc_prefixes = probed.size();
      for (const auto& [base, rec] : out.merged.crosscheck_records) {
        if (rec.vulnerable()) ++cc_vulnerable;
      }
      // The join needs the per-resolver target list, which the streamed
      // campaign never materializes — build the world once for it, from
      // the plan phase 1 already built.
      const auto world = cd::ditl::generate_world(plan);
      agreement = cd::analysis::methodology_agreement(
          out.merged.records, world->targets, out.merged.crosscheck_records,
          probed);
      std::printf(
          "# crosscheck: %llu probes over %llu /24s, %llu vulnerable "
          "(%.0f%%); agreement over %llu ASes: %llu agree-vuln, "
          "%llu agree-filtered, %llu resolver-only, %llu prefix-only\n",
          cc_probes, cc_prefixes, cc_vulnerable,
          100.0 * agreement.prefix_vulnerable_share,
          (unsigned long long)agreement.ases,
          (unsigned long long)agreement.agree_vulnerable,
          (unsigned long long)agreement.agree_filtered,
          (unsigned long long)agreement.resolver_only,
          (unsigned long long)agreement.prefix_only);
    }

    if (opt.poison_window > 0) {
      poison = cd::analysis::summarize_poisoning(
          out.merged.poison_records, poison_config, out.merged.poison_triggers,
          out.merged.poison_forged);
      std::printf(
          "# poison: %llu victims raced over %u rounds, %llu reachable, "
          "%llu poisoned (%llu triggers, %llu forgeries, %zu profiles)\n",
          (unsigned long long)poison.victims, opt.poison_window,
          (unsigned long long)poison.reachable,
          (unsigned long long)poison.successes,
          (unsigned long long)poison.triggers,
          (unsigned long long)poison.forged, poison.rows.size());
    }

    if (opt.transport_window > 0) {
      for (int mode = 0; mode < 3; ++mode) {
        cd::core::ExperimentConfig tconfig = config;
        tconfig.followup.transport = cd::scanner::FollowupTransport::kTcp;
        tconfig.persistent_tcp = mode > 0;
        tconfig.max_pipeline = static_cast<int>(opt.transport_window);
        tconfig.dot_sessions = mode == 2;
        const auto t_start = Clock::now();
        const cd::core::ShardedResults t_out =
            cd::core::run_sharded_experiment(spec, tconfig);
        TransportRow& row = t_rows[mode];
        row.wall_ms = ms_since(t_start);
        row.probes = t_out.merged.queries_sent;
        row.probes_per_s =
            row.wall_ms > 0 ? 1000.0 * (double)row.probes / row.wall_ms : 0;
        row.tc = t_out.merged.transport;
        std::printf(
            "# transport[%s]: %llu probes in %.0fms (%.0f probes/s); "
            "dials %llu, accepts %llu, reuses %llu, messages %llu, "
            "idle closes %llu, handshake bytes %llu\n",
            kTransportLabels[mode], row.probes, row.wall_ms, row.probes_per_s,
            (unsigned long long)row.tc.dials,
            (unsigned long long)row.tc.accepts,
            (unsigned long long)row.tc.session_reuses,
            (unsigned long long)row.tc.session_messages,
            (unsigned long long)row.tc.idle_closes,
            (unsigned long long)row.tc.handshake_bytes);
      }
    }
  }

  const std::size_t peak_kb = cd::peak_rss_kb();
  std::printf("# peak RSS %zu KiB (%.1f MiB); %.1f bytes/target\n", peak_kb,
              peak_kb / 1024.0,
              counts.targets ? 1024.0 * (double)peak_kb / counts.targets : 0.0);

  if (std::FILE* f = std::fopen(opt.out.c_str(), "a")) {
    std::fprintf(
        f,
        "{\"bench\":\"campaign_scale\",\"asns\":%d,\"mean\":%.2f,"
        "\"shards\":%zu,\"threads\":%zu,\"seed\":%llu,\"spill\":%s,"
        "\"targets\":%llu,\"resolvers\":%llu,"
        "\"plan_ms\":%.1f,\"plan_kib\":%zu,\"stream_ms\":%.0f,"
        "\"campaign_ms\":%.0f,\"merge_ms\":%.0f,\"probes\":%llu,"
        "\"probes_per_s\":%.0f,\"records\":%llu,\"digest\":\"%016llx\","
        "\"crosscheck_window\":%u,\"crosscheck_probes\":%llu,"
        "\"crosscheck_prefixes\":%llu,\"crosscheck_vulnerable\":%llu,"
        "\"agree_vulnerable\":%llu,\"agree_filtered\":%llu,"
        "\"resolver_only\":%llu,\"prefix_only\":%llu,"
        "\"poison_window\":%u,\"poison_victims\":%llu,"
        "\"poison_reachable\":%llu,\"poison_successes\":%llu,"
        "\"poison_triggers\":%llu,\"poison_forged\":%llu,"
        "\"transport_window\":%u,"
        "\"t_oneshot_dials\":%llu,\"t_oneshot_handshake_bytes\":%llu,"
        "\"t_oneshot_probes_per_s\":%.0f,"
        "\"t_persistent_dials\":%llu,\"t_persistent_reuses\":%llu,"
        "\"t_persistent_handshake_bytes\":%llu,"
        "\"t_persistent_probes_per_s\":%.0f,"
        "\"t_dot_dials\":%llu,\"t_dot_reuses\":%llu,"
        "\"t_dot_handshake_bytes\":%llu,\"t_dot_probes_per_s\":%.0f,"
        "\"peak_rss_kib\":%zu}\n",
        opt.asns, opt.mean, opt.shards, opt.threads,
        (unsigned long long)opt.seed, opt.spill ? "true" : "false",
        (unsigned long long)counts.targets,
        (unsigned long long)counts.resolvers, plan_ms, plan->bytes() / 1024,
        stream_ms, campaign_ms, merge_ms, probes, probes_per_s, records,
        digest, opt.crosscheck_window, cc_probes, cc_prefixes, cc_vulnerable,
        (unsigned long long)agreement.agree_vulnerable,
        (unsigned long long)agreement.agree_filtered,
        (unsigned long long)agreement.resolver_only,
        (unsigned long long)agreement.prefix_only, opt.poison_window,
        (unsigned long long)poison.victims,
        (unsigned long long)poison.reachable,
        (unsigned long long)poison.successes,
        (unsigned long long)poison.triggers,
        (unsigned long long)poison.forged, opt.transport_window,
        (unsigned long long)t_rows[0].tc.dials,
        (unsigned long long)t_rows[0].tc.handshake_bytes,
        t_rows[0].probes_per_s, (unsigned long long)t_rows[1].tc.dials,
        (unsigned long long)t_rows[1].tc.session_reuses,
        (unsigned long long)t_rows[1].tc.handshake_bytes,
        t_rows[1].probes_per_s, (unsigned long long)t_rows[2].tc.dials,
        (unsigned long long)t_rows[2].tc.session_reuses,
        (unsigned long long)t_rows[2].tc.handshake_bytes,
        t_rows[2].probes_per_s, peak_kb);
    std::fclose(f);
    std::printf("# appended to %s\n", opt.out.c_str());
  } else {
    std::fprintf(stderr, "campaign_scale: cannot append to %s\n",
                 opt.out.c_str());
    return 1;
  }
  return 0;
}
