// End-to-end experiment orchestration: the paper's whole pipeline on a
// generated world — probe campaign, follow-ups, collection — in one call.
//
// This is the library's primary entry point:
//
//   auto world = cd::ditl::generate_world(
//       cd::ditl::build_campaign_plan(cd::ditl::bench_world_spec()));
//   cd::core::Experiment experiment(*world, {});
//   const cd::core::ExperimentResults& results = experiment.run();
//   auto summary = cd::analysis::summarize_dsav(results.records,
//                                               world->targets);
#pragma once

#include <concepts>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "analysis/classify.h"
#include "attack/poison.h"
#include "ditl/world.h"
#include "scanner/analyst.h"
#include "scanner/collector.h"
#include "scanner/crosscheck.h"
#include "scanner/followup.h"
#include "scanner/prober.h"
#include "util/pcap.h"

namespace cd::core {

/// Wire-capture knobs for a campaign (ExperimentConfig::capture). The tap is
/// installed on the world's network for the duration of the run; the
/// resulting canonical capture lands in ExperimentResults::capture.
struct CaptureSpec {
  /// Record border/stack drops (annotated with their DropReason in the
  /// sidecar index), not just delivered packets.
  bool include_drops = true;
  /// Capture only the scanner's probe plane: packets physically originating
  /// in the vantage AS. This is the shard-invariant portion of the traffic
  /// (probe schedule and latency jitter are pure functions of stable
  /// identities), so probe-plane captures are byte-identical between serial
  /// and sharded runs; full captures additionally contain resolver traffic
  /// whose timing depends on shared-cache warmness, which sharding
  /// legitimately perturbs.
  bool probes_only = false;
};

struct ExperimentConfig {
  cd::scanner::ProbeConfig probe;
  cd::scanner::FollowupConfig followup;
  /// When set, simulate IDS analysts replaying logged probes (§3.6.3).
  std::optional<cd::scanner::AnalystConfig> analyst;
  /// When set, run the Closed Resolver cross-check campaign (the per-/24
  /// prefix scanner, scanner/crosscheck.h) alongside the probe plane: both
  /// planes are scheduled before the single event-loop drain, so every
  /// cross-check start time stays a pure function of (seed, prefix) and the
  /// shard-differential digests hold for both planes at once. Off by
  /// default: the extra traffic legitimately perturbs timing-sensitive
  /// main-plane evidence (follow-up ports, analyst replays), so golden
  /// tables are pinned with the cross-check off.
  std::optional<cd::scanner::CrossCheckConfig> crosscheck;
  /// When set, export the campaign's wire traffic as a pcap capture.
  std::optional<CaptureSpec> capture;
  /// When set, run the off-path cache-poisoning attacker plane
  /// (attack/poison.h): an anycast-delegated subzone is grafted onto the
  /// experiment base zone, legacy resolver profiles get weak transaction-id
  /// sources (resolver::weak_txid), and a SpoofInjector races every
  /// non-forwarding resolver in this shard's target slice. Victims partition
  /// by AS exactly like targets, so per-shard poison records are disjoint
  /// and the realized outcome set is identical for any shard/stream/spill
  /// layout (tests/test_attack_poisoning.cpp). Off by default: the attack
  /// plane's traffic (and the weak txid swap) legitimately changes
  /// timing-sensitive evidence, so golden tables are pinned with it off.
  std::optional<cd::attack::PoisonConfig> poison;
  /// Run the §3.5 follow-up batteries on first hits. Disabled by the
  /// wire-equivalence tests: follow-up *timing* keys off first-hit arrival,
  /// which shared-cache warmness (and therefore sharding) perturbs.
  bool followups = true;

  // --- persistent transports (sim::TransportOptions) ------------------------
  /// RFC 7766 persistent DNS-over-TCP: connections opened by Host::tcp_query
  /// survive completed exchanges, pipeline up to `max_pipeline` in-flight
  /// framed messages (responses matched by DNS message ID, out-of-order
  /// supported), and are idle-closed server-side after
  /// sim::TransportOptions::idle_timeout (RFC 7766 §6.1). Off —
  /// the default — every exchange dials a connection that carries one
  /// message: results and capture digests are bit-identical to
  /// pre-transport builds (the campaign goldens pin this).
  bool persistent_tcp = false;
  /// In-flight messages per session before tcp_query queues (RFC 7766
  /// §6.2.1.1 pipelining window).
  int max_pipeline = 8;
  /// DoT-style sessions: each dial additionally pays a fixed hello
  /// handshake (sim::Host::kDotHandshakeRtts round trips of real stream
  /// bytes) plus a setup delay before the first DNS byte, so
  /// connection-reuse amortization is measurable in the scan-cost tables.
  bool dot_sessions = false;

  // --- sharding (core/parallel.h) -------------------------------------------
  /// Number of AS-partitioned shards the sharded runner splits the campaign
  /// into. Each shard streams its own world slice of the run's one plan
  /// (ditl::generate_world(plan, shard, num_shards): O(shard) memory) and
  /// runs its own event loop, prober and collector; results merge in shard
  /// order. The merged campaign evidence is identical for any shard count
  /// (see results_digest in core/parallel.h). An Experiment itself probes
  /// whatever its world holds: the world's shard_index/num_shards scope it.
  std::size_t num_shards = 1;
  /// Worker threads the sharded runner spreads shards over. Purely an
  /// execution knob: results are bit-identical for any thread count.
  std::size_t num_threads = 1;
  /// When non-empty, each shard's results are spilled to
  /// `<spill_dir>/shard_<N>.cdsp` (core/spill.h) as the shard finishes and
  /// streamed back in shard order during the merge, bounding peak memory by
  /// the largest single shard instead of the sum of all shards. The files
  /// are deleted after merging.
  std::string spill_dir;
};

struct ExperimentResults {
  cd::analysis::Records records;
  cd::scanner::CollectorStats collector_stats;
  std::set<cd::sim::Asn> qmin_asns;
  std::set<cd::net::IpAddr> lifetime_excluded_targets;
  cd::sim::NetworkStats network_stats;
  /// Canonically ordered wire capture (empty unless the config enabled it).
  cd::pcap::Capture capture;
  std::uint64_t queries_sent = 0;
  std::uint64_t followup_batteries = 0;
  std::uint64_t analyst_replays = 0;
  /// Cross-check plane (empty/zero unless the config enabled it). Prefixes
  /// partition by AS exactly like targets, so per-shard record maps are
  /// disjoint and merge by insertion.
  cd::scanner::PrefixRecords crosscheck_records;
  std::uint64_t crosscheck_probes = 0;
  /// Attacker plane (empty/zero unless the config enabled it). Victims
  /// partition by AS exactly like targets, so per-shard record maps are
  /// disjoint and merge by insertion.
  cd::attack::PoisonRecords poison_records;
  std::uint64_t poison_triggers = 0;
  std::uint64_t poison_forged = 0;
  /// Transport plane: connection-economics counters summed over every host
  /// in this shard's world (client dials, server accepts, session reuses,
  /// pipelined messages, idle closes, DoT handshake bytes). Deliberately
  /// outside results_digest — like network_stats, these are wire economics,
  /// not per-target evidence; the transport differential tests compare them
  /// directly.
  cd::sim::TransportCounters transport;
  /// Per-target digests of the framed TCP replies the scanner's transport
  /// battery received (empty unless followup.transport is kTcp). Targets
  /// partition by AS, so per-shard maps are disjoint and merge by
  /// insertion. For a fixed layout the map is identical across
  /// one-shot/persistent transports. Across shard layouts it is identical
  /// only for targets whose first_hit_time is: the battery starts at the
  /// first hit and every query name encodes its send time, which the reply
  /// echoes, so a forwarder whose first hit waits on a shared public
  /// resolver's cache warmness — which sharding legitimately perturbs —
  /// gets layout-specific reply bytes (like first_hit_time, outside
  /// results_digest).
  std::map<cd::net::IpAddr, std::uint64_t> transport_replies;
};

/// Every member of ExperimentResults, listed once, in CDSP v4 order grouped
/// by plane. `io` visits each member of one results object — the spill codec
/// (core/spill.h) walks it to write and to strictly read — or the same member
/// of several at once: merge_into walks an (accumulator, part) pair. Adding a
/// plane means adding its members above and one entry per member here;
/// results_digest (core/parallel.h) is separate, with its own order and
/// exclusions.
template <class IO, class... R>
  requires(std::same_as<std::remove_const_t<R>, ExperimentResults> && ...)
void fields(IO& io, R&... r) {
  // Probe plane.
  io(r.records...);
  io(r.collector_stats...);
  io(r.qmin_asns...);
  io(r.lifetime_excluded_targets...);
  io(r.network_stats...);
  io(r.queries_sent...);
  io(r.followup_batteries...);
  io(r.analyst_replays...);
  // Cross-check plane.
  io(r.crosscheck_probes...);
  io(r.crosscheck_records...);
  // Attacker plane.
  io(r.poison_triggers...);
  io(r.poison_forged...);
  io(r.poison_records...);
  // Transport plane.
  io(r.transport...);
  io(r.transport_replies...);
  // Wire capture.
  io(r.capture...);
}

/// Merges per-shard results in shard order: counters are summed, evidence
/// sets are unioned, and the keyed maps (target, /24, victim and transport
/// reply) — whose key sets are disjoint because shards partition targets by
/// AS — are inserted shard by shard; a key present in two shards throws.
[[nodiscard]] ExperimentResults merge_results(
    std::vector<ExperimentResults> parts);

/// Incremental one-part step of merge_results: folds `part` into `acc`
/// without needing every part in memory at once (the spill-merge path
/// streams parts through this). `first` marks the first part (it donates the
/// capture's snaplen/linktype; later parts must agree). Capture records are
/// appended un-canonicalized — call cd::pcap::canonicalize(acc.capture) once
/// after the last part, which is exactly what merge_results does, so the
/// streamed fold is bit-identical to the all-at-once merge.
void merge_into(ExperimentResults& acc, ExperimentResults part, bool first);

/// Wires scanner components onto a World and runs the campaign to
/// completion. The world must outlive the experiment.
class Experiment {
 public:
  Experiment(cd::ditl::World& world, ExperimentConfig config);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Schedules the campaign and drains the event loop. Idempotent: a second
  /// call returns the cached results.
  const ExperimentResults& run();

 private:
  /// Grafts the anycast poison subzone, its site hosts/auths and the
  /// attacker onto the world, and swaps weak txid sources into legacy
  /// resolver profiles (config_.poison is set).
  void build_attack_plane();
  cd::ditl::World& world_;
  ExperimentConfig config_;
  std::unique_ptr<cd::scanner::SourceSelector> selector_;
  std::unique_ptr<cd::scanner::Prober> prober_;
  std::unique_ptr<cd::scanner::Collector> collector_;
  std::unique_ptr<cd::scanner::CrossCheckProber> crosscheck_prober_;
  std::unique_ptr<cd::scanner::CrossCheckCollector> crosscheck_collector_;
  std::unique_ptr<cd::scanner::FollowupEngine> followup_;
  std::unique_ptr<cd::scanner::AnalystSimulator> analyst_;
  /// Attack plane (null/empty unless enabled): anycast site hosts need
  /// stable storage (deque: no moves) because the network holds pointers.
  std::deque<cd::sim::Host> attack_hosts_;
  std::vector<std::unique_ptr<cd::resolver::AuthServer>> attack_auths_;
  std::unique_ptr<cd::attack::SpoofInjector> injector_;
  std::optional<ExperimentResults> results_;
};

}  // namespace cd::core
