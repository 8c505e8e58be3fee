// Sharded parallel campaign runner.
//
// The target list is partitioned into `config.num_shards` shards by
// destination AS (shard_of in scanner/prober.h), and each shard runs an
// independently generated world slice — shared infrastructure plus only its
// own ASes' fleets, streamed from the campaign plan — with its own event
// loop, prober, collector and follow-up engine, on a small std::thread
// pool. The plan is built once per run and every shard reads the same
// immutable copy. World generation is deterministic and cheap relative to
// the campaign, so duplicating the shared infrastructure per shard buys
// full isolation: no shared mutable state, no locks on the hot path.
//
// Determinism contract: for a fixed spec and config, the merged results
// are identical for ANY (num_shards, num_threads) combination — shards
// merge in shard order, and every random decision a shard makes is derived
// from stable identities (shard index, target address, packet content),
// never from thread or arrival order. `results_digest` captures exactly
// the shard-count-invariant portion of the results; see its comment for
// the documented exclusions.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "ditl/world_spec.h"

namespace cd::core {

/// Wall-clock accounting for one shard, split by phase.
struct ShardTiming {
  std::size_t shard = 0;
  std::size_t targets = 0;   // targets assigned to this shard
  double gen_ms = 0.0;       // world generation
  double run_ms = 0.0;       // campaign (schedule + event loop drain)
  double spill_ms = 0.0;     // serialize + write of the shard spill (if any)
  /// Process-wide peak RSS (VmHWM, util/rss.h) sampled as the shard
  /// finished. The watermark is monotonic over the process lifetime, so
  /// per-shard values record when memory peaked, not independent footprints.
  std::size_t peak_rss_kb = 0;
};

struct ShardedResults {
  ExperimentResults merged;
  std::vector<ShardTiming> shards;  // indexed by shard
  double wall_ms = 0.0;             // end-to-end, including merge
  double merge_ms = 0.0;            // merge phase (spill read-back included)
  /// Process-wide peak RSS (VmHWM) after the merge — the campaign's
  /// high-water memory mark, the number the campaign-scale bench budgets.
  std::size_t peak_rss_kb = 0;
  /// Sum of per-shard gen+run time: what a 1-thread execution of the same
  /// sharding costs, so aggregate/wall estimates the parallel speedup even
  /// on machines where the pool cannot actually run concurrently.
  [[nodiscard]] double aggregate_ms() const;
};

/// Runs the campaign described by (spec, config) across
/// `config.num_shards` shards on `config.num_threads` worker threads and
/// merges the per-shard results in shard order. The campaign plan is built
/// once; each shard runs on its own streamed world slice of it
/// (ditl::generate_world(plan, shard, num_shards)).
/// Exceptions thrown inside a shard are rethrown on the calling thread after
/// the pool joins.
[[nodiscard]] ShardedResults run_sharded_experiment(
    const cd::ditl::WorldSpec& spec, const ExperimentConfig& config);

/// The same over a plan the caller already built (and may read as well):
/// wall_ms then starts at this call, so it leaves out the plan's build.
[[nodiscard]] ShardedResults run_sharded_experiment(
    std::shared_ptr<const cd::ditl::CampaignPlan> plan,
    const ExperimentConfig& config);

/// Order-independent digest of the shard-count-invariant evidence: records
/// (sorted by target address, all fields except `first_hit_time`),
/// QNAME-minimization ASes, lifetime exclusions, the scanner-side counters
/// (queries sent, follow-up batteries, analyst replays), and the
/// cross-check plane's per-/24 evidence (prefix, AS and responding-address
/// sets, plus the probes-sent counter).
///
/// Excluded by design — the traffic-volume/timing artifacts of shared
/// public-resolver cache warmness, the one thing sharding legitimately
/// perturbs: per-record `first_hit_time`, the world's `network_stats`,
/// `collector_stats` (a forwarded target resolving against a cold
/// per-shard cache takes longer, which can add retransmitted — duplicate —
/// authoritative queries; every evidence *set* stays exact because the
/// records deduplicate), and the cross-check records' `hits` /
/// `direct_seen`/`forwarded_seen` (duplicate counts plus the
/// forward-failover resolver's sequential direct-vs-forward draw).
///
/// Known defect: the same direct-vs-forward draw also reaches the probe
/// plane, whose records are digested whole. A forward-failover target's
/// `direct_seen`/`forwarded_seen`, and the v4 ports that follow from them,
/// can differ between shard layouts. Reproducer: perfbench `poison` world
/// 66 (`python3 perfbench/run.py --workload poison --seed 8 ...`) digests
/// `0110ce0931bc55a4` at 64 shards and `2bc957fc5bbf5105` at 63; the one
/// differing record is target 20.29.124.130 (AS 303), seen direct and
/// forwarded at 64 shards but forwarded only at 63. Fixing it changes every
/// golden digest, so it is left for a change of its own.
[[nodiscard]] std::uint64_t results_digest(const ExperimentResults& results);

/// Digest of a capture's full serialized form (pcap bytes then sidecar
/// index bytes). Because Experiment/merge_results canonicalize record
/// order, a probe-plane capture's digest is invariant across
/// (num_shards, num_threads) — the wire-level analogue of results_digest,
/// checked by tests/test_core_parallel.cpp and regenerable externally from
/// the exported files themselves.
[[nodiscard]] std::uint64_t capture_digest(const cd::pcap::Capture& capture);

}  // namespace cd::core
