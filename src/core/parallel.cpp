#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "core/spill.h"
#include "ditl/world.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/rss.h"

namespace cd::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Incremental FNV-1a over a canonical little-endian serialization.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void addr(const cd::net::IpAddr& a) {
    u64(a.is_v6() ? 6 : 4);
    u64(a.bits().hi);
    u64(a.bits().lo);
  }
  void bytes(const std::vector<std::uint8_t>& data) {
    u64(data.size());
    for (std::uint8_t b : data) byte(b);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x00000100000001B3ULL;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct ShardOutcome {
  std::optional<ExperimentResults> results;
  std::string spill_path;  // non-empty: results live on disk, not in memory
  ShardTiming timing;
  std::exception_ptr error;
};

ShardOutcome run_one_shard(
    const std::shared_ptr<const cd::ditl::CampaignPlan>& plan,
    const ExperimentConfig& config, std::size_t shard) {
  ShardOutcome out;
  out.timing.shard = shard;
  try {
    const auto gen_start = Clock::now();
    // Only this shard's slice of the world, built from the target stream:
    // O(shard) memory, and its target list is exactly the shard's targets.
    auto world = cd::ditl::generate_world(plan, shard, config.num_shards);
    out.timing.gen_ms = ms_since(gen_start);
    out.timing.targets = world->targets.size();

    const auto run_start = Clock::now();
    Experiment experiment(*world, config);
    out.results = experiment.run();
    out.timing.run_ms = ms_since(run_start);

    if (!config.spill_dir.empty()) {
      const auto spill_start = Clock::now();
      out.spill_path = (std::filesystem::path(config.spill_dir) /
                        ("shard_" + std::to_string(shard) + ".cdsp"))
                           .string();
      write_results(*out.results, out.spill_path);
      out.results.reset();  // the whole point: free the shard's memory now
      out.timing.spill_ms = ms_since(spill_start);
    }
    out.timing.peak_rss_kb = cd::peak_rss_kb();
  } catch (...) {
    out.error = std::current_exception();
  }
  return out;
}

}  // namespace

double ShardedResults::aggregate_ms() const {
  double total = 0.0;
  for (const ShardTiming& t : shards) total += t.gen_ms + t.run_ms;
  return total;
}

ShardedResults run_sharded_experiment(const cd::ditl::WorldSpec& spec,
                                      const ExperimentConfig& config) {
  const auto plan_start = Clock::now();
  std::shared_ptr<const cd::ditl::CampaignPlan> plan =
      cd::ditl::build_campaign_plan(spec);
  const double plan_ms = ms_since(plan_start);
  ShardedResults out = run_sharded_experiment(std::move(plan), config);
  out.wall_ms += plan_ms;
  return out;
}

ShardedResults run_sharded_experiment(
    std::shared_ptr<const cd::ditl::CampaignPlan> plan,
    const ExperimentConfig& config) {
  const std::size_t n_shards = std::max<std::size_t>(1, config.num_shards);
  const std::size_t n_threads =
      std::min(std::max<std::size_t>(1, config.num_threads), n_shards);

  ExperimentConfig shard_config = config;
  shard_config.num_shards = n_shards;
  if (!shard_config.spill_dir.empty()) {
    std::filesystem::create_directories(shard_config.spill_dir);
  }

  const auto wall_start = Clock::now();
  // One immutable plan for the whole run: every shard world reads it (worker
  // threads included) and none copies it.
  std::vector<ShardOutcome> outcomes(n_shards);

  if (n_threads == 1) {
    for (std::size_t shard = 0; shard < n_shards; ++shard) {
      outcomes[shard] = run_one_shard(plan, shard_config, shard);
    }
  } else {
    // Work pickup by atomic counter: threads claim the next unstarted
    // shard, so an uneven shard mix still balances across the pool.
    std::atomic<std::size_t> next_shard{0};
    auto worker = [&] {
      for (;;) {
        const std::size_t shard =
            next_shard.fetch_add(1, std::memory_order_relaxed);
        if (shard >= n_shards) return;
        outcomes[shard] = run_one_shard(plan, shard_config, shard);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (std::size_t i = 0; i < n_threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  ShardedResults sharded;
  // Incremental fold in shard order: spilled shards are read back one at a
  // time, so the merge phase holds the accumulator plus one part — never all
  // parts — and produces bytes identical to the all-in-memory merge_results
  // (merge_into appends raw; one canonicalize pass at the end).
  const auto merge_start = Clock::now();
  bool first = true;
  for (ShardOutcome& out : outcomes) {
    if (out.error) std::rethrow_exception(out.error);
    ExperimentResults part;
    if (!out.spill_path.empty()) {
      part = read_results(out.spill_path);
      std::remove(out.spill_path.c_str());
    } else {
      CD_ENSURE(out.results.has_value(),
                "run_sharded_experiment: missing shard");
      part = std::move(*out.results);
    }
    merge_into(sharded.merged, std::move(part), first);
    first = false;
    sharded.shards.push_back(out.timing);
  }
  cd::pcap::canonicalize(sharded.merged.capture);
  sharded.merge_ms = ms_since(merge_start);
  sharded.peak_rss_kb = cd::peak_rss_kb();
  sharded.wall_ms = ms_since(wall_start);
  return sharded;
}

std::uint64_t results_digest(const ExperimentResults& results) {
  Digest d;

  std::vector<const cd::scanner::TargetRecord*> records;
  records.reserve(results.records.size());
  for (const auto& [addr, record] : results.records) records.push_back(&record);
  std::sort(records.begin(), records.end(),
            [](const auto* a, const auto* b) { return a->target < b->target; });

  d.u64(records.size());
  for (const cd::scanner::TargetRecord* r : records) {
    d.addr(r->target);
    d.u64(r->asn);
    d.u64(r->sources_hit.size());
    for (const auto& src : r->sources_hit) d.addr(src);
    d.u64(r->categories_hit.size());
    for (const auto cat : r->categories_hit) {
      d.u64(static_cast<std::uint64_t>(cat));
    }
    // first_hit_time deliberately omitted (see header); the source that
    // produced the first hit is stable because probes are seconds apart.
    d.addr(r->first_hit_source);
    d.u64(static_cast<std::uint64_t>(r->direct_seen));
    d.u64(static_cast<std::uint64_t>(r->forwarded_seen));
    d.u64(r->forwarders_seen.size());
    for (const auto& fwd : r->forwarders_seen) d.addr(fwd);
    d.u64(static_cast<std::uint64_t>(r->client_in_target_as));
    d.u64(r->ports_v4.size());
    for (const std::uint16_t p : r->ports_v4) d.u64(p);
    d.u64(r->ports_v6.size());
    for (const std::uint16_t p : r->ports_v6) d.u64(p);
    d.u64(static_cast<std::uint64_t>(r->open_hit));
    d.u64(static_cast<std::uint64_t>(r->tcp_hit));
    d.u64(static_cast<std::uint64_t>(r->tcp_syn.has_value()));
    if (r->tcp_syn) d.bytes(r->tcp_syn->serialize());
  }

  // collector_stats deliberately omitted (see header): auth-side traffic
  // volume, not per-target evidence.
  d.u64(results.qmin_asns.size());
  for (const auto asn : results.qmin_asns) d.u64(asn);
  d.u64(results.lifetime_excluded_targets.size());
  for (const auto& addr : results.lifetime_excluded_targets) d.addr(addr);

  // network_stats deliberately omitted (see header).
  d.u64(results.queries_sent);
  d.u64(results.followup_batteries);
  d.u64(results.analyst_replays);

  // Cross-check plane: the per-/24 verdict evidence. hits / direct_seen /
  // forwarded_seen are deliberately omitted — retransmit duplicate counts
  // depend on shared-cache warmness, and a forward-failover resolver's
  // direct-vs-forwarded choice is drawn from its own sequential stream, so
  // both legitimately vary with shard layout (like first_hit_time above).
  d.u64(results.crosscheck_records.size());
  for (const auto& [base, rec] : results.crosscheck_records) {
    d.addr(base);
    d.u64(rec.asn);
    d.u64(rec.responding.size());
    for (const auto& addr : rec.responding) d.addr(addr);
  }
  d.u64(results.crosscheck_probes);

  // Attacker plane: per-victim realized outcomes. The block is strictly
  // conditional on evidence being present so attacker-off digests are
  // bit-identical to digests computed before the plane existed.
  if (!results.poison_records.empty() || results.poison_triggers != 0 ||
      results.poison_forged != 0) {
    d.u64(results.poison_records.size());
    for (const auto& [addr, rec] : results.poison_records) {
      d.addr(rec.victim);
      d.u64(rec.asn);
      d.u64(static_cast<std::uint64_t>(rec.software));
      d.u64(static_cast<std::uint64_t>(rec.os));
      d.u64(static_cast<std::uint64_t>(rec.open));
      d.u64(static_cast<std::uint64_t>(rec.reachable));
      d.u64(static_cast<std::uint64_t>(rec.success));
      d.u64(rec.rounds);
      d.u64(rec.success_round);
      d.u64(rec.poisoned_ttl);
      d.u64(rec.triggers);
      d.u64(rec.forged);
      d.u64(rec.observed_ports.size());
      for (const std::uint16_t p : rec.observed_ports) d.u64(p);
    }
    d.u64(results.poison_triggers);
    d.u64(results.poison_forged);
  }
  return d.value();
}

std::uint64_t capture_digest(const cd::pcap::Capture& capture) {
  Digest d;
  d.bytes(capture.to_pcap());
  d.bytes(capture.to_index());
  return d.value();
}

}  // namespace cd::core
