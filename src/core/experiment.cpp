#include "core/experiment.h"

#include <type_traits>

#include "sim/os_model.h"
#include "util/error.h"

namespace cd::core {

using cd::scanner::Collector;
using cd::scanner::FollowupEngine;
using cd::scanner::Prober;
using cd::scanner::QnameCodec;
using cd::scanner::SourceSelector;

Experiment::Experiment(cd::ditl::World& world, ExperimentConfig config)
    : world_(world), config_(config) {
  CD_ENSURE(world_.vantage != nullptr, "Experiment: world has no vantage");
  CD_ENSURE(!world_.experiment_auths.empty(),
            "Experiment: world has no experiment auth servers");

  const cd::ditl::CampaignPlan& plan = *world_.plan;
  cd::Rng rng(plan.spec.seed ^ 0xE9C0DE5EEDULL);

  QnameCodec codec(world_.base_zone, world_.keyword);
  selector_ = std::make_unique<SourceSelector>(
      world_.topology, world_.hitlist_v6, cd::scanner::SourceSelectConfig{},
      rng.split("select"));
  prober_ = std::make_unique<Prober>(*world_.vantage, codec, *selector_,
                                     config_.probe, rng.split("probe"));
  collector_ = std::make_unique<Collector>(codec, &world_.topology);
  for (cd::resolver::AuthServer* auth : world_.experiment_auths) {
    collector_->attach(*auth);
  }
  if (config_.crosscheck) {
    crosscheck_prober_ = std::make_unique<cd::scanner::CrossCheckProber>(
        *world_.vantage, codec, *config_.crosscheck, rng.split("crosscheck"));
    crosscheck_collector_ =
        std::make_unique<cd::scanner::CrossCheckCollector>(codec);
    for (cd::resolver::AuthServer* auth : world_.experiment_auths) {
      crosscheck_collector_->attach(*auth);
    }
  }
  if (config_.followups) {
    followup_ = std::make_unique<FollowupEngine>(*prober_, *collector_,
                                                 config_.followup);
  }
  if (config_.analyst && !world_.public_dns_addrs.empty()) {
    std::set<cd::sim::Asn> ids_asns;
    for (std::size_t id = 0; id < plan.size(); ++id) {
      if (plan.flags[id] & cd::ditl::kAsIds) ids_asns.insert(plan.asn_of(id));
    }
    analyst_ = std::make_unique<cd::scanner::AnalystSimulator>(
        *world_.network, std::move(ids_asns), world_.public_dns_addrs.front(),
        *config_.analyst, rng.split("analyst"));
  }
  if (config_.poison) build_attack_plane();
}

namespace {

/// Attack-plane infrastructure lives in 11/8 (deliberately never announced
/// by generated worlds, so nothing here perturbs unicast routing or target
/// filtering) under ASNs far above both the edge range and the reserved
/// infra block.
constexpr cd::sim::Asn kPoisonSiteAsnBase = 4'200'000'000u;
constexpr cd::sim::Asn kPoisonAttackerAsn = 4'200'001'000u;

/// Safety valve for the event loop: a shard that executes more events than
/// this is runaway (a timer rescheduling itself), not a large campaign.
constexpr std::uint64_t kMaxEventsPerShard = 400'000'000;

}  // namespace

void Experiment::build_attack_plane() {
  const cd::attack::PoisonConfig& pc = *config_.poison;
  CD_ENSURE(pc.sites >= 1, "Experiment: poison plane needs at least one site");
  const std::uint64_t seed = world_.plan->spec.seed;

  const auto service = cd::net::IpAddr::must_parse("11.3.0.53");
  const auto attacker = cd::net::IpAddr::must_parse("11.66.6.6");
  const auto poisoned = cd::net::IpAddr::must_parse("11.66.0.66");

  // Graft the poison subzone's delegation (with in-cut glue) onto the
  // existing base zone, and build the subzone every anycast site serves:
  // self NS plus a wildcard A so every per-round query name answers.
  QnameCodec codec(world_.base_zone, world_.keyword);
  const cd::dns::DnsName apex =
      codec.zone_apex(cd::scanner::QueryMode::kPoison);
  const cd::dns::DnsName ns_name = apex.prepend("ns");
  for (auto& zone : world_.zones) {
    if (zone->origin() == world_.base_zone) {
      zone->add(cd::dns::make_ns(apex, ns_name));
      zone->add(cd::dns::make_a(ns_name, service));
      break;
    }
  }
  cd::dns::SoaRdata soa;
  soa.mname = world_.base_zone.prepend("www");
  soa.rname = world_.base_zone.prepend("research");
  soa.serial = 2019110601;
  soa.minimum = 300;
  auto poison_zone = std::make_shared<cd::dns::Zone>(apex, soa);
  poison_zone->add(cd::dns::make_ns(apex, ns_name));
  poison_zone->add(cd::dns::make_a(ns_name, service));
  poison_zone->add(cd::dns::make_a(apex.prepend("*"), service));
  world_.zones.push_back(poison_zone);

  // The injector seed depends only on the world seed: every shard's
  // attacker plays the identical per-victim schedule.
  injector_ = std::make_unique<cd::attack::SpoofInjector>(
      *world_.network, kPoisonAttackerAsn, attacker, service, poisoned,
      codec, pc, seed ^ 0xA17AC4DEED5ULL);

  // Anycast sites: one service address, one host per site AS. None of the
  // attack ASes announce prefixes — the service is reachable only through
  // the anycast table, and the attacker needs no return path.
  const cd::sim::OsProfile& site_os =
      cd::sim::os_profile(cd::sim::OsId::kUbuntu1904);
  for (int i = 0; i < pc.sites; ++i) {
    const cd::sim::Asn asn = kPoisonSiteAsnBase + static_cast<cd::sim::Asn>(i);
    world_.topology.add_as(asn, cd::sim::FilterPolicy{});
    cd::sim::Host& host = attack_hosts_.emplace_back(
        *world_.network, asn, site_os, std::vector<cd::net::IpAddr>{service},
        cd::Rng::substream(seed ^ 0xA77AC5175ULL,
                           static_cast<std::uint64_t>(i)),
        "poison-site-" + std::to_string(i));
    world_.network->add_anycast_site(service, &host);
    auto auth = std::make_unique<cd::resolver::AuthServer>(
        host, cd::resolver::AuthConfig{});
    auth->add_zone(poison_zone);
    auth->add_observer([this](const cd::resolver::AuthLogEntry& entry) {
      injector_->observe_auth(entry);
    });
    attack_auths_.push_back(std::move(auth));
  }
  world_.topology.add_as(kPoisonAttackerAsn, cd::sim::FilterPolicy{});

  // Legacy profiles predate randomized transaction ids: swap in sequential
  // sources, seeded per address so the stream is a pure function of stable
  // identity (layout-invariant). Applies to every materialized resolver —
  // a shard world holds exactly its shard's fleet — so serial and sharded
  // runs agree on every resolver's wire behaviour.
  for (auto& res : world_.resolvers) {
    for (const cd::net::IpAddr& addr : res->host().addresses()) {
      const auto it = world_.truth_resolvers.find(addr);
      if (it == world_.truth_resolvers.end()) continue;
      if (cd::resolver::weak_txid(it->second.software)) {
        res->set_txid_source(
            std::make_unique<cd::resolver::SequentialTxidSource>(
                static_cast<std::uint16_t>(
                    cd::Rng::substream(seed ^ 0x5E97A1DULL,
                                       cd::net::IpAddrHash{}(addr))
                        .u64())));
      }
      break;
    }
  }
}

namespace {

/// The merge rule for each member type of ExperimentResults.
struct Merge {
  bool first = false;

  template <class T>
  void operator()(T& acc, T& part) const {
    if constexpr (requires { acc += part; }) {
      acc += part;  // u64 and the counter structs
    } else if constexpr (std::is_same_v<T, cd::pcap::Capture>) {
      cd::pcap::merge_into(acc, std::move(part), first);
    } else if constexpr (requires { typename T::mapped_type; }) {
      for (auto& [key, value] : part) {
        CD_ENSURE(acc.emplace(key, std::move(value)).second,
                  "merge_results: " + key.to_string() +
                      " present in two shards");
      }
    } else {
      acc.merge(part);  // sets: union
    }
  }
};

}  // namespace

void merge_into(ExperimentResults& acc, ExperimentResults part, bool first) {
  Merge merge{first};
  fields(merge, acc, part);
}

ExperimentResults merge_results(std::vector<ExperimentResults> parts) {
  ExperimentResults merged;
  bool first = true;
  for (ExperimentResults& part : parts) {
    merge_into(merged, std::move(part), first);
    first = false;
  }
  cd::pcap::canonicalize(merged.capture);
  return merged;
}

const ExperimentResults& Experiment::run() {
  if (results_) return *results_;

  // Transport policy must be set before any traffic is scheduled:
  // connections keep the mode they were dialed under.
  {
    cd::sim::TransportOptions transport;
    transport.persistent = config_.persistent_tcp;
    transport.max_pipeline = config_.max_pipeline;
    transport.dot = config_.dot_sessions;
    world_.network->set_transport(transport);
  }

  cd::pcap::Capture capture;
  std::optional<cd::sim::Network::TapId> capture_tap;
  if (config_.capture) {
    cd::sim::CaptureOptions options;
    options.include_drops = config_.capture->include_drops;
    if (config_.capture->probes_only) {
      options.origin = world_.vantage->asn();
    }
    capture_tap = world_.network->attach_capture(capture, std::move(options));
  }

  // The world's target list is exactly its shard's slice (the whole campaign
  // for shard 0 of 1), so every plane schedules it unfiltered.
  prober_->schedule_campaign(world_.targets);
  if (crosscheck_prober_) {
    // The cross-check plane enumerates its /24 universe from the campaign
    // plan over the world's shard scope, so a shard world schedules exactly
    // its slice of the serial campaign's prefixes.
    crosscheck_prober_->schedule_campaign(cd::ditl::prefix24_targets(
        *world_.plan, world_.shard_index, world_.num_shards));
  }
  if (injector_) {
    // Victims come from the same target list the prober uses: v4,
    // non-forwarding recursive resolvers. Per-victim schedules are pure
    // functions of (seed, address), so any layout attacks the same set the
    // same way.
    for (const cd::scanner::TargetInfo& t : world_.targets) {
      if (!t.addr.is_v4()) continue;
      const auto it = world_.truth_resolvers.find(t.addr);
      if (it == world_.truth_resolvers.end()) continue;
      const cd::ditl::ResolverTruth truth = it->second;
      if (truth.forwards) continue;
      injector_->add_victim(
          {t.addr, t.asn, truth.software, truth.os, truth.open});
    }
  }
  world_.loop.run(kMaxEventsPerShard);

  if (capture_tap) {
    world_.network->remove_tap(*capture_tap);
    // Canonical order, not delivery order: per-shard captures must merge to
    // the same bytes a serial capture canonicalizes to (see util/pcap.h).
    cd::pcap::canonicalize(capture);
  }

  ExperimentResults results;
  results.capture = std::move(capture);
  results.records = collector_->records();
  results.collector_stats = collector_->stats();
  results.qmin_asns = collector_->qmin_asns();
  results.lifetime_excluded_targets = collector_->lifetime_excluded_targets();
  results.network_stats = world_.network->stats();
  results.queries_sent = prober_->queries_sent();
  results.transport = world_.network->transport_counters();
  results.transport_replies = prober_->transport_replies();
  // Deterministic teardown: run() returned, so the loop is drained (it
  // throws at kMaxEventsPerShard instead of returning early), and every
  // connection on every host has completed, timed out, or been idle-closed
  // — a leaked entry means a stray timer or session index entry. No
  // delivery slot outlives its drain event either. Conservation: every
  // packet sent was either delivered or dropped for exactly one reason.
  CD_ENSURE(world_.network->open_tcp_connections() == 0,
            "Experiment: TCP connections leaked past the drained loop");
  CD_ENSURE(world_.network->pending_delivery_slots() == 0,
            "Experiment: delivery slots pending past the drained loop");
  const cd::sim::NetworkStats& net = results.network_stats;
  CD_ENSURE(net.sent == net.delivered + net.dropped(),
            "Experiment: packets sent != delivered + dropped at drain");
  results.followup_batteries = followup_ ? followup_->batteries_sent() : 0;
  results.analyst_replays = analyst_ ? analyst_->replays() : 0;
  if (crosscheck_collector_) {
    results.crosscheck_records = crosscheck_collector_->records();
    results.crosscheck_probes = crosscheck_prober_->probes_sent();
  }
  if (injector_) {
    injector_->finalize(world_.resolvers);
    results.poison_records = injector_->records();
    results.poison_triggers = injector_->triggers_sent();
    results.poison_forged = injector_->forged_sent();
  }
  results_ = std::move(results);
  return *results_;
}

}  // namespace cd::core
