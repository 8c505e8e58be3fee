// The generated world: a simulated Internet, or one shard's slice of it,
// ready for scanning. AS-level truth (DSAV, IDS, countries, passive port
// history) is not copied into the world: it stays in the shared
// CampaignPlan, and analysis reads it there (ditl::geo_db,
// ditl::passive_capture, CampaignPlan::flags).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "dns/zone.h"
#include "ditl/plan.h"
#include "resolver/auth.h"
#include "resolver/recursive.h"
#include "scanner/prober.h"
#include "sim/event_loop.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace cd::ditl {

/// Ground truth for one deployed resolver (for validating that the blind
/// analysis pipeline recovers what was planted).
struct ResolverTruth {
  cd::sim::OsId os = cd::sim::OsId::kEmbeddedCpe;
  cd::resolver::DnsSoftware software =
      cd::resolver::DnsSoftware::kBind9913To9160;
  bool open = false;
  bool forwards = false;
  bool qmin = false;
  int band = 0;  // index into the BandMix ordering (0=zero .. 5=full)

  friend bool operator==(const ResolverTruth&, const ResolverTruth&) = default;
};

/// Flat SoA ground-truth table, sorted by address: one packed row per
/// resolver address instead of an unordered_map node per heavyweight entry
/// (a paper-scale world has ~1M rows). The lookup/iteration surface is
/// map-compatible — find()/count()/size()/range-for yielding
/// (address, truth) pairs — so analysis and test code reads it like the map
/// it replaced.
class ResolverTruthTable {
 public:
  struct value_type {
    cd::net::IpAddr first;
    ResolverTruth second;
  };

  class const_iterator {
   public:
    const_iterator() = default;
    const_iterator(const ResolverTruthTable* table, std::size_t idx)
        : table_(table), idx_(idx) {}

    const value_type& operator*() const {
      cache_.first = table_->addrs_[idx_];
      cache_.second = table_->truth_at(idx_);
      return cache_;
    }
    const value_type* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++idx_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.idx_ == b.idx_;
    }

   private:
    const ResolverTruthTable* table_ = nullptr;
    std::size_t idx_ = 0;
    mutable value_type cache_;
  };

  void insert(const cd::net::IpAddr& addr, const ResolverTruth& truth) {
    addrs_.push_back(addr);
    os_.push_back(static_cast<std::uint8_t>(truth.os));
    software_.push_back(static_cast<std::uint8_t>(truth.software));
    band_.push_back(static_cast<std::uint8_t>(truth.band));
    bits_.push_back(static_cast<std::uint8_t>((truth.open ? 1 : 0) |
                                              (truth.forwards ? 2 : 0) |
                                              (truth.qmin ? 4 : 0)));
  }

  /// Sorts the rows by address (binary-search lookups require it). The
  /// world builder calls this once; addresses are unique by construction.
  void freeze();

  [[nodiscard]] std::size_t size() const { return addrs_.size(); }
  [[nodiscard]] bool empty() const { return addrs_.empty(); }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, addrs_.size()}; }
  [[nodiscard]] const_iterator find(const cd::net::IpAddr& addr) const;
  [[nodiscard]] std::size_t count(const cd::net::IpAddr& addr) const {
    return find(addr) == end() ? 0 : 1;
  }

  [[nodiscard]] ResolverTruth truth_at(std::size_t idx) const {
    ResolverTruth t;
    t.os = static_cast<cd::sim::OsId>(os_[idx]);
    t.software = static_cast<cd::resolver::DnsSoftware>(software_[idx]);
    t.band = band_[idx];
    t.open = (bits_[idx] & 1) != 0;
    t.forwards = (bits_[idx] & 2) != 0;
    t.qmin = (bits_[idx] & 4) != 0;
    return t;
  }

 private:
  std::vector<cd::net::IpAddr> addrs_;
  std::vector<std::uint8_t> os_;
  std::vector<std::uint8_t> software_;
  std::vector<std::uint8_t> band_;
  std::vector<std::uint8_t> bits_;  // open | forwards<<1 | qmin<<2
};

/// Owns every simulation object. Member order is destruction-order
/// sensitive: hosts detach from the network in their destructors, so the
/// network (and loop/topology) must be declared first.
struct World {
  /// The campaign plan this world was generated from, shared by every shard
  /// world of a run. Its spec is the world's spec; its per-AS columns are
  /// the AS-level ground truth.
  std::shared_ptr<const CampaignPlan> plan;
  /// Shard scope this world was generated for: (0, 1) is the whole world;
  /// anything else materializes only the edge ASes of that shard (the
  /// topology always covers every AS). The only record of the scope:
  /// core::Experiment reads it for planes that enumerate from the campaign
  /// plan rather than the target list.
  std::size_t shard_index = 0;
  std::size_t num_shards = 1;

  cd::sim::EventLoop loop;
  cd::sim::Topology topology;
  std::unique_ptr<cd::sim::Network> network;

  // Stable storage for hosts and fingerprint-hidden OS profiles (deque: no
  // moves). Hidden profiles are interned per OS id, not copied per resolver.
  std::deque<cd::sim::OsProfile> os_profiles;
  std::deque<cd::sim::Host> hosts;

  std::vector<std::shared_ptr<cd::dns::Zone>> zones;
  std::vector<std::unique_ptr<cd::resolver::AuthServer>> auths;
  std::vector<std::unique_ptr<cd::resolver::RecursiveResolver>> resolvers;

  cd::resolver::RootHints hints;

  cd::sim::Host* vantage = nullptr;
  /// Authoritative servers receiving experiment queries (base + subzones);
  /// the collector attaches to each.
  std::vector<cd::resolver::AuthServer*> experiment_auths;

  cd::dns::DnsName base_zone;
  std::string keyword;

  /// The probe target list: the slice's DITL-style capture (resolver
  /// sources plus stale noise) after the paper's pre-scan exclusions
  /// (filter_ditl), each target annotated with its routed origin AS. A
  /// shard world's list covers only its own ASes.
  std::vector<cd::scanner::TargetInfo> targets;
  std::vector<cd::net::IpAddr> hitlist_v6;
  std::vector<cd::net::IpAddr> public_dns_addrs;

  /// Ground truth for validation: one row per materialized resolver address.
  ResolverTruthTable truth_resolvers;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
};

/// Builds one shard's world from `plan` and its target stream: shared
/// infrastructure (roots, public DNS, vantage) plus only the edge ASes with
/// shard_of(asn, num_shards) == shard materialize hosts, resolvers, truth
/// rows and targets. The topology always covers every AS (routing needs the
/// full map; it is O(n_asns), not O(targets)). The default (shard=0,
/// num_shards=1) is the whole world; a caller holding only a spec passes
/// build_campaign_plan(spec). Deterministic: equal plans produce identical
/// worlds, and a shard's campaign behaves exactly as it would against the
/// whole world — no packet ever addresses an out-of-shard edge host — which
/// tests/test_campaign_stream.cpp pins.
[[nodiscard]] std::unique_ptr<World> generate_world(
    std::shared_ptr<const CampaignPlan> plan, std::size_t shard = 0,
    std::size_t num_shards = 1);

}  // namespace cd::ditl
