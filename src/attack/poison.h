// Off-path DNS cache poisoning: the attacker plane.
//
// A SpoofInjector races legitimate authoritative answers at victim recursive
// resolvers, Kaminsky-style. Per victim and per round it (1) injects a
// trigger query for a fresh name under the anycast-delegated poison subzone
// — spoofed from a same-/24 neighbour for closed resolvers (so DSAV/uRPF
// deployment genuinely gates reachability), sent from the attacker's own
// address for open ones — then (2) fires a budgeted burst of forged
// responses guessing the resolver's (ephemeral port, TXID) pair from what
// earlier rounds' queries revealed at the anycast sites. Acceptance is
// decided entirely by the resolver's real validation path (source address +
// port + TXID + question match, resolver/recursive.cpp); a win plants a
// forged A record in the victim's dns::Cache with the attacker's TTL.
//
// Determinism: every per-victim decision draws from
// Rng::substream(seed, victim address), every packet's transit time is a
// pure function of the packet, and victims' chains share no state — so the
// realized outcome set is bit-identical across shard/stream/spill layouts
// (tests/test_attack_poisoning.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dns/name.h"
#include "net/ip.h"
#include "resolver/auth.h"
#include "resolver/software.h"
#include "scanner/qname.h"
#include "sim/network.h"
#include "sim/os_model.h"
#include "util/rng.h"

namespace cd::resolver {
class RecursiveResolver;
}

namespace cd::attack {

/// TTL carried by forged answers. Deliberately above dns::CacheConfig's
/// default max_ttl so a successful injection exercises the clamp.
inline constexpr std::uint32_t kForgedTtl = 604800;

struct PoisonConfig {
  /// Raced rounds per victim (round 0 is a warm round that only caches the
  /// delegation chain; rounds 1..rounds carry bursts).
  int rounds = 8;
  /// Forged responses per raced round — the attacker's per-window packet
  /// budget.
  std::uint32_t burst = 32;
  /// Number of anycast authoritative sites serving the poison subzone.
  int sites = 3;
};

/// One enumerated attack target (a non-forwarding recursive resolver).
struct VictimSpec {
  cd::net::IpAddr addr;
  cd::sim::Asn asn = 0;
  cd::resolver::DnsSoftware software =
      cd::resolver::DnsSoftware::kBind9913To9160;
  cd::sim::OsId os = cd::sim::OsId::kEmbeddedCpe;
  bool open = false;
};

/// Realized outcome for one victim.
struct PoisonRecord {
  cd::net::IpAddr victim;
  cd::sim::Asn asn = 0;
  cd::resolver::DnsSoftware software =
      cd::resolver::DnsSoftware::kBind9913To9160;
  cd::sim::OsId os = cd::sim::OsId::kEmbeddedCpe;
  bool open = false;
  /// At least one trigger traversed the borders and induced an upstream
  /// query we observed — the attack surface the paper's spoofing story
  /// gates: DSAV/uRPF ASes drop the spoofed trigger at the edge.
  bool reachable = false;
  bool success = false;
  std::uint32_t rounds = 0;         // raced rounds launched
  std::uint32_t success_round = 0;  // first round whose forgery was accepted
  /// Remaining TTL of the poisoned RRset at the deterministic post-campaign
  /// check time (clamped by the victim's cache from kForgedTtl).
  std::uint32_t poisoned_ttl = 0;
  std::uint64_t triggers = 0;  // trigger queries injected
  std::uint64_t forged = 0;    // forged responses fired
  /// Scouted ephemeral ports in observation order (the attacker's — and the
  /// Beta-fit estimator's — raw material).
  std::vector<std::uint16_t> observed_ports;
};

/// Keyed by victim address; per-shard maps are disjoint (victims partition
/// by AS) and merge by insertion.
using PoisonRecords = std::map<cd::net::IpAddr, PoisonRecord>;

/// The off-path attacker. Construct once per experiment shard, observe the
/// anycast sites' queries via observe_auth (AuthServer::add_observer), feed
/// victims with add_victim before the event loop drains, then finalize()
/// against the victims' caches.
class SpoofInjector {
 public:
  /// `attacker_asn` is the AS the attacker physically injects from (no
  /// egress filtering), `service_addr` the anycast service address forged
  /// responses claim as their source, `poisoned_addr` the address forged
  /// answers resolve to.
  SpoofInjector(cd::sim::Network& network, cd::sim::Asn attacker_asn,
                cd::net::IpAddr attacker_addr, cd::net::IpAddr service_addr,
                cd::net::IpAddr poisoned_addr, cd::scanner::QnameCodec codec,
                PoisonConfig config, std::uint64_t seed);

  SpoofInjector(const SpoofInjector&) = delete;
  SpoofInjector& operator=(const SpoofInjector&) = delete;

  /// Schedules the victim's whole trigger/burst chain on the event loop.
  /// Call before the loop drains.
  void add_victim(const VictimSpec& spec);

  /// Scouting: feed every anycast site's queries through this (attach with
  /// AuthServer::add_observer). Stands in for an attacker observing queries
  /// for its own zone arrive at its own authoritative infrastructure — the
  /// (port, TXID) sequence is exactly what such an attacker learns. Entries
  /// whose client is not the victim itself (e.g. an analyst replay through a
  /// public resolver) are ignored: their timing depends on shared caches.
  void observe_auth(const cd::resolver::AuthLogEntry& entry);

  /// After the event loop drains: inspect each victim's cache for accepted
  /// forgeries (at a deterministic check time independent of loop end) and
  /// build the outcome records. `resolvers` is the shard's resolver list:
  /// a victim's cache is that of the resolver whose host holds the victim's
  /// address, and a victim no resolver holds is recorded without success.
  void finalize(
      const std::vector<std::unique_ptr<cd::resolver::RecursiveResolver>>&
          resolvers);

  [[nodiscard]] const PoisonRecords& records() const { return records_; }
  [[nodiscard]] std::uint64_t triggers_sent() const { return triggers_; }
  [[nodiscard]] std::uint64_t forged_sent() const { return forged_; }

  /// The apex of the anycast-delegated subzone attacks resolve under.
  [[nodiscard]] cd::dns::DnsName zone_apex() const {
    return codec_.zone_apex(cd::scanner::QueryMode::kPoison);
  }

 private:
  struct VictimState {
    VictimSpec spec;
    cd::Rng rng;
    /// One query name per round (index == round; round 0 warms the
    /// delegation chain).
    std::vector<cd::dns::DnsName> names;
    /// When each round's trigger was injected (-1 = not yet).
    std::vector<cd::sim::SimTime> trigger_send;
    /// Trigger-send-to-site-arrival delay of the most recent round whose
    /// final (fully-qualified) query we scouted; times the next burst.
    cd::sim::SimTime last_final_delta = -1;
    std::vector<std::uint16_t> ports;  // scouted, arrival order
    std::vector<std::uint16_t> txids;
    PoisonRecord rec;
  };

  /// What the scouted history predicts: an explicit candidate set (constant,
  /// sequential window, or small pool) or a uniform draw over the observed
  /// range.
  struct GuessModel {
    std::vector<std::uint16_t> exact;
    /// The values walk in small positive steps; exact holds the next window
    /// from `last`.
    bool sequential = false;
    std::uint16_t last = 0;
    std::uint16_t lo = 0;
    std::uint16_t hi = 0xFFFF;
    [[nodiscard]] bool is_exact() const { return !exact.empty(); }
    [[nodiscard]] std::uint64_t size() const {
      return is_exact() ? exact.size()
                        : static_cast<std::uint64_t>(hi - lo) + 1;
    }
    [[nodiscard]] std::uint16_t draw(cd::Rng& rng) const;
  };
  [[nodiscard]] static GuessModel fit_guess_model(
      const std::vector<std::uint16_t>& obs, std::uint32_t follow_window);

  void send_trigger(VictimState& state, int round);
  void send_burst(VictimState& state, int round);
  [[nodiscard]] static cd::net::IpAddr neighbor_of(const cd::net::IpAddr& v);

  cd::sim::Network& network_;
  cd::sim::Asn attacker_asn_;
  cd::net::IpAddr attacker_addr_;
  cd::net::IpAddr service_addr_;
  cd::net::IpAddr poisoned_addr_;
  cd::scanner::QnameCodec codec_;
  PoisonConfig config_;
  std::uint64_t seed_;

  std::map<cd::net::IpAddr, VictimState> victims_;
  PoisonRecords records_;
  std::uint64_t triggers_ = 0;
  std::uint64_t forged_ = 0;
};

}  // namespace cd::attack
