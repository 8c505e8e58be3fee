#include "attack/poison.h"

#include <algorithm>
#include <set>
#include <utility>

#include "dns/cache.h"
#include "dns/message.h"
#include "net/packet.h"
#include "resolver/recursive.h"
#include "util/error.h"

namespace cd::attack {

using cd::dns::DnsMessage;
using cd::dns::DnsName;
using cd::dns::DnsRr;
using cd::dns::RrType;
using cd::net::IpAddr;
using cd::net::Packet;
using cd::sim::SimTime;

namespace {

/// How many upstream queries ahead of the last observation the guess window
/// extends. Each resolution step consumes one port and one txid, so the
/// window bounds how much unrelated resolver activity (probe-plane
/// resolutions, QNAME-minimization steps) the attacker tolerates between
/// scouting and racing.
constexpr std::uint16_t kFollowWindow = 16;

/// First trigger fires at kStartDelay plus a per-victim stagger drawn
/// uniformly from [0, kStartWindow).
constexpr SimTime kStartDelay = 200 * cd::sim::kMillisecond;
constexpr SimTime kStartWindow = 100 * cd::sim::kMillisecond;
/// Gap between a victim's rounds. Must exceed the slowest full resolution
/// (root -> org -> ns1 -> site is bounded by a handful of <=100ms RTTs), so
/// round r's scouting observation always lands before round r+1's burst is
/// computed.
constexpr SimTime kRoundSpacing = 800 * cd::sim::kMillisecond;
/// Burst launch time relative to the trigger: attacker->victim transit
/// applies equally to trigger and forgeries, so a small constant lead puts
/// every forgery inside (upstream query sent, legitimate answer back) — the
/// legitimate cross-AS round trip is >= 10ms while jitter stays under 0.5ms.
constexpr SimTime kBurstLead = 2 * cd::sim::kMillisecond;

}  // namespace

std::uint16_t SpoofInjector::GuessModel::draw(cd::Rng& rng) const {
  if (is_exact()) {
    return exact[static_cast<std::size_t>(rng.uniform(exact.size()))];
  }
  return static_cast<std::uint16_t>(
      lo + rng.uniform(static_cast<std::uint64_t>(hi - lo) + 1));
}

SpoofInjector::GuessModel SpoofInjector::fit_guess_model(
    const std::vector<std::uint16_t>& obs, std::uint32_t follow_window) {
  GuessModel m;
  if (obs.empty()) return m;  // full range: nothing learned

  // Constant: a fixed value (startup-selected port, pinned txid).
  if (std::all_of(obs.begin(), obs.end(),
                  [&](std::uint16_t v) { return v == obs.front(); })) {
    m.exact = {obs.front()};
    return m;
  }

  // Sequential: every consecutive delta is a small positive step (u16
  // arithmetic absorbs wraparound). Predict the next follow_window values.
  if (obs.size() >= 2) {
    bool sequential = true;
    for (std::size_t i = 1; i < obs.size(); ++i) {
      const auto d = static_cast<std::uint16_t>(obs[i] - obs[i - 1]);
      if (d == 0 || d > follow_window) {
        sequential = false;
        break;
      }
    }
    if (sequential) {
      m.sequential = true;
      m.last = obs.back();
      for (std::uint32_t k = 1; k <= follow_window; ++k) {
        m.exact.push_back(static_cast<std::uint16_t>(obs.back() + k));
      }
      return m;
    }
  }

  // Small pool: few distinct values recurring across enough draws.
  const std::set<std::uint16_t> distinct(obs.begin(), obs.end());
  if (obs.size() >= 3 && distinct.size() <= 8) {
    m.exact.assign(distinct.begin(), distinct.end());
    return m;
  }

  // Otherwise: uniform over the observed span (for strong randomizers this
  // approaches the allocator's true range as observations accumulate).
  m.lo = *std::min_element(obs.begin(), obs.end());
  m.hi = *std::max_element(obs.begin(), obs.end());
  return m;
}

SpoofInjector::SpoofInjector(cd::sim::Network& network,
                             cd::sim::Asn attacker_asn, IpAddr attacker_addr,
                             IpAddr service_addr, IpAddr poisoned_addr,
                             cd::scanner::QnameCodec codec, PoisonConfig config,
                             std::uint64_t seed)
    : network_(network),
      attacker_asn_(attacker_asn),
      attacker_addr_(attacker_addr),
      service_addr_(service_addr),
      poisoned_addr_(poisoned_addr),
      codec_(std::move(codec)),
      config_(config),
      seed_(seed) {
  CD_ENSURE(config_.rounds >= 1, "SpoofInjector: need at least one round");
  CD_ENSURE(config_.burst >= 1, "SpoofInjector: need a positive burst");
}

IpAddr SpoofInjector::neighbor_of(const IpAddr& v) {
  // A same-/24 (v4) or same-/64 (v6) neighbour: inside every closed
  // resolver's ACL and inside the uRPF-subnet drop zone — exactly the
  // spoofed source the paper's intrusion scenario uses.
  if (v.is_v4()) {
    std::uint32_t bits = (v.v4_bits() & ~0xFFu) | 7u;
    if (bits == v.v4_bits()) bits ^= 1u;
    return IpAddr::v4(bits);
  }
  std::uint64_t lo = (v.bits().lo & ~0xFFull) | 7ull;
  if (lo == v.bits().lo) lo ^= 1ull;
  return IpAddr::v6(v.bits().hi, lo);
}

void SpoofInjector::add_victim(const VictimSpec& spec) {
  if (victims_.count(spec.addr)) return;

  auto [it, inserted] = victims_.emplace(spec.addr, VictimState());
  VictimState& state = it->second;
  state.spec = spec;
  state.rng = cd::Rng::substream(seed_, cd::net::IpAddrHash{}(spec.addr));
  state.rec.victim = spec.addr;
  state.rec.asn = spec.asn;
  state.rec.software = spec.software;
  state.rec.os = spec.os;
  state.rec.open = spec.open;

  // One fresh name per round; the ts field carries the round index so a
  // scouted query attributes back to the trigger that induced it.
  state.names.reserve(static_cast<std::size_t>(config_.rounds) + 1);
  for (int r = 0; r <= config_.rounds; ++r) {
    state.names.push_back(codec_.encode({static_cast<SimTime>(r), spec.addr,
                                         spec.addr, spec.asn,
                                         cd::scanner::QueryMode::kPoison}));
  }
  state.trigger_send.assign(state.names.size(), -1);

  const SimTime start =
      kStartDelay + static_cast<SimTime>(state.rng.uniform(
                        static_cast<std::uint64_t>(kStartWindow)));
  auto& loop = network_.loop();
  for (int r = 0; r <= config_.rounds; ++r) {
    loop.schedule_in(start + static_cast<SimTime>(r) * kRoundSpacing,
                     [this, addr = spec.addr, r] {
                       auto vit = victims_.find(addr);
                       if (vit != victims_.end()) send_trigger(vit->second, r);
                     });
  }
}

void SpoofInjector::send_trigger(VictimState& state, int round) {
  auto& loop = network_.loop();
  const SimTime now = loop.now();
  state.trigger_send[static_cast<std::size_t>(round)] = now;

  const IpAddr& victim = state.spec.addr;
  // Open resolvers are triggered honestly from the attacker's own address;
  // closed ones need a spoofed in-ACL neighbour, which the victim AS's
  // DSAV/uRPF border (if deployed) drops — tying poisoning exposure to the
  // paper's spoofing story.
  const IpAddr src =
      state.spec.open ? attacker_addr_ : neighbor_of(victim);
  const auto sport = static_cast<std::uint16_t>(
      1024 + state.rng.uniform(60000));

  const auto txid = static_cast<std::uint16_t>(state.rng.u64());
  network_.send(
      cd::net::make_udp(
          src, sport, victim, 53,
          cd::dns::encode_query_pooled(
              txid, {}, state.names[static_cast<std::size_t>(round)],
              RrType::kA, /*rd=*/true)),
      attacker_asn_);
  ++triggers_;
  ++state.rec.triggers;

  // Round 0 is pure scouting (it also warms the victim's delegation chain);
  // later rounds race. The burst is timed so the forged packets reach the
  // victim just after its final upstream query for this round's name reaches
  // our site: last_final_delta is the trigger-to-site-arrival delay measured
  // on the previous round, and the attacker discounts its own transit using
  // the same AS-pair metric the network charges. Until a final query has
  // been scouted there is nothing to time against, so no burst fires.
  if (round == 0 || state.last_final_delta < 0) return;
  SimTime delay = state.last_final_delta -
                  cd::sim::Network::pair_base_latency(attacker_asn_,
                                                      state.spec.asn) +
                  kBurstLead;
  if (delay < 0) delay = 0;
  loop.schedule_in(delay, [this, addr = state.spec.addr, round] {
    auto vit = victims_.find(addr);
    if (vit != victims_.end()) send_burst(vit->second, round);
  });
}

void SpoofInjector::send_burst(VictimState& state, int round) {
  if (state.ports.empty() || state.txids.empty()) return;
  ++state.rec.rounds;

  const GuessModel pm = fit_guess_model(state.ports, kFollowWindow);
  const GuessModel tm = fit_guess_model(state.txids, kFollowWindow);

  std::vector<std::pair<std::uint16_t, std::uint16_t>> shots;
  if (pm.sequential && tm.sequential) {
    // Lockstep: every upstream query consumes exactly one port and one txid,
    // so sequential allocators advance in step — guess pairs, not the
    // cartesian product.
    for (std::uint16_t k = 1; k <= kFollowWindow; ++k) {
      shots.emplace_back(static_cast<std::uint16_t>(pm.last + k),
                         static_cast<std::uint16_t>(tm.last + k));
    }
  } else if (pm.is_exact() && tm.is_exact() &&
             pm.size() * tm.size() <= config_.burst) {
    for (std::uint16_t p : pm.exact) {
      for (std::uint16_t t : tm.exact) shots.emplace_back(p, t);
    }
  } else {
    shots.reserve(config_.burst);
    for (std::uint32_t i = 0; i < config_.burst; ++i) {
      shots.emplace_back(pm.draw(state.rng), tm.draw(state.rng));
    }
  }

  const DnsName& name = state.names[static_cast<std::size_t>(round)];
  for (const auto& [port, txid] : shots) {
    DnsMessage fake = cd::dns::make_response(
        cd::dns::make_query(txid, name, RrType::kA, /*rd=*/false),
        cd::dns::Rcode::kNoError);
    fake.header.aa = true;
    fake.answers.push_back(
        cd::dns::make_a(name, poisoned_addr_, kForgedTtl));
    network_.send(cd::net::make_udp(service_addr_, 53, state.spec.addr, port,
                                    cd::dns::encode_pooled(fake)),
                  attacker_asn_);
    ++forged_;
    ++state.rec.forged;
  }
}

void SpoofInjector::observe_auth(const cd::resolver::AuthLogEntry& entry) {
  if (entry.tcp) return;
  // Only the victim's own queries are scouting signal. Third parties reach
  // the poison zone too (an analyst replaying a logged trigger resolves it
  // through a public resolver), and their timing depends on shared caches —
  // folding them in would make the guess history layout-dependent.
  const auto it = victims_.find(entry.client);
  if (it == victims_.end()) return;
  const cd::scanner::QnameCodec::Decoded decoded = codec_.decode(entry.qname);
  if (decoded.mode != cd::scanner::QueryMode::kPoison) return;

  VictimState& state = it->second;
  state.rec.reachable = true;
  state.ports.push_back(entry.client_port);
  state.txids.push_back(entry.id);
  state.rec.observed_ports.push_back(entry.client_port);

  // The fully-qualified query is the round's final step; its arrival time
  // calibrates the next round's burst.
  if (decoded.full() && decoded.ts) {
    const auto r = static_cast<std::size_t>(*decoded.ts);
    if (r < state.trigger_send.size() && state.trigger_send[r] >= 0) {
      state.last_final_delta = entry.time - state.trigger_send[r];
    }
  }
}

void SpoofInjector::finalize(
    const std::vector<std::unique_ptr<cd::resolver::RecursiveResolver>>&
        resolvers) {
  // A fixed check time, derived only from the config: the event loop's final
  // timestamp depends on unrelated traffic (and thus on shard layout), so
  // TTL decay must not be measured against it.
  const SimTime check_time =
      kStartDelay + kStartWindow +
      static_cast<SimTime>(config_.rounds + 1) * kRoundSpacing +
      cd::sim::kSecond;

  for (const auto& res : resolvers) {
    for (const IpAddr& addr : res->host().addresses()) {
      const auto it = victims_.find(addr);
      if (it == victims_.end()) continue;
      VictimState& state = it->second;
      for (int r = 1; r <= config_.rounds && !state.rec.success; ++r) {
        const auto hit =
            res->cache().lookup(state.names[static_cast<std::size_t>(r)],
                                RrType::kA, check_time);
        if (hit.kind != cd::dns::CacheHitKind::kPositive) continue;
        for (const DnsRr& rr : hit.records) {
          const auto* a = std::get_if<cd::dns::ARdata>(&rr.rdata);
          if (a && a->addr == poisoned_addr_) {
            state.rec.success = true;
            state.rec.success_round = static_cast<std::uint32_t>(r);
            state.rec.poisoned_ttl = rr.ttl;
            break;
          }
        }
      }
    }
  }
  for (auto& [addr, state] : victims_) {
    records_.emplace(addr, std::move(state.rec));
  }
}

}  // namespace cd::attack
