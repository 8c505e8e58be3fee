#include "ditl/target_stream.h"

#include <algorithm>

#include "scanner/prober.h"
#include "util/rng.h"

namespace cd::ditl {

using cd::net::IpAddr;
using cd::net::IpFamily;
using cd::net::Prefix;
using cd::net::U128;
using cd::resolver::DnsSoftware;
using cd::resolver::QminMode;
using cd::sim::OsId;

namespace {

/// Band draw (Table 4 population structure): which port-behaviour band a
/// resolver belongs to, with the band's OS/software/fingerprint mix.
struct BandChoice {
  int band = 5;
  DnsSoftware software = DnsSoftware::kBind952To988;
  OsId os = OsId::kEmbeddedCpe;
  bool fp_visible = false;
  double open_p = 0.066;
  std::optional<std::uint16_t> fixed_port;  // zero band: the pinned port
};

BandChoice choose_band(const WorldSpec& spec, cd::Rng& rng) {
  const BandMix& mix = spec.band_mix;
  const double weights[6] = {mix.zero,    mix.low,   mix.windows,
                             mix.freebsd, mix.linux, mix.full};
  double total = 0;
  for (const double wgt : weights) total += wgt;
  double roll = rng.real() * total;
  int band = 5;
  for (int i = 0; i < 6; ++i) {
    if (roll < weights[i]) {
      band = i;
      break;
    }
    roll -= weights[i];
  }

  BandChoice c;
  c.band = band;
  switch (band) {
    case 0: {  // zero source-port randomization
      const double fp_roll = rng.real();
      if (fp_roll < spec.fp_visible_zero_baidu) {
        c.os = OsId::kBaiduLike;
        c.fp_visible = true;
      } else if (fp_roll <
                 spec.fp_visible_zero_baidu + spec.fp_visible_zero_windows) {
        c.os = OsId::kWin2003;
        c.fp_visible = true;
      } else {
        c.os = OsId::kEmbeddedCpe;
      }
      // Fixed-port mix per §5.2.1: 34% port 53 (BIND 8 defaults and
      // `query-source port 53` configs), 12% port 32768, 3.8% 32769, the
      // rest an arbitrary unprivileged port chosen at startup.
      const double port_roll = rng.real();
      if (port_roll < 0.34) {
        c.software = DnsSoftware::kBind8;
        c.fixed_port = 53;
      } else if (port_roll < 0.46) {
        c.software = DnsSoftware::kFixedMisconfig;
        c.fixed_port = 32768;
      } else if (port_roll < 0.498) {
        c.software = DnsSoftware::kFixedMisconfig;
        c.fixed_port = 32769;
      } else {
        c.software = c.os == OsId::kWin2003 ? DnsSoftware::kWindowsDns2003
                                            : DnsSoftware::kFixedMisconfig;
        c.fixed_port = static_cast<std::uint16_t>(1024 + rng.uniform(64512));
      }
      c.open_p = spec.zero_open_fraction;
      break;
    }
    case 1: {  // ineffective allocation, range 1-200
      c.software = rng.chance(0.65) ? DnsSoftware::kLegacySequential
                                    : DnsSoftware::kLegacySmallPool;
      if (rng.chance(spec.fp_visible_low_windows)) {
        c.os = OsId::kWin2008;
        c.fp_visible = true;
      } else {
        c.os = OsId::kEmbeddedCpe;
      }
      c.open_p = spec.low_open_fraction;
      break;
    }
    case 2: {  // Windows DNS 2008 R2+
      static constexpr OsId kWinModern[] = {OsId::kWin2008R2, OsId::kWin2012,
                                            OsId::kWin2012R2, OsId::kWin2016,
                                            OsId::kWin2019};
      c.os = kWinModern[rng.uniform(5)];
      c.software = DnsSoftware::kWindowsDns2008R2;
      c.fp_visible = rng.chance(spec.fp_visible_windows_band);
      c.open_p = spec.windows_open_fraction;
      break;
    }
    case 3: {  // FreeBSD OS-default pool
      static constexpr OsId kBsd[] = {OsId::kFreeBsd113, OsId::kFreeBsd120,
                                      OsId::kFreeBsd121};
      c.os = kBsd[rng.uniform(3)];
      c.software = DnsSoftware::kBind9913To9160;
      c.fp_visible = rng.chance(spec.fp_visible_freebsd_band);
      c.open_p = 0.10;
      break;
    }
    case 4: {  // Linux OS-default pool
      static constexpr OsId kLinuxModern[] = {
          OsId::kUbuntu1604, OsId::kUbuntu1804, OsId::kUbuntu1904};
      static constexpr OsId kLinuxOld[] = {
          OsId::kUbuntu1004, OsId::kUbuntu1204, OsId::kUbuntu1404};
      // A tail of old kernels keeps the loopback-v6 acceptance path alive.
      c.os = rng.chance(0.10) ? kLinuxOld[rng.uniform(3)]
                              : kLinuxModern[rng.uniform(3)];
      c.software = DnsSoftware::kBind9913To9160;
      c.fp_visible = rng.chance(spec.fp_visible_linux_band);
      c.open_p = 0.027;
      break;
    }
    default: {  // full unprivileged range
      static constexpr DnsSoftware kFull[] = {DnsSoftware::kBind952To988,
                                              DnsSoftware::kUnbound190,
                                              DnsSoftware::kPowerDns420};
      c.software = kFull[rng.uniform(3)];
      const double fp_roll = rng.real();
      if (fp_roll < spec.fp_visible_full_windows) {
        // BIND on Windows Server: full unprivileged range (§5.3.2's noted
        // discrepancy) with a Windows fingerprint.
        c.os = OsId::kWin2016;
        c.fp_visible = true;
        c.software = DnsSoftware::kBind952To988;
      } else if (fp_roll <
                 spec.fp_visible_full_windows + spec.fp_visible_full_linux) {
        static constexpr OsId kLin[] = {OsId::kUbuntu1604, OsId::kUbuntu1804,
                                        OsId::kUbuntu1904};
        c.os = kLin[rng.uniform(3)];
        c.fp_visible = true;
      } else {
        const double os_roll = rng.real();
        if (os_roll < 0.5) {
          c.os = OsId::kEmbeddedCpe;
        } else if (os_roll < 0.8) {
          c.os = OsId::kUbuntu1804;
        } else {
          c.os = OsId::kFreeBsd121;
        }
        c.fp_visible = false;
      }
      c.open_p = 0.066;
      break;
    }
  }
  return c;
}

/// Synthesizes the resolver's 18-months-earlier port behaviour (§5.2.2) into
/// the spec's inline arrays. Draws are always consumed, whether or not any
/// history survives, so the substream stays aligned.
void generate_passive_history(const WorldSpec& spec, const BandChoice& band,
                              cd::Rng& rng, std::uint8_t& n_out,
                              std::array<std::uint16_t, 12>& ports_out) {
  n_out = 0;
  if (band.band == 0) {
    // Today's fixed-port population: already-fixed / regressed /
    // insufficient, per the paper's 51/25/24 split.
    const double roll = rng.real();
    if (roll < spec.passive_already_fixed) {
      ports_out.fill(band.fixed_port.value_or(53));
      n_out = 12;
    } else if (roll < spec.passive_already_fixed + spec.passive_regressed) {
      for (int i = 0; i < 12; ++i) {
        ports_out[static_cast<std::size_t>(i)] =
            static_cast<std::uint16_t>(1024 + rng.uniform(64512));
      }
      n_out = 12;
    } else {
      // Insufficient: a few scattered queries that satisfy neither of the
      // paper's comparability conditions (or nothing at all).
      if (rng.chance(0.5)) {
        for (int i = 0; i < 3; ++i) {
          ports_out[static_cast<std::size_t>(i)] =
              static_cast<std::uint16_t>(1024 + rng.uniform(64512));
        }
        n_out = 3;
      }
    }
  } else {
    // Everyone else: ordinary randomized history when captured at all.
    if (rng.chance(0.76)) {
      for (int i = 0; i < 12; ++i) {
        ports_out[static_cast<std::size_t>(i)] =
            static_cast<std::uint16_t>(1024 + rng.uniform(64512));
      }
      n_out = 12;
    }
  }
}

}  // namespace

TargetStream::TargetStream(const CampaignPlan& plan, std::size_t shard,
                           std::size_t num_shards)
    : plan_(plan),
      shard_(shard),
      num_shards_(std::max<std::size_t>(1, num_shards)) {}

const AsBatch* TargetStream::next() {
  while (pos_ < plan_.size()) {
    const std::size_t id = pos_++;
    if (cd::scanner::shard_of(plan_.asn_of(id), num_shards_) != shard_) {
      continue;
    }
    generate_as(id);
    return &batch_;
  }
  return nullptr;
}

void TargetStream::generate_as(std::size_t id) {
  resolvers_.clear();
  stale_.clear();
  used_.clear();
  infra_seen_ = false;

  batch_.id = id;
  batch_.asn = plan_.asn_of(id);
  batch_.resolvers = &resolvers_;
  batch_.stale = &stale_;
  batch_.captured_live = 0;

  cd::Rng rng = cd::Rng::substream(plan_.resolver_seed, id);
  const int fleet = plan_.n_resolvers[id];
  for (int j = 0; j < fleet; ++j) generate_resolver(id, j, rng);

  for (const ResolverSpec& spec : resolvers_) {
    for (std::size_t a = 0; a < spec.n_addrs; ++a) {
      if (spec.in_capture[a]) ++batch_.captured_live;
    }
  }
  generate_stale(id);
}

void TargetStream::generate_resolver(std::size_t id, int index, cd::Rng& rng) {
  const WorldSpec& spec = plan_.spec;
  const BandChoice band = choose_band(spec, rng);

  // Addressing: spread resolvers across the AS's /24s; dual-stack where the
  // AS has v6 space. Addresses must be unique within the AS (prefix spaces
  // are disjoint across ASes): a collision would silently shadow an
  // existing host in the network's delivery map.
  ResolverSpec r;
  r.index = index;
  const std::size_t np = plan_.v4_count(id);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Prefix& p = plan_.v4_prefix(id, rng.uniform(np));
    const std::uint64_t n24 = p.count_subprefixes(24);
    const std::uint64_t sub = rng.uniform(n24);
    const std::uint64_t host = 10 + rng.uniform(200);
    const IpAddr addr = p.base().offset_by((sub << 8) + host);
    if (used_.count(addr)) continue;
    r.addrs[r.n_addrs++] = addr;
    break;
  }
  if (r.n_addrs == 0) return;  // AS address space exhausted; skip
  if ((plan_.flags[id] & kAsHasV6) && rng.chance(spec.dual_stack_fraction)) {
    const Prefix& p6 = plan_.v6[id];
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::uint64_t sub64 = rng.uniform(4096);
      const U128 base =
          p6.base().bits() + (U128{sub64} << 64) + U128{5 + rng.uniform(90)};
      const IpAddr addr = IpAddr::from_bits(IpFamily::kV6, base);
      if (used_.count(addr)) continue;
      r.addrs[r.n_addrs++] = addr;
      r.has_v6 = true;
      break;
    }
  }
  for (std::size_t a = 0; a < r.n_addrs; ++a) used_.insert(r.addrs[a]);

  r.band = band.band;
  r.os = band.os;
  r.software = band.software;
  r.fp_visible = band.fp_visible;
  r.fixed_port = band.fixed_port;
  r.host_seed = rng.u64();

  // Behaviour.
  r.is_infra = index == 0;  // each AS's resolver 0: the upstream others may
                            // forward to
  if (!r.is_infra) {
    const double fwd_p = r.has_v6 ? spec.forward_fraction_v6 * 1.3
                                  : spec.forward_fraction_v4 * 1.45;
    r.forwards = rng.chance(std::min(0.95, fwd_p));
  }

  const double open_p = r.forwards ? 0.82 : band.open_p;
  r.open = rng.chance(open_p);
  if (!r.open) {
    // ACL scope. The third branch (AS-wide plus a peer prefix,
    // managed-service style) produces the same ACL as AS-wide here.
    const double scope = rng.real();
    if (r.is_infra || scope < spec.acl_as_wide) {
      r.acl_kind = AclKind::kAsWide;
    } else if (scope < spec.acl_as_wide + spec.acl_subnet_only) {
      r.acl_kind = AclKind::kSubnetOnly;
    } else {
      r.acl_kind = AclKind::kAsWide;
    }
    r.acl_private = rng.chance(spec.acl_allows_private);
  }

  if (r.forwards) {
    r.forward_public =
        rng.chance(spec.forward_to_public_dns) || !infra_seen_;
    if (r.forward_public) {
      // Public service of a family we can reach (a v4 entry; v6-capable
      // resolvers also get the fixed v6 service address on materialization).
      r.public_idx = static_cast<std::uint8_t>(
          rng.uniform(2 * kNumPublicDns) & ~1ULL);
    }
    // A few forwarders run forward-first failover and sometimes iterate
    // themselves (the paper's small "both direct and forwarded" class).
    r.forward_failover = rng.chance(0.05);
  }

  if (rng.chance(spec.qmin_fraction)) {
    r.qmin = true;
    r.qmin_mode = rng.chance(spec.qmin_strict_share) ? QminMode::kStrict
                                                     : QminMode::kRelaxed;
  }

  r.alloc_seed = rng.u64();
  r.res_seed = rng.u64();

  if (r.is_infra) infra_seen_ = true;

  // Capture membership, hitlist and passive history per address.
  for (std::size_t a = 0; a < r.n_addrs; ++a) {
    const IpAddr& addr = r.addrs[a];
    const double miss = addr.is_v6()
                            ? 1.0 - (1.0 - spec.capture_miss) *
                                        (1.0 - spec.capture_miss_v6)
                            : spec.capture_miss;
    r.in_capture[a] = !rng.chance(miss);
    if (addr.is_v6() && rng.chance(spec.hitlist_coverage)) {
      r.in_hitlist[a] = true;
    }
    generate_passive_history(spec, band, rng, r.n_old_ports[a],
                             r.old_ports[a]);
  }

  resolvers_.push_back(r);
}

void TargetStream::generate_stale(std::size_t id) {
  const WorldSpec& spec = plan_.spec;
  cd::Rng rng = cd::Rng::substream(plan_.noise_seed, id);

  // Per-AS stale budget: the global stale_per_live ratio applied to this
  // AS's captured live addresses, with the fractional remainder resolved by
  // a Bernoulli draw so the expectation matches exactly.
  const double expected =
      static_cast<double>(batch_.captured_live) * spec.stale_per_live;
  std::size_t n_stale = static_cast<std::size_t>(expected);
  if (rng.chance(expected - static_cast<double>(n_stale))) ++n_stale;

  const bool has_v6 = (plan_.flags[id] & kAsHasV6) != 0;
  const std::size_t np = plan_.v4_count(id);
  std::size_t produced = 0;
  for (std::size_t attempt = 0; produced < n_stale && attempt < n_stale * 4;
       ++attempt) {
    // A once-active resolver address inside this AS, now dark.
    if (rng.chance(1.0 - spec.stale_v6_share)) {
      const Prefix& p = plan_.v4_prefix(id, rng.uniform(np));
      const IpAddr addr = p.base().offset_by(
          (rng.uniform(p.count_subprefixes(24)) << 8) + 10 +
          rng.uniform(200));
      if (used_.count(addr)) continue;  // accidentally live (or dup); skip
      used_.insert(addr);
      stale_.push_back(addr);
      ++produced;
    } else {
      if (!has_v6) continue;  // AS without v6; redraw
      const Prefix& p6 = plan_.v6[id];
      const IpAddr addr = IpAddr::from_bits(
          IpFamily::kV6, p6.base().bits() + (U128{rng.uniform(4096)} << 64) +
                             U128{5 + rng.uniform(90)});
      if (used_.count(addr)) continue;
      used_.insert(addr);
      stale_.push_back(addr);
      ++produced;
    }
  }
}

StreamCounts count_stream(const CampaignPlan& plan, std::size_t shard,
                          std::size_t num_shards) {
  StreamCounts counts;
  TargetStream stream(plan, shard, num_shards);
  while (const AsBatch* batch = stream.next()) {
    ++counts.ases;
    counts.resolvers += batch->resolvers->size();
    for (const ResolverSpec& r : *batch->resolvers) {
      counts.live_addrs += r.n_addrs;
    }
    counts.captured_live += batch->captured_live;
    counts.stale += batch->stale->size();
  }
  counts.targets = counts.captured_live + counts.stale;
  return counts;
}

cd::analysis::PassiveCapture passive_capture(const CampaignPlan& plan) {
  cd::analysis::PassiveCapture capture;
  TargetStream stream(plan);
  while (const AsBatch* batch = stream.next()) {
    for (const ResolverSpec& r : *batch->resolvers) {
      for (std::size_t a = 0; a < r.n_addrs; ++a) {
        if (r.n_old_ports[a] == 0) continue;
        capture.emplace(r.addrs[a], std::vector<std::uint16_t>(
                                        r.old_ports[a].begin(),
                                        r.old_ports[a].begin() +
                                            r.n_old_ports[a]));
      }
    }
  }
  return capture;
}

}  // namespace cd::ditl
