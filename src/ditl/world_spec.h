// World-generation parameters: every marginal the synthetic Internet is
// calibrated on, documented against the paper's reported aggregates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cd::ditl {

/// Relative weights of the resolver-population "bands" that produce Table 4's
/// source-port range distribution. Derived from the paper's Table 4 counts
/// (fractions of the 297,986 classified resolvers).
struct BandMix {
  double zero = 0.0128;      // fixed single port (3,810)
  double low = 0.0013;       // sequential / tiny pools, range 1-200 (244+144)
  double windows = 0.046;    // Windows DNS 2,500-port pool (13,692)
  double freebsd = 0.038;    // OS-default pool on FreeBSD (11,462)
  double linux = 0.300;      // OS-default pool on Linux (89,495)
  double full = 0.600;       // full unprivileged range (178,773)
};

struct CountryWeight {
  std::string country;
  double as_share = 0.0;        // share of ASes homed in this country
  double dsav_rate = 0.5;       // country-level DSAV deployment rate
  double resolver_density = 1;  // relative resolvers per AS
};

struct WorldSpec {
  std::uint64_t seed = 42;

  // --- scale ---------------------------------------------------------------
  int n_asns = 400;
  /// Mean of the (geometric) resolvers-per-AS distribution.
  double resolvers_per_as_mean = 5.0;
  /// Fraction of ASes that also announce IPv6 space.
  double v6_as_fraction = 0.35;
  /// Fraction of v6-capable ASes' resolvers that are dual-stack.
  double dual_stack_fraction = 0.75;

  // --- DITL capture noise (paper §3.1/§3.6.2) --------------------------------
  // The capture holds only routed, non-special sources: the paper drops
  // special-purpose and unrouted ones before it scans, so the generator
  // never plants them (filter_ditl's exclusions are unit-tested directly).
  /// Stale capture entries (once-resolvers, now dark) per live target.
  double stale_per_live = 8.5;
  /// Live resolvers missing from the capture (DITL is not comprehensive:
  /// not every root participates, caches absorb root queries).
  double capture_miss = 0.08;
  /// Additional capture miss for v6 addresses (dual-stack resolvers tend to
  /// reach the roots over v4, so their v6 addresses surface less often).
  double capture_miss_v6 = 0.45;
  /// Share of stale capture entries drawn from v6 space.
  double stale_v6_share = 0.22;

  // --- border policy marginals -----------------------------------------------
  /// Fraction of ASes deploying DSAV (paper: ~half of ASes lacked it).
  double dsav_fraction = 0.48;
  /// BCP 38 egress filtering deployment.
  double osav_fraction = 0.30;
  /// Inbound martian filtering, conditional on DSAV status (deployments
  /// correlate: networks that filter internal spoof usually drop martians).
  double martian_fraction_with_dsav = 0.90;
  double martian_fraction_without_dsav = 0.90;
  /// Last-hop uRPF subnet filtering at the border (drops same-/24 spoofs;
  /// the reason the paper's other-prefix category finds targets same-prefix
  /// cannot — 33% of reachable v4 addresses were other-prefix-exclusive).
  double urpf_subnet_fraction = 0.35;
  /// ASes running an IDS whose analyst replays logged probes (§3.6.3).
  double ids_fraction = 0.02;

  // --- resolver behaviour marginals -------------------------------------------
  /// Open resolvers (paper §5.1: 40% of reached resolvers were open).
  double open_fraction = 0.35;
  /// Forwarding to an upstream instead of iterating (paper §5.4: 47% of v4,
  /// 16% of v6 targets forwarded).
  double forward_fraction_v4 = 0.45;
  double forward_fraction_v6 = 0.15;
  /// Of forwarders, the share pointing at big public DNS services.
  double forward_to_public_dns = 0.30;
  /// QNAME-minimizing resolvers (paper §3.6.4: 0.16% of targeted IPs).
  double qmin_fraction = 0.0016;
  /// Of those, the share whose implementation halts on NXDOMAIN (strict
  /// RFC 8020 behaviour; the paper could not attribute 55% of qmin IPs).
  double qmin_strict_share = 0.55;

  // --- closed-resolver ACL scopes ----------------------------------------------
  /// ACL covers all of the AS's announced space.
  double acl_as_wide = 0.70;
  /// ACL covers only the resolver's own /24 (v4) or /64 (v6); remainder use
  /// an AS-wide ACL plus additional odd prefixes.
  double acl_subnet_only = 0.25;
  /// Probability a closed resolver's ACL additionally admits RFC 1918 / ULA
  /// clients (home/CPE style configurations).
  double acl_allows_private = 0.06;

  BandMix band_mix;

  /// Windows-band resolvers that are open (paper: 89% — the striking
  /// Windows DNS "default open" correlation).
  double windows_open_fraction = 0.89;
  /// Zero-band open share (paper: 1,566 of 3,810 = 41%).
  double zero_open_fraction = 0.41;
  /// Low-band open share (paper: 201 of 244 = 82%).
  double low_open_fraction = 0.82;

  // --- fingerprint visibility (what p0f can see; ~90% unknown overall) -------
  double fp_visible_zero_baidu = 0.20;     // §5.3.1: BaiduSpider share
  double fp_visible_zero_windows = 0.12;   // §5.3.1: Windows share
  double fp_visible_low_windows = 0.66;    // §5.3.1
  double fp_visible_windows_band = 0.89;   // Table 4: 12,118 / 13,692
  double fp_visible_linux_band = 0.008;    // Table 4: 677 / 89,495
  double fp_visible_freebsd_band = 0.03;
  double fp_visible_full_windows = 0.014;  // BIND-on-Windows, full range
  double fp_visible_full_linux = 0.036;

  // --- passive capture history (§5.2.2) -----------------------------------------
  /// Of today's fixed-port resolvers: share already fixed in the old capture
  /// (paper: 51%), share that regressed from randomized ports (paper: 25%);
  /// the remainder lack comparable passive data (paper: 24%).
  double passive_already_fixed = 0.51;
  double passive_regressed = 0.25;

  // --- IPv6 hitlist -------------------------------------------------------------
  /// Share of v6 resolver /64s appearing in the synthetic hitlist.
  double hitlist_coverage = 0.5;

  // --- experiment zone -----------------------------------------------------------
  std::string base_zone = "dns-lab.org";
  std::string keyword = "x1";
  /// Serve wildcard answers instead of NXDOMAIN (the paper's proposed fix
  /// for the QNAME-minimization blind spot; ablation knob).
  bool wildcard_answers = false;

  std::vector<CountryWeight> countries = default_countries();

  /// The ten countries of the paper's Table 1, with AS shares and DSAV rates
  /// shaped to its "Reachable" column (US low at 28%, Ukraine high at 63%),
  /// plus two small high-exposure countries for Table 2's flavour.
  [[nodiscard]] static std::vector<CountryWeight> default_countries();
};

/// A small world for unit/integration tests (seconds to generate and run).
[[nodiscard]] WorldSpec small_world_spec();

/// The bench default: large enough for stable shapes, small enough to run
/// all benches in minutes.
[[nodiscard]] WorldSpec bench_world_spec();

}  // namespace cd::ditl
