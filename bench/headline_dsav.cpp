// Reproduces the paper's §4 headline numbers and the §5.1/§5.4/§3.6.x
// auxiliary statistics:
//   - 4.6% of IPv4 / 6.2% of IPv6 targets reachable; 49% / 50% of ASes
//   - §5.1: 60% closed / 40% open; closed resolver reached in 88% of
//     no-DSAV ASes
//   - §5.4: 53% v4 / 85% v6 direct vs. forwarded
//   - §3.6.4 QNAME-minimization gaps; §3.6.3 lifetime exclusions
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace cd;
  std::printf("== headline_dsav: paper §4, §5.1, §5.4, §3.6 ==\n");
  auto run = bench::run_standard_experiment(bench::parse_run_options(argc, argv));
  const auto& results = run.results;
  const auto& targets = run.world->targets;

  const auto summary = analysis::summarize_dsav(results.records, targets);

  TextTable t({"Metric", "Measured", "Paper"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kRight);
  auto row = [&](const std::string& name, const std::string& measured,
                 const std::string& paper) {
    t.add_row({name, measured, paper});
  };

  row("IPv4 targets queried", with_commas(summary.v4.targets_total),
      "11,204,889");
  row("IPv4 targets reachable",
      bench::count_pct(summary.v4.targets_reachable, summary.v4.targets_total),
      "519,447 (4.6%)");
  row("IPv6 targets queried", with_commas(summary.v6.targets_total), "784,777");
  row("IPv6 targets reachable",
      bench::count_pct(summary.v6.targets_reachable, summary.v6.targets_total),
      "49,008 (6.2%)");
  row("IPv4 ASes", with_commas(summary.v4.asns_total), "53,922");
  row("IPv4 ASes reachable",
      bench::count_pct(summary.v4.asns_reachable, summary.v4.asns_total),
      "26,206 (49%)");
  row("IPv6 ASes", with_commas(summary.v6.asns_total), "7,904");
  row("IPv6 ASes reachable",
      bench::count_pct(summary.v6.asns_reachable, summary.v6.asns_total),
      "3,952 (50%)");
  t.add_rule();

  const auto oc = analysis::open_closed_stats(results.records);
  row("Resolvers classified open",
      bench::count_pct(oc.open, oc.open + oc.closed), "228,208 (40%)");
  row("Resolvers classified closed",
      bench::count_pct(oc.closed, oc.open + oc.closed), "340,247 (60%)");
  row("No-DSAV ASes w/ closed resolver reached",
      bench::count_pct(oc.asns_with_closed, oc.reachable_asns), "88%");
  t.add_rule();

  const auto fwd = analysis::forwarding_stats(results.records);
  row("IPv4 direct", bench::count_pct(fwd.v4.direct, fwd.v4.resolved),
      "269,509 (53%)");
  row("IPv4 forwarded", bench::count_pct(fwd.v4.forwarded, fwd.v4.resolved),
      "240,491 (47%)");
  row("IPv4 both", with_commas(fwd.v4.both), "3,178");
  row("IPv6 direct", bench::count_pct(fwd.v6.direct, fwd.v6.resolved),
      "40,631 (85%)");
  row("IPv6 forwarded", bench::count_pct(fwd.v6.forwarded, fwd.v6.resolved),
      "7,566 (16%)");
  row("IPv6 both", with_commas(fwd.v6.both), "219");
  t.add_rule();

  const auto mb = analysis::middlebox_stats(results.records,
                                            run.world->public_dns_addrs);
  row("IPv4 ASes w/ in-AS client (anti-middlebox)",
      bench::count_pct(mb.v4.with_in_as_client, mb.v4.reachable_asns, 0),
      "86%");
  row("IPv4 remainder via public DNS",
      with_commas(mb.v4.remainder_via_public_dns), "89% of remainder");
  row("IPv4 ASes unexplained",
      bench::count_pct(mb.v4.unexplained, mb.v4.reachable_asns, 0), "2%");
  row("IPv6 ASes w/ in-AS client",
      bench::count_pct(mb.v6.with_in_as_client, mb.v6.reachable_asns, 0),
      "95%");
  t.add_rule();

  row("QNAME-minimized partial queries",
      with_commas(results.collector_stats.qmin_partial), "(see §3.6.4)");
  row("ASNs seen via QNAME-minimized queries",
      with_commas(results.qmin_asns.size()), "2,081");
  row("Queries excluded by 10s lifetime threshold",
      with_commas(results.collector_stats.excluded_lifetime),
      "3,514 addresses affected");
  row("Analyst replays injected", with_commas(results.analyst_replays), "n/a");

  std::printf("%s\n", t.to_string().c_str());

  // Ground-truth validation: measured reachable-AS set vs. planted DSAV.
  std::uint64_t truth_lacking = 0;
  for (const auto& [asn, dsav] : run.world->truth_dsav) {
    if (!dsav) ++truth_lacking;
  }
  std::printf("ground truth: %s of %s edge ASes lack DSAV\n",
              with_commas(truth_lacking).c_str(),
              with_commas(run.world->truth_dsav.size()).c_str());
  return 0;
}
