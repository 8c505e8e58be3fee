// Reproduces every campaign-backed table and figure of the paper from one
// seed-42 campaign, in this order:
//   - headline: §4 (4.6% of IPv4 / 6.2% of IPv6 targets reachable; 49% /
//     50% of ASes), §5.1 (60% closed / 40% open), §5.4 (53% v4 / 85% v6
//     direct vs. forwarded), §3.6.4 QNAME-minimization gaps and §3.6.3
//     lifetime exclusions
//   - Table 1: DSAV for the 10 countries with the most ASes
//   - Table 2: the 10 countries with the highest reachable-IP percentage
//   - Table 3: spoofed-source category effectiveness, inclusive/exclusive
//   - Table 4: port-range bands x open/closed x p0f, plus the §5.2.1
//     zero-randomization and §5.2.3 ineffective-allocation drill-downs
//   - Figure 2: source-port range histogram, full scale and 0-3,000 zoom
//   - Figure 3b: wild histogram with Beta(9,2) overlays and p0f composition,
//     plus the wrap-adjustment ablation
//   - §5.2.2: passive-measurement cross-check of the zero-range resolvers
//
//   reproduce [--scale=X] [--seed=N] [--threads=N] [--shards=N] [--pcap=FILE]
//
// By default §5.2.2's "old capture" is the one synthesized from the campaign
// plan (ditl::passive_capture). With --pcap=FILE it is instead reconstructed
// from a wire capture on disk (e.g. one exported by bench/pcap_export): every
// UDP packet to port 53 contributes its source address and source port,
// exactly what a root operator's tap yields after filtering to DNS — the
// export-replay loop scripts/pcap_replay.sh exercises end to end. FILE is read before the
// campaign, so a bad path fails in milliseconds.
#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "analysis/beta.h"
#include "analysis/histogram.h"
#include "analysis/passive.h"
#include "analysis/port_range.h"
#include "bench_common.h"
#include "ditl/target_stream.h"
#include "net/packet.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/pcap.h"

using namespace cd;
using bench::Run;

namespace {

void headline(const Run& run) {
  std::printf("== headline_dsav: paper §4, §5.1, §5.4, §3.6 ==\n\n");
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
  const ditl::CampaignPlan& plan = *run.world->plan;
  std::uint64_t truth_lacking = 0;
  for (std::size_t id = 0; id < plan.size(); ++id) {
    if (!(plan.flags[id] & ditl::kAsDsav)) ++truth_lacking;
  }
  std::printf("ground truth: %s of %s edge ASes lack DSAV\n",
              with_commas(truth_lacking).c_str(),
              with_commas(plan.size()).c_str());
}

void table1_countries(const Run& run, const analysis::GeoDb& geo) {
  std::printf("== table1_countries: paper Table 1 ==\n\n");
  auto rows =
      analysis::dsav_by_country(run.results.records, run.world->targets, geo);
  std::sort(rows.begin(), rows.end(),
            [](const analysis::CountryRow& a, const analysis::CountryRow& b) {
              return a.ases_total > b.ases_total;
            });

  // The paper's Table 1 values for shape comparison.
  struct PaperRow {
    const char* country;
    const char* ases;
    const char* ips;
  };
  static const PaperRow kPaper[] = {
      {"United States", "28%", "3.2%"}, {"Brazil", "59%", "4.8%"},
      {"Russia", "59%", "11.6%"},       {"Germany", "36%", "3.8%"},
      {"United Kingdom", "33%", "4.5%"}, {"Poland", "52%", "6.0%"},
      {"Ukraine", "63%", "15.4%"},      {"India", "41%", "11.6%"},
      {"Australia", "32%", "4.6%"},     {"Canada", "36%", "2.8%"},
  };
  auto paper_for = [&](const std::string& c) -> const PaperRow* {
    for (const PaperRow& p : kPaper) {
      if (c == p.country) return &p;
    }
    return nullptr;
  };

  TextTable t({"Country", "ASes total", "ASes reachable", "IP targets",
               "IPs reachable", "paper (AS%, IP%)"});
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, Align::kRight);

  CsvWriter csv("table1_countries.csv");
  csv.write_row({"country", "ases_total", "ases_reachable", "targets_total",
                 "targets_reachable"});

  std::size_t shown = 0;
  for (const analysis::CountryRow& row : rows) {
    if (row.country == "Other") continue;
    if (shown++ >= 10) break;
    const PaperRow* paper = paper_for(row.country);
    t.add_row({row.country, with_commas(row.ases_total),
               bench::count_pct(row.ases_reachable, row.ases_total, 0),
               with_commas(row.targets_total),
               bench::count_pct(row.targets_reachable, row.targets_total),
               paper ? (std::string(paper->ases) + ", " + paper->ips)
                     : std::string("-")});
    csv.write_row({row.country, std::to_string(row.ases_total),
                   std::to_string(row.ases_reachable),
                   std::to_string(row.targets_total),
                   std::to_string(row.targets_reachable)});
  }
  std::printf("%s\n(top-10 by AS count; CSV: table1_countries.csv)\n",
              t.to_string().c_str());
}

void table2_reachable_pct(const Run& run, const analysis::GeoDb& geo) {
  std::printf("== table2_reachable_pct: paper Table 2 ==\n\n");
  auto rows =
      analysis::dsav_by_country(run.results.records, run.world->targets, geo);
  // Rank by reachable-IP percentage, requiring a minimal population so a
  // single lucky resolver cannot top the list.
  std::erase_if(rows, [](const analysis::CountryRow& r) {
    return r.targets_total < 10 || r.country == "Other";
  });
  std::sort(rows.begin(), rows.end(),
            [](const analysis::CountryRow& a, const analysis::CountryRow& b) {
              const double pa = static_cast<double>(a.targets_reachable) /
                                static_cast<double>(a.targets_total);
              const double pb = static_cast<double>(b.targets_reachable) /
                                static_cast<double>(b.targets_total);
              return pa > pb;
            });

  TextTable t({"Country", "ASes total", "ASes reachable", "IP targets",
               "IPs reachable"});
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, Align::kRight);

  CsvWriter csv("table2_reachable_pct.csv");
  csv.write_row({"country", "ases_total", "ases_reachable", "targets_total",
                 "targets_reachable"});

  std::size_t shown = 0;
  for (const analysis::CountryRow& row : rows) {
    if (shown++ >= 10) break;
    t.add_row({row.country, with_commas(row.ases_total),
               bench::count_pct(row.ases_reachable, row.ases_total, 0),
               with_commas(row.targets_total),
               bench::count_pct(row.targets_reachable, row.targets_total, 0)});
    csv.write_row({row.country, std::to_string(row.ases_total),
                   std::to_string(row.ases_reachable),
                   std::to_string(row.targets_total),
                   std::to_string(row.targets_reachable)});
  }
  std::printf(
      "%s\n(paper's top rows: Algeria 73%%, Morocco 53%%, Eswatini 44%% of "
      "IPs reachable —\n small, dense, lightly-filtered countries lead; CSV: "
      "table2_reachable_pct.csv)\n",
      t.to_string().c_str());
}

void table3_categories(const Run& run) {
  std::printf("== table3_categories: paper Table 3 ==\n\n");
  const auto table = analysis::build_category_table(run.results.records,
                                                    run.world->targets);

  // Paper values: {category} -> {v4 incl addr%, v6 incl addr%, v4 excl
  // addr%, v6 excl addr%} of reachable targets.
  struct PaperRow {
    const char* incl_v4;
    const char* incl_v6;
    const char* excl_v4;
    const char* excl_v6;
  };
  static const PaperRow kPaper[scanner::kSourceCategoryCount] = {
      {"78%", "45%", "33%", "4.9%"},    // other prefix
      {"63%", "84%", "17%", "8.1%"},    // same prefix
      {"3.4%", "4.3%", "0.5%", "0.5%"}, // private
      {"17%", "70%", "2.6%", "9.9%"},   // dst-as-src
      {"0.0%", "0.2%", "0.0%", "0.0%"}, // loopback
  };

  TextTable t({"Source category", "v4 addrs (incl)", "v4 ASNs (incl)",
               "v6 addrs (incl)", "v6 ASNs (incl)", "v4 addrs (excl)",
               "v6 addrs (excl)", "paper incl v4/v6"});
  for (std::size_t c = 1; c < 7; ++c) t.set_align(c, Align::kRight);

  const std::uint64_t reach4 = table.reachable[0].addrs;
  const std::uint64_t reach6 = table.reachable[1].addrs;
  const std::uint64_t reach_asn4 = table.reachable[0].asns;
  const std::uint64_t reach_asn6 = table.reachable[1].asns;

  t.add_row({"All queried", with_commas(table.queried[0].addrs),
             with_commas(table.queried[0].asns),
             with_commas(table.queried[1].addrs),
             with_commas(table.queried[1].asns), "-", "-", "-"});
  t.add_row({"All reachable", bench::count_pct(reach4, table.queried[0].addrs),
             bench::count_pct(reach_asn4, table.queried[0].asns, 0),
             bench::count_pct(reach6, table.queried[1].addrs),
             bench::count_pct(reach_asn6, table.queried[1].asns, 0), "-", "-",
             "4.6% / 6.2% addrs; 49% / 50% ASNs"});
  t.add_rule();

  CsvWriter csv("table3_categories.csv");
  csv.write_row({"category", "incl_v4_addrs", "incl_v4_asns", "incl_v6_addrs",
                 "incl_v6_asns", "excl_v4_addrs", "excl_v4_asns",
                 "excl_v6_addrs", "excl_v6_asns"});

  for (int c = 0; c < scanner::kSourceCategoryCount; ++c) {
    const auto cat = static_cast<scanner::SourceCategory>(c);
    t.add_row({scanner::source_category_name(cat),
               bench::count_pct(table.inclusive[c][0].addrs, reach4, 0),
               bench::count_pct(table.inclusive[c][0].asns, reach_asn4, 0),
               bench::count_pct(table.inclusive[c][1].addrs, reach6, 0),
               bench::count_pct(table.inclusive[c][1].asns, reach_asn6, 0),
               bench::count_pct(table.exclusive[c][0].addrs, reach4),
               bench::count_pct(table.exclusive[c][1].addrs, reach6),
               std::string(kPaper[c].incl_v4) + " / " + kPaper[c].incl_v6});
    csv.write_row({scanner::source_category_name(cat),
                   std::to_string(table.inclusive[c][0].addrs),
                   std::to_string(table.inclusive[c][0].asns),
                   std::to_string(table.inclusive[c][1].addrs),
                   std::to_string(table.inclusive[c][1].asns),
                   std::to_string(table.exclusive[c][0].addrs),
                   std::to_string(table.exclusive[c][0].asns),
                   std::to_string(table.exclusive[c][1].addrs),
                   std::to_string(table.exclusive[c][1].asns)});
  }
  std::printf("%s\n(percentages of reachable targets, as in the paper; "
              "CSV: table3_categories.csv)\n",
              t.to_string().c_str());
}

void table4_port_ranges(const Run& run) {
  std::printf("== table4_port_ranges: paper Table 4, §5.2.1, §5.2.3 ==\n\n");
  const auto& records = run.results.records;
  const auto& p0f = analysis::P0fDatabase::standard();

  const auto table = analysis::build_table4(records, p0f);

  // Paper Table 4 totals per band, for the shape column.
  static const char* kPaperTotals[] = {"3,810",  "244",    "144",
                                       "13,692", "366",    "11,462",
                                       "89,495", "178,773"};

  TextTable t({"Source port range (OS)", "Total", "Open", "Closed", "p0f Win",
               "p0f Lin", "paper total"});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, Align::kRight);

  CsvWriter csv("table4_port_ranges.csv");
  csv.write_row({"band", "total", "open", "closed", "p0f_windows",
                 "p0f_linux"});

  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const analysis::Table4Row& row = table.rows[i];
    std::string label = row.band.label;
    if (!row.band.os.empty()) label += " (" + row.band.os + ")";
    t.add_row({label, with_commas(row.total), with_commas(row.open),
               with_commas(row.closed), with_commas(row.p0f_windows),
               with_commas(row.p0f_linux), kPaperTotals[i]});
    csv.write_row({row.band.label, std::to_string(row.total),
                   std::to_string(row.open), std::to_string(row.closed),
                   std::to_string(row.p0f_windows),
                   std::to_string(row.p0f_linux)});
  }
  std::printf("%s\nclassified targets (>=%zu direct port samples): %s\n\n",
              t.to_string().c_str(), analysis::kMinPortSamples,
              with_commas(table.classified_targets).c_str());

  // §5.2.1: zero source-port randomization.
  const auto zero = analysis::zero_range_stats(records);
  TextTable z({"Zero-range metric", "Measured", "Paper"});
  z.set_align(1, Align::kRight);
  z.set_align(2, Align::kRight);
  z.add_row({"Resolvers with zero port range", with_commas(zero.total),
             "3,810"});
  z.add_row({"  open / closed",
             with_commas(zero.open) + " / " + with_commas(zero.closed),
             "1,566 / 2,244 (59% closed)"});
  z.add_row({"ASes affected", with_commas(zero.asns), "1,802 (6%)"});
  z.add_row({"  of which with a closed resolver",
             bench::count_pct(zero.asns_with_closed, zero.asns, 0), "95%"});
  std::uint64_t port53 = 0, port32768 = 0, port32769 = 0;
  for (const auto& [port, count] : zero.port_counts) {
    if (port == 53) port53 = count;
    if (port == 32768) port32768 = count;
    if (port == 32769) port32769 = count;
  }
  z.add_row({"  fixed port 53", bench::count_pct(port53, zero.total, 0),
             "1,308 (34%)"});
  z.add_row({"  fixed port 32768", bench::count_pct(port32768, zero.total, 0),
             "12%"});
  z.add_row({"  fixed port 32769", bench::count_pct(port32769, zero.total, 0),
             "3.8%"});
  std::printf("%s\n", z.to_string().c_str());

  // §5.2.3: ineffective allocation (range 1-200).
  const auto low = analysis::low_range_stats(records);
  TextTable l({"Range 1-200 metric", "Measured", "Paper"});
  l.set_align(1, Align::kRight);
  l.set_align(2, Align::kRight);
  l.add_row({"Resolvers", with_commas(low.total), "244"});
  l.add_row({"ASNs", with_commas(low.asns), "142"});
  l.add_row({"Strictly increasing pattern",
             bench::count_pct(low.strictly_increasing, low.total, 0),
             "159 (65%)"});
  l.add_row({"  of which wrapped", with_commas(low.wrapped), "130"});
  l.add_row({"<=7 unique ports of 10",
             bench::count_pct(low.few_unique, low.total, 0), "34 (14%)"});
  std::printf("%s\n", l.to_string().c_str());

  // The paper's aside: seeing <=7 unique values in 10 draws from a true
  // 200-port pool happens ~0.066% of the time — so these are small pools.
  std::printf(
      "model check: P(<=7 unique in 10 draws from a 200-port pool) = %.4f%% "
      "(paper: 0.066%%)\n",
      100.0 * analysis::small_pool_probability(200, 10, 7));
}

void fig2_port_range_hist(const Run& run) {
  std::printf("== fig2_port_range_hist: paper Figure 2 ==\n\n");
  const auto samples = analysis::range_samples(
      run.results.records, analysis::P0fDatabase::standard());

  analysis::StackedHistogram full(0, 65535, 1000, {"closed", "open"});
  analysis::StackedHistogram zoom(0, 3000, 50, {"closed", "open"});
  for (const analysis::RangeSample& s : samples) {
    full.add(s.range, s.open ? 1 : 0);
    if (s.range <= 3000) zoom.add(s.range, s.open ? 1 : 0);
  }

  std::printf("upper plot: ranges 0-65,535 (bin 1,000)\n%s\n",
              full.render_ascii().c_str());
  std::printf("lower plot (zoom): ranges 0-3,000 (bin 50)\n%s\n",
              zoom.render_ascii().c_str());

  CsvWriter csv("fig2_port_range_hist.csv");
  for (const auto& row : full.csv_rows()) csv.write_row(row);
  CsvWriter csv_zoom("fig2_port_range_hist_zoom.csv");
  for (const auto& row : zoom.csv_rows()) csv_zoom.write_row(row);

  std::printf(
      "paper's shape: a spike at 0 (fixed ports, majority closed), peaks at\n"
      "~2,4xx (Windows, mostly open), ~16,0xx (FreeBSD, mostly closed),\n"
      "~28,0xx (Linux, mostly closed) and a broad mass toward 64,5xx (full\n"
      "range). CSVs: fig2_port_range_hist{,_zoom}.csv\n");
}

void fig3b_wild_hist(const Run& run) {
  std::printf("== fig3b_wild_hist: paper Figure 3b ==\n\n");
  const auto& p0f = analysis::P0fDatabase::standard();
  const auto samples = analysis::range_samples(run.results.records, p0f);

  constexpr int kBin = 500;
  analysis::StackedHistogram hist(0, 65535, kBin,
                                  {"p0f unknown", "p0f Windows", "p0f Linux",
                                   "p0f other"});
  for (const analysis::RangeSample& s : samples) {
    std::size_t series = 0;
    if (s.p0f == analysis::P0fClass::kWindows) series = 1;
    else if (s.p0f == analysis::P0fClass::kLinux) series = 2;
    else if (s.p0f != analysis::P0fClass::kUnknown) series = 3;
    hist.add(s.range, series);
  }

  // Model overlay: per-pool Beta densities scaled to the planted population
  // share of each band, integrated per bin.
  struct Pool {
    double size;
    double weight;
  };
  const Pool kPools[] = {{2500, 0.046}, {16384, 0.038}, {28233, 0.30},
                         {64512, 0.60}};
  std::vector<double> overlay(hist.bin_count(), 0.0);
  const double n = static_cast<double>(samples.size());
  for (std::size_t b = 0; b < hist.bin_count(); ++b) {
    const double mid = hist.bin_lo(b) + kBin / 2.0;
    double density = 0;
    for (const Pool& pool : kPools) {
      density += pool.weight * analysis::range_pdf(mid, pool.size);
    }
    overlay[b] = density * kBin * n;  // expected count in this bin
  }
  hist.set_overlay(overlay);

  std::printf("%s\n", hist.render_ascii().c_str());

  CsvWriter csv("fig3b_wild_hist.csv");
  for (const auto& row : hist.csv_rows()) csv.write_row(row);

  // Ablation: how many Windows-fingerprinted resolvers land in the Windows
  // band with vs. without the §5.3.2 wrap adjustment.
  std::uint64_t windows_band_adjusted = 0;
  std::uint64_t windows_band_raw = 0;
  std::uint64_t wrap_applied = 0;
  for (const auto& [addr, rec] : run.results.records) {
    if (!rec.reachable() || !rec.tcp_syn) continue;
    if (p0f.classify(*rec.tcp_syn) != analysis::P0fClass::kWindows) continue;
    const auto ports = analysis::combined_ports(rec);
    if (ports.size() < analysis::kMinPortSamples) continue;
    const int raw = analysis::compute_port_stats(ports).range;
    const int adjusted = analysis::adjusted_range(ports);
    if (analysis::windows_wrap_applies(ports)) ++wrap_applied;
    if (analysis::classify_range(adjusted) == 3) ++windows_band_adjusted;
    if (analysis::classify_range(raw) == 3) ++windows_band_raw;
  }
  std::printf(
      "ablation (wrap adjustment): Windows-fingerprinted resolvers in the\n"
      "941-2,488 band: %llu with adjustment vs %llu without (%llu wrapped\n"
      "pools rescued; unadjusted wrapped pools misread as ~14,000-range).\n"
      "CSV: fig3b_wild_hist.csv\n",
      static_cast<unsigned long long>(windows_band_adjusted),
      static_cast<unsigned long long>(windows_band_raw),
      static_cast<unsigned long long>(wrap_applied));
}

/// Rebuilds a PassiveCapture from raw wire bytes: src -> source ports of
/// its port-53 UDP queries, in capture (delivery) order.
analysis::PassiveCapture passive_from_pcap(const std::string& path) {
  const auto bytes = pcap::read_file(path);
  const pcap::Capture capture = pcap::parse_pcap(bytes);
  analysis::PassiveCapture passive;
  std::size_t skipped = 0;
  for (const pcap::PcapRecord& rec : capture.records) {
    if (rec.bytes.size() < rec.orig_len) {
      ++skipped;  // snapped record: headers may be incomplete
      continue;
    }
    net::Packet pkt;
    try {
      pkt = net::Packet::parse(rec.bytes);
    } catch (const ParseError&) {
      ++skipped;  // non-IP linktype or mangled record
      continue;
    }
    if (pkt.proto != net::IpProto::kUdp || pkt.dst_port != 53) continue;
    passive[pkt.src].push_back(pkt.src_port);
  }
  std::printf("# pcap replay: %zu records, %zu resolvers, %zu skipped\n",
              capture.records.size(), passive.size(), skipped);
  return passive;
}

/// §5.2.2: of the resolvers actively measured with a single fixed port, how
/// many already looked that way in the 18-months-earlier capture (`replayed`
/// when --pcap is given, else the plan's synthesized one), how many
/// regressed from randomized ports, and how many cannot be compared?
void passive_comparison(const Run& run,
                        const std::optional<analysis::PassiveCapture>& replayed) {
  std::printf("== passive_comparison: paper §5.2.2 ==\n\n");
  const analysis::PassiveCapture synthesized =
      replayed ? analysis::PassiveCapture{}
               : ditl::passive_capture(*run.world->plan);
  const analysis::PassiveCapture& old_capture =
      replayed ? *replayed : synthesized;

  const auto cmp =
      analysis::compare_with_passive(run.results.records, old_capture);

  TextTable t({"Metric", "Measured", "Paper"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kRight);
  t.add_row({"Zero-range resolvers (active)", with_commas(cmp.zero_now),
             "3,810"});
  t.add_row({"  already zero-variance in old capture",
             bench::count_pct(cmp.zero_then, cmp.zero_now, 0),
             "1,954 (51%)"});
  t.add_row({"  had variance before (regressed)",
             bench::count_pct(cmp.varied_then, cmp.zero_now, 0),
             "959 (25%)"});
  t.add_row({"  insufficient passive data",
             bench::count_pct(cmp.insufficient, cmp.zero_now, 0),
             "897 (24%)"});
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "the alarming row is the middle one: a quarter of today's fixed-port\n"
      "resolvers *used to randomize* — their security decreased years after\n"
      "the Kaminsky disclosure.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunOptions options =
      bench::parse_run_options(argc, argv, {"--pcap="});
  std::optional<analysis::PassiveCapture> replayed;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pcap=", 7) != 0) continue;
    const std::string path = bench::parse_path("--pcap", argv[i] + 7);
    try {
      replayed = passive_from_pcap(path);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: --pcap=%s: %s\n", path.c_str(), e.what());
      return 2;
    }
  }

  const Run run = bench::run_standard_experiment(options);
  headline(run);
  const analysis::GeoDb geo = ditl::geo_db(*run.world->plan);
  table1_countries(run, geo);
  table2_reachable_pct(run, geo);
  table3_categories(run);
  table4_port_ranges(run);
  fig2_port_range_hist(run);
  fig3b_wild_hist(run);
  passive_comparison(run, replayed);
  return 0;
}
