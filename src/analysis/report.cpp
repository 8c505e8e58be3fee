#include "analysis/report.h"

#include <algorithm>

#include "util/str.h"
#include "util/table.h"

namespace cd::analysis {

namespace {

constexpr std::size_t kCountryRows = 10;  // top countries shown, by AS count

std::string pct_cell(std::uint64_t part, std::uint64_t whole) {
  return cd::with_commas(part) + " (" +
         cd::percent(static_cast<double>(part), static_cast<double>(whole)) +
         ")";
}

void render_dsav(std::string& out, const DsavSummary& s) {
  cd::TextTable t({"", "targets", "reachable", "ASes", "infiltrated"});
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, cd::Align::kRight);
  t.add_row({"IPv4", cd::with_commas(s.v4.targets_total),
             pct_cell(s.v4.targets_reachable, s.v4.targets_total),
             cd::with_commas(s.v4.asns_total),
             pct_cell(s.v4.asns_reachable, s.v4.asns_total)});
  t.add_row({"IPv6", cd::with_commas(s.v6.targets_total),
             pct_cell(s.v6.targets_reachable, s.v6.targets_total),
             cd::with_commas(s.v6.asns_total),
             pct_cell(s.v6.asns_reachable, s.v6.asns_total)});
  out += "== DSAV prevalence ==\n" + t.to_string() + "\n";
}

void render_categories(std::string& out, const CategoryTable& table) {
  cd::TextTable t({"category", "v4 addrs", "v4 ASNs", "v6 addrs", "v6 ASNs",
                   "v4 excl", "v6 excl"});
  for (std::size_t c = 1; c < 7; ++c) t.set_align(c, cd::Align::kRight);
  for (int c = 0; c < cd::scanner::kSourceCategoryCount; ++c) {
    const auto cat = static_cast<cd::scanner::SourceCategory>(c);
    t.add_row({cd::scanner::source_category_name(cat),
               pct_cell(table.inclusive[c][0].addrs, table.reachable[0].addrs),
               pct_cell(table.inclusive[c][0].asns, table.reachable[0].asns),
               pct_cell(table.inclusive[c][1].addrs, table.reachable[1].addrs),
               pct_cell(table.inclusive[c][1].asns, table.reachable[1].asns),
               cd::with_commas(table.exclusive[c][0].addrs),
               cd::with_commas(table.exclusive[c][1].addrs)});
  }
  out += "== Spoofed-source categories (of reachable) ==\n" + t.to_string() +
         "\n";
}

void render_bands(std::string& out, const Table4Result& result) {
  cd::TextTable t({"source port range (OS)", "total", "open", "closed",
                   "p0f Win", "p0f Lin"});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, cd::Align::kRight);
  for (const Table4Row& row : result.rows) {
    std::string label = row.band.label;
    if (!row.band.os.empty()) label += " (" + row.band.os + ")";
    t.add_row({label, cd::with_commas(row.total), cd::with_commas(row.open),
               cd::with_commas(row.closed), cd::with_commas(row.p0f_windows),
               cd::with_commas(row.p0f_linux)});
  }
  out += "== Source-port ranges (" +
         cd::with_commas(result.classified_targets) +
         " classified resolvers) ==\n" + t.to_string() + "\n";
}

void render_countries(std::string& out, std::vector<CountryRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const CountryRow& a, const CountryRow& b) {
              return a.ases_total > b.ases_total;
            });
  cd::TextTable t({"country", "ASes", "reachable", "targets", "reachable "});
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, cd::Align::kRight);
  std::size_t shown = 0;
  for (const CountryRow& row : rows) {
    if (row.country == "Other") continue;
    if (shown++ >= kCountryRows) break;
    t.add_row({row.country, cd::with_commas(row.ases_total),
               pct_cell(row.ases_reachable, row.ases_total),
               cd::with_commas(row.targets_total),
               pct_cell(row.targets_reachable, row.targets_total)});
  }
  out += "== DSAV by country (top " + std::to_string(kCountryRows) +
         " by AS count) ==\n" + t.to_string() + "\n";
}

}  // namespace

std::string render_report(const Records& records,
                          std::span<const cd::scanner::TargetInfo> targets,
                          const GeoDb& geo, const PassiveCapture& passive,
                          const std::vector<cd::net::IpAddr>& public_dns_addrs) {
  std::string out;
  out += "================ closeddoors measurement report ================\n\n";

  render_dsav(out, summarize_dsav(records, targets));

  if (geo.size() > 0) {
    render_countries(out, dsav_by_country(records, targets, geo));
  }

  render_categories(out, build_category_table(records, targets));

  const auto oc = open_closed_stats(records);
  out += "== Open vs. closed ==\n";
  out += "open " + pct_cell(oc.open, oc.open + oc.closed) + ", closed " +
         pct_cell(oc.closed, oc.open + oc.closed) +
         "; infiltrated ASes with a closed resolver reached: " +
         pct_cell(oc.asns_with_closed, oc.reachable_asns) + "\n\n";

  const auto fwd = forwarding_stats(records);
  out += "== Forwarding ==\n";
  out += "IPv4: direct " + pct_cell(fwd.v4.direct, fwd.v4.resolved) +
         ", forwarded " + pct_cell(fwd.v4.forwarded, fwd.v4.resolved) +
         ", both " + cd::with_commas(fwd.v4.both) + "\n";
  out += "IPv6: direct " + pct_cell(fwd.v6.direct, fwd.v6.resolved) +
         ", forwarded " + pct_cell(fwd.v6.forwarded, fwd.v6.resolved) +
         ", both " + cd::with_commas(fwd.v6.both) + "\n\n";

  const auto mb = middlebox_stats(records, public_dns_addrs);
  out += "== Middlebox check ==\n";
  out += "IPv4 infiltrated ASes with in-AS client: " +
         pct_cell(mb.v4.with_in_as_client, mb.v4.reachable_asns) +
         "; via public DNS: " +
         cd::with_commas(mb.v4.remainder_via_public_dns) + "; unexplained: " +
         pct_cell(mb.v4.unexplained, mb.v4.reachable_asns) + "\n\n";

  render_bands(out, build_table4(records, P0fDatabase::standard()));

  const auto zero = zero_range_stats(records);
  out += "== Zero source-port randomization ==\n";
  out += cd::with_commas(zero.total) + " resolvers (" +
         cd::with_commas(zero.open) + " open / " +
         cd::with_commas(zero.closed) + " closed) across " +
         cd::with_commas(zero.asns) + " ASes";
  std::uint64_t port53 = 0;
  const auto it53 = zero.port_counts.find(53);
  if (it53 != zero.port_counts.end()) port53 = it53->second;
  out += "; fixed port 53: " + pct_cell(port53, zero.total) + "\n\n";

  const auto low = low_range_stats(records);
  out += "== Ineffective allocation (range 1-200) ==\n";
  out += cd::with_commas(low.total) + " resolvers; strictly increasing: " +
         pct_cell(low.strictly_increasing, low.total) + " (wrapped " +
         cd::with_commas(low.wrapped) + "); <=7 unique of 10: " +
         pct_cell(low.few_unique, low.total) + "\n\n";

  if (!passive.empty()) {
    const auto cmp = compare_with_passive(records, passive);
    out += "== Passive cross-check (18 months earlier) ==\n";
    out += "zero-range now: " + cd::with_commas(cmp.zero_now) +
           "; already fixed then: " + pct_cell(cmp.zero_then, cmp.zero_now) +
           "; regressed: " + pct_cell(cmp.varied_then, cmp.zero_now) +
           "; insufficient data: " +
           pct_cell(cmp.insufficient, cmp.zero_now) + "\n";
  }
  return out;
}

}  // namespace cd::analysis
