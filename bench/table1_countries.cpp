// Table 1: DSAV results for the 10 countries with the most ASes in the
// target set (total vs. reachable ASes and target IPs per country).
#include <algorithm>

#include "bench_common.h"
#include "util/csv.h"

int main() {
  using namespace cd;
  std::printf("== table1_countries: paper Table 1 ==\n");
  auto run = bench::run_standard_experiment();

  auto rows = analysis::dsav_by_country(run.results.records,
                                        run.world->targets, run.world->geo);
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
  return 0;
}
