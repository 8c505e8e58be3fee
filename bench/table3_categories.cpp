// Table 3: spoofed-source category effectiveness — targets/ASNs reached by
// each category (inclusive) and reached by that category alone (exclusive).
#include "bench_common.h"
#include "util/csv.h"

int main() {
  using namespace cd;
  std::printf("== table3_categories: paper Table 3 ==\n");
  auto run = bench::run_standard_experiment();

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
  return 0;
}
