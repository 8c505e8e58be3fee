// Table 4: reachable targets by observed source-port range band, crossed
// with open/closed status and p0f OS classification; plus the §5.2.1
// zero-randomization and §5.2.3 ineffective-allocation drill-downs.
#include "analysis/beta.h"
#include "bench_common.h"
#include "util/csv.h"

int main() {
  using namespace cd;
  std::printf("== table4_port_ranges: paper Table 4, §5.2.1, §5.2.3 ==\n");
  auto run = bench::run_standard_experiment();
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
  return 0;
}
