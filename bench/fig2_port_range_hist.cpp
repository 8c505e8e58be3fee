// Figure 2: frequency distribution of source-port ranges of reachable
// resolvers, stacked by open/closed status — full scale (0-65,535) plus the
// 0-3,000 zoom, as in the paper.
#include "analysis/histogram.h"
#include "bench_common.h"
#include "util/csv.h"

int main() {
  using namespace cd;
  std::printf("== fig2_port_range_hist: paper Figure 2 ==\n");
  auto run = bench::run_standard_experiment();

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
  return 0;
}
