// Figure 3b: in-the-wild frequency distribution of source-port ranges with
// Beta(9,2) model overlays and p0f composition per bar; includes the
// windows-wrap-adjustment ablation the DESIGN.md calls out.
#include "analysis/beta.h"
#include "analysis/histogram.h"
#include "analysis/port_range.h"
#include "bench_common.h"
#include "util/csv.h"

int main() {
  using namespace cd;
  std::printf("== fig3b_wild_hist: paper Figure 3b ==\n");
  auto run = bench::run_standard_experiment();
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
  return 0;
}
