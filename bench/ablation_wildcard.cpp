// Ablation for §3.6.4: NXDOMAIN-answering authoritative servers lose the
// full query name for strictly QNAME-minimizing resolvers; the paper's
// proposed fix (wildcard-synthesized answers) recovers it. Runs the same
// world both ways and compares attribution coverage.
#include "bench_common.h"

namespace {

struct Outcome {
  std::uint64_t qmin_partial = 0;
  std::uint64_t qmin_asns = 0;
  std::uint64_t reachable_targets = 0;
  std::uint64_t planted_qmin_reached = 0;
};

Outcome run_variant(bool wildcard) {
  auto run = cd::bench::run_standard_experiment(
      {.scale = 0.5, .wildcard_answers = wildcard});
  Outcome out;
  out.qmin_partial = run.results.collector_stats.qmin_partial;
  out.qmin_asns = run.results.qmin_asns.size();
  for (const auto& [addr, rec] : run.results.records) {
    if (!rec.reachable()) continue;
    ++out.reachable_targets;
    const auto it = run.world->truth_resolvers.find(addr);
    if (it != run.world->truth_resolvers.end() && it->second.qmin) {
      ++out.planted_qmin_reached;
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace cd;
  std::printf("== ablation_wildcard: §3.6.4 NXDOMAIN vs wildcard answers ==\n");

  std::printf("--- variant A: NXDOMAIN responses (the paper's setup) ---\n");
  const Outcome nx = run_variant(false);
  std::printf("--- variant B: wildcard-synthesized answers (proposed fix) ---\n");
  const Outcome wc = run_variant(true);

  TextTable t({"Metric", "NXDOMAIN", "Wildcard"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kRight);
  t.add_row({"QNAME-minimized partial queries (unattributable)",
             with_commas(nx.qmin_partial), with_commas(wc.qmin_partial)});
  t.add_row({"ASNs only seen via partial names", with_commas(nx.qmin_asns),
             with_commas(wc.qmin_asns)});
  t.add_row({"Reachable targets attributed", with_commas(nx.reachable_targets),
             with_commas(wc.reachable_targets)});
  t.add_row({"QNAME-minimizing resolvers attributed",
             with_commas(nx.planted_qmin_reached),
             with_commas(wc.planted_qmin_reached)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "expected shape: wildcard answers eliminate the partial-name gap — the\n"
      "strictly-minimizing resolvers never hit NXDOMAIN mid-walk, so their\n"
      "full query names (and hence src/dst attribution) reach our servers.\n");
  return 0;
}
