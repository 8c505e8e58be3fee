// §5.2.2: passive-measurement cross-check of the zero-source-port findings.
// Of the resolvers actively measured with a single fixed port, how many
// already looked that way in the 18-months-earlier capture, how many
// regressed from randomized ports, and how many cannot be compared?
//
// By default the "old capture" is the world's synthesized passive_capture.
// With --pcap=PATH the old capture is instead reconstructed from a wire
// capture on disk (e.g. one exported by bench/pcap_export): every UDP
// packet to port 53 contributes its source address and source port, exactly
// what a root operator's tap yields after filtering to DNS — the
// export-replay loop scripts/pcap_replay.sh exercises end to end.
#include <cstring>
#include <optional>
#include <string>

#include "analysis/passive.h"
#include "bench_common.h"
#include "net/packet.h"
#include "util/error.h"
#include "util/pcap.h"

namespace {

/// Rebuilds a PassiveCapture from raw wire bytes: src -> source ports of
/// its port-53 UDP queries, in capture (delivery) order.
cd::analysis::PassiveCapture passive_from_pcap(const std::string& path) {
  const auto bytes = cd::pcap::read_file(path);
  const cd::pcap::Capture capture = cd::pcap::parse_pcap(bytes);
  cd::analysis::PassiveCapture passive;
  std::size_t skipped = 0;
  for (const cd::pcap::PcapRecord& rec : capture.records) {
    if (rec.bytes.size() < rec.orig_len) {
      ++skipped;  // snapped record: headers may be incomplete
      continue;
    }
    cd::net::Packet pkt;
    try {
      pkt = cd::net::Packet::parse(rec.bytes);
    } catch (const cd::ParseError&) {
      ++skipped;  // non-IP linktype or mangled record
      continue;
    }
    if (pkt.proto != cd::net::IpProto::kUdp || pkt.dst_port != 53) continue;
    passive[pkt.src].push_back(pkt.src_port);
  }
  std::printf("# pcap replay: %zu records, %zu resolvers, %zu skipped\n",
              capture.records.size(), passive.size(), skipped);
  return passive;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cd;
  std::printf("== passive_comparison: paper §5.2.2 ==\n");

  std::optional<analysis::PassiveCapture> replayed;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pcap=", 7) != 0) continue;
    // Read before the campaign, so a bad path fails in milliseconds.
    const std::string path = bench::parse_path("--pcap", argv[i] + 7);
    try {
      replayed = passive_from_pcap(path);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: --pcap=%s: %s\n", path.c_str(), e.what());
      return 2;
    }
  }

  auto run = bench::run_standard_experiment(bench::parse_run_options(argc, argv));

  const analysis::PassiveCapture& old_capture =
      replayed ? *replayed : run.world->passive_capture;

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
  return 0;
}
