// Wire-capture export: runs the standard campaign with the network tap
// installed and writes the traffic as a classic pcap (LINKTYPE_RAW, readable
// by tcpdump/wireshark) plus the ".idx" sidecar carrying the record count
// and per-packet drop annotations.
//
//   pcap_export --scale=0.05 --seed=42 --out=campaign.pcap [--probes-only]
//               [--no-drops] [--shards=N --threads=N]
//
// Multi-shard runs merge per-shard captures into canonical order; for the
// probe plane (--probes-only) the merged file is byte-identical to one
// shard's — the same guarantee tests/test_core_parallel.cpp pins, available
// from the command line for quick cross-machine comparison via capture digest.
#include <cstring>
#include <map>
#include <string>

#include "bench_common.h"
#include "sim/network.h"
#include "util/pcap.h"

int main(int argc, char** argv) {
  using namespace cd;
  std::printf("== pcap_export: campaign wire capture ==\n");

  std::string out = "campaign.pcap";
  core::CaptureSpec capture;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = bench::parse_path("--out", argv[i] + 6);
    } else if (std::strcmp(argv[i], "--probes-only") == 0) {
      capture.probes_only = true;
    } else if (std::strcmp(argv[i], "--no-drops") == 0) {
      capture.include_drops = false;
    }
  }

  bench::RunOptions options = bench::parse_run_options(
      argc, argv, {"--out=", "--probes-only", "--no-drops"});
  options.capture = capture;
  const bench::Run run = bench::run_standard_experiment(options);

  const pcap::Capture& cap = run.results.capture;
  pcap::write_capture(cap, out);

  std::map<std::uint8_t, std::uint64_t> by_fate;
  std::uint64_t wire_bytes = 0;
  for (const pcap::PcapRecord& rec : cap.records) {
    ++by_fate[rec.annotation];
    wire_bytes += rec.orig_len;
  }
  std::printf("# wrote %s (+.idx): %zu records, %llu wire bytes\n", out.c_str(),
              cap.records.size(), (unsigned long long)wire_bytes);
  for (const auto& [fate, count] : by_fate) {
    std::printf("#   %-14s %llu\n",
                sim::drop_reason_name(static_cast<sim::DropReason>(fate)).c_str(),
                (unsigned long long)count);
  }
  std::printf("# capture digest %016llx\n",
              (unsigned long long)core::capture_digest(cap));
  return 0;
}
