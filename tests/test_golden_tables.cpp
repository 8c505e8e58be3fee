// Golden-output regression: a fixed-seed scaled-down standard experiment
// must keep producing exactly the Table 3 category rows it produces today,
// and the OS stacks must keep the Table 6 acceptance matrix.
//
// These literals pin end-to-end pipeline behaviour (world gen, probing,
// filtering, collection, classification), so an intentional behaviour
// change legitimately moves them: rerun with CD_GOLDEN_PRINT=1 to emit the
// new literals and paste them in — after checking the diff makes sense.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/classify.h"
#include "core/experiment.h"
#include "ditl/world.h"
#include "net/packet.h"
#include "scanner/source_select.h"
#include "sim/host.h"
#include "sim/os_model.h"

namespace {

constexpr double kScale = 0.05;  // 600 * 0.05 = 30 ASes
constexpr std::uint64_t kSeed = 42;

bool golden_print() { return std::getenv("CD_GOLDEN_PRINT") != nullptr; }

struct CategoryGolden {
  const char* category;
  // incl v4 {addrs, asns}, incl v6, excl v4, excl v6
  std::uint64_t cells[8];
};

// --- golden values (CD_GOLDEN_PRINT=1 regenerates) --------------------------

constexpr std::uint64_t kGoldenQueried[4] = {2070, 30, 246, 9};  // v4 a/as, v6 a/as
constexpr std::uint64_t kGoldenReachable[4] = {96, 15, 21, 4};   // v4 a/as, v6 a/as

constexpr CategoryGolden kGoldenCategories[cd::scanner::kSourceCategoryCount] =
    {
        {"Other Prefix", {82, 13, 19, 4, 27, 5, 12, 3}},
        {"Same Prefix", {65, 9, 9, 1, 8, 1, 0, 0}},
        {"Private", {7, 2, 0, 0, 4, 1, 0, 0}},
        {"Dst-as-Src", {13, 6, 9, 1, 0, 0, 0, 0}},
        {"Loopback", {0, 0, 0, 0, 0, 0, 0, 0}},
};

struct AcceptanceGolden {
  const char* name;
  // "DS v4, LB v4, DS v6, LB v6" as '1'/'0' characters.
  const char* accepted;
};

constexpr AcceptanceGolden kGoldenAcceptance[] = {
    {"Ubuntu 10.04", "0011"},
    {"Ubuntu 12.04", "0011"},
    {"Ubuntu 14.04", "0011"},
    {"Ubuntu 16.04", "0010"},
    {"Ubuntu 18.04", "0010"},
    {"Ubuntu 19.04", "0010"},
    {"FreeBSD 11.3", "1010"},
    {"FreeBSD 12.0", "1010"},
    {"FreeBSD 12.1", "1010"},
    {"Windows Server 2003", "1110"},
    {"Windows Server 2003 R2", "1110"},
    {"Windows Server 2008", "1010"},
    {"Windows Server 2008 R2", "1010"},
    {"Windows Server 2012", "1010"},
    {"Windows Server 2012 R2", "1010"},
    {"Windows Server 2016", "1010"},
    {"Windows Server 2019", "1010"},
};

// ----------------------------------------------------------------------------

TEST(GoldenTables, Table3CategoryRows) {
  cd::ditl::WorldSpec spec = cd::ditl::bench_world_spec();
  spec.n_asns = static_cast<int>(spec.n_asns * kScale);
  spec.seed = kSeed;
  auto world =
      cd::ditl::generate_world(cd::ditl::build_campaign_plan(spec));

  cd::core::ExperimentConfig config;
  config.analyst = cd::scanner::AnalystConfig{};
  cd::core::Experiment experiment(*world, config);
  const auto& results = experiment.run();

  const auto table =
      cd::analysis::build_category_table(results.records, world->targets);

  if (golden_print()) {
    std::printf("constexpr std::uint64_t kGoldenQueried[4] = {%llu, %llu, "
                "%llu, %llu};\n",
                (unsigned long long)table.queried[0].addrs,
                (unsigned long long)table.queried[0].asns,
                (unsigned long long)table.queried[1].addrs,
                (unsigned long long)table.queried[1].asns);
    std::printf("constexpr std::uint64_t kGoldenReachable[4] = {%llu, %llu, "
                "%llu, %llu};\n",
                (unsigned long long)table.reachable[0].addrs,
                (unsigned long long)table.reachable[0].asns,
                (unsigned long long)table.reachable[1].addrs,
                (unsigned long long)table.reachable[1].asns);
    for (int c = 0; c < cd::scanner::kSourceCategoryCount; ++c) {
      const auto cat = static_cast<cd::scanner::SourceCategory>(c);
      std::printf("        {\"%s\", {%llu, %llu, %llu, %llu, %llu, %llu, "
                  "%llu, %llu}},\n",
                  cd::scanner::source_category_name(cat).c_str(),
                  (unsigned long long)table.inclusive[c][0].addrs,
                  (unsigned long long)table.inclusive[c][0].asns,
                  (unsigned long long)table.inclusive[c][1].addrs,
                  (unsigned long long)table.inclusive[c][1].asns,
                  (unsigned long long)table.exclusive[c][0].addrs,
                  (unsigned long long)table.exclusive[c][0].asns,
                  (unsigned long long)table.exclusive[c][1].addrs,
                  (unsigned long long)table.exclusive[c][1].asns);
    }
    GTEST_SKIP() << "golden print mode";
  }

  EXPECT_EQ(table.queried[0].addrs, kGoldenQueried[0]);
  EXPECT_EQ(table.queried[0].asns, kGoldenQueried[1]);
  EXPECT_EQ(table.queried[1].addrs, kGoldenQueried[2]);
  EXPECT_EQ(table.queried[1].asns, kGoldenQueried[3]);
  EXPECT_EQ(table.reachable[0].addrs, kGoldenReachable[0]);
  EXPECT_EQ(table.reachable[0].asns, kGoldenReachable[1]);
  EXPECT_EQ(table.reachable[1].addrs, kGoldenReachable[2]);
  EXPECT_EQ(table.reachable[1].asns, kGoldenReachable[3]);

  for (int c = 0; c < cd::scanner::kSourceCategoryCount; ++c) {
    const auto cat = static_cast<cd::scanner::SourceCategory>(c);
    SCOPED_TRACE(cd::scanner::source_category_name(cat));
    EXPECT_EQ(cd::scanner::source_category_name(cat),
              kGoldenCategories[c].category);
    const auto& g = kGoldenCategories[c].cells;
    EXPECT_EQ(table.inclusive[c][0].addrs, g[0]);
    EXPECT_EQ(table.inclusive[c][0].asns, g[1]);
    EXPECT_EQ(table.inclusive[c][1].addrs, g[2]);
    EXPECT_EQ(table.inclusive[c][1].asns, g[3]);
    EXPECT_EQ(table.exclusive[c][0].addrs, g[4]);
    EXPECT_EQ(table.exclusive[c][0].asns, g[5]);
    EXPECT_EQ(table.exclusive[c][1].addrs, g[6]);
    EXPECT_EQ(table.exclusive[c][1].asns, g[7]);
  }
}

TEST(GoldenTables, Table6OsAcceptanceRows) {
  // Same probing as bench/table6_os_acceptance.cpp: four spoofed packets at
  // each stack with no border filtering, so delivery isolates the kernel
  // acceptance rule.
  std::vector<std::pair<std::string, std::string>> rows;
  for (const cd::sim::OsProfile& os : cd::sim::all_os_profiles()) {
    if (os.id == cd::sim::OsId::kBaiduLike ||
        os.id == cd::sim::OsId::kEmbeddedCpe ||
        os.id == cd::sim::OsId::kMiddleboxFronted) {
      continue;  // synthetic stand-ins, not part of the paper's table
    }
    cd::sim::EventLoop loop;
    cd::sim::Topology topology;
    cd::Rng rng(7);
    cd::sim::Network network(topology, loop, rng.split("n"));
    topology.add_as(1, cd::sim::FilterPolicy{});
    topology.announce(1, cd::net::Prefix::must_parse("60.0.0.0/16"));
    topology.announce(1, cd::net::Prefix::must_parse("2620:60::/32"));
    const auto v4 = cd::net::IpAddr::must_parse("60.0.0.1");
    const auto v6 = cd::net::IpAddr::must_parse("2620:60::1");
    cd::sim::Host host(network, 1, os, {v4, v6}, rng.split("h"), "dut");

    bool got[4] = {false, false, false, false};
    host.bind_udp(53, [&](const cd::net::Packet& pkt) {
      if (pkt.src == pkt.dst) {
        got[pkt.src.is_v4() ? 0 : 2] = true;
      } else {
        got[pkt.src.is_v4() ? 1 : 3] = true;
      }
    });
    network.send(cd::net::make_udp(v4, 1000, v4, 53, {0}), 1);
    network.send(
        cd::net::make_udp(cd::net::IpAddr::must_parse("127.0.0.1"), 1000, v4,
                          53, {0}),
        1);
    network.send(cd::net::make_udp(v6, 1000, v6, 53, {0}), 1);
    network.send(cd::net::make_udp(cd::net::IpAddr::must_parse("::1"), 1000,
                                   v6, 53, {0}),
                 1);
    loop.run(1000);

    std::string bits;
    for (const bool b : got) bits += b ? '1' : '0';
    rows.emplace_back(os.name, bits);
  }

  if (golden_print()) {
    for (const auto& [name, bits] : rows) {
      std::printf("    {\"%s\", \"%s\"},\n", name.c_str(), bits.c_str());
    }
    GTEST_SKIP() << "golden print mode";
  }

  ASSERT_EQ(rows.size(), std::size(kGoldenAcceptance));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, kGoldenAcceptance[i].name);
    EXPECT_EQ(rows[i].second, kGoldenAcceptance[i].accepted)
        << "OS " << rows[i].first;
  }
}

}  // namespace
