// The Closed Resolver cross-check plane (scanner/crosscheck.h): the per-/24
// prefix scanner must reproduce its golden evidence digest across shard
// counts and spilled and in-memory merges; its verdicts may never
// contradict the world's planted SAV ground truth; and the per-AS
// methodology-agreement join must be a pure function of the two scanners'
// evidence.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/crosscheck.h"
#include "core/parallel.h"
#include "ditl/plan.h"
#include "ditl/world.h"
#include "scanner/crosscheck.h"
#include "scanner/prober.h"
#include "util/error.h"

namespace {

using cd::core::ExperimentConfig;
using cd::core::results_digest;
using cd::core::run_sharded_experiment;
using cd::core::ShardedResults;
using cd::net::IpAddr;
using cd::net::Prefix;
using cd::scanner::CrossCheckCollector;
using cd::scanner::CrossCheckConfig;
using cd::scanner::PrefixRecord;
using cd::scanner::PrefixRecords;
using cd::scanner::PrefixTarget;
using cd::scanner::QnameCodec;
using cd::scanner::QnameInfo;
using cd::scanner::QueryMode;

/// Resolver v4 host offsets are drawn from [10, 210) (ditl/target_stream.cpp),
/// so a [10, 10+width) window probes the first `width` populated offsets.
CrossCheckConfig test_crosscheck(std::uint32_t width) {
  CrossCheckConfig cc;
  cc.host_lo = 10;
  cc.host_hi = 10 + width;
  return cc;
}

cd::ditl::WorldSpec test_spec(std::uint64_t seed, int n_asns) {
  cd::ditl::WorldSpec spec = cd::ditl::small_world_spec();
  spec.seed = seed;
  spec.n_asns = n_asns;
  return spec;
}

ExperimentConfig test_config(std::size_t shards,
                             const std::string& spill_dir = {}) {
  ExperimentConfig config;
  config.analyst = cd::scanner::AnalystConfig{};  // exercise replay exclusion
  config.crosscheck = test_crosscheck(64);
  config.num_shards = shards;
  config.num_threads = shards > 1 ? 2 : 1;
  config.spill_dir = spill_dir;
  return config;
}

// --- differential battery ---------------------------------------------------

TEST(CrossCheckDifferential, DigestMatchesGoldenAcrossShardsAndSpill) {
  // results_digest (per-/24 evidence included) is shard-invariant, so one
  // golden per seed, produced by the last tree that still shipped
  // materialized shard worlds, which reproduced it exactly.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t results;
  };
  const Golden goldens[] = {
      {42, 0x1a9ad97d6e41e67full},
      {1337, 0xe08cb8f9cc37e3b0ull},
      {9001, 0x72ceb9c8d63c765cull},
  };
  const auto dir =
      std::filesystem::temp_directory_path() / "cd_crosscheck_diff";
  std::filesystem::remove_all(dir);
  for (const Golden& g : goldens) {
    // 14 ASes is the smallest world where all three seeds plant at least
    // one attributable in-window resolver behind an open border (seed 1337
    // puts every one of its behind DSAV/uRPF below that).
    const auto spec = test_spec(g.seed, 14);
    std::optional<ShardedResults> baseline;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      for (const bool spill : {false, true}) {
        const std::string spill_dir =
            spill ? (dir / ("s" + std::to_string(g.seed))).string()
                  : std::string{};
        ShardedResults run =
            run_sharded_experiment(spec, test_config(shards, spill_dir));
        EXPECT_EQ(results_digest(run.merged), g.results)
            << "seed=" << g.seed << " shards=" << shards << " spill=" << spill;
        if (!baseline) {
          ASSERT_GT(run.merged.crosscheck_probes, 0u) << "seed=" << g.seed;
          ASSERT_GT(run.merged.crosscheck_records.size(), 0u)
              << "seed=" << g.seed << ": no /24 collected any evidence";
          baseline = std::move(run);
          continue;
        }
        EXPECT_EQ(run.merged.crosscheck_probes,
                  baseline->merged.crosscheck_probes);
        EXPECT_EQ(run.merged.crosscheck_records.size(),
                  baseline->merged.crosscheck_records.size());
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// --- plan-side /24 enumeration ----------------------------------------------

TEST(CrossCheckEnumeration, ShardsPartitionTheSerialPrefixWalk) {
  const auto spec = test_spec(42, 30);
  const auto plan = cd::ditl::build_campaign_plan(spec);

  const std::vector<PrefixTarget> serial = cd::ditl::prefix24_targets(*plan);
  ASSERT_GT(serial.size(), 0u);

  std::map<IpAddr, cd::sim::Asn> serial_by_base;
  for (const PrefixTarget& pt : serial) {
    EXPECT_EQ(pt.prefix.length(), 24);
    EXPECT_TRUE(pt.prefix.base().is_v4());
    // Every /24 lies inside one of its AS's announced prefixes.
    const std::size_t id = pt.asn - cd::ditl::kEdgeAsnBase;
    bool contained = false;
    for (std::size_t p = 0; p < plan->v4_count(id); ++p) {
      contained |= plan->v4_prefix(id, p).contains(pt.prefix.base());
    }
    EXPECT_TRUE(contained) << pt.prefix.to_string();
    const bool inserted =
        serial_by_base.emplace(pt.prefix.base(), pt.asn).second;
    EXPECT_TRUE(inserted) << "duplicate /24 " << pt.prefix.to_string();
  }

  const std::size_t n_shards = 4;
  std::map<IpAddr, cd::sim::Asn> union_by_base;
  std::size_t count_sum = 0;
  for (std::size_t shard = 0; shard < n_shards; ++shard) {
    const std::vector<PrefixTarget> slice =
        cd::ditl::prefix24_targets(*plan, shard, n_shards);
    count_sum += slice.size();
    for (const PrefixTarget& pt : slice) {
      EXPECT_EQ(cd::scanner::shard_of(pt.asn, n_shards), shard);
      const bool inserted =
          union_by_base.emplace(pt.prefix.base(), pt.asn).second;
      EXPECT_TRUE(inserted) << "/24 in two shards: " << pt.prefix.to_string();
    }
  }
  EXPECT_EQ(count_sum, serial.size());
  EXPECT_EQ(union_by_base, serial_by_base);
}

// --- verdict-vs-truth property ----------------------------------------------

// A prefix verdict may never contradict the planted ground truth:
//  - soundness: a /24 marked vulnerable must belong to an AS whose border
//    admits in-prefix-spoofed packets (no DSAV, no same-subnet uRPF), and
//    every responding address must be a real deployed resolver;
//  - completeness: a probed /24 holding a directly-resolving resolver
//    (neither forwarding nor QNAME-minimizing — the attribution-safe kind)
//    behind such a border must be marked vulnerable.
TEST(CrossCheckTruth, VerdictNeverContradictsTruthTable) {
  for (const std::uint64_t seed :
       {std::uint64_t{7}, std::uint64_t{99}, std::uint64_t{2024}}) {
    const auto spec = test_spec(seed, 14);
    const auto world =
        cd::ditl::generate_world(cd::ditl::build_campaign_plan(spec));
    const cd::ditl::CampaignPlan& plan = *world->plan;

    const std::uint32_t width = 64;
    ExperimentConfig config;
    config.crosscheck = test_crosscheck(width);
    cd::ditl::World& w = *world;
    cd::core::Experiment experiment(w, config);
    const cd::core::ExperimentResults& results = experiment.run();
    ASSERT_GT(results.crosscheck_probes, 0u);

    const auto policy_of_asn = [&](cd::sim::Asn asn) {
      return plan.policy_of(asn - cd::ditl::kEdgeAsnBase);
    };

    // Soundness.
    std::uint64_t vulnerable = 0;
    for (const auto& [base, rec] : results.crosscheck_records) {
      if (!rec.vulnerable()) continue;
      ++vulnerable;
      const cd::sim::FilterPolicy policy = policy_of_asn(rec.asn);
      EXPECT_FALSE(policy.dsav)
          << "seed=" << seed << ": DSAV AS " << rec.asn
          << " marked vulnerable at " << base.to_string();
      EXPECT_FALSE(policy.drop_inbound_same_subnet)
          << "seed=" << seed << ": uRPF-subnet AS " << rec.asn
          << " marked vulnerable at " << base.to_string();
      for (const IpAddr& addr : rec.responding) {
        EXPECT_TRUE(Prefix(base, 24).contains(addr));
        EXPECT_NE(world->truth_resolvers.find(addr),
                  world->truth_resolvers.end())
            << "seed=" << seed << ": responding address "
            << addr.to_string() << " is not a deployed resolver";
      }
    }

    // Completeness, restricted to the probed window and to resolvers whose
    // resolution path cannot lose the attribution labels.
    std::uint64_t expected_hits = 0;
    for (const auto& [addr, truth] : world->truth_resolvers) {
      if (!addr.is_v4()) continue;
      const std::uint64_t offset = addr.bits().lo & 0xff;
      if (offset < 10 || offset >= 10 + width) continue;
      if (truth.forwards || truth.qmin) continue;
      const auto asn = world->topology.asn_of(addr);
      ASSERT_TRUE(asn.has_value()) << addr.to_string();
      if (*asn < cd::ditl::kEdgeAsnBase ||
          *asn >= cd::ditl::kEdgeAsnBase + static_cast<cd::sim::Asn>(
                                               plan.size())) {
        continue;  // infra/public resolvers are not in the /24 walk
      }
      const cd::sim::FilterPolicy policy = policy_of_asn(*asn);
      if (policy.dsav || policy.drop_inbound_same_subnet) continue;
      ++expected_hits;
      const IpAddr base = Prefix(addr, 24).base();
      const auto it = results.crosscheck_records.find(base);
      ASSERT_NE(it, results.crosscheck_records.end())
          << "seed=" << seed << ": reachable resolver " << addr.to_string()
          << " produced no /24 record";
      EXPECT_TRUE(it->second.responding.count(addr))
          << "seed=" << seed << ": reachable resolver " << addr.to_string()
          << " missing from its /24's responding set";
    }
    ASSERT_GT(expected_hits, 0u)
        << "seed=" << seed << ": world planted no attributable resolver in "
        << "the probed window — widen it";
    ASSERT_GT(vulnerable, 0u);
  }
}

// --- collector unit behaviour -----------------------------------------------

QnameCodec unit_codec() {
  return QnameCodec(cd::dns::DnsName::must_parse("dns-lab.org"), "x1");
}

cd::resolver::AuthLogEntry entry_for(const QnameCodec& codec,
                                     const QnameInfo& info,
                                     const IpAddr& client,
                                     cd::sim::SimTime at) {
  cd::resolver::AuthLogEntry entry;
  entry.time = at;
  entry.client = client;
  entry.qname = codec.encode(info);
  return entry;
}

TEST(CrossCheckCollectorTest, AttributesDirectAndForwardedEvidence) {
  const QnameCodec codec = unit_codec();
  CrossCheckCollector collector(codec);

  QnameInfo info;
  info.ts = 1000;
  info.src = IpAddr::v4(20, 0, 1, 1);
  info.dst = IpAddr::v4(20, 0, 1, 50);
  info.asn = 100;
  info.mode = QueryMode::kCrossCheck;
  collector.observe(entry_for(codec, info, info.dst, 2000));  // direct

  info.dst = IpAddr::v4(20, 0, 1, 51);
  collector.observe(
      entry_for(codec, info, IpAddr::v4(9, 9, 9, 9), 2000));  // forwarded

  ASSERT_EQ(collector.records().size(), 1u);
  const PrefixRecord& rec = collector.records().begin()->second;
  EXPECT_EQ(rec.prefix, IpAddr::v4(20, 0, 1, 0));
  EXPECT_EQ(rec.asn, 100u);
  EXPECT_EQ(rec.hits, 2u);
  EXPECT_TRUE(rec.direct_seen);
  EXPECT_TRUE(rec.forwarded_seen);
  EXPECT_TRUE(rec.vulnerable());
  EXPECT_EQ(rec.responding,
            (std::set<IpAddr>{IpAddr::v4(20, 0, 1, 50),
                              IpAddr::v4(20, 0, 1, 51)}));
  EXPECT_EQ(collector.stats().entries_seen, 2u);
  EXPECT_EQ(collector.stats().foreign, 0u);
}

TEST(CrossCheckCollectorTest, FiltersForeignPartialLifetimeAndOtherModes) {
  const QnameCodec codec = unit_codec();
  CrossCheckCollector collector(codec);

  cd::resolver::AuthLogEntry foreign;
  foreign.time = 100;
  foreign.qname = cd::dns::DnsName::must_parse("www.example.com");
  collector.observe(foreign);
  EXPECT_EQ(collector.stats().foreign, 1u);

  QnameInfo info;
  info.ts = 1000;
  info.src = IpAddr::v4(20, 0, 1, 1);
  info.dst = IpAddr::v4(20, 0, 1, 50);
  info.asn = 100;
  info.mode = QueryMode::kInitial;  // probe plane: not ours
  collector.observe(entry_for(codec, info, info.dst, 2000));
  EXPECT_TRUE(collector.records().empty());

  info.mode = QueryMode::kCrossCheck;  // replayed hours later: excluded
  collector.observe(
      entry_for(codec, info, info.dst, 1000 + 11 * cd::sim::kSecond));
  EXPECT_TRUE(collector.records().empty());
  EXPECT_EQ(collector.stats().excluded_lifetime, 1u);

  // QNAME-minimized remnant: mode label present, attribution labels gone.
  cd::resolver::AuthLogEntry partial;
  partial.time = 2000;
  partial.client = info.dst;
  partial.qname = codec.base().prepend(codec.keyword()).prepend("m5");
  collector.observe(partial);
  EXPECT_TRUE(collector.records().empty());
  EXPECT_EQ(collector.stats().partial, 1u);
}

// --- methodology-agreement join ---------------------------------------------

TEST(MethodologyAgreement, ClassifiesEveryQuadrant) {
  // AS 100: both modalities hit. AS 101: neither. AS 102: resolver only
  // (the uRPF-subnet signature). AS 103: prefix only (a resolver the
  // per-resolver campaign never probed).
  cd::analysis::Records records;
  std::vector<cd::scanner::TargetInfo> targets;
  const auto add_target = [&](cd::sim::Asn asn, const IpAddr& addr,
                              bool reachable) {
    targets.push_back({addr, asn});
    cd::scanner::TargetRecord rec;
    rec.target = addr;
    rec.asn = asn;
    if (reachable) {
      rec.first_hit_time = 5;
      rec.sources_hit.insert(IpAddr::v4(60, 0, 0, 1));
    }
    records.emplace(addr, rec);
  };
  add_target(100, IpAddr::v4(20, 0, 1, 50), true);
  add_target(101, IpAddr::v4(20, 1, 1, 50), false);
  add_target(102, IpAddr::v4(20, 2, 1, 50), true);

  PrefixRecords prefix_records;
  std::vector<PrefixTarget> probed;
  const auto add_prefix = [&](cd::sim::Asn asn, const IpAddr& base,
                              bool vulnerable) {
    probed.push_back({Prefix(base, 24), asn});
    if (vulnerable) {
      PrefixRecord rec;
      rec.prefix = base;
      rec.asn = asn;
      rec.responding.insert(base.offset_by(50));
      prefix_records.emplace(base, rec);
    }
  };
  add_prefix(100, IpAddr::v4(20, 0, 1, 0), true);
  add_prefix(100, IpAddr::v4(20, 0, 2, 0), false);
  add_prefix(101, IpAddr::v4(20, 1, 1, 0), false);
  add_prefix(102, IpAddr::v4(20, 2, 1, 0), false);
  add_prefix(103, IpAddr::v4(20, 3, 1, 0), true);

  const cd::analysis::AgreementReport report =
      cd::analysis::methodology_agreement(records, targets, prefix_records,
                                          probed);
  ASSERT_EQ(report.ases, 4u);
  EXPECT_EQ(report.agree_vulnerable, 1u);
  EXPECT_EQ(report.agree_filtered, 1u);
  EXPECT_EQ(report.resolver_only, 1u);
  EXPECT_EQ(report.prefix_only, 1u);
  EXPECT_EQ(report.prefixes_probed, 5u);
  EXPECT_EQ(report.prefixes_vulnerable, 2u);
  EXPECT_DOUBLE_EQ(report.prefix_vulnerable_share, 0.4);
  EXPECT_EQ(report.resolver_ases_probed, 3u);
  EXPECT_EQ(report.resolver_ases_vulnerable, 2u);

  ASSERT_EQ(report.rows.size(), 4u);
  using cd::analysis::MethodAgreement;
  EXPECT_EQ(report.rows[0].asn, 100u);
  EXPECT_EQ(report.rows[0].verdict, MethodAgreement::kAgreeVulnerable);
  EXPECT_EQ(report.rows[1].verdict, MethodAgreement::kAgreeFiltered);
  EXPECT_EQ(report.rows[2].verdict, MethodAgreement::kResolverOnly);
  EXPECT_EQ(report.rows[3].verdict, MethodAgreement::kPrefixOnly);
  EXPECT_EQ(report.rows[3].resolvers_probed, 0u);

  const std::string rendered = cd::analysis::render_agreement(report);
  EXPECT_NE(rendered.find("agree-vulnerable: 1"), std::string::npos);
  EXPECT_NE(rendered.find("prefix-only"), std::string::npos);
}

// The agreement classification tracks the truth table's border flags
// wherever both modalities had coverage: a DSAV or uRPF-subnet AS can never
// show a vulnerable prefix, and an open-border AS holding an attributable
// resolver *inside the probed window* can never be classified resolver-only
// (outside the window — or behind qmin/forwarding attribution loss — a
// resolver-only verdict is legitimate coverage asymmetry, not a bug).
TEST(MethodologyAgreement, VerdictsTrackTruthOverRandomizedWorlds) {
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{777}}) {
    const auto spec = test_spec(seed, 12);
    const auto world =
        cd::ditl::generate_world(cd::ditl::build_campaign_plan(spec));
    const cd::ditl::CampaignPlan& plan = *world->plan;

    const std::uint32_t width = 64;
    ExperimentConfig config;
    config.crosscheck = test_crosscheck(width);
    cd::core::Experiment experiment(*world, config);
    const cd::core::ExperimentResults& results = experiment.run();

    // ASes with at least one directly-resolving (non-forwarding, non-qmin)
    // v4 resolver at a probed host offset: the prefix scanner is guaranteed
    // evidence there if — and only if — the border is open.
    std::set<cd::sim::Asn> attributable;
    for (const auto& [addr, truth] : world->truth_resolvers) {
      if (!addr.is_v4() || truth.forwards || truth.qmin) continue;
      const std::uint64_t offset = addr.bits().lo & 0xff;
      if (offset < 10 || offset >= 10 + width) continue;
      const auto asn = world->topology.asn_of(addr);
      if (asn) attributable.insert(*asn);
    }

    const std::vector<PrefixTarget> probed =
        cd::ditl::prefix24_targets(plan);
    const cd::analysis::AgreementReport report =
        cd::analysis::methodology_agreement(results.records, world->targets,
                                            results.crosscheck_records,
                                            probed);
    ASSERT_GT(report.ases, 0u);

    for (const cd::analysis::AsAgreement& row : report.rows) {
      if (row.asn < cd::ditl::kEdgeAsnBase) continue;
      const cd::sim::FilterPolicy policy =
          plan.policy_of(row.asn - cd::ditl::kEdgeAsnBase);
      const bool blocks_prefix_scan =
          policy.dsav || policy.drop_inbound_same_subnet;
      if (blocks_prefix_scan) {
        EXPECT_EQ(row.prefixes_vulnerable, 0u)
            << "seed=" << seed << " AS " << row.asn
            << ": prefix scanner crossed a filtering border";
      } else if (attributable.count(row.asn)) {
        EXPECT_NE(row.verdict, cd::analysis::MethodAgreement::kResolverOnly)
            << "seed=" << seed << " AS " << row.asn
            << ": open border with an attributable in-window resolver, yet "
            << "the prefix modality missed — contradicts the truth table";
      }
    }
  }
}

}  // namespace
