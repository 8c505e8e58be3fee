// The bounded-memory campaign guarantees: streamed shard worlds and
// disk-spilled shard results must be invisible in the evidence — digests
// equal to the goldens materialized shard worlds reproduced, and spilled
// merges bit-identical to in-memory ones, for every (seed, shards) tested —
// and the spill codec must be a strict round-trip that can never parse a
// truncated file as partial results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "campaign_goldens.h"
#include "core/parallel.h"
#include "core/spill.h"
#include "ditl/plan.h"
#include "ditl/target_stream.h"
#include "ditl/world.h"
#include "net/packet.h"
#include "scanner/prober.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/rss.h"

namespace {

using cd::core::capture_digest;
using cd::core::ExperimentConfig;
using cd::core::ExperimentResults;
using cd::core::results_digest;
using cd::core::run_sharded_experiment;
using cd::core::ShardedResults;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CD_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CD_SANITIZED 1
#endif
#endif

cd::ditl::WorldSpec test_spec(std::uint64_t seed) {
  cd::ditl::WorldSpec spec = cd::ditl::small_world_spec();
  spec.seed = seed;
  return spec;
}

/// Analyst replays and a full capture exercise the replay path and the
/// capture merge (the golden campaign config).
ExperimentConfig test_config(std::size_t shards,
                             const std::string& spill_dir = {}) {
  ExperimentConfig config = cd::golden::full_fat_config(shards);
  config.spill_dir = spill_dir;
  return config;
}

// --- streamed worlds vs the materialized goldens ----------------------------

TEST(CampaignStream, StreamedWorldsMatchGoldenDigests) {
  for (const std::uint64_t seed :
       {std::uint64_t{42}, std::uint64_t{1337}, std::uint64_t{9001}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      const cd::golden::CampaignGolden& want =
          cd::golden::full_fat(seed, shards);
      const ShardedResults streamed =
          run_sharded_experiment(test_spec(seed), test_config(shards));
      ASSERT_GT(streamed.merged.records.size(), 0u);
      EXPECT_EQ(results_digest(streamed.merged), want.results)
          << "seed=" << seed << " shards=" << shards;
      // Same shard partition as the materialized worlds, so even the *full*
      // capture — probe plane plus resolver traffic — is pinned.
      EXPECT_EQ(capture_digest(streamed.merged.capture), want.capture)
          << "seed=" << seed << " shards=" << shards;
    }
  }
}

TEST(CampaignStream, ShardWorldsPartitionTheFullWorldsTargets) {
  const std::shared_ptr<const cd::ditl::CampaignPlan> plan =
      cd::ditl::build_campaign_plan(test_spec(42));
  const auto full = cd::ditl::generate_world(plan);  // shard 0 of 1
  std::set<cd::net::IpAddr> full_targets;
  for (const auto& t : full->targets) full_targets.insert(t.addr);
  ASSERT_EQ(full_targets.size(), full->targets.size()) << "duplicate targets";

  const std::size_t n_shards = 4;
  std::set<cd::net::IpAddr> union_targets;
  for (std::size_t shard = 0; shard < n_shards; ++shard) {
    const auto world = cd::ditl::generate_world(plan, shard, n_shards);
    for (const auto& t : world->targets) {
      EXPECT_EQ(cd::scanner::shard_of(t.asn, n_shards), shard)
          << t.addr.to_string();
      const auto [it, inserted] = union_targets.insert(t.addr);
      EXPECT_TRUE(inserted) << "target in two shards: " << t.addr.to_string();
    }
  }
  EXPECT_EQ(union_targets, full_targets);
}

TEST(CampaignStream, ShardWorldIsSmallerThanTheFullWorld) {
  const std::shared_ptr<const cd::ditl::CampaignPlan> plan =
      cd::ditl::build_campaign_plan(test_spec(42));
  const auto full = cd::ditl::generate_world(plan);
  const auto shard = cd::ditl::generate_world(plan, 0, 8);
  // An eighth of the ASes' fleets plus shared infra: well under half.
  EXPECT_LT(shard->resolvers.size(), full->resolvers.size() / 2);
  EXPECT_LT(shard->targets.size(), full->targets.size() / 2);
  // But the routing layer still covers every AS — packets to foreign
  // prefixes must route (and drop at the stack), not vanish as unrouted.
  EXPECT_EQ(shard->topology.as_count(), full->topology.as_count());
}

TEST(CampaignStream, SharedPlanBuildsTheSameShardWorlds) {
  // The sharded runner hands every shard one plan; a shard world built from
  // it must equal one built from a plan of its own.
  const auto spec = test_spec(42);
  const std::shared_ptr<const cd::ditl::CampaignPlan> shared =
      cd::ditl::build_campaign_plan(spec);
  const std::size_t n_shards = 4;
  for (std::size_t shard = 0; shard < n_shards; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    const auto a = cd::ditl::generate_world(shared, shard, n_shards);
    const auto b = cd::ditl::generate_world(cd::ditl::build_campaign_plan(spec),
                                            shard, n_shards);
    EXPECT_EQ(a->plan, shared);
    EXPECT_NE(b->plan, shared);
    EXPECT_EQ(a->targets, b->targets);
    ASSERT_EQ(a->truth_resolvers.size(), b->truth_resolvers.size());
    for (auto ia = a->truth_resolvers.begin(), ib = b->truth_resolvers.begin();
         ia != a->truth_resolvers.end(); ++ia, ++ib) {
      EXPECT_EQ(ia->first, ib->first);
      EXPECT_EQ(ia->second, ib->second);
    }
    EXPECT_EQ(a->hitlist_v6, b->hitlist_v6);
    EXPECT_EQ(a->topology.as_count(), b->topology.as_count());
  }
}

TEST(CampaignStream, StreamCountsMatchTheMaterializedWorld) {
  const std::shared_ptr<const cd::ditl::CampaignPlan> plan =
      cd::ditl::build_campaign_plan(test_spec(42));
  const auto counts = cd::ditl::count_stream(*plan);
  const auto full = cd::ditl::generate_world(plan);
  EXPECT_EQ(counts.targets, full->targets.size());
  // The stream counts edge fleets only; the world additionally materializes
  // the shared public DNS services.
  EXPECT_EQ(counts.resolvers, full->resolvers.size() - cd::ditl::kNumPublicDns);
  // Sharded counts sum to the whole.
  cd::ditl::StreamCounts sum;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const auto c = cd::ditl::count_stream(*plan, shard, 4);
    sum.ases += c.ases;
    sum.resolvers += c.resolvers;
    sum.targets += c.targets;
  }
  EXPECT_EQ(sum.ases, counts.ases);
  EXPECT_EQ(sum.resolvers, counts.resolvers);
  EXPECT_EQ(sum.targets, counts.targets);
}

// --- spill equivalence ------------------------------------------------------

TEST(CampaignSpill, SpilledCampaignMatchesInMemoryAndCleansUp) {
  const auto dir =
      std::filesystem::temp_directory_path() / "cd_spill_equiv_test";
  std::filesystem::remove_all(dir);
  for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{1337}}) {
    const ShardedResults in_memory =
        run_sharded_experiment(test_spec(seed), test_config(4));
    const ShardedResults spilled = run_sharded_experiment(
        test_spec(seed), test_config(4, dir.string()));
    EXPECT_EQ(results_digest(spilled.merged), results_digest(in_memory.merged))
        << "seed=" << seed;
    EXPECT_EQ(capture_digest(spilled.merged.capture),
              capture_digest(in_memory.merged.capture))
        << "seed=" << seed;
    for (const auto& timing : spilled.shards) {
      EXPECT_GT(timing.spill_ms, 0.0) << "shard never spilled";
      EXPECT_GT(timing.peak_rss_kb, 0u);
    }
    // Spill files are consumed by the merge; nothing lingers on disk.
    ASSERT_TRUE(std::filesystem::exists(dir));
    EXPECT_TRUE(std::filesystem::is_empty(dir));
  }
  std::filesystem::remove_all(dir);
}

// --- spill codec round-trip and truncation safety ---------------------------

/// An ExperimentResults with every field and container populated, so the
/// round-trip exercises each codec branch.
ExperimentResults synthetic_results() {
  ExperimentResults r;
  cd::scanner::TargetRecord rec;
  rec.target = cd::net::IpAddr::v4(20, 0, 1, 2);
  rec.asn = 123;
  rec.sources_hit = {cd::net::IpAddr::v4(60, 0, 0, 1),
                     cd::net::IpAddr::must_parse("2620:60::1")};
  rec.categories_hit = {cd::scanner::SourceCategory::kOtherPrefix,
                        cd::scanner::SourceCategory::kPrivate};
  rec.first_hit_time = 1234567;
  rec.first_hit_source = cd::net::IpAddr::v4(60, 0, 0, 1);
  rec.direct_seen = true;
  rec.forwarded_seen = true;
  rec.forwarders_seen = {cd::net::IpAddr::v4(20, 0, 1, 99)};
  rec.client_in_target_as = true;
  rec.ports_v4 = {1024, 5353, 65535};
  rec.ports_v6 = {32768};
  rec.open_hit = true;
  rec.tcp_hit = true;
  rec.tcp_syn = cd::net::make_udp(cd::net::IpAddr::v4(60, 0, 0, 1), 4242,
                                  rec.target, 53, {1, 2, 3});

  cd::scanner::TargetRecord dark;  // never answered: optionals empty
  dark.target = cd::net::IpAddr::must_parse("2620:20::5");
  dark.asn = 456;
  // Inserted v6-first so the hash map iterates in address order, the order
  // the codec writes: the v4 golden below was taken from a writer that
  // emitted the map's iteration order.
  r.records.emplace(dark.target, dark);
  r.records.emplace(rec.target, rec);

  r.collector_stats.entries_seen = 10;
  r.collector_stats.foreign = 1;
  r.collector_stats.excluded_lifetime = 2;
  r.collector_stats.qmin_partial = 3;
  r.qmin_asns = {101, 202};
  r.lifetime_excluded_targets = {cd::net::IpAddr::v4(20, 0, 1, 2)};
  r.network_stats.sent = 99;
  r.network_stats.delivered = 55;
  r.network_stats.delivery_batches = 44;
  r.network_stats.dropped_osav = 11;
  r.network_stats.dropped_dsav = 7;
  r.network_stats.dropped_martian = 13;
  r.network_stats.dropped_urpf = 17;
  r.network_stats.dropped_unrouted = 19;
  r.network_stats.dropped_no_host = 37;
  r.network_stats.dropped_stack = 23;
  r.queries_sent = 400;
  r.followup_batteries = 5;
  r.analyst_replays = 6;

  cd::scanner::PrefixRecord full24;  // cross-check plane: a vulnerable /24
  full24.prefix = cd::net::IpAddr::v4(20, 0, 1, 0);
  full24.asn = 123;
  full24.responding = {cd::net::IpAddr::v4(20, 0, 1, 50),
                       cd::net::IpAddr::v4(20, 0, 1, 51)};
  full24.hits = 9;
  full24.direct_seen = true;
  full24.forwarded_seen = true;
  r.crosscheck_records.emplace(full24.prefix, full24);
  cd::scanner::PrefixRecord silent24;  // probed, nothing escaped
  silent24.prefix = cd::net::IpAddr::v4(20, 0, 2, 0);
  silent24.asn = 124;
  r.crosscheck_records.emplace(silent24.prefix, silent24);
  r.crosscheck_probes = 777;

  cd::attack::PoisonRecord fell;  // attacker plane: a poisoned legacy victim
  fell.victim = cd::net::IpAddr::v4(20, 0, 1, 10);
  fell.asn = 123;
  fell.software = cd::resolver::DnsSoftware::kBind8;
  fell.os = cd::sim::OsId::kEmbeddedCpe;
  fell.open = true;
  fell.reachable = true;
  fell.success = true;
  fell.rounds = 4;
  fell.success_round = 2;
  fell.poisoned_ttl = 86400;
  fell.triggers = 5;
  fell.forged = 128;
  fell.observed_ports = {53, 53, 53};
  r.poison_records.emplace(fell.victim, fell);
  cd::attack::PoisonRecord held;  // raced but never reached (border filtered)
  held.victim = cd::net::IpAddr::v4(20, 0, 2, 10);
  held.asn = 124;
  held.software = cd::resolver::DnsSoftware::kUnbound190;
  held.os = cd::sim::OsId::kUbuntu1904;
  r.poison_records.emplace(held.victim, held);
  r.poison_triggers = 10;
  r.poison_forged = 128;

  r.transport.dials = 71;  // transport plane: counters and reply digests
  r.transport.accepts = 67;
  r.transport.session_reuses = 41;
  r.transport.session_messages = 48;
  r.transport.idle_closes = 29;
  r.transport.handshake_bytes = 896;
  r.transport_replies[cd::net::IpAddr::v4(20, 0, 1, 2)] = 0xDEADBEEFull;
  r.transport_replies[cd::net::IpAddr::must_parse("2620:20::5")] =
      0x1234567890ull;

  r.capture.snaplen = 512;
  cd::pcap::PcapRecord pkt;
  pkt.time_us = 1000;
  pkt.orig_len = 80;
  pkt.annotation = 3;
  pkt.bytes = {0xde, 0xad, 0xbe, 0xef};
  r.capture.records.push_back(pkt);
  return r;
}

TEST(SpillCodec, RoundTripPreservesEveryField) {
  const ExperimentResults original = synthetic_results();
  const auto bytes = cd::core::serialize_results(original);
  const ExperimentResults back = cd::core::parse_results(bytes);

  EXPECT_EQ(results_digest(back), results_digest(original));
  ASSERT_EQ(back.records.size(), original.records.size());
  for (const auto& [addr, expect] : original.records) {
    const auto it = back.records.find(addr);
    ASSERT_NE(it, back.records.end()) << addr.to_string();
    const auto& got = it->second;
    EXPECT_EQ(got.asn, expect.asn);
    EXPECT_EQ(got.sources_hit, expect.sources_hit);
    EXPECT_EQ(got.categories_hit, expect.categories_hit);
    EXPECT_EQ(got.first_hit_time, expect.first_hit_time);
    EXPECT_EQ(got.first_hit_source, expect.first_hit_source);
    EXPECT_EQ(got.direct_seen, expect.direct_seen);
    EXPECT_EQ(got.forwarded_seen, expect.forwarded_seen);
    EXPECT_EQ(got.forwarders_seen, expect.forwarders_seen);
    EXPECT_EQ(got.client_in_target_as, expect.client_in_target_as);
    EXPECT_EQ(got.ports_v4, expect.ports_v4);
    EXPECT_EQ(got.ports_v6, expect.ports_v6);
    EXPECT_EQ(got.open_hit, expect.open_hit);
    EXPECT_EQ(got.tcp_hit, expect.tcp_hit);
    ASSERT_EQ(got.tcp_syn.has_value(), expect.tcp_syn.has_value());
    if (got.tcp_syn) {
      EXPECT_EQ(got.tcp_syn->serialize(), expect.tcp_syn->serialize());
    }
  }
  EXPECT_EQ(back.collector_stats.entries_seen, 10u);
  EXPECT_EQ(back.collector_stats.foreign, 1u);
  EXPECT_EQ(back.collector_stats.excluded_lifetime, 2u);
  EXPECT_EQ(back.collector_stats.qmin_partial, 3u);
  EXPECT_EQ(back.qmin_asns, original.qmin_asns);
  EXPECT_EQ(back.lifetime_excluded_targets, original.lifetime_excluded_targets);
  EXPECT_EQ(back.network_stats.sent, 99u);
  EXPECT_EQ(back.network_stats.delivered, 55u);
  EXPECT_EQ(back.network_stats.delivery_batches, 44u);
  EXPECT_EQ(back.network_stats.dropped_osav, 11u);
  EXPECT_EQ(back.network_stats.dropped_dsav, 7u);
  EXPECT_EQ(back.network_stats.dropped_martian, 13u);
  EXPECT_EQ(back.network_stats.dropped_urpf, 17u);
  EXPECT_EQ(back.network_stats.dropped_unrouted, 19u);
  EXPECT_EQ(back.network_stats.dropped_no_host, 37u);
  EXPECT_EQ(back.network_stats.dropped_stack, 23u);
  EXPECT_EQ(back.queries_sent, 400u);
  EXPECT_EQ(back.followup_batteries, 5u);
  EXPECT_EQ(back.analyst_replays, 6u);
  EXPECT_EQ(back.capture.snaplen, 512u);
  ASSERT_EQ(back.capture.records.size(), 1u);
  EXPECT_EQ(back.capture.records[0], original.capture.records[0]);

  ASSERT_EQ(back.crosscheck_records.size(), original.crosscheck_records.size());
  for (const auto& [base, expect] : original.crosscheck_records) {
    const auto it = back.crosscheck_records.find(base);
    ASSERT_NE(it, back.crosscheck_records.end()) << base.to_string();
    EXPECT_EQ(it->second.prefix, expect.prefix);
    EXPECT_EQ(it->second.asn, expect.asn);
    EXPECT_EQ(it->second.responding, expect.responding);
    EXPECT_EQ(it->second.hits, expect.hits);
    EXPECT_EQ(it->second.direct_seen, expect.direct_seen);
    EXPECT_EQ(it->second.forwarded_seen, expect.forwarded_seen);
  }
  EXPECT_EQ(back.crosscheck_probes, 777u);

  ASSERT_EQ(back.poison_records.size(), original.poison_records.size());
  for (const auto& [addr, expect] : original.poison_records) {
    const auto it = back.poison_records.find(addr);
    ASSERT_NE(it, back.poison_records.end()) << addr.to_string();
    EXPECT_EQ(it->second.victim, expect.victim);
    EXPECT_EQ(it->second.asn, expect.asn);
    EXPECT_EQ(it->second.software, expect.software);
    EXPECT_EQ(it->second.os, expect.os);
    EXPECT_EQ(it->second.open, expect.open);
    EXPECT_EQ(it->second.reachable, expect.reachable);
    EXPECT_EQ(it->second.success, expect.success);
    EXPECT_EQ(it->second.rounds, expect.rounds);
    EXPECT_EQ(it->second.success_round, expect.success_round);
    EXPECT_EQ(it->second.poisoned_ttl, expect.poisoned_ttl);
    EXPECT_EQ(it->second.triggers, expect.triggers);
    EXPECT_EQ(it->second.forged, expect.forged);
    EXPECT_EQ(it->second.observed_ports, expect.observed_ports);
  }
  EXPECT_EQ(back.poison_triggers, 10u);
  EXPECT_EQ(back.poison_forged, 128u);

  EXPECT_TRUE(back.transport == original.transport);
  EXPECT_EQ(back.transport.session_reuses, 41u);
  EXPECT_EQ(back.transport_replies, original.transport_replies);
}

TEST(SpillCodec, BytesMatchV4Golden) {
  // The CDSP v4 byte layout, pinned: any reordering, width change or flag
  // repacking of the codec changes these. Produced by the hand-written v4
  // codec, before the field walk replaced it. Re-serializing the parse must
  // reproduce the file exactly: the writer emits target records in address
  // order, not hash-map order, so the encoding is a function of the value.
  const auto bytes = cd::core::serialize_results(synthetic_results());
  const std::uint64_t digest = cd::stable_hash(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  EXPECT_EQ(cd::core::kSpillVersion, 4u);
  EXPECT_EQ(bytes.size(), 922u);
  EXPECT_EQ(digest, 0xe4e004f5601d7f85ull);
  EXPECT_EQ(cd::core::serialize_results(cd::core::parse_results(bytes)),
            bytes);
}

TEST(SpillCodec, FileRoundTripAndMissingFile) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "cd_spill_roundtrip_test.cdsp")
                        .string();
  const ExperimentResults original = synthetic_results();
  cd::core::write_results(original, path);
  const ExperimentResults back = cd::core::read_results(path);
  EXPECT_EQ(results_digest(back), results_digest(original));
  std::remove(path.c_str());
  EXPECT_THROW((void)cd::core::read_results(path), cd::Error);
}

TEST(SpillCodec, EveryStrictPrefixFailsToParse) {
  const auto bytes = cd::core::serialize_results(synthetic_results());
  ASSERT_GT(bytes.size(), 8u);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(
        (void)cd::core::parse_results(std::span(bytes.data(), n)),
        cd::ParseError)
        << "prefix of " << n << " bytes parsed";
  }
}

TEST(SpillCodec, TrailingGarbageAndBadHeaderFail) {
  auto bytes = cd::core::serialize_results(synthetic_results());
  auto trailing = bytes;
  trailing.push_back(0x00);
  EXPECT_THROW((void)cd::core::parse_results(trailing), cd::ParseError);

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW((void)cd::core::parse_results(bad_magic), cd::ParseError);

  auto bad_version = bytes;
  bad_version[4] ^= 0xff;
  EXPECT_THROW((void)cd::core::parse_results(bad_version), cd::ParseError);
}

TEST(SpillCodec, EverySingleBitFlipNeverParsesSilently) {
  // Every byte of a .cdsp file is load-bearing: a corrupted file must either
  // refuse to parse, or decode to a value that visibly differs when
  // reserialized — never crash (the ASan/UBSan CI lanes make "never crash"
  // mean "never over-read or hit UB"), and never round-trip back to the
  // pristine bytes as if nothing happened. The encoding is a function of the
  // value, so this holds for every bit, including the checksum inside the
  // embedded SYN, which Packet::parse alone would ignore.
  const auto pristine = cd::core::serialize_results(synthetic_results());
  int threw = 0, reparsed_differently = 0;
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      auto flipped = pristine;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        const ExperimentResults parsed = cd::core::parse_results(flipped);
        ++reparsed_differently;
        EXPECT_NE(cd::core::serialize_results(parsed), pristine)
            << "bit " << bit << " of byte " << byte
            << " flipped, yet the parse round-tripped to the pristine bytes";
      } catch (const cd::ParseError&) {
        ++threw;  // the strict outcome; any other exception fails the test
      }
    }
  }
  // Both outcomes must actually occur, or the property degenerates (a codec
  // that throws on everything — or parses anything — would pass vacuously).
  EXPECT_GT(threw, 0);
  EXPECT_GT(reparsed_differently, 0);
}

// --- bounded memory ---------------------------------------------------------

TEST(CampaignMemory, PeakRssBoundedRegardlessOfTargetCount) {
  // Scale targets 2x while scaling shards 2x: with streamed worlds and
  // spilled results, the in-flight footprint tracks shard size, not world
  // size, so the doubled world must not double the per-shard target slice —
  // and the whole binary must fit a fixed absolute budget that does not
  // move when target counts grow.
  auto small = test_spec(42);
  auto large = small;
  large.n_asns *= 2;

  const auto dir = std::filesystem::temp_directory_path() / "cd_spill_rss";
  ExperimentConfig config = test_config(4, (dir / "a").string());
  config.capture.reset();  // captures are O(traffic) by design
  const ShardedResults a = run_sharded_experiment(small, config);
  config = test_config(8, (dir / "b").string());
  config.capture.reset();
  config.num_threads = 2;
  const ShardedResults b = run_sharded_experiment(large, config);
  std::filesystem::remove_all(dir);

  std::size_t max_slice_a = 0, max_slice_b = 0;
  for (const auto& t : a.shards) max_slice_a = std::max(max_slice_a, t.targets);
  for (const auto& t : b.shards) max_slice_b = std::max(max_slice_b, t.targets);
  ASSERT_GT(max_slice_a, 0u);
  // Hash-partitioned ASes are not perfectly even; 1.6x headroom on "did not
  // double" still fails if shard slices grow with the world.
  EXPECT_LT(max_slice_b, static_cast<std::size_t>(max_slice_a * 1.6))
      << "doubling targets at doubled shard count doubled the shard slice";

#ifdef CD_SANITIZED
  // Sanitizer shadow + quarantine dominate VmHWM; budget accordingly.
  constexpr std::size_t kBudgetKb = 4u * 1024 * 1024;
#else
  constexpr std::size_t kBudgetKb = 768u * 1024;
#endif
  const std::size_t peak = cd::peak_rss_kb();
  ASSERT_GT(peak, 0u) << "VmHWM unavailable";
  EXPECT_LT(peak, kBudgetKb)
      << "campaign peak RSS " << peak << " KiB exceeds the fixed budget";
}

}  // namespace
