// Unit tests: resolver cache — TTL expiry, decay, negatives, RFC 8020.
#include <gtest/gtest.h>

#include "dns/cache.h"
#include "util/error.h"

namespace {

using namespace cd;
using dns::Cache;
using dns::CacheHitKind;
using dns::DnsName;
using dns::RrType;
using net::IpAddr;

constexpr dns::CacheTime kSec = 1'000'000;

TEST(Cache, MissOnEmpty) {
  Cache cache;
  EXPECT_EQ(cache.lookup(DnsName::must_parse("a.org"), RrType::kA, 0).kind,
            CacheHitKind::kMiss);
}

TEST(Cache, PositiveHitAndExpiry) {
  Cache cache;
  const auto name = DnsName::must_parse("a.org");
  cache.insert_positive({dns::make_a(name, IpAddr::must_parse("192.0.2.1"), 60)},
                        0);
  EXPECT_EQ(cache.lookup(name, RrType::kA, 59 * kSec).kind,
            CacheHitKind::kPositive);
  EXPECT_EQ(cache.lookup(name, RrType::kA, 60 * kSec).kind,
            CacheHitKind::kMiss);
}

TEST(Cache, TtlDecaysOnHit) {
  Cache cache;
  const auto name = DnsName::must_parse("a.org");
  cache.insert_positive({dns::make_a(name, IpAddr::must_parse("192.0.2.1"), 100)},
                        0);
  const auto hit = cache.lookup(name, RrType::kA, 40 * kSec);
  ASSERT_EQ(hit.kind, CacheHitKind::kPositive);
  EXPECT_EQ(hit.records[0].ttl, 60u);
}

TEST(Cache, RrsetTtlIsMinimum) {
  Cache cache;
  const auto name = DnsName::must_parse("a.org");
  cache.insert_positive({dns::make_a(name, IpAddr::must_parse("192.0.2.1"), 100),
                         dns::make_a(name, IpAddr::must_parse("192.0.2.2"), 10)},
                        0);
  EXPECT_EQ(cache.lookup(name, RrType::kA, 11 * kSec).kind,
            CacheHitKind::kMiss);
}

TEST(Cache, TypeSeparation) {
  Cache cache;
  const auto name = DnsName::must_parse("a.org");
  cache.insert_positive({dns::make_a(name, IpAddr::must_parse("192.0.2.1"), 60)},
                        0);
  EXPECT_EQ(cache.lookup(name, RrType::kAaaa, 0).kind, CacheHitKind::kMiss);
}

TEST(Cache, MixedRrsetRejected) {
  Cache cache;
  EXPECT_THROW(
      cache.insert_positive(
          {dns::make_a(DnsName::must_parse("a.org"),
                       IpAddr::must_parse("192.0.2.1")),
           dns::make_a(DnsName::must_parse("b.org"),
                       IpAddr::must_parse("192.0.2.2"))},
          0),
      InvariantError);
}

TEST(Cache, NegativeNameHit) {
  Cache cache;
  cache.insert_nxdomain(DnsName::must_parse("gone.org"), 300, 0);
  EXPECT_EQ(cache.lookup(DnsName::must_parse("gone.org"), RrType::kA, 0).kind,
            CacheHitKind::kNegativeName);
  EXPECT_EQ(
      cache.lookup(DnsName::must_parse("gone.org"), RrType::kA, 301 * kSec)
          .kind,
      CacheHitKind::kMiss);
}

TEST(Cache, Rfc8020AncestorCoversDescendants) {
  Cache cache;
  cache.insert_nxdomain(DnsName::must_parse("x1.dns-lab.org"), 300, 0);
  // This is the paper's §3.6.4 mechanism: the NXDOMAIN for the keyword label
  // suppresses every later experiment query through this resolver.
  const auto descendant = DnsName::must_parse("999.aa.bb.1.m0.x1.dns-lab.org");
  EXPECT_EQ(cache.lookup(descendant, RrType::kA, 10 * kSec).kind,
            CacheHitKind::kNegativeName);
  EXPECT_EQ(
      cache.lookup(DnsName::must_parse("x1.dns-lab.org"), RrType::kA, 0).kind,
      CacheHitKind::kNegativeName);
  // Parents and siblings are not covered.
  EXPECT_EQ(cache.lookup(DnsName::must_parse("dns-lab.org"), RrType::kA, 0).kind,
            CacheHitKind::kMiss);
  EXPECT_EQ(
      cache.lookup(DnsName::must_parse("x2.dns-lab.org"), RrType::kA, 0).kind,
      CacheHitKind::kMiss);
  // The cover lasts exactly as long as the ancestor's entry: one tick before
  // the TTL it still holds, at the TTL it is gone.
  EXPECT_EQ(cache.lookup(descendant, RrType::kA, 300 * kSec - 1).kind,
            CacheHitKind::kNegativeName);
  EXPECT_EQ(cache.lookup(descendant, RrType::kA, 300 * kSec).kind,
            CacheHitKind::kMiss);
}

TEST(Cache, SuffixProbesMatchBuiltAncestors) {
  // lookup(SuffixHashes, n, ...) probes suffix n of a name in place; it must
  // answer exactly as a lookup of the built suffix does, case folded.
  Cache cache;
  cache.insert_positive({dns::make_ns(DnsName::must_parse("dns-lab.org"),
                                      DnsName::must_parse("ns.dns-lab.org"))},
                        0);
  cache.insert_nxdomain(DnsName::must_parse("x1.dns-lab.org"), 300, 0);
  cache.insert_nodata(DnsName::must_parse("m0.x2.dns-lab.org"), RrType::kA, 300,
                      0);
  for (const char* text : {"999.aa.bb.1.m0.X1.dns-lab.org",
                           "999.aa.bb.1.M0.x2.DNS-LAB.org", "dns-lab.org"}) {
    const DnsName name = DnsName::must_parse(text);
    const dns::SuffixHashes suffixes(name);
    for (std::size_t n = 0; n <= name.label_count(); ++n) {
      for (RrType t : {RrType::kA, RrType::kNs}) {
        const auto probed = cache.lookup(suffixes, n, t, 10 * kSec);
        const auto built = cache.lookup(name.suffix(n), t, 10 * kSec);
        EXPECT_EQ(probed.kind, built.kind) << text << " n=" << n;
        EXPECT_EQ(probed.records, built.records) << text << " n=" << n;
      }
    }
  }
  const DnsName q = DnsName::must_parse("a.b.DNS-lab.org");
  EXPECT_EQ(cache.lookup(dns::SuffixHashes(q), 2, RrType::kNs, 0).kind,
            CacheHitKind::kPositive);
}

TEST(Cache, NegativeTypeHit) {
  Cache cache;
  const auto name = DnsName::must_parse("a.org");
  cache.insert_nodata(name, RrType::kAaaa, 60, 0);
  EXPECT_EQ(cache.lookup(name, RrType::kAaaa, 0).kind,
            CacheHitKind::kNegativeType);
  EXPECT_EQ(cache.lookup(name, RrType::kA, 0).kind, CacheHitKind::kMiss);
  EXPECT_EQ(cache.lookup(name, RrType::kAaaa, 61 * kSec).kind,
            CacheHitKind::kMiss);
}

TEST(Cache, MaxTtlClamp) {
  dns::CacheConfig config;
  config.max_ttl = 10;
  Cache cache(config);
  const auto name = DnsName::must_parse("a.org");
  cache.insert_positive(
      {dns::make_a(name, IpAddr::must_parse("192.0.2.1"), 100000)}, 0);
  EXPECT_EQ(cache.lookup(name, RrType::kA, 11 * kSec).kind,
            CacheHitKind::kMiss);
  cache.insert_nxdomain(DnsName::must_parse("n.org"), 100000, 0);
  EXPECT_EQ(cache.lookup(DnsName::must_parse("n.org"), RrType::kA, 11 * kSec)
                .kind,
            CacheHitKind::kMiss);
}

TEST(Cache, PurgeRemovesExpired) {
  Cache cache;
  cache.insert_positive({dns::make_a(DnsName::must_parse("a.org"),
                                     IpAddr::must_parse("192.0.2.1"), 10)},
                        0);
  cache.insert_nxdomain(DnsName::must_parse("b.org"), 10, 0);
  cache.insert_nodata(DnsName::must_parse("c.org"), RrType::kA, 1000, 0);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.purge(11 * kSec), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, EmptyRrsetIgnored) {
  Cache cache;
  cache.insert_positive({}, 0);
  EXPECT_EQ(cache.size(), 0u);
}

// --- adversarial insertions (off-path poisoning aftermath) -------------------
//
// What a cache does with attacker-shaped data once the resolver's response
// validation has been beaten: forged week-long TTLs must clamp, poisoned
// entries must still expire and be re-poisonable only for their clamped
// lifetime, a planted name must never contaminate its neighbors, and an
// attacker flooding distinct names must not be able to evict a live entry.

TEST(CacheAdversarial, ForgedTtlIsClampedToMaxTtl) {
  Cache cache;  // default max_ttl 86400 (1 day)
  const auto name = DnsName::must_parse("victim.example");
  // A week-long TTL, as the attack plane forges (PoisonConfig::forged_ttl).
  cache.insert_positive(
      {dns::make_a(name, IpAddr::must_parse("11.66.0.66"), 604800)}, 0);
  const auto hit = cache.lookup(name, RrType::kA, 0);
  ASSERT_EQ(hit.kind, CacheHitKind::kPositive);
  // The decayed TTL visible to clients never exceeds the clamp...
  EXPECT_EQ(hit.records[0].ttl, 86400u);
  // ...and the entry is gone at clamp expiry, not at the forged horizon.
  EXPECT_EQ(cache.lookup(name, RrType::kA, 86400 * kSec).kind,
            CacheHitKind::kMiss);
}

TEST(CacheAdversarial, PoisonedEntryExpiresAndCanBeReplaced) {
  Cache cache;
  const auto name = DnsName::must_parse("victim.example");
  cache.insert_positive(
      {dns::make_a(name, IpAddr::must_parse("11.66.0.66"), 300)}, 0);
  // Refreshing the poison mid-lifetime restarts the clock from `now`, so the
  // attacker holds the name only by re-winning the race each TTL.
  cache.insert_positive(
      {dns::make_a(name, IpAddr::must_parse("11.66.0.66"), 300)}, 200 * kSec);
  EXPECT_EQ(cache.lookup(name, RrType::kA, 450 * kSec).kind,
            CacheHitKind::kPositive);
  EXPECT_EQ(cache.lookup(name, RrType::kA, 500 * kSec).kind,
            CacheHitKind::kMiss);
  // After expiry the legitimate answer takes the slot back cleanly.
  cache.insert_positive(
      {dns::make_a(name, IpAddr::must_parse("192.0.2.1"), 60)}, 500 * kSec);
  const auto hit = cache.lookup(name, RrType::kA, 501 * kSec);
  ASSERT_EQ(hit.kind, CacheHitKind::kPositive);
  EXPECT_EQ(std::get<dns::ARdata>(hit.records[0].rdata).addr,
            IpAddr::must_parse("192.0.2.1"));
}

TEST(CacheAdversarial, PoisonedNameDoesNotContaminateNeighbors) {
  Cache cache;
  const auto good = DnsName::must_parse("www.example.test");
  const auto sibling = DnsName::must_parse("mail.example.test");
  const auto parent = DnsName::must_parse("example.test");
  cache.insert_positive(
      {dns::make_a(good, IpAddr::must_parse("192.0.2.1"), 600)}, 0);
  // The attacker plants a deep name under the same zone.
  const auto planted = DnsName::must_parse("evil.www.example.test");
  cache.insert_positive(
      {dns::make_a(planted, IpAddr::must_parse("11.66.0.66"), 600)}, 0);
  // Only the planted owner answers with the planted address.
  const auto hit = cache.lookup(good, RrType::kA, 1 * kSec);
  ASSERT_EQ(hit.kind, CacheHitKind::kPositive);
  EXPECT_EQ(std::get<dns::ARdata>(hit.records[0].rdata).addr,
            IpAddr::must_parse("192.0.2.1"));
  EXPECT_EQ(cache.lookup(sibling, RrType::kA, 1 * kSec).kind,
            CacheHitKind::kMiss);
  EXPECT_EQ(cache.lookup(parent, RrType::kA, 1 * kSec).kind,
            CacheHitKind::kMiss);
  // Nor does it bleed across types on its own owner.
  EXPECT_EQ(cache.lookup(planted, RrType::kAaaa, 1 * kSec).kind,
            CacheHitKind::kMiss);
}

TEST(CacheAdversarial, AttackerFillCannotEvictLiveEntries) {
  dns::CacheConfig config;
  config.max_entries = 64;
  Cache cache(config);
  const auto target = DnsName::must_parse("www.example.test");
  cache.insert_positive(
      {dns::make_a(target, IpAddr::must_parse("192.0.2.1"), 3600)}, 0);
  // Flood far past the configured capacity with distinct throwaway names.
  // The threshold triggers a purge, but purge removes only *expired*
  // entries: unexpired legitimate data is never sacrificed to make room.
  for (int i = 0; i < 1000; ++i) {
    const auto junk =
        DnsName::must_parse(("x" + std::to_string(i) + ".junk.example")
                                .c_str());
    cache.insert_positive(
        {dns::make_a(junk, IpAddr::must_parse("11.66.0.66"), 30)}, 1 * kSec);
  }
  const auto hit = cache.lookup(target, RrType::kA, 2 * kSec);
  ASSERT_EQ(hit.kind, CacheHitKind::kPositive);
  EXPECT_EQ(std::get<dns::ARdata>(hit.records[0].rdata).addr,
            IpAddr::must_parse("192.0.2.1"));
  // Once the junk TTLs lapse, the flood purges itself on the next
  // over-threshold insert instead of accumulating without bound.
  cache.insert_positive(
      {dns::make_a(DnsName::must_parse("last.junk.example"),
                   IpAddr::must_parse("11.66.0.66"), 30)},
      40 * kSec);
  EXPECT_LE(cache.size(), 3u);  // target + final insert (+ slack)
  EXPECT_EQ(cache.lookup(target, RrType::kA, 40 * kSec).kind,
            CacheHitKind::kPositive);
}

}  // namespace
