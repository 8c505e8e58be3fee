// Unit tests: resolver cache — TTL expiry, decay, negatives, RFC 8020.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dns/cache.h"
#include "reference_cache.h"
#include "util/error.h"
#include "util/rng.h"

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
  Cache cache;
  const auto target = DnsName::must_parse("www.example.test");
  cache.insert_positive(
      {dns::make_a(target, IpAddr::must_parse("192.0.2.1"), 3600)}, 0);
  // Flood with distinct throwaway names. The inserts trigger sweeps, but a
  // sweep removes only *expired* entries: unexpired legitimate data is never
  // sacrificed to make room.
  for (int i = 0; i < 1000; ++i) {
    const auto junk =
        DnsName::must_parse("x" + std::to_string(i) + ".junk.example");
    cache.insert_positive(
        {dns::make_a(junk, IpAddr::must_parse("11.66.0.66"), 30)}, 1 * kSec);
  }
  const auto hit = cache.lookup(target, RrType::kA, 2 * kSec);
  ASSERT_EQ(hit.kind, CacheHitKind::kPositive);
  EXPECT_EQ(std::get<dns::ARdata>(hit.records[0].rdata).addr,
            IpAddr::must_parse("192.0.2.1"));
  // Once the junk TTLs lapse, further inserts (names that die at once)
  // trigger a sweep that takes the flood out: the cache is back to its live
  // entry plus at most 64 dead ones, instead of accumulating without bound.
  for (int i = 0; i < 1000; ++i) {
    cache.insert_nxdomain(
        DnsName::must_parse("gone" + std::to_string(i) + ".junk.example"), 0,
        40 * kSec);
  }
  EXPECT_LE(cache.size(), 1u + 64);
  EXPECT_EQ(cache.lookup(target, RrType::kA, 40 * kSec).kind,
            CacheHitKind::kPositive);
}

// --- randomized programs against the reference cache -------------------------
//
// Each program interleaves inserts of all three kinds, lookups, purges and
// clock steps over one small name tree, spelled in random case, and demands
// that dns::Cache answer every lookup exactly as tests/reference_cache.h
// does: hit kind, records and decayed TTLs, for the built name and for the
// same suffix probed in place. Drawn TTLs straddle the clamp, clock steps
// land on both sides of expiry boundaries, and a program makes hundreds of
// inserts, so the cache sweeps its dead entries many times on its own. A
// failing program is shrunk to a minimal one before it is reported.

constexpr std::uint32_t kPropertyMaxTtl = 120;
constexpr std::uint32_t kTtls[] = {0, 1, 2, 5, 30, 60, 119, 120, 121, 300, 600};
constexpr dns::CacheTime kSteps[] = {0,        1,        kSec - 1,  kSec,
                                     2 * kSec, 30 * kSec, 60 * kSec, 121 * kSec};
constexpr RrType kTypes[] = {RrType::kA, RrType::kAaaa, RrType::kNs,
                             RrType::kTxt};

/// Owner names of the program: the root, chains deep enough for RFC 8020
/// covers several labels up, and siblings that must never be covered.
const std::vector<DnsName>& tree_names() {
  static const std::vector<DnsName> names = [] {
    std::vector<DnsName> out;
    for (const char* text :
         {".", "org", "a.org", "b.org", "a.a.org", "b.a.org", "a.b.org",
          "x1.a.a.org", "m0.x1.a.a.org", "7.m0.x1.a.a.org", "m0.x1.b.a.org",
          "test", "www.test", "a.www.test"}) {
      out.push_back(DnsName::must_parse(text));
    }
    return out;
  }();
  return names;
}

struct CacheOp {
  enum Kind { kPositive, kNxdomain, kNodata, kLookup, kPurge, kAdvance };
  Kind kind = kLookup;
  std::size_t name = 0;    // index into tree_names()
  std::size_t n = 0;       // kLookup: the suffix of the name looked up
  RrType type = RrType::kA;
  std::uint32_t ttl = 0;   // kNxdomain, kNodata
  dns::CacheTime step = 0; // kAdvance
  std::uint64_t seed = 0;  // the name's spelling; kPositive: its records
};

const char* op_name(CacheOp::Kind kind) {
  switch (kind) {
    case CacheOp::kPositive: return "positive";
    case CacheOp::kNxdomain: return "nxdomain";
    case CacheOp::kNodata: return "nodata";
    case CacheOp::kLookup: return "lookup";
    case CacheOp::kPurge: return "purge";
    case CacheOp::kAdvance: return "advance";
  }
  return "?";
}

/// The op's name with the case of each letter flipped at random.
DnsName spelled(const CacheOp& op) {
  std::string text = tree_names()[op.name].to_string();
  Rng rng(op.seed);
  for (char& c : text) {
    if (c >= 'a' && c <= 'z' && rng.uniform(2) == 0) {
      c = static_cast<char>(c - 32);
    }
  }
  return DnsName::must_parse(text);
}

/// One to three records of the op's type, each with its own drawn TTL and
/// rdata, so a stale RRset can never pass for a fresh one.
std::vector<dns::DnsRr> rrset_of(const CacheOp& op, const DnsName& owner) {
  Rng rng(op.seed ^ 0x5eed);
  std::vector<dns::DnsRr> rrset;
  const std::size_t count = 1 + static_cast<std::size_t>(rng.uniform(3));
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t ttl = kTtls[rng.uniform(std::size(kTtls))];
    const std::uint64_t k = rng.uniform(1000);
    switch (op.type) {
      case RrType::kA:
        rrset.push_back(dns::make_a(owner, IpAddr::v4(0xC0000000u + k), ttl));
        break;
      case RrType::kAaaa:
        rrset.push_back(dns::make_aaaa(owner, IpAddr::v6(0x20010db8ull << 32, k),
                                       ttl));
        break;
      case RrType::kNs:
        rrset.push_back(dns::make_ns(
            owner, DnsName::must_parse("ns" + std::to_string(k) + ".org"), ttl));
        break;
      default:
        rrset.push_back(dns::make_txt(owner, "t" + std::to_string(k), ttl));
        break;
    }
  }
  return rrset;
}

/// Compares one lookup of suffix `n` of `name`, probed in place and built.
std::optional<std::string> compare_lookup(const Cache& cache,
                                          const dns::ref::Cache& ref,
                                          const DnsName& name, std::size_t n,
                                          RrType type, dns::CacheTime now) {
  const auto want = ref.lookup(name.suffix(n), type, now);
  const dns::SuffixHashes suffixes(name);
  for (const auto& got : {cache.lookup(suffixes, n, type, now),
                          cache.lookup(name.suffix(n), type, now)}) {
    const std::string what = name.suffix(n).to_string() + " " +
                             dns::rr_type_name(type) + ": ";
    if (got.kind != want.kind) {
      return what + "kind " + std::to_string(static_cast<int>(got.kind)) +
             " want " + std::to_string(static_cast<int>(want.kind));
    }
    if (got.records != want.records) return what + "records or TTLs";
  }
  return std::nullopt;
}

std::optional<std::string> run_cache_program(const std::vector<CacheOp>& ops) {
  dns::CacheConfig config;
  config.max_ttl = kPropertyMaxTtl;
  Cache cache(config);
  dns::ref::Cache ref(config);
  dns::CacheTime now = 0;
  // Every tree name, every type: run after anything that removed entries.
  const auto compare_all = [&]() -> std::optional<std::string> {
    for (const DnsName& name : tree_names()) {
      for (const RrType type : kTypes) {
        if (auto bad = compare_lookup(cache, ref, name, name.label_count(),
                                      type, now)) {
          return bad;
        }
      }
    }
    return std::nullopt;
  };
  for (std::size_t step = 0; step < ops.size(); ++step) {
    const CacheOp& op = ops[step];
    const DnsName name = spelled(op);
    const std::string at = "op " + std::to_string(step) + " (" +
                           op_name(op.kind) + " " + name.to_string() +
                           ", t=" + std::to_string(now) + "us): ";
    const std::size_t size_before = cache.size();
    switch (op.kind) {
      case CacheOp::kPositive: {
        const auto rrset = rrset_of(op, name);
        cache.insert_positive(rrset, now);
        ref.insert_positive(rrset, now);
        break;
      }
      case CacheOp::kNxdomain:
        cache.insert_nxdomain(name, op.ttl, now);
        ref.insert_nxdomain(name, op.ttl, now);
        break;
      case CacheOp::kNodata:
        cache.insert_nodata(name, op.type, op.ttl, now);
        ref.insert_nodata(name, op.type, op.ttl, now);
        break;
      case CacheOp::kLookup:
        if (auto bad = compare_lookup(cache, ref, name, op.n, op.type, now)) {
          return at + *bad;
        }
        break;
      case CacheOp::kPurge:
        cache.purge(now);
        ref.purge(now);
        if (cache.size() != ref.size()) {
          return at + "size " + std::to_string(cache.size()) + " want " +
                 std::to_string(ref.size());
        }
        break;
      case CacheOp::kAdvance:
        now += op.step;
        break;
    }
    // An insert adds at most one entry, so a cache no larger than before
    // may have swept: every live entry must still answer.
    if (op.kind != CacheOp::kLookup && op.kind != CacheOp::kAdvance &&
        cache.size() <= size_before) {
      if (auto bad = compare_all()) return at + "after a sweep: " + *bad;
    }
  }
  return std::nullopt;
}

std::vector<CacheOp> gen_cache_program(std::uint64_t seed, std::size_t n_ops) {
  Rng rng(seed);
  std::vector<CacheOp> ops(n_ops);
  for (CacheOp& op : ops) {
    op.name = static_cast<std::size_t>(rng.uniform(tree_names().size()));
    op.n = static_cast<std::size_t>(
        rng.uniform(tree_names()[op.name].label_count() + 1));
    op.type = kTypes[rng.uniform(std::size(kTypes))];
    op.ttl = kTtls[rng.uniform(std::size(kTtls))];
    op.step = kSteps[rng.uniform(std::size(kSteps))];
    op.seed = rng.u64();
    const std::uint64_t pick = rng.uniform(100);
    op.kind = pick < 22   ? CacheOp::kPositive
              : pick < 34 ? CacheOp::kNxdomain
              : pick < 46 ? CacheOp::kNodata
              : pick < 86 ? CacheOp::kLookup
              : pick < 89 ? CacheOp::kPurge
                          : CacheOp::kAdvance;
  }
  return ops;
}

/// Greedy delta-debugging: drop ever smaller chunks while the program still
/// diverges. Ops name tree entries, not earlier ops, so any subsequence is
/// still a valid program.
std::vector<CacheOp> shrink_cache_program(std::vector<CacheOp> ops) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    for (std::size_t start = 0; start + chunk <= ops.size();) {
      std::vector<CacheOp> candidate(ops.begin(),
                                     ops.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
                       ops.end());
      if (run_cache_program(candidate)) {
        ops = std::move(candidate);
      } else {
        start += chunk;
      }
    }
  }
  return ops;
}

std::string format_cache_program(const std::vector<CacheOp>& ops) {
  std::ostringstream out;
  for (const CacheOp& op : ops) {
    out << "  " << op_name(op.kind) << " " << spelled(op).to_string()
        << " n=" << op.n << " type=" << dns::rr_type_name(op.type)
        << " ttl=" << op.ttl << " step=" << op.step << " seed=" << op.seed
        << "\n";
  }
  return out.str();
}

TEST(CacheProperty, RandomProgramsMatchReferenceCache) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 99ull, 1337ull, 2020ull}) {
    std::vector<CacheOp> ops = gen_cache_program(seed, 1500);
    if (const auto bad = run_cache_program(ops)) {
      const std::vector<CacheOp> minimal = shrink_cache_program(std::move(ops));
      FAIL() << "Cache diverges from reference (" << *bad << "); seed=" << seed
             << "; minimal program (" << minimal.size() << " ops, "
             << *run_cache_program(minimal) << "):\n"
             << format_cache_program(minimal);
    }
  }
}

}  // namespace
