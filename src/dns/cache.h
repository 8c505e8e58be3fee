// Recursive-resolver cache with TTL expiry and negative caching.
//
// Negative caching implements RFC 2308 (NXDOMAIN / NoData entries bounded by
// the SOA minimum) and RFC 8020: a cached NXDOMAIN for a name proves that
// nothing exists beneath it. RFC 8020 is what makes the paper's
// NXDOMAIN-returning authoritative setup halt QNAME-minimizing resolvers
// (§3.6.4), so its presence here is load-bearing for the reproduction.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "dns/message.h"

namespace cd::dns {

/// Simulated-time type (microseconds); mirrors cd::sim::SimTime without a
/// dependency cycle.
using CacheTime = std::int64_t;

enum class CacheHitKind {
  kMiss,
  kPositive,      // cached RRset returned
  kNegativeName,  // name known not to exist (possibly via RFC 8020 ancestor)
  kNegativeType,  // name exists, type known to be absent
};

struct CacheResult {
  CacheHitKind kind = CacheHitKind::kMiss;
  std::vector<DnsRr> records;  // for kPositive; TTLs decayed to remaining time
};

struct CacheConfig {
  std::uint32_t max_ttl = 86400;  // clamp stored TTLs
};

/// A per-resolver DNS cache. All operations take the current simulated time;
/// expired entries are treated as absent. Every owner name has one node in
/// one hash table, holding the name's NXDOMAIN entry and one slot per type
/// (its RRset and its NODATA entry). Dead entries are swept out once the
/// inserts since the last sweep reach max(64, half the entries that sweep
/// left): per-probe NXDOMAIN names die in the thousands during a campaign,
/// and the sweep costs O(1) amortized per insert.
class Cache {
 public:
  explicit Cache(CacheConfig config = {});

  [[nodiscard]] CacheResult lookup(const DnsName& name, RrType type,
                                   CacheTime now) const;
  /// lookup() of suffix `n` of `name.name()`, probed in place: walking a
  /// name's ancestors this way builds none of them.
  [[nodiscard]] CacheResult lookup(const SuffixHashes& name, std::size_t n,
                                   RrType type, CacheTime now) const;

  /// Stores a positive RRset (all records must share name/type).
  void insert_positive(const std::vector<DnsRr>& rrset, CacheTime now);

  void insert_nxdomain(const DnsName& name, std::uint32_t ttl, CacheTime now);
  void insert_nodata(const DnsName& name, RrType type, std::uint32_t ttl,
                     CacheTime now);

  /// Drops expired entries; returns how many were removed.
  std::size_t purge(CacheTime now);

  /// Entries held, live or not yet swept: RRsets, NXDOMAIN names and NODATA
  /// (name, type) pairs.
  [[nodiscard]] std::size_t size() const;

 private:
  /// The expiry of an entry that is not there: before any simulated time.
  static constexpr CacheTime kAbsent = std::numeric_limits<CacheTime>::min();
  static constexpr std::size_t kMinSweepInserts = 64;

  struct Slot {
    RrType type;
    CacheTime rrset_expires = kAbsent;
    CacheTime nodata_expires = kAbsent;
    std::vector<DnsRr> records;
  };
  struct Node {
    CacheTime nxdomain_expires = kAbsent;
    std::vector<Slot> slots;
  };

  /// Counts one insert and sweeps if one is due.
  void count_insert(CacheTime now);
  /// The slot for `type` at `name`, added if missing.
  Slot& slot(const DnsName& name, RrType type);
  [[nodiscard]] CacheTime expiry(std::uint32_t ttl, CacheTime now) const;

  CacheConfig config_;
  std::unordered_map<DnsName, Node, NameHash, NameEq> table_;
  std::size_t inserts_since_sweep_ = 0;
  std::size_t sweep_after_ = kMinSweepInserts;
};

}  // namespace cd::dns
