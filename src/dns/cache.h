// Recursive-resolver cache with TTL expiry and negative caching.
//
// Negative caching implements RFC 2308 (NXDOMAIN / NoData entries bounded by
// the SOA minimum) and RFC 8020: a cached NXDOMAIN for a name proves that
// nothing exists beneath it. RFC 8020 is what makes the paper's
// NXDOMAIN-returning authoritative setup halt QNAME-minimizing resolvers
// (§3.6.4), so its presence here is load-bearing for the reproduction.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
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
  std::size_t max_entries = 100000;
};

/// A per-resolver DNS cache. All operations take the current simulated time;
/// expired entries are treated as absent and lazily evicted.
class Cache {
 public:
  explicit Cache(CacheConfig config = {});

  [[nodiscard]] CacheResult lookup(const DnsName& name, RrType type,
                                   CacheTime now) const;

  /// Stores a positive RRset (all records must share name/type).
  void insert_positive(const std::vector<DnsRr>& rrset, CacheTime now);

  void insert_nxdomain(const DnsName& name, std::uint32_t ttl, CacheTime now);
  void insert_nodata(const DnsName& name, RrType type, std::uint32_t ttl,
                     CacheTime now);

  /// Drops expired entries; returns how many were removed.
  std::size_t purge(CacheTime now);

  [[nodiscard]] std::size_t size() const;

 private:
  struct PositiveEntry {
    std::vector<DnsRr> records;
    CacheTime expires;
  };
  struct NegativeEntry {
    CacheTime expires;
  };

  struct Key {
    DnsName name;
    RrType type;
    bool operator==(const Key& o) const {
      return type == o.type && name == o.name;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return DnsNameHash{}(k.name) * 31 +
             static_cast<std::size_t>(k.type);
    }
  };

  CacheConfig config_;
  std::unordered_map<Key, PositiveEntry, KeyHash> positive_;
  std::unordered_map<DnsName, NegativeEntry, DnsNameHash> nxdomain_;
  std::unordered_map<Key, NegativeEntry, KeyHash> nodata_;
};

}  // namespace cd::dns
