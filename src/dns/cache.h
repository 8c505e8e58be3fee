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

  [[nodiscard]] std::size_t size() const;

 private:
  struct PositiveEntry {
    std::vector<DnsRr> records;
    CacheTime expires;
  };
  struct NegativeEntry {
    CacheTime expires;
  };

  // An owner name and a type. NXDOMAIN covers every type, so its entries
  // are keyed with RrType::kAny. Lookups probe with a KeyRef, suffix `n` of
  // a name hashed in place, so the RFC 8020 ancestor walk copies no names.
  struct Key {
    DnsName name;
    RrType type;
  };
  struct KeyRef {
    const SuffixHashes* name;
    std::size_t n;
    RrType type;
  };
  struct KeyHash {
    using is_transparent = void;
    static std::size_t mix(std::size_t name_hash, RrType type) {
      return name_hash * 31 + static_cast<std::size_t>(type);
    }
    std::size_t operator()(const Key& k) const noexcept {
      return mix(k.name.hash(), k.type);
    }
    std::size_t operator()(const KeyRef& k) const noexcept {
      return mix(k.name->hash(k.n), k.type);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const {
      return a.type == b.type && a.name == b.name;
    }
    bool operator()(const KeyRef& a, const Key& b) const {
      return a.type == b.type && a.name->name().suffix_equals(a.n, b.name);
    }
    bool operator()(const Key& a, const KeyRef& b) const {
      return (*this)(b, a);
    }
  };

  CacheConfig config_;
  std::unordered_map<Key, PositiveEntry, KeyHash, KeyEq> positive_;
  std::unordered_map<Key, NegativeEntry, KeyHash, KeyEq> nxdomain_;
  std::unordered_map<Key, NegativeEntry, KeyHash, KeyEq> nodata_;
};

}  // namespace cd::dns
