// Reference resolver cache for the cache property program
// (tests/test_dns_cache.cpp): dns::Cache's contract in its textbook form.
// Every entry lives in one std::map keyed by (lowercased presentation name,
// kind, type) with its absolute expiry. A lookup scans the whole map for an
// unexpired NXDOMAIN at the name or at any ancestor (RFC 8020), then reads
// the positive RRset, then the NODATA entry. Entries leave only through
// purge(), so a production cache that sweeps dead entries on its own may
// differ in size() but never in an answer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "dns/cache.h"
#include "dns/message.h"
#include "util/str.h"

namespace cd::dns::ref {

class Cache {
 public:
  explicit Cache(CacheConfig config = {}) : config_(config) {}

  [[nodiscard]] CacheResult lookup(const DnsName& name, RrType type,
                                   CacheTime now) const {
    const std::string text = key_text(name);
    CacheResult result;
    for (const auto& [key, entry] : entries_) {
      if (std::get<1>(key) != Kind::kNxdomain || entry.expires <= now) continue;
      if (covers(std::get<0>(key), text)) {
        result.kind = CacheHitKind::kNegativeName;
        return result;
      }
    }
    const auto pit = entries_.find({text, Kind::kPositive, type});
    if (pit != entries_.end() && pit->second.expires > now) {
      result.kind = CacheHitKind::kPositive;
      result.records = pit->second.records;
      const auto remaining = static_cast<std::uint32_t>(
          std::max<CacheTime>(0, (pit->second.expires - now) / kSecond));
      for (DnsRr& rr : result.records) rr.ttl = remaining;
      return result;
    }
    const auto nit = entries_.find({text, Kind::kNodata, type});
    if (nit != entries_.end() && nit->second.expires > now) {
      result.kind = CacheHitKind::kNegativeType;
    }
    return result;
  }

  void insert_positive(const std::vector<DnsRr>& rrset, CacheTime now) {
    if (rrset.empty()) return;
    std::uint32_t ttl = config_.max_ttl;
    for (const DnsRr& rr : rrset) ttl = std::min(ttl, rr.ttl);
    entries_[{key_text(rrset.front().name), Kind::kPositive,
              rrset.front().type}] = Entry{expiry(ttl, now), rrset};
  }

  void insert_nxdomain(const DnsName& name, std::uint32_t ttl, CacheTime now) {
    entries_[{key_text(name), Kind::kNxdomain, RrType::kAny}] =
        Entry{expiry(std::min(ttl, config_.max_ttl), now), {}};
  }

  void insert_nodata(const DnsName& name, RrType type, std::uint32_t ttl,
                     CacheTime now) {
    entries_[{key_text(name), Kind::kNodata, type}] =
        Entry{expiry(std::min(ttl, config_.max_ttl), now), {}};
  }

  std::size_t purge(CacheTime now) {
    return std::erase_if(entries_, [now](const auto& kv) {
      return kv.second.expires <= now;
    });
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  static constexpr CacheTime kSecond = 1'000'000;

  enum class Kind { kNxdomain, kPositive, kNodata };
  struct Entry {
    CacheTime expires;
    std::vector<DnsRr> records;
  };

  static std::string key_text(const DnsName& name) {
    return cd::to_lower(name.to_string());
  }
  static CacheTime expiry(std::uint32_t ttl, CacheTime now) {
    return now + static_cast<CacheTime>(ttl) * kSecond;
  }
  /// True if `ancestor` is `name` or one of its ancestors (both in
  /// key_text form: lowercase, trailing dot, the root is ".").
  static bool covers(const std::string& ancestor, const std::string& name) {
    if (ancestor == "." || ancestor == name) return true;
    return name.size() > ancestor.size() &&
           name.ends_with(ancestor) &&
           name[name.size() - ancestor.size() - 1] == '.';
  }

  CacheConfig config_;
  std::map<std::tuple<std::string, Kind, RrType>, Entry> entries_;
};

}  // namespace cd::dns::ref
