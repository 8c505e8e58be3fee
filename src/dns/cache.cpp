#include "dns/cache.h"

#include <algorithm>

#include "util/error.h"

namespace cd::dns {
namespace {

constexpr CacheTime kMicrosPerSecond = 1'000'000;

}  // namespace

Cache::Cache(CacheConfig config) : config_(config) {}

CacheResult Cache::lookup(const DnsName& name, RrType type,
                          CacheTime now) const {
  return lookup(SuffixHashes(name), name.label_count(), type, now);
}

CacheResult Cache::lookup(const SuffixHashes& name, std::size_t n,
                          RrType type, CacheTime now) const {
  CacheResult result;

  // RFC 8020: an unexpired NXDOMAIN at the name or any ancestor proves the
  // name does not exist.
  for (std::size_t m = n + 1; m-- > 0;) {
    const auto it = nxdomain_.find(KeyRef{&name, m, RrType::kAny});
    if (it != nxdomain_.end() && it->second.expires > now) {
      result.kind = CacheHitKind::kNegativeName;
      return result;
    }
  }

  const KeyRef key{&name, n, type};
  const auto pit = positive_.find(key);
  if (pit != positive_.end() && pit->second.expires > now) {
    result.kind = CacheHitKind::kPositive;
    result.records = pit->second.records;
    const std::uint32_t remaining = static_cast<std::uint32_t>(
        std::max<CacheTime>(0, (pit->second.expires - now) / kMicrosPerSecond));
    for (DnsRr& rr : result.records) rr.ttl = remaining;
    return result;
  }

  const auto nit = nodata_.find(key);
  if (nit != nodata_.end() && nit->second.expires > now) {
    result.kind = CacheHitKind::kNegativeType;
    return result;
  }
  return result;
}

void Cache::insert_positive(const std::vector<DnsRr>& rrset, CacheTime now) {
  if (rrset.empty()) return;
  const DnsName& name = rrset.front().name;
  const RrType type = rrset.front().type;
  std::uint32_t ttl = config_.max_ttl;
  for (const DnsRr& rr : rrset) {
    CD_ENSURE(rr.name == name && rr.type == type,
              "insert_positive: mixed rrset");
    ttl = std::min(ttl, rr.ttl);
  }
  if (positive_.size() >= config_.max_entries) purge(now);
  positive_[Key{name, type}] =
      PositiveEntry{rrset, now + static_cast<CacheTime>(ttl) * kMicrosPerSecond};
}

void Cache::insert_nxdomain(const DnsName& name, std::uint32_t ttl,
                            CacheTime now) {
  ttl = std::min(ttl, config_.max_ttl);
  nxdomain_[Key{name, RrType::kAny}] =
      NegativeEntry{now + static_cast<CacheTime>(ttl) * kMicrosPerSecond};
}

void Cache::insert_nodata(const DnsName& name, RrType type, std::uint32_t ttl,
                          CacheTime now) {
  ttl = std::min(ttl, config_.max_ttl);
  nodata_[Key{name, type}] =
      NegativeEntry{now + static_cast<CacheTime>(ttl) * kMicrosPerSecond};
}

std::size_t Cache::purge(CacheTime now) {
  std::size_t removed = 0;
  for (auto it = positive_.begin(); it != positive_.end();) {
    if (it->second.expires <= now) {
      it = positive_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  for (auto it = nxdomain_.begin(); it != nxdomain_.end();) {
    if (it->second.expires <= now) {
      it = nxdomain_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  for (auto it = nodata_.begin(); it != nodata_.end();) {
    if (it->second.expires <= now) {
      it = nodata_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::size_t Cache::size() const {
  return positive_.size() + nxdomain_.size() + nodata_.size();
}

}  // namespace cd::dns
