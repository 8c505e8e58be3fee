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
  // name does not exist. The first probe finds the name's own node.
  const Node* own = nullptr;
  for (std::size_t m = n + 1; m-- > 0;) {
    const auto it = table_.find(NameRef{&name, m});
    if (it == table_.end()) continue;
    if (it->second.nxdomain_expires > now) {
      result.kind = CacheHitKind::kNegativeName;
      return result;
    }
    if (m == n) own = &it->second;
  }
  if (own == nullptr) return result;

  for (const Slot& slot : own->slots) {
    if (slot.type != type) continue;
    if (slot.rrset_expires > now) {
      result.kind = CacheHitKind::kPositive;
      result.records = slot.records;
      const std::uint32_t remaining = static_cast<std::uint32_t>(
          std::max<CacheTime>(0, (slot.rrset_expires - now) / kMicrosPerSecond));
      for (DnsRr& rr : result.records) rr.ttl = remaining;
    } else if (slot.nodata_expires > now) {
      result.kind = CacheHitKind::kNegativeType;
    }
    break;
  }
  return result;
}

void Cache::insert_positive(const std::vector<DnsRr>& rrset, CacheTime now) {
  if (rrset.empty()) return;
  const DnsName& name = rrset.front().name;
  const RrType type = rrset.front().type;
  std::uint32_t ttl = rrset.front().ttl;
  for (const DnsRr& rr : rrset) {
    CD_ENSURE(rr.name == name && rr.type == type,
              "insert_positive: mixed rrset");
    ttl = std::min(ttl, rr.ttl);
  }
  count_insert(now);
  Slot& entry = slot(name, type);
  entry.records = rrset;
  entry.rrset_expires = expiry(ttl, now);
}

void Cache::insert_nxdomain(const DnsName& name, std::uint32_t ttl,
                            CacheTime now) {
  count_insert(now);
  table_[name].nxdomain_expires = expiry(ttl, now);
}

void Cache::insert_nodata(const DnsName& name, RrType type, std::uint32_t ttl,
                          CacheTime now) {
  count_insert(now);
  slot(name, type).nodata_expires = expiry(ttl, now);
}

std::size_t Cache::purge(CacheTime now) {
  std::size_t removed = 0;
  const auto sweep = [&](CacheTime& expires) {
    if (expires != kAbsent && expires <= now) {
      expires = kAbsent;
      ++removed;
    }
  };
  for (auto it = table_.begin(); it != table_.end();) {
    Node& node = it->second;
    sweep(node.nxdomain_expires);
    for (Slot& slot : node.slots) {
      sweep(slot.rrset_expires);
      sweep(slot.nodata_expires);
    }
    std::erase_if(node.slots, [](const Slot& slot) {
      return slot.rrset_expires == kAbsent && slot.nodata_expires == kAbsent;
    });
    const bool empty =
        node.nxdomain_expires == kAbsent && node.slots.empty();
    it = empty ? table_.erase(it) : std::next(it);
  }
  inserts_since_sweep_ = 0;
  sweep_after_ = std::max(kMinSweepInserts, size() / 2);
  return removed;
}

std::size_t Cache::size() const {
  std::size_t entries = 0;
  for (const auto& [name, node] : table_) {
    entries += node.nxdomain_expires != kAbsent;
    for (const Slot& slot : node.slots) {
      entries += slot.rrset_expires != kAbsent;
      entries += slot.nodata_expires != kAbsent;
    }
  }
  return entries;
}

void Cache::count_insert(CacheTime now) {
  if (++inserts_since_sweep_ >= sweep_after_) purge(now);
}

Cache::Slot& Cache::slot(const DnsName& name, RrType type) {
  std::vector<Slot>& slots = table_[name].slots;
  for (Slot& slot : slots) {
    if (slot.type == type) return slot;
  }
  return slots.emplace_back(Slot{type});
}

CacheTime Cache::expiry(std::uint32_t ttl, CacheTime now) const {
  return now + static_cast<CacheTime>(std::min(ttl, config_.max_ttl)) *
                   kMicrosPerSecond;
}

}  // namespace cd::dns
