// Reference zone for the zone property program (tests/test_dns_zone.cpp):
// the authoritative zone as it was before its names moved into one hashed
// node table, kept verbatim as the oracle. Owners live in a std::map keyed
// by canonical name order, empty non-terminals in a second std::set; a
// lookup builds every suffix of the query name to find the zone cut, then
// walks parent() names to the closest encloser and builds "*.<encloser>".
// The production dns::Zone must return the same LookupResult for every
// query.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "dns/message.h"
#include "dns/zone.h"
#include "util/error.h"

namespace cd::dns::ref {

class Zone {
 public:
  Zone(DnsName origin, SoaRdata soa)
      : origin_(std::move(origin)), soa_(std::move(soa)) {
    existing_.insert(origin_);
  }

  [[nodiscard]] DnsRr soa_rr() const {
    return make_soa(origin_, soa_, soa_.minimum);
  }

  void add(DnsRr rr) {
    CD_ENSURE(rr.name.is_subdomain_of(origin_),
              "Zone::add: " + rr.name.to_string() + " out of zone " +
                  origin_.to_string());
    DnsName walk = rr.name;
    while (!(walk == origin_)) {
      existing_.insert(walk);
      walk = walk.parent();
    }
    nodes_[rr.name][rr.type].push_back(std::move(rr));
  }

  [[nodiscard]] LookupResult lookup(const DnsName& qname, RrType qtype) const {
    LookupResult result;
    if (!qname.is_subdomain_of(origin_)) {
      result.kind = LookupKind::kNotInZone;
      return result;
    }

    if (const auto cut = find_cut(qname)) {
      const TypeMap* node = find_node(*cut);
      const auto ns_it = node->find(RrType::kNs);
      result.kind = LookupKind::kDelegation;
      result.records = ns_it->second;
      collect_glue(result.records, result.glue);
      return result;
    }

    if (const TypeMap* node = find_node(qname)) {
      const auto it = node->find(qtype);
      if (it != node->end()) {
        result.kind = LookupKind::kAnswer;
        result.records = it->second;
        return result;
      }
      const auto cname_it = node->find(RrType::kCname);
      if (cname_it != node->end()) {
        result.kind = LookupKind::kAnswer;
        result.records = cname_it->second;
        return result;
      }
      result.kind = LookupKind::kNoData;
      result.soa = soa_rr();
      return result;
    }

    if (existing_.count(qname)) {
      result.kind = LookupKind::kNoData;
      result.soa = soa_rr();
      return result;
    }

    DnsName encloser = qname.parent();
    while (!existing_.count(encloser)) encloser = encloser.parent();
    const DnsName wildcard = encloser.prepend("*");
    if (const TypeMap* node = find_node(wildcard)) {
      const auto it = node->find(qtype);
      if (it != node->end()) {
        result.kind = LookupKind::kAnswer;
        result.wildcard = true;
        for (DnsRr rr : it->second) {
          rr.name = qname;
          result.records.push_back(std::move(rr));
        }
        return result;
      }
      result.kind = LookupKind::kNoData;
      result.wildcard = true;
      result.soa = soa_rr();
      return result;
    }

    result.kind = LookupKind::kNxDomain;
    result.soa = soa_rr();
    return result;
  }

  [[nodiscard]] std::size_t record_count() const {
    std::size_t n = 0;
    for (const auto& [name, types] : nodes_) {
      for (const auto& [t, rrs] : types) n += rrs.size();
    }
    return n;
  }

 private:
  using TypeMap = std::map<RrType, std::vector<DnsRr>>;

  [[nodiscard]] const TypeMap* find_node(const DnsName& name) const {
    const auto it = nodes_.find(name);
    return it == nodes_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::optional<DnsName> find_cut(const DnsName& name) const {
    const std::size_t origin_n = origin_.label_count();
    for (std::size_t n = origin_n + 1; n <= name.label_count(); ++n) {
      const DnsName candidate = name.suffix(n);
      const TypeMap* node = find_node(candidate);
      if (node && node->count(RrType::kNs)) return candidate;
    }
    return std::nullopt;
  }

  void collect_glue(const std::vector<DnsRr>& ns_set,
                    std::vector<DnsRr>& glue) const {
    for (const DnsRr& ns : ns_set) {
      const auto* rd = std::get_if<NsRdata>(&ns.rdata);
      if (!rd) continue;
      const TypeMap* node = find_node(rd->nsdname);
      if (!node) continue;
      for (RrType t : {RrType::kA, RrType::kAaaa}) {
        const auto it = node->find(t);
        if (it != node->end()) {
          glue.insert(glue.end(), it->second.begin(), it->second.end());
        }
      }
    }
  }

  DnsName origin_;
  SoaRdata soa_;
  std::map<DnsName, TypeMap> nodes_;
  std::set<DnsName> existing_;  // owner names + empty non-terminals
};

}  // namespace cd::dns::ref
