#include "dns/zone.h"

#include "util/error.h"

namespace cd::dns {

Zone::Zone(DnsName origin, SoaRdata soa)
    : origin_(std::move(origin)), soa_(std::move(soa)) {
  apex_ = &add_node(origin_);
}

DnsRr Zone::soa_rr() const {
  return make_soa(origin_, soa_, soa_.minimum);
}

const std::vector<DnsRr>* Zone::Node::find(RrType type) const {
  for (const RrSet& set : sets) {
    if (set.type == type) return &set.records;
  }
  return nullptr;
}

Zone::Node& Zone::add_node(const DnsName& name) {
  const auto [it, inserted] = nodes_.try_emplace(name);
  Node& node = it->second;  // nodes never move; iterators may, on rehash
  if (inserted && name.label_count() > origin_.label_count()) {
    // Empty non-terminals must exist (NoData, not NXDOMAIN), and the lookup
    // walk stops at the first missing name.
    Node& parent = add_node(name.parent());
    if (name.label(0) == "*") parent.wildcard = &node;
  }
  return node;
}

void Zone::add(DnsRr rr) {
  CD_ENSURE(rr.name.is_subdomain_of(origin_),
            "Zone::add: " + rr.name.to_string() + " out of zone " +
                origin_.to_string());
  Node& node = add_node(rr.name);
  for (RrSet& set : node.sets) {
    if (set.type == rr.type) {
      set.records.push_back(std::move(rr));
      return;
    }
  }
  const RrType type = rr.type;
  node.sets.push_back(RrSet{type, {}});
  node.sets.back().records.push_back(std::move(rr));
}

void Zone::collect_glue(const std::vector<DnsRr>& ns_set,
                        std::vector<DnsRr>& glue) const {
  for (const DnsRr& ns : ns_set) {
    const auto* rd = std::get_if<NsRdata>(&ns.rdata);
    if (!rd) continue;
    const auto it = nodes_.find(rd->nsdname);
    if (it == nodes_.end()) continue;
    for (RrType t : {RrType::kA, RrType::kAaaa}) {
      if (const auto* rrs = it->second.find(t)) {
        glue.insert(glue.end(), rrs->begin(), rrs->end());
      }
    }
  }
}

LookupResult Zone::lookup(const DnsName& qname, RrType qtype) const {
  LookupResult result;
  if (!qname.is_subdomain_of(origin_)) {
    result.kind = LookupKind::kNotInZone;
    return result;
  }

  // Walk from the origin down toward qname, probing each suffix in place.
  // Every ancestor of a registered name is registered, so the first missing
  // suffix ends the walk and the deepest node reached is the closest
  // encloser. The first NS node below the origin is the zone cut: at or
  // below it the answer is a referral (a query *for* NS at the cut too —
  // the child is authoritative, not us).
  const SuffixHashes suffixes(qname);
  const Node* node = apex_;
  std::size_t depth = origin_.label_count();
  while (depth < qname.label_count()) {
    const auto it = nodes_.find(NameRef{&suffixes, depth + 1});
    if (it == nodes_.end()) break;
    node = &it->second;
    ++depth;
    if (const auto* ns = node->find(RrType::kNs)) {
      result.kind = LookupKind::kDelegation;
      result.records = *ns;
      collect_glue(result.records, result.glue);
      return result;
    }
  }

  if (depth == qname.label_count()) {
    const auto* rrs = node->find(qtype);
    if (!rrs) rrs = node->find(RrType::kCname);
    if (rrs) {
      result.kind = LookupKind::kAnswer;
      result.records = *rrs;
      return result;
    }
    // The name exists (possibly as an empty non-terminal) without that type.
    result.kind = LookupKind::kNoData;
    result.soa = soa_rr();
    return result;
  }

  // Wildcard synthesis: "*" directly beneath the closest encloser.
  const Node* wildcard = node->wildcard;
  if (wildcard != nullptr && !wildcard->sets.empty()) {
    result.wildcard = true;
    if (const auto* rrs = wildcard->find(qtype)) {
      result.kind = LookupKind::kAnswer;
      result.records.reserve(rrs->size());
      for (DnsRr rr : *rrs) {
        rr.name = qname;  // synthesis: owner becomes the query name
        result.records.push_back(std::move(rr));
      }
      return result;
    }
    result.kind = LookupKind::kNoData;
    result.soa = soa_rr();
    return result;
  }

  result.kind = LookupKind::kNxDomain;
  result.soa = soa_rr();
  return result;
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [name, node] : nodes_) {
    for (const RrSet& set : node.sets) n += set.records.size();
  }
  return n;
}

}  // namespace cd::dns
