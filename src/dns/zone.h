// Authoritative zone data with delegation and wildcard support.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/message.h"

namespace cd::dns {

/// Outcome of a zone lookup, mirroring RFC 1034 §4.3.2.
enum class LookupKind {
  kAnswer,      // records of the requested type (or a CNAME) at qname
  kDelegation,  // qname is at/below a zone cut: referral NS set returned
  kNoData,      // name exists but not that type; SOA returned for negatives
  kNxDomain,    // name does not exist; SOA returned for negatives
  kNotInZone,   // qname is not within this zone's origin
};

struct LookupResult {
  LookupKind kind = LookupKind::kNotInZone;
  std::vector<DnsRr> records;    // answer RRset or delegation NS set
  std::vector<DnsRr> glue;       // A/AAAA for in-zone NS targets
  std::optional<DnsRr> soa;      // present for kNoData / kNxDomain
  bool wildcard = false;         // answer synthesized from a wildcard
};

/// One authoritative zone: an origin, an SOA, and its names with their
/// RRsets. Supports zone cuts (NS below origin => referral + glue) and RFC
/// 1034 wildcards ("*" leftmost label at the closest encloser).
class Zone {
 public:
  Zone(DnsName origin, SoaRdata soa);
  // Nodes point at their "*" children inside the node table.
  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;
  Zone(Zone&&) = default;
  Zone& operator=(Zone&&) = default;

  [[nodiscard]] const DnsName& origin() const { return origin_; }
  [[nodiscard]] const SoaRdata& soa() const { return soa_; }
  [[nodiscard]] DnsRr soa_rr() const;

  /// Adds one record. Throws InvariantError if the owner is out of zone.
  void add(DnsRr rr);

  [[nodiscard]] LookupResult lookup(const DnsName& qname, RrType qtype) const;

  /// Number of records (excluding the SOA).
  [[nodiscard]] std::size_t record_count() const;

 private:
  struct RrSet {
    RrType type;
    std::vector<DnsRr> records;
  };
  /// A name in the zone. A node with no RRsets is an empty non-terminal.
  struct Node {
    std::vector<RrSet> sets;
    /// The "*" child, when one is registered. It is a wildcard only if it
    /// owns records: "*" as an empty non-terminal synthesizes nothing.
    const Node* wildcard = nullptr;

    [[nodiscard]] const std::vector<DnsRr>* find(RrType type) const;
  };
  /// Registers `name` and every ancestor down to the origin; returns its node.
  Node& add_node(const DnsName& name);
  void collect_glue(const std::vector<DnsRr>& ns_set,
                    std::vector<DnsRr>& glue) const;

  DnsName origin_;
  SoaRdata soa_;
  /// Every owner name, every ancestor of one down to the origin (empty
  /// non-terminals) and the origin itself, keyed case-insensitively.
  std::unordered_map<DnsName, Node, NameHash, NameEq> nodes_;
  const Node* apex_ = nullptr;
};

}  // namespace cd::dns
