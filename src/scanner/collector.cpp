#include "scanner/collector.h"

#include "net/special.h"

namespace cd::scanner {

using cd::net::IpAddr;
using cd::net::Prefix;

SourceCategory categorize_source(const IpAddr& src, const IpAddr& dst) {
  if (src == dst) return SourceCategory::kDstAsSrc;
  if (cd::net::is_loopback(src)) return SourceCategory::kLoopback;
  if (cd::net::is_private_v4(src) || cd::net::is_unique_local_v6(src)) {
    return SourceCategory::kPrivate;
  }
  if (src.family() == dst.family()) {
    const int len = src.is_v4() ? 24 : 64;
    if (Prefix(dst, len).contains(src)) return SourceCategory::kSamePrefix;
  }
  return SourceCategory::kOtherPrefix;
}

Collector::Collector(QnameCodec codec, const cd::sim::Topology* topology)
    : codec_(std::move(codec)), topology_(topology) {}

void Collector::attach(cd::resolver::AuthServer& server) {
  server.add_observer(
      [this](const cd::resolver::AuthLogEntry& entry) { observe(entry); });
}

void Collector::set_first_hit_handler(FirstHitHandler handler) {
  first_hit_ = std::move(handler);
}

void Collector::observe(const cd::resolver::AuthLogEntry& entry) {
  ++stats_.entries_seen;

  const QnameCodec::Decoded decoded = codec_.decode(entry.qname);
  if (!decoded.in_experiment) {
    ++stats_.foreign;
    return;
  }

  if (decoded.mode == QueryMode::kCrossCheck) {
    // Prefix-scanner plane (scanner/crosscheck.h): CrossCheckCollector owns
    // it. Skipped before the lifetime filter so replayed cross-check names
    // cannot pollute lifetime_excluded_targets. Minimized cross-check names
    // lack the mode label and correctly fall through to the qmin path.
    return;
  }
  if (decoded.mode == QueryMode::kPoison) {
    // Attacker plane (attack/poison.h): the SpoofInjector observes its own
    // trigger traffic at the anycast sites; the measurement collector must
    // not count it as probe evidence. The "poison" subzone tag survives
    // QNAME minimization, so even minimized names carry the mode and are
    // excluded here.
    return;
  }

  if (!decoded.full()) {
    // QNAME minimization stripped the attribution labels (§3.6.4): we cannot
    // tell which target or spoofed source induced this, but the client's AS
    // is still evidence that our spoofed packet penetrated *some* border.
    ++stats_.qmin_partial;
    if (topology_) {
      if (const auto asn = topology_->asn_of(entry.client)) {
        qmin_asns_.insert(*asn);
      }
    }
    return;
  }

  const cd::sim::SimTime lifetime = entry.time - *decoded.ts;
  if (lifetime > kLifetimeThreshold) {
    // Too old to be machine resolution: a human analyst replaying a logged
    // name (§3.6.3). Not trustworthy DSAV evidence.
    ++stats_.excluded_lifetime;
    lifetime_excluded_.insert(*decoded.dst);
    return;
  }

  TargetRecord& rec = records_[*decoded.dst];
  if (rec.first_hit_time < 0 && rec.sources_hit.empty()) {
    rec.target = *decoded.dst;
    rec.asn = *decoded.asn;
  }

  const bool direct = entry.client == *decoded.dst;
  const QueryMode mode = decoded.mode.value_or(QueryMode::kInitial);

  // §5.4 forwarding comparison: only the family-forced follow-ups are
  // conclusive. A dual-stack resolver legitimately answers a v6 target's
  // query from its v4 address — that is transport choice, not forwarding —
  // so the v4-only (v6-only) queries are compared only for v4 (v6) targets.
  const bool family_conclusive =
      ((mode == QueryMode::kV4Only && decoded.dst->is_v4()) ||
       (mode == QueryMode::kV6Only && decoded.dst->is_v6())) &&
      entry.client.family() == decoded.dst->family();
  if (family_conclusive) {
    if (direct) {
      rec.direct_seen = true;
    } else {
      rec.forwarded_seen = true;
      rec.forwarders_seen.insert(entry.client);
    }
  }
  if (topology_) {
    const auto client_asn = topology_->asn_of(entry.client);
    if (client_asn && *client_asn == rec.asn) rec.client_in_target_as = true;
  }

  switch (mode) {
    case QueryMode::kInitial: {
      rec.sources_hit.insert(*decoded.src);
      rec.categories_hit.insert(categorize_source(*decoded.src, *decoded.dst));
      if (rec.first_hit_time < 0) {
        rec.first_hit_time = entry.time;
        rec.first_hit_source = *decoded.src;
        if (first_hit_) first_hit_(rec, *decoded.src);
      }
      break;
    }
    case QueryMode::kV4Only:
      if (direct && !entry.tcp) rec.ports_v4.push_back(entry.client_port);
      break;
    case QueryMode::kV6Only:
      if (direct && !entry.tcp) rec.ports_v6.push_back(entry.client_port);
      break;
    case QueryMode::kTcp:
      if (entry.tcp && direct) {
        rec.tcp_hit = true;
        if (!rec.tcp_syn) rec.tcp_syn = entry.syn;
      }
      break;
    case QueryMode::kOpen:
      rec.open_hit = true;
      break;
    case QueryMode::kCrossCheck:
    case QueryMode::kPoison:
      break;  // unreachable: filtered out above
  }
}

}  // namespace cd::scanner
