#include "scanner/crosscheck.h"

#include "net/packet.h"
#include "util/error.h"

namespace cd::scanner {

using cd::net::IpAddr;
using cd::net::Packet;
using cd::net::Prefix;

namespace {

/// The first chain starts this long after the campaign does.
constexpr cd::sim::SimTime kStartDelay = cd::sim::kSecond;
/// Offset of the forged "local resolver" source (.1 by convention). When the
/// probed host *is* that address the source shifts one up, so it never
/// equals the destination (the OS model rejects dst-as-src).
constexpr std::uint32_t kResolverOffset = 1;
static_assert(kResolverOffset >= 1 && kResolverOffset < 254,
              "resolver offset outside the /24 host range");

}  // namespace

CrossCheckProber::CrossCheckProber(cd::sim::Host& vantage, QnameCodec codec,
                                   CrossCheckConfig config, cd::Rng rng)
    : vantage_(vantage),
      codec_(std::move(codec)),
      config_(config),
      seed_(rng.u64()) {
  CD_ENSURE(config_.host_lo >= 1 && config_.host_lo < config_.host_hi &&
                config_.host_hi <= 255,
            "CrossCheckProber: host window must lie within [1, 255)");
}

void CrossCheckProber::schedule_campaign(std::vector<PrefixTarget> prefixes) {
  prefixes_ = std::move(prefixes);
  auto& loop = vantage_.network().loop();
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    CD_ENSURE(prefixes_[i].prefix.length() == 24 &&
                  prefixes_[i].prefix.base().is_v4(),
              "CrossCheckProber: prefix targets must be IPv4 /24s");
    // The chain's whole random budget — start stagger, then one (sport, id)
    // pair per probe — comes from a substream keyed on the prefix base and
    // rides inside the chain's closures: a pure function of (seed, prefix)
    // with no shared per-prefix state left behind.
    cd::Rng rng = cd::Rng::substream(
        seed_, cd::net::IpAddrHash{}(prefixes_[i].prefix.base()));
    const cd::sim::SimTime start =
        kStartDelay +
        static_cast<cd::sim::SimTime>(
            rng.uniform(static_cast<std::uint64_t>(config_.duration)));
    loop.schedule_at(start, [this, i, rng]() mutable {
      probe_step(i, config_.host_lo, rng);
    });
  }
}

void CrossCheckProber::probe_step(std::size_t idx, std::uint32_t offset,
                                  cd::Rng rng) {
  send_probe(prefixes_[idx], offset, rng);
  if (offset + 1 < config_.host_hi) {
    vantage_.network().loop().schedule_in(
        config_.per_query_spacing, [this, idx, offset, rng]() mutable {
          probe_step(idx, offset + 1, rng);
        });
  }
}

void CrossCheckProber::send_probe(const PrefixTarget& pt, std::uint32_t offset,
                                  cd::Rng& rng) {
  const IpAddr dst = pt.prefix.nth(offset);
  const std::uint32_t src_offset =
      offset == kResolverOffset ? kResolverOffset + 1 : kResolverOffset;
  const IpAddr src = pt.prefix.nth(src_offset);

  const QnameInfo info{vantage_.network().loop().now(), src, dst, pt.asn,
                       QueryMode::kCrossCheck};
  const std::uint16_t sport =
      static_cast<std::uint16_t>(1024 + rng.uniform(64512));
  const auto id = static_cast<std::uint16_t>(rng.u64());
  Packet pkt =
      cd::net::make_udp(src, sport, dst, 53, codec_.encode_query(id, info));
  // Injected at the vantage's AS, like every spoofed probe: the forged
  // packet still physically leaves our network, and only the *target*
  // border's inbound filtering decides its fate.
  vantage_.network().send(std::move(pkt), vantage_.asn());
  ++sent_;
}

CrossCheckCollector::CrossCheckCollector(QnameCodec codec)
    : codec_(std::move(codec)) {}

void CrossCheckCollector::attach(cd::resolver::AuthServer& server) {
  server.add_observer(
      [this](const cd::resolver::AuthLogEntry& entry) { observe(entry); });
}

void CrossCheckCollector::observe(const cd::resolver::AuthLogEntry& entry) {
  ++stats_.entries_seen;

  const QnameCodec::Decoded decoded = codec_.decode(entry.qname);
  if (!decoded.in_experiment) {
    ++stats_.foreign;
    return;
  }
  // Everything that is not provably cross-check plane belongs to the main
  // Collector: probe-plane modes, and minimized names whose mode label was
  // stripped (those still feed the main collector's qmin evidence).
  if (decoded.mode != QueryMode::kCrossCheck) return;

  if (!decoded.full()) {
    // Minimization stripped the dst/src labels below the mode label: the
    // escape is real but unattributable to a /24.
    ++stats_.partial;
    return;
  }
  if (!decoded.dst->is_v4()) return;  // the modality only probes v4 /24s

  if (entry.time - *decoded.ts > kLifetimeThreshold) {
    // A human analyst replaying a logged cross-check name hours later
    // (§3.6.3) — not inbound-SAV evidence.
    ++stats_.excluded_lifetime;
    return;
  }

  const IpAddr base = Prefix(*decoded.dst, 24).base();
  PrefixRecord& rec = records_[base];
  rec.prefix = base;
  rec.asn = *decoded.asn;
  rec.responding.insert(*decoded.dst);
  ++rec.hits;
  if (entry.client == *decoded.dst) {
    rec.direct_seen = true;
  } else {
    rec.forwarded_seen = true;
  }
}

}  // namespace cd::scanner
