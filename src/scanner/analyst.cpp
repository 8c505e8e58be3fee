#include "scanner/analyst.h"

#include "net/packet.h"
#include "util/error.h"

namespace cd::scanner {

using cd::net::IpAddr;
using cd::net::Packet;

namespace {

/// A replay lands uniformly within [kMinDelay, kMaxDelay) after the probe.
constexpr cd::sim::SimTime kMinDelay = cd::sim::kHour;
constexpr cd::sim::SimTime kMaxDelay = 48 * cd::sim::kHour;

}  // namespace

AnalystSimulator::AnalystSimulator(cd::sim::Network& network,
                                   std::set<cd::sim::Asn> ids_asns,
                                   IpAddr public_resolver,
                                   AnalystConfig config, cd::Rng rng)
    : network_(network),
      ids_asns_(std::move(ids_asns)),
      public_resolver_(public_resolver),
      config_(config),
      seed_(rng.u64()) {
  network_.add_tap([this](const Packet& pkt, cd::sim::DropReason,
                          cd::sim::SimTime) { maybe_replay(pkt); });
}

void AnalystSimulator::maybe_replay(const Packet& packet) {
  if (replays_ >= config_.max_replays) return;
  if (packet.proto != cd::net::IpProto::kUdp || packet.dst_port != 53) return;

  // The IDS sits at the border: it sees the probe whether or not the border
  // later drops it, as long as it is destined into a monitored AS.
  const auto dst_asn = network_.topology().asn_of(packet.dst);
  if (!dst_asn || !ids_asns_.count(*dst_asn)) return;

  // The analyst's curiosity about one logged probe is a pure function of
  // (seed, packet): src/dst discriminate a probe from its own replay (same
  // qname, different addresses), the payload hash discriminates probes
  // between the same endpoints (each embeds a distinct timestamped qname).
  std::uint64_t h = cd::hash_combine(seed_,
                                     cd::net::IpAddrHash{}(packet.src));
  h = cd::hash_combine(h, cd::net::IpAddrHash{}(packet.dst));
  if (!packet.payload.empty()) {
    h = cd::hash_combine(
        h, cd::stable_hash(std::string_view(
               reinterpret_cast<const char*>(packet.payload.data()),
               packet.payload.size())));
  }
  cd::Rng decision = cd::Rng::substream(seed_, h);
  if (!decision.chance(config_.replay_probability)) return;

  cd::dns::DnsMessage query;
  try {
    query = cd::dns::DnsMessage::decode(packet.payload);
  } catch (const cd::ParseError&) {
    return;
  }
  if (query.header.qr || query.questions.empty()) return;

  ++replays_;
  const cd::sim::SimTime delay =
      kMinDelay + static_cast<cd::sim::SimTime>(decision.uniform(
                      static_cast<std::uint64_t>(kMaxDelay - kMinDelay)));

  // The analyst's workstation: some address inside the logging AS, same
  // family as the public resolver it queries.
  const auto* as_info = network_.topology().find(*dst_asn);
  if (!as_info) return;
  const auto& prefixes = public_resolver_.is_v4() ? as_info->prefixes_v4
                                                  : as_info->prefixes_v6;
  if (prefixes.empty()) return;
  const IpAddr workstation = prefixes.front().nth(200);

  const cd::dns::DnsName qname = query.qname();
  const cd::sim::Asn asn = *dst_asn;
  const auto txid = static_cast<std::uint16_t>(decision.u64());
  const auto sport =
      static_cast<std::uint16_t>(1024 + decision.uniform(64512));
  network_.loop().schedule_in(
      delay, [this, qname, workstation, asn, txid, sport] {
        Packet pkt = cd::net::make_udp(
            workstation, sport, public_resolver_, 53,
            cd::dns::encode_query_pooled(txid, {}, qname, cd::dns::RrType::kA,
                                         /*rd=*/true));
        network_.send(std::move(pkt), asn);
      });
}

}  // namespace cd::scanner
