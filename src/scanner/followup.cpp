#include "scanner/followup.h"

namespace cd::scanner {

FollowupEngine::FollowupEngine(Prober& prober, Collector& collector,
                               FollowupConfig config)
    : prober_(prober), config_(config) {
  collector.set_first_hit_handler(
      [this](const TargetRecord& record, const cd::net::IpAddr& source) {
        on_first_hit(record, source);
      });
}

void FollowupEngine::on_first_hit(const TargetRecord& record,
                                  const cd::net::IpAddr& source) {
  if (!dispatched_.insert(record.target).second) return;
  ++batteries_;

  auto& loop = prober_.vantage().network().loop();
  const TargetInfo target{record.target, record.asn};
  const cd::net::IpAddr spoofed = source;

  // With kTcp the same battery rides RFC 7766 framed messages from the
  // vantage's real address (spoofed sources cannot complete a TCP
  // handshake). With the persistent transport on, all 22 messages ride one
  // pipelined session per target instead of 22 dials.
  const bool tcp = config_.transport == FollowupTransport::kTcp;
  const auto send_at = [&](cd::sim::SimTime at, QueryMode mode) {
    loop.schedule_in(at, [this, target, spoofed, tcp, mode] {
      if (tcp) {
        prober_.send_transport(target, mode);
      } else if (mode == QueryMode::kOpen) {
        prober_.send_open(target);
      } else {
        prober_.send_spoofed(target, spoofed, mode);
      }
    });
  };
  cd::sim::SimTime at = kFollowupSpacing;
  for (int i = 0; i < kFollowupPortSamples; ++i, at += kFollowupSpacing) {
    send_at(at, QueryMode::kV4Only);
  }
  for (int i = 0; i < kFollowupPortSamples; ++i, at += kFollowupSpacing) {
    send_at(at, QueryMode::kV6Only);
  }
  send_at(at, QueryMode::kOpen);
  send_at(at + kFollowupSpacing, QueryMode::kTcp);
}

}  // namespace cd::scanner
