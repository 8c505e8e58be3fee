#include "resolver/auth.h"

#include <array>

#include "util/bytes.h"
#include "util/error.h"

namespace cd::resolver {

using cd::dns::DnsMessage;
using cd::dns::DnsName;
using cd::dns::LookupKind;
using cd::dns::Rcode;
using cd::net::Packet;

cd::GatherBuf tcp_frame_pooled(const DnsMessage& message) {
  // The message encodes into a pooled buffer of its own (compression
  // offsets stay message-relative).
  return tcp_frame_pooled(cd::dns::encode_pooled(message));
}

cd::GatherBuf tcp_frame_pooled(std::vector<std::uint8_t> wire) {
  // The 2-byte prefix rides in the GatherBuf's inline header — no
  // coalescing copy, ever.
  cd::GatherBuf out(std::move(wire));
  CD_ENSURE(out.body.size() <= 0xFFFF, "tcp_frame: message too large");
  const std::array<std::uint8_t, 2> prefix{
      static_cast<std::uint8_t>(out.body.size() >> 8),
      static_cast<std::uint8_t>(out.body.size())};
  out.set_header(prefix);
  return out;
}

std::span<const std::uint8_t> tcp_unframe_view(
    std::span<const std::uint8_t> framed) {
  if (framed.size() < 2) throw cd::ParseError("tcp_unframe: short buffer");
  const std::size_t len = (static_cast<std::size_t>(framed[0]) << 8) | framed[1];
  if (framed.size() < 2 + len) throw cd::ParseError("tcp_unframe: truncated");
  return framed.subspan(2, len);
}

std::vector<std::uint8_t> tcp_unframe(std::span<const std::uint8_t> framed) {
  const auto body = tcp_unframe_view(framed);
  return {body.begin(), body.end()};
}

AuthServer::AuthServer(cd::sim::Host& host, AuthConfig config)
    : host_(host), config_(std::move(config)) {
  host_.bind_udp(53, [this](const Packet& pkt) { on_udp(pkt); });
  // One handler serves both transports: with the persistent knob off each
  // connection carries one exchange (the reply retires it); with it on the
  // same handler answers every frame of a pipelined session, and the
  // network-wide idle window bounds how long a quiet session is kept open.
  host_.tcp_listen(
      53, [this](const cd::sim::TcpConnInfo& info,
                 std::span<const std::uint8_t> request,
                 cd::sim::Host::TcpSessionReply reply) {
        reply(on_tcp(info, request));
      });
}

void AuthServer::add_zone(std::shared_ptr<cd::dns::Zone> zone) {
  zones_.push_back(std::move(zone));
}

void AuthServer::add_observer(Observer observer) {
  observers_.push_back(std::move(observer));
}

const cd::dns::Zone* AuthServer::zone_for(const DnsName& qname) const {
  const cd::dns::Zone* best = nullptr;
  for (const auto& zone : zones_) {
    if (qname.is_subdomain_of(zone->origin())) {
      if (!best || zone->origin().label_count() > best->origin().label_count()) {
        best = zone.get();
      }
    }
  }
  return best;
}

DnsMessage AuthServer::answer(const DnsMessage& query, bool tcp) const {
  if (query.questions.empty()) {
    return cd::dns::make_response(query, Rcode::kFormErr);
  }
  const DnsName& qname = query.qname();
  const cd::dns::RrType qtype = query.questions.front().qtype;

  if (!tcp) {
    for (const DnsName& suffix : config_.truncate_suffixes) {
      if (qname.is_subdomain_of(suffix)) {
        DnsMessage resp = cd::dns::make_response(query, Rcode::kNoError);
        resp.header.aa = true;
        resp.header.tc = true;
        return resp;
      }
    }
  }

  const cd::dns::Zone* zone = zone_for(qname);
  if (!zone) {
    return cd::dns::make_response(query, Rcode::kRefused);
  }

  cd::dns::LookupResult result = zone->lookup(qname, qtype);
  DnsMessage resp = cd::dns::make_response(query, Rcode::kNoError);
  switch (result.kind) {
    case LookupKind::kAnswer:
      resp.header.aa = true;
      resp.answers = std::move(result.records);
      break;
    case LookupKind::kDelegation:
      resp.authorities = std::move(result.records);
      resp.additionals = std::move(result.glue);
      break;
    case LookupKind::kNoData:
      resp.header.aa = true;
      if (result.soa) resp.authorities.push_back(std::move(*result.soa));
      break;
    case LookupKind::kNxDomain:
      resp.header.aa = true;
      resp.header.rcode = Rcode::kNxDomain;
      if (result.soa) resp.authorities.push_back(std::move(*result.soa));
      break;
    case LookupKind::kNotInZone:
      resp.header.rcode = Rcode::kRefused;
      break;
  }
  return resp;
}

void AuthServer::record(const DnsMessage& query, const cd::net::IpAddr& client,
                        std::uint16_t client_port,
                        const cd::net::IpAddr& server, bool tcp,
                        const std::optional<Packet>& syn) {
  AuthLogEntry entry;
  entry.time = host_.network().loop().now();
  entry.client = client;
  entry.client_port = client_port;
  entry.server = server;
  entry.qname = query.qname();
  entry.qtype = query.questions.empty() ? cd::dns::RrType::kA
                                        : query.questions.front().qtype;
  entry.id = query.header.id;
  entry.tcp = tcp;
  entry.syn = syn;

  ++served_;
  for (Observer& obs : observers_) obs(entry);
}

void AuthServer::on_udp(const Packet& packet) {
  DnsMessage query;
  try {
    query = DnsMessage::decode(packet.payload);
  } catch (const cd::ParseError&) {
    return;  // garbage in, nothing out
  }
  if (query.header.qr) return;  // not a query

  record(query, packet.src, packet.src_port, packet.dst, /*tcp=*/false,
         std::nullopt);

  const DnsMessage resp = answer(query, /*tcp=*/false);
  host_.send_udp(packet.dst, 53, packet.src, packet.src_port,
                 cd::dns::encode_pooled(resp));
}

cd::GatherBuf AuthServer::on_tcp(
    const cd::sim::TcpConnInfo& info, std::span<const std::uint8_t> request) {
  DnsMessage query;
  try {
    query = DnsMessage::decode(tcp_unframe_view(request));
  } catch (const cd::ParseError&) {
    return {};
  }
  if (query.header.qr) return {};

  record(query, info.peer, info.peer_port, info.local, /*tcp=*/true, info.syn);

  const DnsMessage resp = answer(query, /*tcp=*/true);
  return tcp_frame_pooled(resp);
}

}  // namespace cd::resolver
