#include "sim/host.h"

#include <algorithm>

#include "net/special.h"
#include "util/error.h"

namespace cd::sim {

using cd::net::IpAddr;
using cd::net::IpFamily;
using cd::net::IpProto;
using cd::net::Packet;
using cd::net::TcpFlags;
using cd::net::TcpOption;
using cd::net::TcpOptionKind;

namespace {

/// The peer's advertised MSS from its SYN/SYN-ACK options, or the RFC 1122
/// default when absent (a zero advertisement is treated as absent).
std::uint16_t peer_mss_of(const Packet& packet) {
  for (const TcpOption& o : packet.tcp_options) {
    if (o.kind == TcpOptionKind::kMss && o.value != 0) {
      return static_cast<std::uint16_t>(o.value);
    }
  }
  return Host::kDefaultMss;
}

/// Once a session has consumed this much of its rx stream, shift the stream
/// origin down so a long-lived connection never hits
/// TcpReassembly::kMaxStreamBytes.
constexpr std::size_t kRebaseBytes = 256 * 1024;

/// An outstanding (promised, unsent) reply defers an idle close, but only
/// this many consecutive stale deadlines: a serving application that never
/// replies must not pin the connection — and the event loop — forever.
constexpr int kMaxIdleDeferrals = 4;

/// DNS message ID of a length-prefixed framed message (bytes 2..3), the key
/// that pairs pipelined responses with their requests (RFC 7766 §6.2.1).
std::uint16_t framed_message_id(std::span<const std::uint8_t> framed) {
  if (framed.size() < 4) return 0;
  return static_cast<std::uint16_t>((framed[2] << 8) | framed[3]);
}

}  // namespace

bool TcpReassembly::add(std::size_t offset,
                        std::span<const std::uint8_t> data) {
  const std::size_t end = offset + data.size();
  if (end > kMaxStreamBytes) return false;
  if (data.empty()) return true;

  // Merge [offset, end) into the sorted disjoint range table first — if the
  // table would overflow, the segment is dropped before any bytes land.
  std::size_t i = 0;
  while (i < n_ranges_ && ranges_[i].second < offset) ++i;
  std::size_t begin = offset;
  std::size_t finish = end;
  std::size_t j = i;
  while (j < n_ranges_ && ranges_[j].first <= finish) {
    begin = std::min(begin, ranges_[j].first);
    finish = std::max(finish, ranges_[j].second);
    ++j;
  }
  if (i == j) {
    // No overlap with any existing range: insert at position i.
    if (n_ranges_ == kMaxRanges) return false;  // would overflow
    for (std::size_t k = n_ranges_; k > i; --k) ranges_[k] = ranges_[k - 1];
    ranges_[i] = {begin, finish};
    ++n_ranges_;
  } else {
    // Collapse the overlapped/adjacent ranges [i, j) into one.
    ranges_[i] = {begin, finish};
    for (std::size_t k = j; k < n_ranges_; ++k) {
      ranges_[i + 1 + (k - j)] = ranges_[k];
    }
    n_ranges_ -= (j - i - 1);
  }

  if (buf_.empty() && buf_.capacity() == 0) buf_ = cd::BufferPool::acquire();
  if (buf_.size() < end) buf_.resize(end);
  std::copy(data.begin(), data.end(),
            buf_.begin() + static_cast<std::ptrdiff_t>(offset));
  return true;
}

void TcpReassembly::discard() {
  cd::BufferPool::release(std::move(buf_));
  buf_ = {};
  n_ranges_ = 0;
  consumed_ = 0;
}

std::size_t TcpReassembly::available() const {
  for (std::size_t i = 0; i < n_ranges_; ++i) {
    if (ranges_[i].second <= consumed_) continue;
    return ranges_[i].first <= consumed_ ? ranges_[i].second - consumed_ : 0;
  }
  return 0;
}

std::uint8_t TcpReassembly::peek(std::size_t i) const {
  return buf_[consumed_ + i];
}

void TcpReassembly::read(std::size_t n, std::vector<std::uint8_t>& out) {
  out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_),
             buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + n));
  consumed_ += n;
}

void TcpReassembly::skip(std::size_t n) {
  consumed_ += n;
}

std::size_t TcpReassembly::rebase() {
  const std::size_t base = consumed_;
  if (base == 0) return 0;
  std::size_t write = 0;
  std::size_t top = 0;
  for (std::size_t i = 0; i < n_ranges_; ++i) {
    if (ranges_[i].second <= base) continue;  // fully consumed: drop
    ranges_[write] = {ranges_[i].first <= base ? 0 : ranges_[i].first - base,
                      ranges_[i].second - base};
    top = ranges_[write].second;
    ++write;
  }
  n_ranges_ = write;
  if (top > 0) {
    std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(base),
              buf_.begin() + static_cast<std::ptrdiff_t>(base + top),
              buf_.begin());
  }
  consumed_ = 0;
  return base;
}

Host::Host(Network& network, Asn asn, const OsProfile& os,
           std::vector<IpAddr> addresses, cd::Rng rng, std::string label)
    : network_(network),
      asn_(asn),
      os_(os),
      addresses_(std::move(addresses)),
      rng_(rng),
      label_(std::move(label)) {
  CD_ENSURE(!addresses_.empty(), "Host: no addresses");
  network_.attach(this);
}

Host::~Host() {
  network_.detach(this);
}

bool Host::has_address(const IpAddr& addr) const {
  for (const IpAddr& a : addresses_) {
    if (a == addr) return true;
  }
  return false;
}

std::optional<IpAddr> Host::address(IpFamily family) const {
  for (const IpAddr& a : addresses_) {
    if (a.family() == family) return a;
  }
  return std::nullopt;
}

void Host::bind_udp(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void Host::unbind_udp(std::uint16_t port) {
  udp_handlers_.erase(port);
}

void Host::send_udp(const IpAddr& src, std::uint16_t src_port,
                    const IpAddr& dst, std::uint16_t dst_port,
                    std::vector<std::uint8_t> payload) {
  CD_ENSURE(has_address(src), "send_udp: src is not ours");
  Packet pkt = cd::net::make_udp(src, src_port, dst, dst_port,
                                 std::move(payload), os_.fp.initial_ttl);
  network_.send(std::move(pkt), asn_);
}

void Host::tcp_listen(std::uint16_t port, TcpSessionHandler handler) {
  tcp_listeners_[port] = std::move(handler);
}

std::uint16_t Host::ephemeral_port() {
  const std::uint32_t pool = os_.ephemeral_pool_size();
  return static_cast<std::uint16_t>(os_.ephemeral_lo +
                                    rng_.uniform(pool));
}

Packet Host::make_segment(const IpAddr& src, std::uint16_t sport,
                          const IpAddr& dst, std::uint16_t dport,
                          TcpFlags flags,
                          std::vector<std::uint8_t> payload) const {
  Packet pkt = cd::net::make_tcp(src, sport, dst, dport, flags,
                                 std::move(payload), os_.fp.initial_ttl);
  pkt.tcp_window = os_.fp.window;
  if (flags.syn) {
    pkt.tcp_options = os_.fp.syn_options;
  }
  return pkt;
}

void Host::tcp_query(const IpAddr& src, const IpAddr& dst,
                     std::uint16_t dst_port, cd::GatherBuf message,
                     TcpResponseHandler on_reply, SimTime timeout) {
  CD_ENSURE(has_address(src), "tcp_query: src is not ours");

  // A one-shot query always dials and never enters the session index.
  const bool persistent = network_.transport().persistent;
  const SessionKey skey{src, dst, dst_port};
  ConnKey key;
  const auto sit = persistent ? sessions_.find(skey) : sessions_.end();
  if (sit != sessions_.end() && connections_.count(sit->second) != 0) {
    key = sit->second;
    ++counters_.session_reuses;
  } else {
    // No live session (never dialed, idle-closed, or dial timed out): dial.
    std::uint16_t sport = ephemeral_port();
    key = ConnKey{dst, dst_port, sport};
    for (int attempts = 0; connections_.count(key) && attempts < 16;
         ++attempts) {
      sport = ephemeral_port();
      key.local_port = sport;
    }
    CD_ENSURE(connections_.count(key) == 0,
              "tcp_query: no free ephemeral port toward the peer");
    Connection& conn = connections_[key];
    conn.session = persistent;
    conn.local = src;
    Packet syn =
        make_segment(src, sport, dst, dst_port, TcpFlags{.syn = true}, {});
    syn.tcp_seq = static_cast<std::uint32_t>(rng_.u64());
    conn.iss = syn.tcp_seq;
    if (persistent) sessions_[skey] = key;
    ++counters_.dials;
    network_.send(std::move(syn), asn_);
  }

  // Own the framed bytes (the caller's GatherBuf body goes back to the pool)
  // and queue them behind the pipeline window.
  QueuedMsg m;
  m.bytes = cd::BufferPool::acquire();
  message.spans().append_to(m.bytes);
  cd::BufferPool::release(std::move(message.body));
  m.id = framed_message_id(m.bytes);
  m.on_reply = std::move(on_reply);
  const std::uint16_t id = m.id;
  m.timeout_event = network_.loop().schedule_in(
      timeout, [this, key, id] { on_message_timeout(key, id); });
  connections_.find(key)->second.queue.push_back(std::move(m));
  flush_session(key);
}

void Host::send_stream(const IpAddr& src, std::uint16_t sport,
                       const IpAddr& dst, std::uint16_t dport,
                       std::uint32_t iss, std::uint32_t ack_no,
                       std::uint16_t peer_mss, const cd::ConstSpans& stream) {
  const std::size_t total = stream.size_bytes();
  std::size_t off = 0;
  do {
    const std::size_t n = std::min<std::size_t>(peer_mss, total - off);
    std::vector<std::uint8_t> payload = cd::BufferPool::acquire();
    stream.subchain(off, n).append_to(payload);
    const bool last = off + n == total;
    Packet seg = make_segment(src, sport, dst, dport,
                              TcpFlags{.ack = true, .psh = last},
                              std::move(payload));
    // SYN consumed one sequence number; data starts at iss + 1 and seq/ack
    // advance by actual payload bytes.
    seg.tcp_seq = iss + 1 + static_cast<std::uint32_t>(off);
    seg.tcp_ack = ack_no;
    network_.send(std::move(seg), asn_);
    off += n;
  } while (off < total);
}

void Host::session_write(const ConnKey& key, Connection& conn,
                         const cd::ConstSpans& data) {
  const std::uint32_t ack_no =
      conn.irs + 1 +
      static_cast<std::uint32_t>(conn.rx_base + conn.rx.consumed());
  // Shifting iss by tx_off makes send_stream's `iss + 1 + off` land each
  // segment at the session's current stream position.
  send_stream(conn.local, key.local_port, key.peer, key.peer_port,
              conn.iss + static_cast<std::uint32_t>(conn.tx_off), ack_no,
              conn.peer_mss, data);
  conn.tx_off += data.size_bytes();
}

void Host::send_hello(const ConnKey& key, Connection& conn) {
  std::vector<std::uint8_t> flight = cd::BufferPool::acquire();
  flight.resize(kDotHelloBytes, 0);
  // TLS-handshake-record-shaped filler so captures look plausible.
  flight[0] = 0x16;
  flight[1] = 0x03;
  flight[2] = 0x03;
  session_write(key, conn, cd::ConstSpans(flight));
  counters_.handshake_bytes += kDotHelloBytes;
  cd::BufferPool::release(std::move(flight));
}

void Host::flush_session(const ConnKey& key) {
  const auto it = connections_.find(key);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (conn.state != ConnState::kClient || !conn.tx_ready) return;
  const auto cap =
      static_cast<std::size_t>(std::max(1, network_.transport().max_pipeline));
  while (!conn.queue.empty() && conn.pending.size() < cap) {
    QueuedMsg m = std::move(conn.queue.front());
    conn.queue.pop_front();
    session_write(key, conn, cd::ConstSpans(m.bytes));
    cd::BufferPool::release(std::move(m.bytes));
    conn.pending.push_back(
        PendingReply{m.id, std::move(m.on_reply), m.timeout_event});
    if (conn.session) ++counters_.session_messages;
  }
}

void Host::process_client_session(const ConnKey& key) {
  {
    const auto it = connections_.find(key);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    // DoT: each server hello flight completes one handshake round trip.
    while (conn.hello_rounds_left > 0 &&
           conn.rx.available() >= kDotHelloBytes) {
      conn.rx.skip(kDotHelloBytes);
      if (--conn.hello_rounds_left > 0) {
        send_hello(key, conn);
      } else {
        // Handshake done; session keys derive after a fixed setup cost,
        // then the queued messages flow.
        network_.loop().schedule_in(kDotSetupCost, [this, key] {
          const auto cit = connections_.find(key);
          if (cit == connections_.end()) return;
          cit->second.tx_ready = true;
          flush_session(key);
        });
      }
    }
    if (conn.hello_rounds_left > 0) return;
  }
  // Cut complete frames off the stream, pairing each with its pending
  // handler by DNS message ID (out-of-order replies match correctly).
  // Handlers may re-enter this host (tcp_query on this same session), so
  // re-find the entry each round.
  for (;;) {
    const auto it = connections_.find(key);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    if (conn.rx.available() < 2) break;
    const std::size_t len =
        (static_cast<std::size_t>(conn.rx.peek(0)) << 8) | conn.rx.peek(1);
    if (conn.rx.available() < 2 + len) break;
    std::vector<std::uint8_t> msg = cd::BufferPool::acquire();
    conn.rx.read(2 + len, msg);
    const std::uint16_t id = framed_message_id(msg);
    TcpResponseHandler handler;
    for (auto pit = conn.pending.begin(); pit != conn.pending.end(); ++pit) {
      if (pit->id == id) {
        if (pit->timeout_event != 0) {
          network_.loop().cancel(pit->timeout_event);
        }
        handler = std::move(pit->on_reply);
        conn.pending.erase(pit);
        break;
      }
    }
    if (handler) {
      if (!conn.session) {
        // One-shot: the exchange is done; forget the connection before the
        // handler runs (it may dial again).
        conn.rx.discard();
        connections_.erase(it);
      }
      handler(std::move(msg));
    } else {
      cd::BufferPool::release(std::move(msg));  // unsolicited: drop
    }
  }
  const auto it = connections_.find(key);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (conn.rx.consumed() >= kRebaseBytes) conn.rx_base += conn.rx.rebase();
  flush_session(key);  // responses freed pipeline slots
}

void Host::process_server_session(const ConnKey& key) {
  for (;;) {
    const auto it = connections_.find(key);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    if (conn.hello_rounds_left > 0) {
      // DoT: answer each client hello flight with ours.
      if (conn.rx.available() < kDotHelloBytes) return;
      conn.rx.skip(kDotHelloBytes);
      send_hello(key, conn);
      --conn.hello_rounds_left;
      continue;
    }
    if (conn.rx.available() < 2) break;
    const std::size_t len =
        (static_cast<std::size_t>(conn.rx.peek(0)) << 8) | conn.rx.peek(1);
    if (conn.rx.available() < 2 + len) break;
    const auto lit = tcp_listeners_.find(key.local_port);
    if (lit == tcp_listeners_.end()) return;
    std::vector<std::uint8_t> msg = cd::BufferPool::acquire();
    conn.rx.read(2 + len, msg);
    ++conn.server_outstanding;
    // The reply may come now or later; it holds the connection open against
    // the idle timer (bounded — see kMaxIdleDeferrals) and no-ops if the
    // connection is gone by the time it fires.
    TcpSessionReply reply = [this, key](cd::GatherBuf response) {
      const auto rit = connections_.find(key);
      if (rit == connections_.end()) {
        cd::BufferPool::release(std::move(response.body));
        return;
      }
      Connection& c = rit->second;
      --c.server_outstanding;
      session_activity(c);
      if (!c.session) network_.loop().cancel(c.reaper_event);
      if (response.size() > 0) session_write(key, c, response.spans());
      cd::BufferPool::release(std::move(response.body));
      if (!c.session) {
        // One-shot: the reply retires the connection (no FIN).
        c.rx.discard();
        connections_.erase(rit);
      }
    };
    lit->second(conn.info, msg, std::move(reply));
    cd::BufferPool::release(std::move(msg));
  }
  const auto it = connections_.find(key);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (conn.rx.consumed() >= kRebaseBytes) conn.rx_base += conn.rx.rebase();
}

void Host::session_activity(Connection& conn) {
  conn.last_activity = network_.loop().now();
}

void Host::idle_check(const ConnKey& key) {
  const auto it = connections_.find(key);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  const SimTime now = network_.loop().now();
  const SimTime deadline = conn.last_activity + conn.idle_window;
  if (deadline > now) {
    // Activity since this check was scheduled: re-arm at the new deadline.
    conn.idle_deferrals = 0;
    conn.idle_event = network_.loop().schedule_in(
        deadline - now, [this, key] { idle_check(key); });
    return;
  }
  if (conn.server_outstanding > 0 &&
      ++conn.idle_deferrals < kMaxIdleDeferrals) {
    conn.idle_event = network_.loop().schedule_in(
        conn.idle_window, [this, key] { idle_check(key); });
    return;
  }
  // A full idle window with no traffic (a deadline landing exactly on the
  // last activity's window edge counts as idle): close with a FIN, RFC 7766
  // §6.1 style.
  ++counters_.idle_closes;
  Packet fin = make_segment(conn.local, key.local_port, key.peer,
                            key.peer_port, TcpFlags{.ack = true, .fin = true},
                            {});
  fin.tcp_seq = conn.iss + 1 + static_cast<std::uint32_t>(conn.tx_off);
  fin.tcp_ack =
      conn.irs + 1 +
      static_cast<std::uint32_t>(conn.rx_base + conn.rx.consumed());
  conn.rx.discard();
  connections_.erase(it);
  network_.send(std::move(fin), asn_);
}

void Host::on_message_timeout(const ConnKey& key, std::uint16_t id) {
  const auto it = connections_.find(key);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  TcpResponseHandler handler;
  for (auto qit = conn.queue.begin(); qit != conn.queue.end(); ++qit) {
    if (qit->id == id) {
      handler = std::move(qit->on_reply);
      cd::BufferPool::release(std::move(qit->bytes));
      conn.queue.erase(qit);
      break;
    }
  }
  if (!handler) {
    for (auto pit = conn.pending.begin(); pit != conn.pending.end(); ++pit) {
      if (pit->id == id) {
        handler = std::move(pit->on_reply);
        conn.pending.erase(pit);
        break;
      }
    }
  }
  // A dial that never established with nothing left waiting is dead; drop
  // it so the next tcp_query redials instead of queueing forever. A
  // one-shot connection has nothing more to carry once its message failed.
  if ((conn.state == ConnState::kSynSent || !conn.session) &&
      conn.queue.empty() && conn.pending.empty()) {
    const auto sit =
        sessions_.find(SessionKey{conn.local, key.peer, key.peer_port});
    if (sit != sessions_.end() && sit->second.local_port == key.local_port) {
      sessions_.erase(sit);
    }
    conn.rx.discard();
    connections_.erase(it);
  }
  if (handler) handler(std::nullopt);
}

void Host::on_fin(const ConnKey& key) {
  const auto it = connections_.find(key);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  std::vector<TcpResponseHandler> failed;
  for (QueuedMsg& m : conn.queue) {
    if (m.timeout_event != 0) network_.loop().cancel(m.timeout_event);
    cd::BufferPool::release(std::move(m.bytes));
    if (m.on_reply) failed.push_back(std::move(m.on_reply));
  }
  for (PendingReply& p : conn.pending) {
    if (p.timeout_event != 0) network_.loop().cancel(p.timeout_event);
    if (p.on_reply) failed.push_back(std::move(p.on_reply));
  }
  if (conn.idle_event != 0) network_.loop().cancel(conn.idle_event);
  if (conn.reaper_event != 0) network_.loop().cancel(conn.reaper_event);
  const auto sit =
      sessions_.find(SessionKey{conn.local, key.peer, key.peer_port});
  if (sit != sessions_.end() && sit->second.local_port == key.local_port) {
    sessions_.erase(sit);
  }
  conn.rx.discard();
  connections_.erase(it);
  // The next tcp_query to this server falls back to a fresh dial; in-flight
  // messages fail now rather than dangling until their timeouts.
  for (TcpResponseHandler& h : failed) h(std::nullopt);
}

bool Host::stack_accepts(const Packet& packet) const {
  if (!has_address(packet.dst)) return false;

  const bool v4 = packet.src.is_v4();
  if (packet.src == packet.dst) {
    return v4 ? os_.accepts_dst_as_src_v4 : os_.accepts_dst_as_src_v6;
  }
  if (cd::net::is_loopback(packet.src)) {
    return v4 ? os_.accepts_loopback_v4 : os_.accepts_loopback_v6;
  }
  return true;
}

void Host::deliver(const Packet& packet) {
  if (packet.proto == IpProto::kUdp) {
    const auto it = udp_handlers_.find(packet.dst_port);
    if (it != udp_handlers_.end() && it->second) it->second(packet);
    return;
  }
  deliver_tcp(packet);
}

void Host::deliver_tcp(const Packet& packet) {
  const TcpFlags& f = packet.tcp_flags;

  if (f.fin) {
    on_fin(ConnKey{packet.src, packet.src_port, packet.dst_port});
    return;
  }

  if (f.syn && !f.ack) {
    // Inbound connection attempt.
    const auto lit = tcp_listeners_.find(packet.dst_port);
    if (lit == tcp_listeners_.end()) return;  // no RST modeling; just drop
    const ConnKey key{packet.src, packet.src_port, packet.dst_port};
    Connection conn;
    conn.local = packet.dst;
    conn.peer_mss = peer_mss_of(packet);
    conn.irs = packet.tcp_seq;
    conn.info = TcpConnInfo{packet.src, packet.src_port, packet.dst,
                            packet.dst_port, packet};
    conn.state = ConnState::kServer;
    if (network_.transport().persistent) {
      conn.session = true;
      conn.idle_window = network_.transport().idle_timeout;
      conn.last_activity = network_.loop().now();
      conn.idle_event = network_.loop().schedule_in(
          conn.idle_window, [this, key] { idle_check(key); });
      if (network_.transport().dot) {
        conn.hello_rounds_left = kDotHandshakeRtts;
      }
    } else {
      // Reap abandoned half-open connections after a while.
      conn.reaper_event =
          network_.loop().schedule_in(30 * kSecond, [this, key] {
            const auto it = connections_.find(key);
            if (it == connections_.end()) return;
            it->second.rx.discard();
            connections_.erase(it);
          });
    }
    ++counters_.accepts;

    Packet synack = make_segment(packet.dst, packet.dst_port, packet.src,
                                 packet.src_port, TcpFlags{.syn = true, .ack = true}, {});
    synack.tcp_seq = static_cast<std::uint32_t>(rng_.u64());
    synack.tcp_ack = packet.tcp_seq + 1;
    conn.iss = synack.tcp_seq;
    connections_[key] = std::move(conn);
    network_.send(std::move(synack), asn_);
    return;
  }

  if (f.syn && f.ack) {
    // Our SYN was answered.
    const ConnKey key{packet.src, packet.src_port, packet.dst_port};
    const auto it = connections_.find(key);
    if (it == connections_.end() || it->second.state != ConnState::kSynSent) {
      return;
    }
    Connection& conn = it->second;
    conn.peer_mss = peer_mss_of(packet);
    conn.irs = packet.tcp_seq;
    conn.state = ConnState::kClient;
    if (conn.session && network_.transport().dot) {
      // Pay the handshake before any DNS bytes: hello flights are real
      // stream bytes, one flight each way per round trip.
      conn.hello_rounds_left = kDotHandshakeRtts;
      send_hello(key, conn);
    } else {
      conn.tx_ready = true;
      flush_session(key);
    }
    return;
  }

  if (!f.syn && !packet.payload.empty()) {
    // Data segment: feed the reassembly for this direction. Segments may
    // arrive in any order.
    const ConnKey key{packet.src, packet.src_port, packet.dst_port};
    const auto it = connections_.find(key);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    if (conn.state == ConnState::kSynSent) return;  // no stream basis yet

    // Stream offset relative to the peer's ISN + 1 (u32 wraparound safe).
    // Frames are cut by length prefix, and the stream origin rebases as
    // bytes are consumed.
    const std::uint32_t rel = packet.tcp_seq - (conn.irs + 1);
    if (rel < conn.rx_base) return;  // behind the rebased origin: stale
    conn.rx.add(rel - conn.rx_base, packet.payload);
    if (conn.state == ConnState::kServer) {
      session_activity(conn);
      process_server_session(key);
    } else {
      process_client_session(key);
    }
  }
}

}  // namespace cd::sim
