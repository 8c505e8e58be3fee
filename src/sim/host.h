// A simulated end host: addresses, an OS stack model, UDP services, and a
// streaming TCP transport (handshake + MSS-segmented byte streams with
// reordering-tolerant reassembly) that carries real fingerprintable SYN
// metadata. Every TCP exchange is an RFC 1035 §4.2.2 length-prefixed DNS
// message on a connection, and one lifecycle serves both transports:
//
//  - one-shot (the default): tcp_query() dials a connection that carries
//    exactly one framed exchange; the listener answers it, and both ends
//    then forget the connection without a FIN.
//  - sessions (Network::transport().persistent): connections survive
//    completed exchanges and carry many framed messages per stream.
//    tcp_query() reuses one connection per (src, dst, port) and pipelines
//    up to max_pipeline in-flight messages. Servers close idle sessions
//    with a FIN after an idle window (RFC 7766 §6.1), driven
//    deterministically through the event loop. With transport().dot set,
//    each dial additionally pays a fixed hello handshake (real stream
//    bytes, real RTTs) plus a setup delay before the first DNS byte.
//
// In both, responses are matched to handlers by DNS message ID, so
// out-of-order replies pair correctly and a reply with an unknown ID is
// dropped.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/callback.h"
#include "sim/network.h"
#include "sim/os_model.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace cd::sim {

/// Connection metadata handed to TCP server handlers; `syn` is the client's
/// original SYN packet, preserving the fields p0f-style fingerprinting needs.
struct TcpConnInfo {
  cd::net::IpAddr peer;
  std::uint16_t peer_port = 0;
  cd::net::IpAddr local;
  std::uint16_t local_port = 0;
  cd::net::Packet syn;
};

/// Reassembles one direction of a TCP byte stream from (possibly reordered)
/// segments. Offsets are stream-relative: seq - (peer ISN + 1). The
/// receiver cuts length-prefixed messages off the front with a consumption
/// cursor; PSH marks the sender's last segment on the wire but ends nothing
/// here. Backing storage is a pooled buffer; received-range bookkeeping is
/// a small inline array, so a reassembly allocates nothing in steady state.
/// Pathological interleavings that exceed the inline range capacity (or a
/// sanity cap on stream size) drop the segment — the stream stalls into the
/// message-timeout path, which is also how real stacks shed garbage.
class TcpReassembly {
 public:
  static constexpr std::size_t kMaxRanges = 8;
  static constexpr std::size_t kMaxStreamBytes = 1 << 20;

  /// Ingests a segment's payload at stream offset `offset`. Returns false
  /// if the segment was dropped (range-table overflow or oversized).
  bool add(std::size_t offset, std::span<const std::uint8_t> data);

  /// Returns the backing buffer to the pool (connection teardown).
  void discard();

  /// Contiguous bytes available at the cursor.
  [[nodiscard]] std::size_t available() const;
  /// Byte at cursor + i; requires i < available().
  [[nodiscard]] std::uint8_t peek(std::size_t i) const;
  /// Appends [cursor, cursor + n) to `out` and advances; requires
  /// n <= available().
  void read(std::size_t n, std::vector<std::uint8_t>& out);
  /// Advances the cursor without copying (DoT hello flights).
  void skip(std::size_t n);
  [[nodiscard]] std::size_t consumed() const { return consumed_; }
  /// Shifts the stream origin to the cursor, dropping consumed bytes so a
  /// long-lived session never outgrows kMaxStreamBytes. Returns the number
  /// of bytes dropped — the caller must add it to its stream-offset base.
  std::size_t rebase();

 private:
  std::vector<std::uint8_t> buf_;
  // Disjoint received [begin, end) ranges, sorted, merged on insert.
  std::array<std::pair<std::size_t, std::size_t>, kMaxRanges> ranges_{};
  std::size_t n_ranges_ = 0;
  std::size_t consumed_ = 0;
};

class Host {
 public:
  using UdpHandler = SmallFn<void(const cd::net::Packet&)>;
  /// Receives the framed response matched to a query, or nullopt on
  /// timeout (or when the server closed the session first).
  using TcpResponseHandler =
      SmallFn<void(std::optional<std::vector<std::uint8_t>>)>;
  /// Sends one framed response (framing header + body) on an accepted
  /// connection, streamed back in MSS-sized segments (no-op once the
  /// connection is gone; an empty GatherBuf sends nothing). Move-only and
  /// deferrable: the serving application may hold it and reply later, and
  /// whoever holds it is the one party that can reply.
  using TcpSessionReply = SmallFn<void(cd::GatherBuf)>;
  /// Serves one length-prefixed message from an accepted stream. The
  /// message span is valid only for the duration of the call, and the
  /// TcpConnInfo only until the reply is sent (a one-shot reply retires
  /// the connection); reply via the callback, immediately or later
  /// (per-connection pending responses are tracked so idle-timeout
  /// teardown never races an unsent reply).
  using TcpSessionHandler = SmallFn<void(
      const TcpConnInfo&, std::span<const std::uint8_t>, TcpSessionReply)>;

  /// MSS assumed for a peer that advertised none (RFC 1122 §4.2.2.6 / RFC
  /// 9293 default; every OsProfile in the fingerprint table does advertise).
  static constexpr std::uint16_t kDefaultMss = 536;

  /// The host registers itself with `network` and must outlive any packets
  /// in flight toward it (in practice: the whole simulation).
  Host(Network& network, Asn asn, const OsProfile& os,
       std::vector<cd::net::IpAddr> addresses, cd::Rng rng,
       std::string label = {});
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] Asn asn() const { return asn_; }
  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] const OsProfile& os() const { return os_; }
  [[nodiscard]] const std::vector<cd::net::IpAddr>& addresses() const {
    return addresses_;
  }
  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] bool has_address(const cd::net::IpAddr& addr) const;
  /// First configured address of `family`, if any.
  [[nodiscard]] std::optional<cd::net::IpAddr> address(
      cd::net::IpFamily family) const;

  // --- UDP ---
  void bind_udp(std::uint16_t port, UdpHandler handler);
  void unbind_udp(std::uint16_t port);
  /// `src` must be one of this host's addresses (this host does not spoof).
  void send_udp(const cd::net::IpAddr& src, std::uint16_t src_port,
                const cd::net::IpAddr& dst, std::uint16_t dst_port,
                std::vector<std::uint8_t> payload);

  // --- TCP ---
  /// Per-message listener: `handler` sees each framed message and answers
  /// through its reply callback. With Network::transport().persistent off
  /// an accepted connection carries exactly one framed exchange and is
  /// forgotten once the reply is sent (a 30 s reaper drops one whose
  /// request never completes); with it on, the connection is a session:
  /// pipelined and idle-timed by transport().idle_timeout.
  void tcp_listen(std::uint16_t port, TcpSessionHandler handler);
  /// Sends one length-prefixed DNS message from `src` (one of this host's
  /// addresses) to (dst, dst_port), segmented at the peer's SYN-advertised
  /// MSS. With transport().persistent off every call dials a connection
  /// that carries just this message. With it on, the message rides the
  /// live session to (src, dst, dst_port) (dialing one if absent,
  /// redialing if the server idle-closed it), pipelined up to
  /// transport().max_pipeline in flight. `on_reply` receives the framed
  /// response with the same DNS message ID, or nullopt after `timeout`.
  void tcp_query(const cd::net::IpAddr& src, const cd::net::IpAddr& dst,
                 std::uint16_t dst_port, cd::GatherBuf message,
                 TcpResponseHandler on_reply, SimTime timeout = 5 * kSecond);

  /// Kernel-level acceptance of an arriving packet, implementing the paper's
  /// Table 6 rules for destination-as-source and loopback-source packets.
  [[nodiscard]] bool stack_accepts(const cd::net::Packet& packet) const;

  /// Entry point used by Network once a packet clears all filters, called
  /// from the packet's own delivery event at its arrival time.
  void deliver(const cd::net::Packet& packet);

  /// Draws an ephemeral port from the OS-designated range (used for TCP
  /// client connections; UDP query ports are the resolver's business).
  [[nodiscard]] std::uint16_t ephemeral_port();

  /// Live TCP connection-table entries (tests assert deterministic
  /// teardown: zero once every exchange has completed, timed out, or been
  /// idle-closed).
  [[nodiscard]] std::size_t open_tcp_connections() const {
    return connections_.size();
  }

  /// Lifetime connection-economics counters (see sim::TransportCounters).
  [[nodiscard]] const TransportCounters& transport_counters() const {
    return counters_;
  }

  /// Bytes in one DoT hello flight (each handshake round trip carries one
  /// flight in each direction, as real stream bytes).
  static constexpr std::size_t kDotHelloBytes = 32;
  /// Hello round trips each DoT dial pays, and the key-derivation delay
  /// after the last one before the first DNS byte is sent.
  static constexpr int kDotHandshakeRtts = 2;
  static constexpr SimTime kDotSetupCost = kMillisecond;

 private:
  struct ConnKey {
    cd::net::IpAddr peer;
    std::uint16_t peer_port;
    std::uint16_t local_port;
    bool operator<(const ConnKey& o) const {
      if (!(peer == o.peer)) return peer < o.peer;
      if (peer_port != o.peer_port) return peer_port < o.peer_port;
      return local_port < o.local_port;
    }
  };
  /// Client-side session index: one live connection per (local address,
  /// server address, server port).
  struct SessionKey {
    cd::net::IpAddr local;
    cd::net::IpAddr peer;
    std::uint16_t peer_port;
    bool operator<(const SessionKey& o) const {
      if (!(local == o.local)) return local < o.local;
      if (!(peer == o.peer)) return peer < o.peer;
      return peer_port < o.peer_port;
    }
  };
  enum class ConnState {
    kSynSent,
    kClient,
    kServer,
  };
  /// A message accepted by tcp_query but not yet written to the stream
  /// (handshake still running, or the pipeline window is full).
  struct QueuedMsg {
    std::vector<std::uint8_t> bytes;  // framed: 2-byte prefix + DNS message
    std::uint16_t id = 0;
    TcpResponseHandler on_reply;
    EventId timeout_event = 0;
  };
  /// A written message awaiting its response, matched by DNS message ID.
  struct PendingReply {
    std::uint16_t id = 0;
    TcpResponseHandler on_reply;
    EventId timeout_event = 0;
  };
  struct Connection {
    ConnState state = ConnState::kSynSent;
    bool session = false;                // dialed/accepted in persistent mode
    cd::net::IpAddr local;
    TcpConnInfo info;                    // server side (includes SYN)
    EventId reaper_event = 0;            // one-shot server: half-open reaper
    std::uint16_t peer_mss = kDefaultMss;  // from the peer's SYN / SYN-ACK
    std::uint32_t iss = 0;               // our initial send sequence number
    std::uint32_t irs = 0;               // peer's initial sequence number
    TcpReassembly rx;                    // the peer's inbound byte stream
    std::size_t tx_off = 0;         // stream bytes we have written (post-ISS)
    std::size_t rx_base = 0;        // stream offset of rx's origin (rebases)
    std::deque<QueuedMsg> queue;    // client: awaiting a pipeline slot
    std::vector<PendingReply> pending;  // client: in flight
    int server_outstanding = 0;     // server: replies promised, not yet sent
    bool tx_ready = false;          // client: handshake + setup cost done
    int hello_rounds_left = 0;      // DoT handshake round trips remaining
    SimTime last_activity = 0;      // server: for the idle window
    SimTime idle_window = 0;        // server: resolved idle timeout
    EventId idle_event = 0;         // server: pending idle check
    int idle_deferrals = 0;         // server: stale deadlines outstanding>0
  };

  void deliver_tcp(const cd::net::Packet& packet);
  /// Writes `data` on a connection's stream at tx_off (advancing it) with the
  /// current ack for the peer's stream.
  void session_write(const ConnKey& key, Connection& conn,
                     const cd::ConstSpans& data);
  /// Writes one kDotHelloBytes flight on a session stream (either side).
  void send_hello(const ConnKey& key, Connection& conn);
  /// Promotes queued messages into the pipeline window and writes them.
  void flush_session(const ConnKey& key);
  /// Cuts complete length-prefixed messages (and hello flights) off the
  /// client-side rx stream, pairing responses with pending handlers; a
  /// one-shot connection is erased once its reply is paired.
  void process_client_session(const ConnKey& key);
  /// Server-side counterpart: answers hello flights, hands complete
  /// messages to the listener with a deferrable reply callback; a one-shot
  /// connection is erased once its reply is sent.
  void process_server_session(const ConnKey& key);
  void session_activity(Connection& conn);
  void idle_check(const ConnKey& key);
  /// Fails one queued/pending message by ID (its timeout fired), tearing
  /// down a never-established dial or a one-shot connection once nothing
  /// else waits on it.
  void on_message_timeout(const ConnKey& key, std::uint16_t id);
  /// Peer closed (FIN): fail every queued/pending message, drop the session
  /// index entry, and erase the connection.
  void on_fin(const ConnKey& key);
  [[nodiscard]] cd::net::Packet make_segment(
      const cd::net::IpAddr& src, std::uint16_t sport,
      const cd::net::IpAddr& dst, std::uint16_t dport, cd::net::TcpFlags flags,
      std::vector<std::uint8_t> payload) const;
  /// Streams `data` from local (src, sport) to (dst, dport) as ACK segments
  /// capped at `peer_mss` bytes of payload each (PSH marks the last), with
  /// seq advancing from `iss + 1` by actual payload bytes and `ack_no`
  /// acknowledging the peer's stream. Segment payloads are gather-copied
  /// straight from the span chain into pooled buffers.
  void send_stream(const cd::net::IpAddr& src, std::uint16_t sport,
                   const cd::net::IpAddr& dst, std::uint16_t dport,
                   std::uint32_t iss, std::uint32_t ack_no,
                   std::uint16_t peer_mss, const cd::ConstSpans& stream);

  Network& network_;
  Asn asn_;
  const OsProfile& os_;
  std::vector<cd::net::IpAddr> addresses_;
  cd::Rng rng_;
  std::string label_;

  std::map<std::uint16_t, UdpHandler> udp_handlers_;
  std::map<std::uint16_t, TcpSessionHandler> tcp_listeners_;
  std::map<ConnKey, Connection> connections_;
  std::map<SessionKey, ConnKey> sessions_;
  TransportCounters counters_;
};

}  // namespace cd::sim
