// The simulated Internet: moves packets between hosts, applying border
// filtering (OSAV at the origin AS, DSAV and martian filtering at the
// destination AS) and host-stack acceptance rules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/topology.h"
#include "util/pcap.h"
#include "util/rng.h"

namespace cd::sim {

class Host;

/// Where (if anywhere) a packet was dropped.
enum class DropReason : std::uint8_t {
  kNone,           // delivered
  kOsav,           // origin border: egress source validation
  kDsav,           // destination border: spoofed-internal source
  kMartian,        // destination border: special-purpose source
  kUrpfSubnet,     // destination border: source inside the target's subnet
  kUnrouted,       // no announcement covers the destination
  kNoHost,         // routed, but nothing lives at the address
  kStackRejected,  // host kernel refused the spoofed source
};

[[nodiscard]] std::string drop_reason_name(DropReason reason);

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  /// Delivery events scheduled on the event loop: one per delivered packet,
  /// so it always equals `delivered` (kept for the spill format and the
  /// benchmark's counter).
  std::uint64_t delivery_batches = 0;
  std::uint64_t dropped_osav = 0;
  std::uint64_t dropped_dsav = 0;
  std::uint64_t dropped_martian = 0;
  std::uint64_t dropped_urpf = 0;
  std::uint64_t dropped_unrouted = 0;
  std::uint64_t dropped_no_host = 0;
  std::uint64_t dropped_stack = 0;

  /// Accumulates another network's counters (merging shard results).
  NetworkStats& operator+=(const NetworkStats& other) {
    sent += other.sent;
    delivered += other.delivered;
    delivery_batches += other.delivery_batches;
    dropped_osav += other.dropped_osav;
    dropped_dsav += other.dropped_dsav;
    dropped_martian += other.dropped_martian;
    dropped_urpf += other.dropped_urpf;
    dropped_unrouted += other.dropped_unrouted;
    dropped_no_host += other.dropped_no_host;
    dropped_stack += other.dropped_stack;
    return *this;
  }

  /// Sum of the per-reason drop counters: sent == delivered + dropped().
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_osav + dropped_dsav + dropped_martian + dropped_urpf +
           dropped_unrouted + dropped_no_host + dropped_stack;
  }
};

/// Network-wide transport-layer policy (RFC 7766 persistence and DoT-style
/// sessions). Both endpoints of a connection read the same Network instance,
/// so no in-band negotiation is modeled: a SYN accepted while `persistent`
/// is set opens a session connection on both sides. Toggle before traffic is
/// in flight; connections already open keep the mode they were dialed under.
struct TransportOptions {
  /// RFC 7766 mode: client connections are keyed by (src, dst, port) and
  /// survive completed exchanges; streams carry length-prefixed DNS messages
  /// with pipelined requests. Off (the default), every Host::tcp_query
  /// dials a connection that carries one exchange and ends without a FIN.
  /// Responses are matched by DNS message ID in both modes.
  bool persistent = false;
  /// Client-side cap on in-flight (sent, unanswered) messages per
  /// connection; further queries queue until a response frees a slot.
  int max_pipeline = 8;
  /// Server-side idle window: a session connection with no activity and no
  /// pending responses for this long is closed with a FIN through the
  /// event loop (RFC 7766 §6.1).
  SimTime idle_timeout = 10 * kSecond;
  /// DoT-like sessions: each dial pays Host::kDotHandshakeRtts hello round
  /// trips (Host::kDotHelloBytes of real stream bytes per flight, per
  /// direction) plus Host::kDotSetupCost before the first DNS byte is sent.
  bool dot = false;
};

/// Connection-economics counters a host accumulates across its lifetime
/// (never reset; excluded from results_digest like NetworkStats). These are
/// what the per-transport benches and the SYN-drop differential assert on.
struct TransportCounters {
  std::uint64_t dials = 0;            // client SYNs sent (one per dial)
  std::uint64_t accepts = 0;          // server-side connections accepted
  std::uint64_t session_reuses = 0;   // tcp_query served by a live session
  std::uint64_t session_messages = 0; // session messages written by clients
  std::uint64_t idle_closes = 0;      // server FINs after an idle window
  std::uint64_t handshake_bytes = 0;  // DoT hello bytes put on the wire

  TransportCounters& operator+=(const TransportCounters& other) {
    dials += other.dials;
    accepts += other.accepts;
    session_reuses += other.session_reuses;
    session_messages += other.session_messages;
    idle_closes += other.idle_closes;
    handshake_bytes += other.handshake_bytes;
    return *this;
  }
  friend bool operator==(const TransportCounters&,
                         const TransportCounters&) = default;
};

/// Selects the traffic a Network capture tap records.
struct CaptureOptions {
  /// Record packets the network dropped (annotated with the DropReason in
  /// the capture's sidecar index), not just delivered ones.
  bool include_drops = false;
  /// When set, record only packets that physically originated in this AS
  /// (e.g. the scanner's probe plane: origin == vantage AS).
  std::optional<Asn> origin;
};

/// Packet transport over a Topology. Latency between AS pairs is a
/// deterministic function of the pair plus small per-packet jitter derived
/// by hashing the packet itself, so runs are reproducible but not
/// artificially synchronous. Because the jitter is a pure function of
/// (seed, packet), a packet's transit time does not depend on what else is
/// in flight — the property that lets sharded campaigns (core/parallel.h)
/// reproduce a serial run's per-packet timing.
class Network {
 public:
  using Tap = SmallFn<void(const cd::net::Packet&, DropReason, SimTime)>;
  using TapId = std::uint64_t;

  Network(Topology& topology, EventLoop& loop, cd::Rng rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a host at all of its addresses. The host must outlive the
  /// network (or be detached first).
  void attach(Host* host);
  void detach(Host* host);

  /// Sends `packet` as if it physically originated inside `origin_asn`
  /// (spoofed sources are free to disagree with reality — that is the point).
  /// Filtering outcome is reported to taps; each accepted packet gets one
  /// event-loop entry at its arrival time, so packets due at the same tick
  /// deliver in send order, interleaved with any other event of that tick
  /// in scheduling order.
  void send(cd::net::Packet packet, Asn origin_asn);

  /// Transport-layer policy all attached hosts consult (see
  /// TransportOptions). Set before traffic flows.
  void set_transport(const TransportOptions& options) { transport_ = options; }
  [[nodiscard]] const TransportOptions& transport() const { return transport_; }

  /// Sum of live TCP connection-table entries across every attached host —
  /// the campaign-wide leak check (zero once the event loop has drained:
  /// every exchange completed, timed out, or idle-closed).
  [[nodiscard]] std::size_t open_tcp_connections() const;

  /// Accepted packets still waiting for their delivery event — zero once
  /// the event loop has drained.
  [[nodiscard]] std::size_t packets_in_flight() const {
    return in_flight_.size() - free_slots_.size();
  }

  /// Aggregated TransportCounters across every attached host.
  [[nodiscard]] TransportCounters transport_counters() const;

  [[nodiscard]] Host* host_at(const cd::net::IpAddr& addr) const;

  /// Registers `host` as one site of the anycast service address `service`.
  /// Traffic to a registered service address bypasses the unicast routing
  /// table: each origin AS reaches exactly one site — its catchment — chosen
  /// by topology distance (minimum AS-pair base latency, registration order
  /// breaking ties), and destination-border policy is evaluated against that
  /// site's AS. Different origins therefore see different authoritative
  /// paths from the same service address, the property the off-path
  /// poisoning plane (attack/poison.h) races against.
  void add_anycast_site(const cd::net::IpAddr& service, Host* host);

  /// The site an origin AS's traffic to `service` lands at, or nullptr if
  /// `service` has no registered sites.
  [[nodiscard]] Host* anycast_catchment(const cd::net::IpAddr& service,
                                        Asn origin_asn) const;

  /// Deterministic symmetric base latency of an AS pair — the exact value
  /// latency() charges cross-AS transit before jitter (0 for a == b).
  /// Public so anycast catchment and attack-timing code share the network's
  /// distance metric instead of re-deriving it.
  [[nodiscard]] static SimTime pair_base_latency(Asn a, Asn b);

  [[nodiscard]] Topology& topology() { return topology_; }
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }

  /// Taps observe every send attempt with its filtering outcome, at send
  /// time (the IDS-at-the-border viewpoint). Returns an id for remove_tap.
  /// Throws InvariantError when called from inside a tap.
  TapId add_tap(Tap tap);

  /// Installs a wire capture: delivered packets are recorded — full
  /// serialized wire bytes — when the event loop hands them to the
  /// destination host, so records land in exact delivery order with the
  /// arrival timestamp; drops (when enabled) are recorded at the border at
  /// send time, annotated with their DropReason. `sink` must outlive the
  /// tap (remove it first, or after the loop drains). Returns an id for
  /// remove_tap.
  TapId attach_capture(cd::pcap::Capture& sink, CaptureOptions options = {});

  /// Uninstalls a tap or capture by id. Safe mid-campaign — packets already
  /// scheduled for delivery are simply no longer recorded. Unknown ids are
  /// ignored. Throws InvariantError when called from inside a tap.
  void remove_tap(TapId id);

 private:
  struct TapEntry {
    TapId id;
    Tap fn;
  };
  struct CaptureEntry {
    TapId id;
    cd::pcap::Capture* sink;
    CaptureOptions options;
  };
  /// One accepted packet waiting for its delivery event, paired with the AS
  /// it physically originated in (capture filters see the origin).
  struct Delivery {
    cd::net::Packet packet;
    Asn origin_asn = 0;
  };

  [[nodiscard]] DropReason classify(const cd::net::Packet& packet,
                                    Asn origin_asn, Host** out_host);
  /// Border filters of a packet crossing from `origin_asn` into `dest` (null
  /// when unrouted), in order: the origin's OSAV on egress, then the
  /// destination's DSAV, martian and subnet-uRPF filters on ingress. kNone
  /// when both borders let the packet through.
  [[nodiscard]] DropReason border_drop(const cd::net::Packet& packet,
                                       Asn origin_asn,
                                       const AsInfo* dest) const;
  [[nodiscard]] SimTime latency(Asn from, Asn to,
                                const cd::net::Packet& packet) const;
  [[nodiscard]] static bool capture_wants(const CaptureEntry& entry,
                                          DropReason reason, Asn origin_asn);
  /// Serializes `packet` once and appends it to every capture that wants
  /// it. `reason` is kNone at delivery time, the drop reason otherwise.
  void record_capture(const cd::net::Packet& packet, DropReason reason,
                      Asn origin_asn);
  /// Runs at a packet's arrival time: hands in_flight_[slot] to `host` and
  /// frees the slot.
  void deliver(std::uint32_t slot, Host* host);

  Topology& topology_;
  EventLoop& loop_;
  std::uint64_t jitter_seed_;
  std::unordered_map<cd::net::IpAddr, Host*, cd::net::IpAddrHash> hosts_;
  /// Anycast service address -> sites, in registration order.
  std::unordered_map<cd::net::IpAddr, std::vector<Host*>, cd::net::IpAddrHash>
      anycast_;
  TapId next_tap_id_ = 1;
  std::vector<TapEntry> taps_;
  std::vector<CaptureEntry> captures_;
  bool dispatching_taps_ = false;
  TransportOptions transport_;
  /// Accepted packets awaiting delivery, indexed by the slot their event
  /// captures; freed slots are reused, so steady-state sends allocate
  /// nothing.
  std::vector<Delivery> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  NetworkStats stats_;
};

}  // namespace cd::sim
