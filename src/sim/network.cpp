#include "sim/network.h"

#include <algorithm>

#include "net/special.h"
#include "sim/host.h"
#include "util/bytes.h"
#include "util/error.h"

namespace cd::sim {

using cd::net::IpAddr;
using cd::net::Packet;

std::string drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kNone: return "delivered";
    case DropReason::kOsav: return "osav";
    case DropReason::kDsav: return "dsav";
    case DropReason::kMartian: return "martian";
    case DropReason::kUrpfSubnet: return "urpf-subnet";
    case DropReason::kUnrouted: return "unrouted";
    case DropReason::kNoHost: return "no-host";
    case DropReason::kStackRejected: return "stack-rejected";
  }
  return "?";
}

Network::Network(Topology& topology, EventLoop& loop, cd::Rng rng)
    : topology_(topology), loop_(loop), jitter_seed_(rng.u64()) {}

void Network::attach(Host* host) {
  CD_ENSURE(host != nullptr, "attach: null host");
  for (const IpAddr& addr : host->addresses()) {
    hosts_[addr] = host;
  }
}

void Network::detach(Host* host) {
  for (const IpAddr& addr : host->addresses()) {
    const auto it = hosts_.find(addr);
    if (it != hosts_.end() && it->second == host) hosts_.erase(it);
  }
}

Host* Network::host_at(const IpAddr& addr) const {
  const auto it = hosts_.find(addr);
  return it == hosts_.end() ? nullptr : it->second;
}

std::size_t Network::open_tcp_connections() const {
  // A multi-address host appears once per address in hosts_; count each
  // host once (called at end-of-run, not on a hot path).
  std::size_t n = 0;
  std::unordered_map<const Host*, bool> seen;
  for (const auto& [addr, host] : hosts_) {
    if (seen.emplace(host, true).second) n += host->open_tcp_connections();
  }
  return n;
}

TransportCounters Network::transport_counters() const {
  TransportCounters sum;
  std::unordered_map<const Host*, bool> seen;
  for (const auto& [addr, host] : hosts_) {
    if (seen.emplace(host, true).second) sum += host->transport_counters();
  }
  return sum;
}

void Network::add_anycast_site(const IpAddr& service, Host* host) {
  CD_ENSURE(host != nullptr, "add_anycast_site: null host");
  anycast_[service].push_back(host);
}

Host* Network::anycast_catchment(const IpAddr& service, Asn origin_asn) const {
  const auto it = anycast_.find(service);
  if (it == anycast_.end() || it->second.empty()) return nullptr;
  Host* best = nullptr;
  SimTime best_dist = 0;
  for (Host* site : it->second) {
    const SimTime dist = pair_base_latency(origin_asn, site->asn());
    if (best == nullptr || dist < best_dist) {
      best = site;
      best_dist = dist;
    }
  }
  return best;
}

SimTime Network::pair_base_latency(Asn from, Asn to) {
  if (from == to) return 0;
  // Deterministic symmetric base latency per AS pair (the cross-AS term of
  // latency() below, shared so catchment agrees exactly with transit cost).
  const std::uint64_t a = std::min(from, to);
  const std::uint64_t b = std::max(from, to);
  std::uint64_t h = (a * 0x9E3779B97F4A7C15ULL) ^ (b + 0x517CC1B727220A95ULL);
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return 5 * kMillisecond + static_cast<SimTime>(h % (45 * kMillisecond));
}

DropReason Network::border_drop(const Packet& packet, Asn origin_asn,
                                 const AsInfo* dest) const {
  const AsInfo* origin = topology_.find(origin_asn);
  const bool osav = origin != nullptr && origin->policy.osav;
  const bool dsav = dest != nullptr && dest->policy.dsav;
  // Both source checks read the source's route: look it up once, and only
  // when one of them runs. A router can only check "inside AS X" against
  // its routing table: the covering announcement originates from X.
  const Route* src = osav || dsav ? topology_.route(packet.src) : nullptr;

  // Origin border, egress: BCP 38 / OSAV.
  if (osav && (src == nullptr || src->asn != origin_asn)) {
    return DropReason::kOsav;
  }
  // Destination border, ingress.
  if (dest == nullptr) return DropReason::kNone;
  if (dsav && src != nullptr && src->asn == dest->asn) return DropReason::kDsav;
  if (dest->policy.drop_inbound_martians &&
      cd::net::is_special_purpose(packet.src)) {
    return DropReason::kMartian;
  }
  if (dest->policy.drop_inbound_same_subnet &&
      packet.src.family() == packet.dst.family()) {
    // Strict uRPF at the last hop: a subnet-local source (including the
    // destination itself) cannot legitimately arrive from outside. The
    // subnet is the destination's /24 (v4) or /64 (v6).
    const bool same_subnet =
        packet.dst.is_v4()
            ? (packet.dst.v4_bits() ^ packet.src.v4_bits()) >> 8 == 0
            : packet.dst.bits().hi == packet.src.bits().hi;
    if (same_subnet) return DropReason::kUrpfSubnet;
  }
  return DropReason::kNone;
}

DropReason Network::classify(const Packet& packet, Asn origin_asn,
                             Host** out_host) {
  *out_host = nullptr;

  // Anycast service addresses resolve to a catchment site, not the routing
  // table: the origin's topology distance picks the site, and border policy
  // is evaluated against that site's AS.
  if (!anycast_.empty()) {
    if (Host* site = anycast_catchment(packet.dst, origin_asn)) {
      if (site->asn() != origin_asn) {
        const DropReason border =
            border_drop(packet, origin_asn, topology_.find(site->asn()));
        if (border != DropReason::kNone) return border;
      }
      if (!site->stack_accepts(packet)) return DropReason::kStackRejected;
      *out_host = site;
      return DropReason::kNone;
    }
  }

  const Route* dst = topology_.route(packet.dst);
  if (dst == nullptr || dst->asn != origin_asn) {
    const DropReason border =
        border_drop(packet, origin_asn, dst ? dst->info : nullptr);
    if (border != DropReason::kNone) return border;
    if (dst == nullptr) return DropReason::kUnrouted;
  }

  Host* host = host_at(packet.dst);
  if (!host) return DropReason::kNoHost;
  if (!host->stack_accepts(packet)) return DropReason::kStackRejected;
  *out_host = host;
  return DropReason::kNone;
}

SimTime Network::latency(Asn from, Asn to,
                         const cd::net::Packet& packet) const {
  // Jitter is a pure hash of (seed, packet identity), not a draw from a
  // shared stream: concurrent traffic cannot perturb a packet's transit
  // time, so per-packet latencies are identical in serial and sharded runs.
  std::uint64_t j = cd::hash_combine(jitter_seed_,
                                     cd::net::IpAddrHash{}(packet.src));
  j = cd::hash_combine(j, cd::net::IpAddrHash{}(packet.dst));
  j = cd::hash_combine(
      j, (static_cast<std::uint64_t>(packet.src_port) << 32) |
             (static_cast<std::uint64_t>(packet.dst_port) << 16) |
             static_cast<std::uint64_t>(packet.proto));
  if (!packet.payload.empty()) {
    j = cd::hash_combine(
        j, cd::stable_hash(std::string_view(
               reinterpret_cast<const char*>(packet.payload.data()),
               packet.payload.size())));
  }

  if (from == to) {
    return kMillisecond + static_cast<SimTime>(j % (2 * kMillisecond));
  }
  const SimTime base = pair_base_latency(from, to);
  const SimTime jitter = static_cast<SimTime>(j % 500);
  return base + jitter;
}

bool Network::capture_wants(const CaptureEntry& entry, DropReason reason,
                            Asn origin_asn) {
  if (reason != DropReason::kNone && !entry.options.include_drops) {
    return false;
  }
  return !entry.options.origin || *entry.options.origin == origin_asn;
}

void Network::record_capture(const Packet& packet, DropReason reason,
                             Asn origin_asn) {
  std::vector<std::uint8_t> wire;  // serialized lazily, shared across sinks
  for (const CaptureEntry& entry : captures_) {
    if (!capture_wants(entry, reason, origin_asn)) continue;
    if (wire.empty()) wire = packet.serialize();
    cd::pcap::PcapRecord rec;
    rec.time_us = loop_.now();
    rec.orig_len = static_cast<std::uint32_t>(wire.size());
    rec.annotation = static_cast<std::uint8_t>(reason);
    rec.bytes = wire;
    entry.sink->records.push_back(std::move(rec));
  }
  if (!wire.empty()) cd::BufferPool::release(std::move(wire));
}

void Network::send(Packet packet, Asn origin_asn) {
  ++stats_.sent;
  Host* host = nullptr;
  const DropReason reason = classify(packet, origin_asn, &host);

  dispatching_taps_ = true;
  for (TapEntry& tap : taps_) tap.fn(packet, reason, loop_.now());
  dispatching_taps_ = false;

  switch (reason) {
    case DropReason::kOsav: ++stats_.dropped_osav; break;
    case DropReason::kDsav: ++stats_.dropped_dsav; break;
    case DropReason::kMartian: ++stats_.dropped_martian; break;
    case DropReason::kUrpfSubnet: ++stats_.dropped_urpf; break;
    case DropReason::kUnrouted: ++stats_.dropped_unrouted; break;
    case DropReason::kNoHost: ++stats_.dropped_no_host; break;
    case DropReason::kStackRejected: ++stats_.dropped_stack; break;
    case DropReason::kNone: {
      ++stats_.delivered;
      const SimTime delay = latency(origin_asn, host->asn(), packet);
      // Coalesce into the (arrival time, host) slot. The first packet
      // schedules the slot's single drain event — at exactly the queue
      // position a per-packet delivery event would have had — and later
      // same-slot packets ride along for the cost of a vector push.
      const SimTime at = loop_.now() + delay;
      const PendingSlot key{at, host};
      if (last_slot_batch_ != nullptr && last_slot_key_ == key) {
        last_slot_batch_->push_back(Delivery{std::move(packet), origin_asn});
        return;
      }
      auto slot = pending_.find(key);
      if (slot == pending_.end()) {
        if (!slot_pool_.empty()) {
          // Reuse a retired node — map node and batch vector capacity both
          // recycled, so opening a slot allocates nothing in steady state.
          auto node = std::move(slot_pool_.back());
          slot_pool_.pop_back();
          node.key() = key;
          slot = pending_.insert(std::move(node)).position;
        } else {
          slot = pending_.try_emplace(key).first;
        }
        ++stats_.delivery_batches;
        // The tiny [this, host] capture stays inside the callback's inline
        // storage. The drain fires exactly at `at`, so now() recovers the
        // slot key.
        loop_.schedule_at(
            at, [this, host] { drain_batch(loop_.now(), host); });
      }
      last_slot_key_ = key;
      last_slot_batch_ = &slot->second;
      slot->second.push_back(Delivery{std::move(packet), origin_asn});
      return;
    }
  }
  // Dropped at a border or the host stack: record for drop-captures, then
  // the payload buffer is dead — recycle it instead of freeing.
  if (!captures_.empty()) record_capture(packet, reason, origin_asn);
  cd::BufferPool::release(std::move(packet.payload));
}

void Network::drain_batch(SimTime at, Host* host) {
  const auto it = pending_.find(PendingSlot{at, host});
  if (it == pending_.end()) return;
  // Detach the whole map node before delivering: handlers that send new
  // traffic (always >= 1ms out) must open fresh slots, never append to a
  // running batch — and the extracted node goes back to the slot pool
  // afterwards instead of being freed.
  auto node = pending_.extract(it);
  last_slot_batch_ = nullptr;  // the memoized slot may be this node
  std::vector<Delivery>& batch = node.mapped();
  for (Delivery& d : batch) {
    // Capture at the wire in front of the destination, packet by packet, so
    // records land in exact delivery order with the arrival timestamp.
    if (!captures_.empty()) {
      record_capture(d.packet, DropReason::kNone, d.origin_asn);
    }
    host->deliver(d.packet);
    cd::BufferPool::release(std::move(d.packet.payload));
  }

  batch.clear();
  // Recycled vectors keep a small capacity floor so a steady-state slot
  // never grows mid-burst: hash-jittered arrivals give small same-tick
  // multiplicities, and node<->slot pairing shuffles between bursts, so
  // without the floor an under-sized vector keeps meeting a bigger batch.
  // The floor (not a high-water mark) keeps one giant batch from inflating
  // every pooled node.
  constexpr std::size_t kSlotReserveFloor = 16;
  if (batch.capacity() < kSlotReserveFloor) batch.reserve(kSlotReserveFloor);
  // Generous cap: a busy shard keeps hundreds of (tick, host) slots in
  // flight at once, and a pooled node is just a few dozen idle bytes.
  constexpr std::size_t kSlotPoolCap = 1024;
  if (slot_pool_.size() < kSlotPoolCap) {
    slot_pool_.push_back(std::move(node));
  }
}

Network::TapId Network::add_tap(Tap tap) {
  CD_ENSURE(!dispatching_taps_, "Network::add_tap called from inside a tap");
  const TapId id = next_tap_id_++;
  taps_.push_back({id, std::move(tap)});
  return id;
}

Network::TapId Network::attach_capture(cd::pcap::Capture& sink,
                                       CaptureOptions options) {
  const TapId id = next_tap_id_++;
  captures_.push_back({id, &sink, std::move(options)});
  return id;
}

void Network::remove_tap(TapId id) {
  CD_ENSURE(!dispatching_taps_,
            "Network::remove_tap called from inside a tap");
  std::erase_if(taps_, [id](const TapEntry& t) { return t.id == id; });
  std::erase_if(captures_, [id](const CaptureEntry& c) { return c.id == id; });
}

}  // namespace cd::sim
