#include "scanner/prober.h"

#include "net/packet.h"
#include "resolver/auth.h"  // tcp_frame_pooled

namespace cd::scanner {

using cd::net::IpAddr;
using cd::net::Packet;

namespace {

/// The first target's probes start this long after the campaign does.
constexpr cd::sim::SimTime kStartDelay = cd::sim::kSecond;

/// FNV-1a over a byte span; mixed before folding so structurally similar
/// replies land far apart in the per-target digest.
std::uint64_t reply_hash(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return cd::mix64(h);
}

/// A query's source port: 1024-65535, drawn before its DNS id.
std::uint16_t source_port(cd::Rng& rng) {
  return static_cast<std::uint16_t>(1024 + rng.uniform(64512));
}

}  // namespace

std::size_t shard_of(cd::sim::Asn asn, std::size_t num_shards) {
  if (num_shards <= 1) return 0;
  // Mix before reducing: raw ASNs are clustered, mixed ones spread evenly.
  return static_cast<std::size_t>(cd::mix64(asn) % num_shards);
}

Prober::Prober(cd::sim::Host& vantage, QnameCodec codec,
               SourceSelector& selector, ProbeConfig config, cd::Rng rng)
    : vantage_(vantage),
      codec_(std::move(codec)),
      selector_(selector),
      config_(config),
      seed_(rng.u64()) {}

cd::Rng& Prober::target_rng(const IpAddr& addr) {
  const auto it = target_rngs_.find(addr);
  if (it != target_rngs_.end()) return it->second;
  return target_rngs_
      .emplace(addr, cd::Rng::substream(seed_, cd::net::IpAddrHash{}(addr)))
      .first->second;
}

void Prober::send_query(const IpAddr& src, std::uint16_t sport,
                        const TargetInfo& target, QueryMode mode,
                        cd::Rng& rng) {
  const QnameInfo info{vantage_.network().loop().now(), src, target.addr,
                       target.asn, mode};
  const auto id = static_cast<std::uint16_t>(rng.u64());
  Packet pkt = cd::net::make_udp(src, sport, target.addr, 53,
                                 codec_.encode_query(id, info));
  // Injected at the vantage's AS: a spoofed packet still physically leaves
  // our network, so our border's (absent) OSAV is what matters.
  vantage_.network().send(std::move(pkt), vantage_.asn());
  ++sent_;
}

void Prober::send_spoofed(const TargetInfo& target, const IpAddr& spoofed,
                          QueryMode mode) {
  cd::Rng& rng = target_rng(target.addr);
  send_query(spoofed, source_port(rng), target, mode, rng);
}

void Prober::send_open(const TargetInfo& target) {
  const auto src = vantage_.address(target.addr.family());
  if (!src) return;
  cd::Rng& rng = target_rng(target.addr);
  send_query(*src, source_port(rng), target, QueryMode::kOpen, rng);
}

void Prober::send_transport(const TargetInfo& target, QueryMode mode) {
  const auto src = vantage_.address(target.addr.family());
  if (!src) return;

  const QnameInfo info{vantage_.network().loop().now(), *src, target.addr,
                       target.asn, mode};
  const auto id = static_cast<std::uint16_t>(target_rng(target.addr).u64());
  const IpAddr dst = target.addr;
  // A generous timeout keeps slow-but-completing recursions from straddling
  // the deadline: a reply either folds into the digest under every shard
  // layout or under none.
  vantage_.tcp_query(
      *src, dst, 53, resolver::tcp_frame_pooled(codec_.encode_query(id, info)),
      [this, dst](std::optional<std::vector<std::uint8_t>> reply) {
        if (reply && !reply->empty()) {
          transport_replies_[dst] += reply_hash(*reply);
          cd::BufferPool::release(std::move(*reply));
        }
      },
      30 * cd::sim::kSecond);
  ++sent_;
}

void Prober::schedule_campaign(std::vector<TargetInfo> targets) {
  targets_ = std::move(targets);
  if (targets_.empty()) return;

  auto& loop = vantage_.network().loop();
  const std::size_t n = targets_.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Stagger target start times uniformly across the window. The draw is
    // the first from the target's own address-keyed substream, making the
    // start time a pure function of (seed, address) — a streamed shard world
    // that never sees the rest of the campaign list schedules its targets at
    // exactly the times the serial campaign would.
    cd::Rng* rng = &target_rng(targets_[i].addr);
    const cd::sim::SimTime start =
        kStartDelay + static_cast<cd::sim::SimTime>(rng->uniform(
                          static_cast<std::uint64_t>(config_.duration)));
    loop.schedule_at(start, [this, i, rng] { probe_step(i, 0, nullptr, rng); });
  }
}

void Prober::probe_step(std::size_t target_idx, std::size_t source_idx,
                        SourceListPtr sources, cd::Rng* rng) {
  const TargetInfo& target = targets_[target_idx];
  if (!sources) {
    // Computed once per target at its first step; carried through the chain
    // so only in-flight targets hold their lists in memory.
    sources = std::make_shared<const std::vector<SpoofedSource>>(
        selector_.sources_for(target.addr, target.asn));
  }
  if (source_idx >= sources->size()) return;

  send_query((*sources)[source_idx].addr, source_port(*rng), target,
             QueryMode::kInitial, *rng);

  if (source_idx + 1 < sources->size()) {
    vantage_.network().loop().schedule_in(
        config_.per_query_spacing,
        [this, target_idx, source_idx, sources, rng] {
          probe_step(target_idx, source_idx + 1, sources, rng);
        });
  }
}

}  // namespace cd::scanner
