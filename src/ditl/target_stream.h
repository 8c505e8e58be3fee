// Streaming target/resolver generation: replays any AS's slice of the world
// from the campaign plan, without materializing anything else.
//
// Every random decision below the AS level — band, addresses, ACLs,
// forwarding, capture membership, passive history — is drawn from
// Rng::substream(plan.resolver_seed, as_id) (stale noise from
// plan.noise_seed), so AS i's resolver fleet and DITL entries are a pure
// function of (spec, i). A shard world therefore generates *only its own*
// ASes and still produces bit-identical campaign evidence to a fully
// materialized world: the stream visits the same per-AS substreams the full
// builder does, in the same order, just skipping out-of-shard ids.
//
// The stream yields one AsBatch at a time into reused scratch storage, so
// iterating a 12M-target world holds one AS's fleet in memory, not twelve
// million targets.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "analysis/passive.h"
#include "ditl/plan.h"
#include "net/ip.h"
#include "resolver/recursive.h"
#include "sim/os_model.h"

namespace cd::ditl {

/// ACL shape of a closed resolver (the open ones have no ACL).
enum class AclKind : std::uint8_t {
  /// All of the AS's announced prefixes (also covers the "AS-wide plus peer
  /// prefix" managed-service style, whose ACL output is identical here).
  kAsWide,
  /// Only the resolver's own /24 (v4) and /64 (v6).
  kSubnetOnly,
};

/// Everything needed to materialize one resolver — or to account for it
/// without materializing anything. Plain data; reused via scratch vectors.
struct ResolverSpec {
  std::array<cd::net::IpAddr, 2> addrs;  // v4 first, optional v6 second
  std::uint8_t n_addrs = 0;
  bool has_v6 = false;
  int index = 0;  // position in the AS fleet ("r<asn>-<index>" label)

  // Band / fingerprint (Table 4 population structure).
  int band = 5;
  cd::sim::OsId os = cd::sim::OsId::kEmbeddedCpe;
  cd::resolver::DnsSoftware software = cd::resolver::DnsSoftware::kBind952To988;
  bool fp_visible = false;
  std::optional<std::uint16_t> fixed_port;

  // Behaviour.
  bool is_infra = false;  // the AS's resolver 0: upstream others forward to
  bool open = false;
  bool forwards = false;
  bool forward_public = false;  // forward upstream is a public DNS service
  std::uint8_t public_idx = 0;  // even index into World::public_dns_addrs
  bool forward_failover = false;  // forward-first with 0.8 forward_ratio
  AclKind acl_kind = AclKind::kAsWide;
  bool acl_private = false;  // ACL additionally admits RFC 1918 / ULA space
  bool qmin = false;
  cd::resolver::QminMode qmin_mode = cd::resolver::QminMode::kOff;

  // Seeds for the materialization-side RNGs (host jitter, port allocator,
  // resolver internals). Drawn from the AS substream so a streamed shard
  // builds the exact hosts the full builder would.
  std::uint64_t host_seed = 0;
  std::uint64_t alloc_seed = 0;
  std::uint64_t res_seed = 0;

  // Per-address DITL capture membership, v6 hitlist membership, and the
  // synthetic 18-months-earlier passive port history (§5.2.2).
  std::array<bool, 2> in_capture{};
  std::array<bool, 2> in_hitlist{};
  std::array<std::uint8_t, 2> n_old_ports{};
  std::array<std::array<std::uint16_t, 12>, 2> old_ports{};
};

/// One AS's generated slice: the resolver fleet plus the AS's stale DITL
/// noise (once-active resolver addresses, now dark). Pointers reference the
/// stream's scratch storage — valid until the next next() call.
struct AsBatch {
  std::size_t id = 0;  // dense plan index
  cd::sim::Asn asn = 0;
  const std::vector<ResolverSpec>* resolvers = nullptr;
  const std::vector<cd::net::IpAddr>* stale = nullptr;
  /// Live addresses that made it into the DITL capture (the base the AS's
  /// stale noise count scales from).
  std::size_t captured_live = 0;
};

class TargetStream {
 public:
  /// Streams the ASes of `plan` whose shard_of(asn, num_shards) == shard,
  /// in dense-id order. (0, 1) streams every AS. The plan must outlive the
  /// stream.
  explicit TargetStream(const CampaignPlan& plan, std::size_t shard = 0,
                        std::size_t num_shards = 1);

  /// Generates the next in-shard AS into scratch storage; nullptr at end.
  const AsBatch* next();

 private:
  void generate_as(std::size_t id);
  void generate_resolver(std::size_t id, int index, cd::Rng& rng);
  void generate_stale(std::size_t id);

  const CampaignPlan& plan_;
  std::size_t shard_;
  std::size_t num_shards_;
  std::size_t pos_ = 0;

  AsBatch batch_;
  std::vector<ResolverSpec> resolvers_;
  std::vector<cd::net::IpAddr> stale_;
  std::unordered_set<cd::net::IpAddr, cd::net::IpAddrHash> used_;
  bool infra_seen_ = false;
};

/// Aggregate counts of one shard's stream (0,1 = the whole world): what the
/// campaign-scale bench reports before deciding to materialize anything.
struct StreamCounts {
  std::uint64_t ases = 0;
  std::uint64_t resolvers = 0;
  std::uint64_t live_addrs = 0;
  std::uint64_t captured_live = 0;
  std::uint64_t stale = 0;
  /// Post-exclusion probe targets (captured live + stale; both are routed,
  /// non-special addresses by construction).
  std::uint64_t targets = 0;
};

[[nodiscard]] StreamCounts count_stream(const CampaignPlan& plan,
                                        std::size_t shard = 0,
                                        std::size_t num_shards = 1);

/// The synthetic 18-months-earlier capture (the paper's 2018 DITL stand-in,
/// §5.2.2): every resolver address of the whole plan that has a historical
/// port history, mapped to those ports. One stream pass; nothing is
/// materialized.
[[nodiscard]] cd::analysis::PassiveCapture passive_capture(
    const CampaignPlan& plan);

}  // namespace cd::ditl
