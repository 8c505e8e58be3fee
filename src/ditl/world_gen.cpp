#include <algorithm>
#include <map>
#include <optional>

#include "ditl/world.h"

#include "ditl/ditl.h"
#include "ditl/plan.h"
#include "ditl/target_stream.h"
#include "util/error.h"

namespace cd::ditl {

using cd::dns::DnsName;
using cd::dns::RrType;
using cd::dns::SoaRdata;
using cd::dns::Zone;
using cd::net::IpAddr;
using cd::net::IpFamily;
using cd::net::Prefix;
using cd::net::U128;
using cd::resolver::AuthConfig;
using cd::resolver::AuthServer;
using cd::resolver::DnsSoftware;
using cd::resolver::QminMode;
using cd::resolver::RecursiveResolver;
using cd::resolver::ResolverConfig;
using cd::sim::Asn;
using cd::sim::FilterPolicy;
using cd::sim::OsId;
using cd::sim::OsProfile;

namespace {

/// One well-known public DNS service (the paper checks forwarding against
/// Cloudflare/Google/CenturyLink/OpenDNS/Quad9).
struct PublicDnsSpec {
  const char* name;
  const char* v4;
  const char* v4_prefix;
  const char* v6;
  const char* v6_prefix;
};

constexpr PublicDnsSpec kPublicDns[kNumPublicDns] = {
    {"cloudflare-like", "1.1.1.1", "1.1.1.0/24", "2606:4700::1111",
     "2606:4700::/32"},
    {"google-like", "8.8.8.8", "8.8.8.0/24", "2001:4860::8888",
     "2001:4860::/32"},
    {"quad9-like", "9.9.9.9", "9.9.9.0/24", "2620:fe::9", "2620:fe::/32"},
    {"opendns-like", "208.67.222.222", "208.67.222.0/24", "2620:119::222",
     "2620:119::/32"},
};

/// Builds one shard's streamed slice of the world (shard 0 of 1 is the
/// whole world). Shared infrastructure (roots, public DNS services, vantage)
/// is built identically in every shard from the root RNG; edge ASes come
/// from the campaign plan and the target stream, whose per-AS substreams
/// make any subset reproducible (see ditl/target_stream.h).
class WorldBuilder {
 public:
  WorldBuilder(std::shared_ptr<const CampaignPlan> plan, std::size_t shard,
               std::size_t num_shards)
      : plan_(*plan),
        spec_(plan->spec),
        shard_(shard),
        num_shards_(num_shards),
        rng_(spec_.seed),
        w_(std::make_unique<World>()) {
    w_->plan = std::move(plan);
    w_->shard_index = shard;
    w_->num_shards = num_shards;
  }

  std::unique_ptr<World> build() {
    w_->network = std::make_unique<cd::sim::Network>(w_->topology, w_->loop,
                                                     rng_.split("network"));
    w_->base_zone = DnsName::must_parse(spec_.base_zone);
    w_->keyword = spec_.keyword;
    build_infra();
    build_public_dns();
    build_vantage();

    register_edge_ases();
    build_edge_fleets();
    w_->truth_resolvers.freeze();
    w_->targets = filter_ditl(ditl_raw_, w_->topology);
    return std::move(w_);
  }

 private:
  // --- helpers ---------------------------------------------------------------

  cd::sim::Host& add_host(Asn asn, const OsProfile& os,
                          std::vector<IpAddr> addrs, std::string label) {
    return w_->hosts.emplace_back(*w_->network, asn, os, std::move(addrs),
                                  rng_.split("host" + label), std::move(label));
  }

  /// Real OS profile, or an interned copy whose TCP fingerprint a middlebox
  /// hides from p0f (stack semantics — Table 6 acceptance, ephemeral range —
  /// unchanged). One hidden profile per OS id, not one per resolver.
  const OsProfile& os_for(OsId id, bool fp_visible) {
    if (fp_visible) return cd::sim::os_profile(id);
    const auto it = hidden_os_.find(id);
    if (it != hidden_os_.end()) return *it->second;
    OsProfile hidden = cd::sim::os_profile(id);
    hidden.name += " (fp-normalized)";
    hidden.fp = cd::sim::os_profile(OsId::kMiddleboxFronted).fp;
    const OsProfile& interned = w_->os_profiles.emplace_back(std::move(hidden));
    hidden_os_.emplace(id, &interned);
    return interned;
  }

  std::shared_ptr<Zone> make_zone(const std::string& origin,
                                  const std::string& rname) {
    SoaRdata soa;
    soa.mname = DnsName::must_parse("www." + spec_.base_zone);
    soa.rname = DnsName::must_parse(rname);
    soa.serial = 2019110601;
    soa.minimum = 300;
    auto zone = std::make_shared<Zone>(DnsName::must_parse(origin), soa);
    w_->zones.push_back(zone);
    return zone;
  }

  // --- infrastructure: roots, org TLD, experiment zones ----------------------

  void build_infra() {
    auto& as_info = w_->topology.add_as(
        kInfraAsn, FilterPolicy{.osav = true, .dsav = true,
                                .drop_inbound_martians = true});
    (void)as_info;
    w_->topology.announce(kInfraAsn, Prefix::must_parse("199.7.0.0/16"));
    w_->topology.announce(kInfraAsn, Prefix::must_parse("2620:4f::/32"));

    const OsProfile& infra_os = cd::sim::os_profile(OsId::kUbuntu1904);
    const IpAddr root_a4 = IpAddr::must_parse("199.7.0.1");
    const IpAddr root_a6 = IpAddr::must_parse("2620:4f::1");
    const IpAddr root_b4 = IpAddr::must_parse("199.7.0.2");
    const IpAddr root_b6 = IpAddr::must_parse("2620:4f::2");
    const IpAddr org4 = IpAddr::must_parse("199.7.1.1");
    const IpAddr org6 = IpAddr::must_parse("2620:4f:1::1");
    const IpAddr ns1_4 = IpAddr::must_parse("199.7.2.1");
    const IpAddr ns1_6 = IpAddr::must_parse("2620:4f:2::1");
    const IpAddr nsv4 = IpAddr::must_parse("199.7.2.4");
    const IpAddr nsv6 = IpAddr::must_parse("2620:4f:2::6");

    auto& root_a = add_host(kInfraAsn, infra_os, {root_a4, root_a6}, "a.root");
    auto& root_b = add_host(kInfraAsn, infra_os, {root_b4, root_b6}, "b.root");
    auto& org_host = add_host(kInfraAsn, infra_os, {org4, org6}, "org-ns");
    auto& ns1 = add_host(kInfraAsn, infra_os, {ns1_4, ns1_6}, "ns1.dns-lab");
    auto& ns4_host = add_host(kInfraAsn, infra_os, {nsv4}, "nsv4.dns-lab");
    auto& ns6_host = add_host(kInfraAsn, infra_os, {nsv6}, "nsv6.dns-lab");

    const std::string base = spec_.base_zone;
    const std::string contact = "research." + base;

    // Root zone: self NS + org delegation with glue.
    auto root_zone = make_zone(".", contact);
    const DnsName root_ns_a = DnsName::must_parse("a.root-servers.cdnet");
    const DnsName root_ns_b = DnsName::must_parse("b.root-servers.cdnet");
    root_zone->add(cd::dns::make_ns(DnsName(), root_ns_a));
    root_zone->add(cd::dns::make_ns(DnsName(), root_ns_b));
    root_zone->add(cd::dns::make_a(root_ns_a, root_a4));
    root_zone->add(cd::dns::make_aaaa(root_ns_a, root_a6));
    root_zone->add(cd::dns::make_a(root_ns_b, root_b4));
    root_zone->add(cd::dns::make_aaaa(root_ns_b, root_b6));
    const DnsName org_ns = DnsName::must_parse("ns1.org-servers.cdnet");
    root_zone->add(cd::dns::make_ns(DnsName::must_parse("org"), org_ns));
    root_zone->add(cd::dns::make_a(org_ns, org4));
    root_zone->add(cd::dns::make_aaaa(org_ns, org6));

    // org zone: delegation to the experiment zone.
    auto org_zone = make_zone("org", contact);
    const DnsName ns1_name = DnsName::must_parse("ns1." + base);
    org_zone->add(cd::dns::make_ns(DnsName::must_parse(base), ns1_name));
    org_zone->add(cd::dns::make_a(ns1_name, ns1_4));
    org_zone->add(cd::dns::make_aaaa(ns1_name, ns1_6));

    // Experiment base zone. The tcp.<base> names are *not* delegated: ns1
    // itself answers them, truncating UDP to force DNS-over-TCP.
    auto base_zone = make_zone(base, contact);
    base_zone->add(cd::dns::make_ns(DnsName::must_parse(base), ns1_name));
    base_zone->add(cd::dns::make_a(ns1_name, ns1_4));
    base_zone->add(cd::dns::make_aaaa(ns1_name, ns1_6));
    // The project web host named by the SOA MNAME (opt-out info).
    base_zone->add(cd::dns::make_a(DnsName::must_parse("www." + base), ns1_4));
    const DnsName nsv4_name = DnsName::must_parse("nsv4." + base);
    const DnsName nsv6_name = DnsName::must_parse("nsv6." + base);
    base_zone->add(
        cd::dns::make_ns(DnsName::must_parse("v4." + base), nsv4_name));
    base_zone->add(cd::dns::make_a(nsv4_name, nsv4));  // v4-only glue
    base_zone->add(
        cd::dns::make_ns(DnsName::must_parse("v6." + base), nsv6_name));
    base_zone->add(cd::dns::make_aaaa(nsv6_name, nsv6));  // v6-only glue

    auto v4_zone = make_zone("v4." + base, contact);
    auto v6_zone = make_zone("v6." + base, contact);

    if (spec_.wildcard_answers) {
      // The paper's proposed improvement: synthesize answers so QNAME
      // minimization never hits NXDOMAIN and full query names always arrive.
      const std::string kw = spec_.keyword;
      base_zone->add(cd::dns::make_a(
          DnsName::must_parse("*." + kw + "." + base), ns1_4));
      base_zone->add(cd::dns::make_a(
          DnsName::must_parse("*." + kw + ".tcp." + base), ns1_4));
      v4_zone->add(cd::dns::make_a(
          DnsName::must_parse("*." + kw + ".v4." + base), nsv4));
      v6_zone->add(cd::dns::make_a(
          DnsName::must_parse("*." + kw + ".v6." + base), nsv4));
    }

    auto add_auth = [&](cd::sim::Host& host, AuthConfig config,
                        std::vector<std::shared_ptr<Zone>> zones,
                        bool experiment) {
      auto auth = std::make_unique<AuthServer>(host, std::move(config));
      for (auto& z : zones) auth->add_zone(std::move(z));
      if (experiment) w_->experiment_auths.push_back(auth.get());
      w_->auths.push_back(std::move(auth));
    };

    add_auth(root_a, {}, {root_zone}, false);
    add_auth(root_b, {}, {root_zone}, false);
    add_auth(org_host, {}, {org_zone}, false);
    AuthConfig ns1_config;
    ns1_config.truncate_suffixes.push_back(
        DnsName::must_parse("tcp." + base));
    add_auth(ns1, std::move(ns1_config), {base_zone}, true);
    add_auth(ns4_host, {}, {v4_zone}, true);
    add_auth(ns6_host, {}, {v6_zone}, true);

    w_->hints.servers = {root_a4, root_a6, root_b4, root_b6};
  }

  void build_public_dns() {
    int i = 0;
    for (const PublicDnsSpec& svc : kPublicDns) {
      const Asn asn = kPublicDnsAsnBase + static_cast<Asn>(i++);
      w_->topology.add_as(asn, FilterPolicy{.osav = true, .dsav = true,
                                            .drop_inbound_martians = true});
      w_->topology.announce(asn, Prefix::must_parse(svc.v4_prefix));
      w_->topology.announce(asn, Prefix::must_parse(svc.v6_prefix));

      const IpAddr v4 = IpAddr::must_parse(svc.v4);
      const IpAddr v6 = IpAddr::must_parse(svc.v6);
      auto& host = add_host(asn, cd::sim::os_profile(OsId::kUbuntu1904),
                            {v4, v6}, svc.name);
      ResolverConfig config;
      config.open = true;
      auto alloc = cd::resolver::make_default_allocator(
          DnsSoftware::kUnbound190, host.os(), rng_.split(svc.name));
      w_->resolvers.push_back(std::make_unique<RecursiveResolver>(
          host, std::move(config), w_->hints, std::move(alloc),
          rng_.split(std::string("pubres") + svc.name)));
      w_->public_dns_addrs.push_back(v4);
      w_->public_dns_addrs.push_back(v6);
    }
  }

  void build_vantage() {
    // The measurement network: crucially, no OSAV (paper §3.4).
    w_->topology.add_as(kVantageAsn, FilterPolicy{});
    w_->topology.announce(kVantageAsn, Prefix::must_parse("203.98.0.0/16"));
    w_->topology.announce(kVantageAsn, Prefix::must_parse("2620:5f::/32"));
    w_->vantage =
        &add_host(kVantageAsn, cd::sim::os_profile(OsId::kUbuntu1904),
                  {IpAddr::must_parse("203.98.0.10"),
                   IpAddr::must_parse("2620:5f::10")},
                  "vantage");
  }

  // --- edge ASes from the campaign plan --------------------------------------

  /// Registers every edge AS's routing and border policy — O(n_asns) —
  /// regardless of shard scope: routing tables and the source selector need
  /// the full map even when only one shard's hosts materialize.
  void register_edge_ases() {
    for (std::size_t id = 0; id < plan_.size(); ++id) {
      const Asn asn = plan_.asn_of(id);
      w_->topology.add_as(asn, plan_.policy_of(id));
      w_->topology.announce(asn, plan_.v4a[id]);
      if (plan_.flags[id] & kAsHasSecondV4) {
        w_->topology.announce(asn, plan_.v4b[id]);
      }
      if (plan_.flags[id] & kAsHasV6) w_->topology.announce(asn, plan_.v6[id]);
    }
  }

  /// Streams the in-scope ASes and materializes their resolver fleets,
  /// ground truth, DITL entries and hitlist.
  void build_edge_fleets() {
    TargetStream stream(plan_, shard_, num_shards_);
    while (const AsBatch* batch = stream.next()) {
      const Asn asn = batch->asn;
      std::optional<IpAddr> as_infra;  // resolver 0's v4 address
      for (const ResolverSpec& r : *batch->resolvers) {
        materialize_resolver(batch->id, asn, r, as_infra);
      }
      for (const IpAddr& addr : *batch->stale) ditl_raw_.push_back(addr);
    }
  }

  void materialize_resolver(std::size_t id, Asn asn, const ResolverSpec& r,
                            std::optional<IpAddr>& as_infra) {
    const OsProfile& os = os_for(r.os, r.fp_visible);
    std::vector<IpAddr> addrs(r.addrs.begin(), r.addrs.begin() + r.n_addrs);
    cd::sim::Host& host = w_->hosts.emplace_back(
        *w_->network, asn, os, addrs, cd::Rng(r.host_seed),
        "r" + std::to_string(asn) + "-" + std::to_string(r.index));

    ResolverConfig config;
    config.open = r.open;
    if (!r.open) {
      switch (r.acl_kind) {
        case AclKind::kAsWide:
          for (std::size_t p = 0; p < plan_.v4_count(id); ++p) {
            config.acl.push_back(plan_.v4_prefix(id, p));
          }
          if (plan_.flags[id] & kAsHasV6) config.acl.push_back(plan_.v6[id]);
          break;
        case AclKind::kSubnetOnly:
          config.acl.emplace_back(addrs[0], 24);
          if (addrs.size() > 1) config.acl.emplace_back(addrs[1], 64);
          break;
      }
      if (r.acl_private) {
        config.acl.push_back(Prefix::must_parse("192.168.0.0/16"));
        config.acl.push_back(Prefix::must_parse("10.0.0.0/8"));
        config.acl.push_back(Prefix::must_parse("fc00::/7"));
      }
    }

    if (r.forwards) {
      if (r.forward_public || !as_infra) {
        const IpAddr& up = w_->public_dns_addrs[r.public_idx];
        config.forwarders.push_back(up);
        if (r.has_v6) {
          config.forwarders.push_back(
              w_->public_dns_addrs[1]);  // a v6 service address
        }
      } else {
        config.forwarders.push_back(*as_infra);
      }
      if (r.forward_failover) config.forward_ratio = 0.8;
    }

    if (r.qmin) config.qmin = r.qmin_mode;

    std::unique_ptr<cd::resolver::PortAllocator> alloc;
    if (r.fixed_port) {
      alloc = std::make_unique<cd::resolver::FixedPortAllocator>(*r.fixed_port);
    } else {
      alloc = cd::resolver::make_default_allocator(r.software, os,
                                                   cd::Rng(r.alloc_seed));
    }
    w_->resolvers.push_back(std::make_unique<RecursiveResolver>(
        host, std::move(config), w_->hints, std::move(alloc),
        cd::Rng(r.res_seed)));

    if (r.is_infra) as_infra = r.addrs[0];

    // Capture + ground truth.
    for (std::size_t a = 0; a < r.n_addrs; ++a) {
      const IpAddr& addr = r.addrs[a];
      ResolverTruth truth;
      truth.os = r.os;
      truth.software = r.software;
      truth.open = r.open;
      truth.forwards = r.forwards;
      truth.qmin = r.qmin;
      truth.band = r.band;
      w_->truth_resolvers.insert(addr, truth);
      if (r.in_capture[a]) ditl_raw_.push_back(addr);
      if (r.in_hitlist[a]) w_->hitlist_v6.push_back(addr);
    }
  }

  const CampaignPlan& plan_;  // owned by w_->plan
  const WorldSpec& spec_;
  std::size_t shard_;
  std::size_t num_shards_;
  cd::Rng rng_;
  std::unique_ptr<World> w_;
  std::map<OsId, const OsProfile*> hidden_os_;
  /// Raw DITL-style capture of this slice: resolver sources plus stale
  /// noise. filter_ditl turns it into the world's target list.
  std::vector<IpAddr> ditl_raw_;
};

}  // namespace

void ResolverTruthTable::freeze() {
  std::vector<std::size_t> order(addrs_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return addrs_[a] < addrs_[b];
  });
  const auto apply = [&](auto& column) {
    auto sorted = column;
    for (std::size_t i = 0; i < order.size(); ++i) {
      sorted[i] = column[order[i]];
    }
    column = std::move(sorted);
  };
  apply(addrs_);
  apply(os_);
  apply(software_);
  apply(band_);
  apply(bits_);
}

ResolverTruthTable::const_iterator ResolverTruthTable::find(
    const cd::net::IpAddr& addr) const {
  const auto it = std::lower_bound(addrs_.begin(), addrs_.end(), addr);
  if (it == addrs_.end() || !(*it == addr)) return end();
  return {this, static_cast<std::size_t>(it - addrs_.begin())};
}

std::vector<CountryWeight> WorldSpec::default_countries() {
  // AS shares follow Table 1's totals; DSAV deployment rates are shaped so
  // that "reachable AS" percentages land near the paper's column (roughly
  // reachable ~ (1 - dsav) * 0.9). Algeria and Morocco are small and dense
  // with low filtering, reproducing Table 2's top rows.
  return {
      {"United States", 0.310, 0.69, 1.0},
      {"Brazil", 0.120, 0.35, 1.0},
      {"Russia", 0.092, 0.35, 1.2},
      {"Germany", 0.046, 0.60, 1.0},
      {"United Kingdom", 0.042, 0.63, 1.0},
      {"Poland", 0.038, 0.42, 1.0},
      {"Ukraine", 0.032, 0.30, 1.2},
      {"India", 0.029, 0.54, 1.3},
      {"Australia", 0.029, 0.64, 1.0},
      {"Canada", 0.028, 0.60, 1.0},
      {"Algeria", 0.0008, 0.55, 6.0},
      {"Morocco", 0.0012, 0.52, 5.0},
      {"Eswatini", 0.0004, 0.20, 1.5},
      {"Belize", 0.0015, 0.58, 1.2},
      {"Other", 0.230, 0.48, 1.0},
  };
}

WorldSpec small_world_spec() {
  WorldSpec spec;
  spec.n_asns = 30;
  spec.resolvers_per_as_mean = 3.0;
  spec.stale_per_live = 1.0;
  spec.qmin_fraction = 0.02;  // enough instances to exercise the code path
  spec.ids_fraction = 0.1;
  return spec;
}

WorldSpec bench_world_spec() {
  WorldSpec spec;
  spec.n_asns = 600;
  spec.resolvers_per_as_mean = 5.0;
  // Scaled up from the paper's 0.16% so the small fleet still contains a
  // measurable QNAME-minimizing population (documented deviation).
  spec.qmin_fraction = 0.005;
  // Oversample the rare port-behaviour bands so the zero and 1-200 rows of
  // Table 4 are statistically visible at this scale (documented deviation;
  // the paper's proportions are restored in the printed comparison).
  spec.band_mix.zero = 0.030;
  spec.band_mix.low = 0.012;
  return spec;
}

std::unique_ptr<World> generate_world(std::shared_ptr<const CampaignPlan> plan,
                                      std::size_t shard,
                                      std::size_t num_shards) {
  CD_ENSURE(plan != nullptr, "generate_world: null plan");
  CD_ENSURE(num_shards > 0 && shard < num_shards,
            "generate_world: bad shard spec");
  return WorldBuilder(std::move(plan), shard, num_shards).build();
}

}  // namespace cd::ditl
