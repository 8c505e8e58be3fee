// dsav_audit: audit one network's exposure to spoofed-source infiltration —
// the per-network version of the paper's methodology, in the spirit of the
// "Web interface for testing your own network" the authors planned (§6).
//
// Builds a topology containing "your" AS with a configurable border policy
// and resolver fleet, probes every resolver with all five spoofed-source
// categories, and reports exactly which spoofs penetrate and why.
#include <cstdio>
#include <deque>
#include <memory>

#include "dns/zone.h"
#include "resolver/auth.h"
#include "resolver/recursive.h"
#include "scanner/collector.h"
#include "scanner/followup.h"
#include "scanner/prober.h"
#include "scanner/source_select.h"
#include "sim/host.h"

using namespace cd;

int main() {
  // --- the world: your AS + the measurement infrastructure -------------------
  sim::EventLoop loop;
  sim::Topology topology;
  sim::Network network(topology, loop, Rng(1));

  // Your network: tweak this policy to see the audit outcome change.
  constexpr sim::Asn kYourAsn = 64496;
  sim::FilterPolicy your_policy;
  your_policy.dsav = false;                  // <- the paper's finding: ~half
  your_policy.drop_inbound_martians = false; //    of networks look like this
  topology.add_as(kYourAsn, your_policy);
  topology.announce(kYourAsn, net::Prefix::must_parse("20.10.0.0/16"));

  // Measurement side: an authoritative server and a spoofing-capable vantage.
  topology.add_as(64500, sim::FilterPolicy{.osav = true, .dsav = true});
  topology.announce(64500, net::Prefix::must_parse("199.7.0.0/16"));
  topology.add_as(64501, sim::FilterPolicy{});  // vantage: no OSAV
  topology.announce(64501, net::Prefix::must_parse("203.98.0.0/16"));

  const auto& os = sim::os_profile(sim::OsId::kUbuntu1904);
  sim::Host auth_host(network, 64500, os,
                      {net::IpAddr::must_parse("199.7.0.1")}, Rng(2), "auth");
  dns::SoaRdata soa;
  soa.mname = dns::DnsName::must_parse("www.audit.example");
  soa.rname = dns::DnsName::must_parse("ops.audit.example");
  auto zone = std::make_shared<dns::Zone>(
      dns::DnsName::must_parse("audit.example"), soa);
  resolver::AuthServer auth(auth_host);
  auth.add_zone(zone);

  sim::Host vantage(network, 64501, os,
                    {net::IpAddr::must_parse("203.98.0.10")}, Rng(3),
                    "vantage");

  resolver::RootHints hints;
  hints.servers = {net::IpAddr::must_parse("199.7.0.1")};

  // Your resolver fleet: one open, one closed-AS-wide, one closed-subnet,
  // spread across OSes — the configurations §5.1/§5.2 found in the wild.
  struct FleetEntry {
    const char* addr;
    const char* label;
    bool open;
    bool subnet_acl;
    sim::OsId os_id;
  };
  const FleetEntry fleet[] = {
      {"20.10.1.10", "open resolver (Linux)", true, false,
       sim::OsId::kUbuntu1904},
      {"20.10.2.10", "closed, AS-wide ACL (FreeBSD)", false, false,
       sim::OsId::kFreeBsd121},
      {"20.10.3.10", "closed, /24-only ACL (Windows)", false, true,
       sim::OsId::kWin2016},
  };

  std::deque<sim::Host> hosts;
  std::vector<std::unique_ptr<resolver::RecursiveResolver>> resolvers;
  std::uint64_t fleet_seed = 100;
  for (const FleetEntry& entry : fleet) {
    const auto addr = net::IpAddr::must_parse(entry.addr);
    auto& host = hosts.emplace_back(network, kYourAsn,
                                    sim::os_profile(entry.os_id),
                                    std::vector<net::IpAddr>{addr},
                                    Rng(++fleet_seed), entry.label);
    resolver::ResolverConfig config;
    config.open = entry.open;
    if (!entry.open) {
      config.acl = entry.subnet_acl
                       ? std::vector<net::Prefix>{net::Prefix(addr, 24)}
                       : std::vector<net::Prefix>{
                             net::Prefix::must_parse("20.10.0.0/16")};
    }
    // The resolver's seed is drawn before its port allocator's.
    const std::uint64_t resolver_seed = ++fleet_seed;
    const std::uint64_t allocator_seed = ++fleet_seed;
    resolvers.push_back(std::make_unique<resolver::RecursiveResolver>(
        host, config, hints,
        resolver::make_default_allocator(
            resolver::DnsSoftware::kBind9913To9160, host.os(),
            Rng(allocator_seed)),
        Rng(resolver_seed)));
  }

  // --- the audit --------------------------------------------------------------
  scanner::QnameCodec codec(dns::DnsName::must_parse("audit.example"),
                            "audit");
  scanner::SourceSelector selector(topology, {}, {}, Rng(4));
  scanner::Collector collector(codec, &topology);
  collector.attach(auth);

  std::vector<scanner::TargetInfo> targets;
  for (const FleetEntry& entry : fleet) {
    targets.push_back({net::IpAddr::must_parse(entry.addr), kYourAsn});
  }
  scanner::ProbeConfig probe_config;
  probe_config.duration = 5 * sim::kMinute;
  probe_config.per_query_spacing = sim::kSecond;
  scanner::Prober campaign(vantage, codec, selector, probe_config, Rng(6));
  campaign.schedule_campaign(targets);
  loop.run(10'000'000);

  // --- the report ---------------------------------------------------------------
  std::printf("DSAV audit of AS%u (dsav=%s, martian-filter=%s)\n\n", kYourAsn,
              your_policy.dsav ? "yes" : "no",
              your_policy.drop_inbound_martians ? "yes" : "no");
  for (const FleetEntry& entry : fleet) {
    const auto addr = net::IpAddr::must_parse(entry.addr);
    std::printf("%-34s %s\n", entry.label, entry.addr);
    const auto it = collector.records().find(addr);
    if (it == collector.records().end() || !it->second.reachable()) {
      std::printf("    NOT penetrated by any spoofed source\n");
      continue;
    }
    for (const scanner::SourceCategory cat : it->second.categories_hit) {
      std::printf("    PENETRATED via %s spoof\n",
                  scanner::source_category_name(cat).c_str());
    }
  }
  std::printf(
      "\ninterpretation: every line above is a packet that crossed your\n"
      "border claiming to be someone it was not. Enable DSAV (and martian\n"
      "filtering) at the border, and re-run to verify the lines disappear.\n");
  return 0;
}
