#include "resolver/recursive.h"

#include <algorithm>
#include <optional>

#include "net/special.h"
#include "resolver/auth.h"  // tcp_frame_pooled / tcp_unframe_view
#include "util/bytes.h"
#include "util/error.h"

namespace cd::resolver {

using cd::dns::CacheHitKind;
using cd::dns::DnsMessage;
using cd::dns::DnsName;
using cd::dns::DnsRr;
using cd::dns::Rcode;
using cd::dns::RrType;
using cd::net::IpAddr;
using cd::net::IpFamily;
using cd::net::Packet;

namespace {

constexpr int kMaxSteps = 48;         // upstream exchanges per resolution
constexpr int kMaxCnameDepth = 8;     // CNAME chain guard
constexpr int kMaxNsFetchDepth = 2;   // glue-less delegation sub-resolutions

std::uint64_t pending_key(std::uint16_t port, std::uint16_t txid) {
  return (static_cast<std::uint64_t>(port) << 16) | txid;
}

/// The resolve continuation that answers a client query. It keeps only what
/// the reply echoes of the query — the id, the rd bit and the questions, as
/// dns::make_response builds them — not a copy of the whole message, and
/// hands the finished reply to `send`.
template <typename Send>
RecursiveResolver::ResolveCallback reply_to(const DnsMessage& query,
                                            Send send) {
  return [resp = cd::dns::make_response(query, Rcode::kNoError),
          send = std::move(send)](
             Rcode rcode, const std::vector<DnsRr>& records) mutable {
    resp.header.rcode = rcode;
    resp.header.ra = true;
    resp.answers = records;
    send(resp);
  };
}

/// The address an A or AAAA record carries; nullopt for any other record.
std::optional<IpAddr> address_of(const DnsRr& rr) {
  if (const auto* a = std::get_if<cd::dns::ARdata>(&rr.rdata)) return a->addr;
  if (const auto* aaaa = std::get_if<cd::dns::AaaaRdata>(&rr.rdata)) {
    return aaaa->addr;
  }
  return std::nullopt;
}

/// Calls `add` with each cached address of `name`: its A records, then its
/// AAAA records, each in record order.
template <typename Add>
void for_each_cached_address(const cd::dns::Cache& cache, const DnsName& name,
                             cd::sim::SimTime now, Add add) {
  for (RrType t : {RrType::kA, RrType::kAaaa}) {
    const auto hit = cache.lookup(name, t, now);
    if (hit.kind != CacheHitKind::kPositive) continue;
    for (const DnsRr& rr : hit.records) {
      if (const auto addr = address_of(rr)) add(*addr);
    }
  }
}

}  // namespace

RecursiveResolver::RecursiveResolver(cd::sim::Host& host,
                                     ResolverConfig config, RootHints hints,
                                     std::unique_ptr<PortAllocator> allocator,
                                     cd::Rng rng)
    : host_(host),
      config_(std::move(config)),
      hints_(std::move(hints)),
      allocator_(std::move(allocator)),
      rng_(rng),
      cache_(config_.cache) {
  CD_ENSURE(allocator_ != nullptr, "RecursiveResolver: null allocator");
  bound_ports_[53] = 1;  // service port is always bound
  host_.bind_udp(53, [this](const Packet& pkt) { dispatch_udp(pkt); });
  // RFC 7766: the resolver answers the same client queries over TCP-53.
  host_.tcp_listen(
      53, [this](const cd::sim::TcpConnInfo& info,
                 std::span<const std::uint8_t> framed,
                 cd::sim::Host::TcpSessionReply reply) {
        handle_tcp_client(info, framed, std::move(reply));
      });
}

void RecursiveResolver::handle_tcp_client(
    const cd::sim::TcpConnInfo& info, std::span<const std::uint8_t> framed,
    cd::sim::Host::TcpSessionReply reply) {
  ++stats_.client_queries;
  ++stats_.tcp_client_queries;
  DnsMessage query;
  try {
    query = DnsMessage::decode(tcp_unframe_view(framed));
  } catch (const cd::ParseError&) {
    reply({});  // garbage in, nothing out (the reply still settles the slot)
    return;
  }
  if (query.header.qr || query.questions.empty()) {
    reply({});
    return;
  }
  if (!acl_allows(info.peer)) {
    ++stats_.refused;
    reply(tcp_frame_pooled(cd::dns::make_response(query, Rcode::kRefused)));
    return;
  }
  resolve(query.qname(), query.questions.front().qtype,
          reply_to(query, [reply = std::move(reply)](
                              const DnsMessage& resp) mutable {
            reply(tcp_frame_pooled(resp));
          }));
}

bool RecursiveResolver::acl_allows(const IpAddr& client) const {
  if (config_.open) return true;
  if (host_.has_address(client)) return true;       // self-sourced
  if (cd::net::is_loopback(client)) return true;    // local
  for (const auto& prefix : config_.acl) {
    if (prefix.contains(client)) return true;
  }
  return false;
}

void RecursiveResolver::bind_port(std::uint16_t port) {
  if (++bound_ports_[port] == 1) {
    host_.bind_udp(port, [this](const Packet& pkt) { dispatch_udp(pkt); });
  }
}

void RecursiveResolver::unbind_port(std::uint16_t port) {
  const auto it = bound_ports_.find(port);
  if (it == bound_ports_.end()) return;
  if (--it->second <= 0) {
    host_.unbind_udp(port);
    bound_ports_.erase(it);
  }
}

void RecursiveResolver::dispatch_udp(const Packet& packet) {
  DnsMessage msg;
  try {
    msg = DnsMessage::decode(packet.payload);
  } catch (const cd::ParseError&) {
    return;
  }
  if (msg.header.qr) {
    handle_upstream_response(packet, msg);
  } else if (packet.dst_port == 53) {
    handle_client_query(packet, msg);
  }
}

void RecursiveResolver::handle_client_query(const Packet& packet,
                                            const DnsMessage& query) {
  ++stats_.client_queries;
  if (query.questions.empty()) return;

  if (!acl_allows(packet.src)) {
    ++stats_.refused;
    host_.send_udp(packet.dst, 53, packet.src, packet.src_port,
                   cd::dns::encode_pooled(
                       cd::dns::make_response(query, Rcode::kRefused)));
    return;
  }

  resolve(query.qname(), query.questions.front().qtype,
          reply_to(query, [this, client = packet.src,
                           client_port = packet.src_port,
                           server_addr = packet.dst](const DnsMessage& resp) {
            host_.send_udp(server_addr, 53, client, client_port,
                           cd::dns::encode_pooled(resp));
          }));
}

void RecursiveResolver::resolve(const DnsName& qname, RrType qtype,
                                ResolveCallback done) {
  resolve_internal(qname, qtype, std::move(done), 0);
}

void RecursiveResolver::resolve_internal(const DnsName& qname, RrType qtype,
                                         ResolveCallback done,
                                         int cname_depth) {
  const cd::sim::SimTime now = host_.network().loop().now();

  // Cache first.
  const auto hit = cache_.lookup(qname, qtype, now);
  switch (hit.kind) {
    case CacheHitKind::kPositive:
      ++stats_.cache_hits;
      ++stats_.answered;
      done(Rcode::kNoError, hit.records);
      return;
    case CacheHitKind::kNegativeName:
      ++stats_.cache_hits;
      ++stats_.nxdomain;
      done(Rcode::kNxDomain, {});
      return;
    case CacheHitKind::kNegativeType:
      ++stats_.cache_hits;
      ++stats_.answered;
      done(Rcode::kNoError, {});
      return;
    case CacheHitKind::kMiss:
      break;
  }

  auto task = std::make_shared<Task>();
  task->qname = qname;
  task->qtype = qtype;
  task->done = std::move(done);
  task->cname_depth = cname_depth;
  task->retries_left = config_.max_retries;

  if (!config_.forwarders.empty() && rng_.chance(config_.forward_ratio)) {
    task->forward_mode = true;
    task->servers = config_.forwarders;
    task->current_qname = qname;
    task->current_qtype = qtype;
    send_current_query(task);
    return;
  }

  task->qmin_active = config_.qmin != QminMode::kOff;
  seed_servers_from_cache(task);
  advance_qmin(task);
  send_current_query(task);
}

void RecursiveResolver::seed_servers_from_cache(const TaskPtr& task) {
  const cd::sim::SimTime now = host_.network().loop().now();
  // Deepest ancestor with a cached NS set whose addresses we also know.
  const cd::dns::SuffixHashes ancestors(task->qname);
  for (std::size_t n = task->qname.label_count(); n > 0; --n) {
    const auto ns_hit = cache_.lookup(ancestors, n, RrType::kNs, now);
    if (ns_hit.kind != CacheHitKind::kPositive) continue;
    std::vector<IpAddr> servers;
    for (const DnsRr& rr : ns_hit.records) {
      const auto* rd = std::get_if<cd::dns::NsRdata>(&rr.rdata);
      if (!rd) continue;
      for_each_cached_address(cache_, rd->nsdname, now, [&](const IpAddr& a) {
        servers.push_back(a);
      });
    }
    if (!servers.empty()) {
      task->servers = std::move(servers);
      task->zone_depth = n;
      return;
    }
  }
  task->servers = hints_.servers;
  task->zone_depth = 0;
}

void RecursiveResolver::advance_qmin(const TaskPtr& task) {
  if (!task->qmin_active) {
    task->current_qname = task->qname;
    task->current_qtype = task->qtype;
    return;
  }
  // Ask for one more label than the deepest zone we know servers for.
  const std::size_t next_labels =
      std::min(task->zone_depth + 1, task->qname.label_count());
  task->current_qname = task->qname.suffix(next_labels);
  if (task->current_qname == task->qname) {
    task->current_qtype = task->qtype;
    task->qmin_active = false;  // final step behaves like a normal query
  } else {
    task->current_qtype = RrType::kNs;
  }
}

std::optional<IpAddr> RecursiveResolver::pick_server(TaskPtr task) {
  // Next server (starting at server_idx) whose family we can speak.
  for (std::size_t i = task->server_idx; i < task->servers.size(); ++i) {
    const IpAddr& addr = task->servers[i];
    if (host_.address(addr.family())) {
      task->server_idx = i;
      return addr;
    }
  }
  return std::nullopt;
}

void RecursiveResolver::send_current_query(const TaskPtr& task) {
  if (task->finished) return;
  if (++task->steps > kMaxSteps) {
    finish(task, Rcode::kServFail, {});
    return;
  }

  const auto server = pick_server(task);
  if (!server) {
    finish(task, Rcode::kServFail, {});
    return;
  }
  const auto src = host_.address(server->family());
  CD_ENSURE(src.has_value(), "send_current_query: no source address");

  // Pick a transaction id / source port pair that is not already in flight.
  std::uint16_t txid = 0;
  std::uint16_t sport = 0;
  std::uint64_t key = 0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    txid = txid_source_ ? txid_source_->next()
                        : static_cast<std::uint16_t>(rng_.u64());
    sport = allocator_->next();
    key = pending_key(sport, txid);
    if (!pending_.count(key)) break;
  }
  if (pending_.count(key)) {
    finish(task, Rcode::kServFail, {});
    return;
  }

  bind_port(sport);
  PendingQuery pq;
  pq.task = task;
  pq.server = *server;
  pq.port = sport;
  pq.txid = txid;
  pq.qname = task->current_qname;
  pq.qtype = task->current_qtype;
  pq.timeout_event = host_.network().loop().schedule_in(
      config_.query_timeout, [this, key] { on_timeout(key); });
  pending_.emplace(key, std::move(pq));

  ++stats_.upstream_queries;
  host_.send_udp(*src, sport, *server, 53,
                 cd::dns::encode_query_pooled(txid, {}, task->current_qname,
                                              task->current_qtype,
                                              /*rd=*/task->forward_mode));
}

void RecursiveResolver::on_timeout(std::uint64_t key) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  TaskPtr task = it->second.task;
  unbind_port(it->second.port);
  pending_.erase(it);

  if (task->finished) return;
  if (task->retries_left > 0) {
    --task->retries_left;
    send_current_query(task);
    return;
  }
  next_server(task);
}

void RecursiveResolver::next_server(const TaskPtr& task) {
  ++task->server_idx;
  task->retries_left = config_.max_retries;
  if (task->server_idx >= task->servers.size()) {
    finish(task, Rcode::kServFail, {});
    return;
  }
  send_current_query(task);
}

void RecursiveResolver::handle_upstream_response(const Packet& packet,
                                                 const DnsMessage& response) {
  const std::uint64_t key = pending_key(packet.dst_port, response.header.id);
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  // Off-path answer hygiene: the response must come from the queried server
  // and echo back the question we asked (RFC 5452). A cache-poisoning attack
  // in the simulator has to beat port + txid + question, just like the real
  // thing.
  if (!(it->second.server == packet.src) || packet.src_port != 53) return;
  if (response.questions.empty() ||
      !(response.questions.front().qname == it->second.qname) ||
      response.questions.front().qtype != it->second.qtype) {
    return;
  }

  TaskPtr task = it->second.task;
  const IpAddr server = it->second.server;
  host_.network().loop().cancel(it->second.timeout_event);
  unbind_port(it->second.port);
  pending_.erase(it);

  process_response(task, response, server, /*was_tcp=*/false);
}

std::uint32_t RecursiveResolver::negative_ttl(const DnsMessage& msg) const {
  for (const DnsRr& rr : msg.authorities) {
    if (rr.type == RrType::kSoa) {
      const auto* soa = std::get_if<cd::dns::SoaRdata>(&rr.rdata);
      if (soa) return std::min(rr.ttl, soa->minimum);
    }
  }
  return 300;
}

void RecursiveResolver::retry_over_tcp(const TaskPtr& task,
                                       const IpAddr& server) {
  ++stats_.tcp_retries;
  const auto src = host_.address(server.family());
  if (!src) {
    next_server(task);
    return;
  }
  const auto txid = static_cast<std::uint16_t>(rng_.u64());
  host_.tcp_query(
      *src, server, 53,
      tcp_frame_pooled(cd::dns::encode_query_pooled(
          txid, {}, task->current_qname, task->current_qtype,
          /*rd=*/task->forward_mode)),
      [this, task, server](std::optional<std::vector<std::uint8_t>> reply) {
        if (task->finished) return;
        if (!reply) {
          next_server(task);
          return;
        }
        DnsMessage msg;
        try {
          msg = DnsMessage::decode(tcp_unframe_view(*reply));
        } catch (const cd::ParseError&) {
          cd::BufferPool::release(std::move(*reply));
          next_server(task);
          return;
        }
        // The reassembled stream was decoded; recycle its buffer.
        cd::BufferPool::release(std::move(*reply));
        process_response(task, msg, server, /*was_tcp=*/true);
      });
}

void RecursiveResolver::process_response(const TaskPtr& task,
                                         const DnsMessage& msg,
                                         const IpAddr& server, bool was_tcp) {
  if (task->finished) return;
  const cd::sim::SimTime now = host_.network().loop().now();

  if (msg.header.tc && !was_tcp) {
    retry_over_tcp(task, server);
    return;
  }

  switch (msg.header.rcode) {
    case Rcode::kNxDomain: {
      cache_.insert_nxdomain(task->current_qname, negative_ttl(msg), now);
      const bool minimizing = task->current_qname != task->qname;
      if (minimizing && config_.qmin == QminMode::kRelaxed) {
        // Fall back to the full query name against the same servers.
        task->qmin_active = false;
        task->current_qname = task->qname;
        task->current_qtype = task->qtype;
        send_current_query(task);
        return;
      }
      // Strict minimization (or a genuine NXDOMAIN): nothing underneath.
      finish(task, Rcode::kNxDomain, {});
      return;
    }
    case Rcode::kNoError:
      break;
    default:
      // REFUSED / SERVFAIL / FORMERR and friends: lame server, move on.
      next_server(task);
      return;
  }

  if (!msg.answers.empty()) {
    handle_answer(task, msg);
    return;
  }

  // Delegation?
  bool has_ns = false;
  for (const DnsRr& rr : msg.authorities) {
    if (rr.type == RrType::kNs) {
      has_ns = true;
      break;
    }
  }
  if (has_ns && !task->forward_mode) {
    handle_delegation(task, msg);
    return;
  }

  // NODATA.
  cache_.insert_nodata(task->current_qname, task->current_qtype,
                       negative_ttl(msg), now);
  if (task->current_qname != task->qname) {
    // Minimizing: the intermediate name exists but has no NS here — the
    // current zone simply continues deeper. Ask one more label.
    task->zone_depth = task->current_qname.label_count();
    advance_qmin(task);
    task->server_idx = 0;
    task->retries_left = config_.max_retries;
    send_current_query(task);
    return;
  }
  finish(task, Rcode::kNoError, {});
}

void RecursiveResolver::handle_delegation(const TaskPtr& task,
                                          const DnsMessage& msg) {
  const cd::sim::SimTime now = host_.network().loop().now();

  DnsName cut;
  std::vector<DnsName> ns_names;
  std::vector<DnsRr> ns_rrs;
  for (const DnsRr& rr : msg.authorities) {
    if (rr.type != RrType::kNs) continue;
    cut = rr.name;
    const auto* rd = std::get_if<cd::dns::NsRdata>(&rr.rdata);
    if (rd) ns_names.push_back(rd->nsdname);
    ns_rrs.push_back(rr);
  }
  if (!ns_rrs.empty()) cache_.insert_positive(ns_rrs, now);

  // The referral must make progress: the cut has to be deeper than the zone
  // we just asked, and on the path to the query name.
  if (!task->qname.is_subdomain_of(cut) ||
      cut.label_count() <= task->zone_depth) {
    next_server(task);
    return;
  }

  // Gather glue for the delegated servers.
  std::vector<IpAddr> next_servers;
  auto add_addr = [&next_servers](const IpAddr& addr) {
    if (std::find(next_servers.begin(), next_servers.end(), addr) ==
        next_servers.end()) {
      next_servers.push_back(addr);
    }
  };
  for (const DnsRr& rr : msg.additionals) {
    const bool is_ns_target =
        std::find(ns_names.begin(), ns_names.end(), rr.name) != ns_names.end();
    if (!is_ns_target) continue;
    if (const auto addr = address_of(rr)) {
      add_addr(*addr);
      cache_.insert_positive({rr}, now);
    }
  }
  // Glue may also already be cached.
  for (const DnsName& ns : ns_names) {
    for_each_cached_address(cache_, ns, now, add_addr);
  }

  if (next_servers.empty()) {
    // Glue-less delegation: resolve a nameserver address out of band.
    if (task->ns_fetch_depth >= kMaxNsFetchDepth ||
        ns_names.empty()) {
      finish(task, Rcode::kServFail, {});
      return;
    }
    ++task->ns_fetch_depth;
    const DnsName target = ns_names.front();
    const RrType want =
        host_.address(IpFamily::kV4) ? RrType::kA : RrType::kAaaa;
    resolve(target, want,
            [this, task, cut](Rcode rcode, const std::vector<DnsRr>& records) {
              if (task->finished) return;
              std::vector<IpAddr> servers;
              if (rcode == Rcode::kNoError) {
                for (const DnsRr& rr : records) {
                  if (const auto addr = address_of(rr)) {
                    servers.push_back(*addr);
                  }
                }
              }
              if (servers.empty()) {
                finish(task, Rcode::kServFail, {});
                return;
              }
              task->servers = std::move(servers);
              task->server_idx = 0;
              task->retries_left = config_.max_retries;
              task->zone_depth = cut.label_count();
              advance_qmin(task);
              send_current_query(task);
            });
    return;
  }

  task->servers = std::move(next_servers);
  task->server_idx = 0;
  task->retries_left = config_.max_retries;
  task->zone_depth = cut.label_count();
  if (task->qmin_active || config_.qmin != QminMode::kOff) {
    // Recompute the minimized name for the deeper zone.
    if (config_.qmin != QminMode::kOff && task->current_qname != task->qname) {
      task->qmin_active = true;
    }
    advance_qmin(task);
  }
  send_current_query(task);
}

void RecursiveResolver::handle_answer(const TaskPtr& task,
                                      const DnsMessage& msg) {
  const cd::sim::SimTime now = host_.network().loop().now();

  if (task->current_qname != task->qname) {
    // Minimizing and the intermediate name answered (e.g. the same server is
    // authoritative for parent and child): note the zone and go deeper.
    std::vector<DnsRr> rrset;
    for (const DnsRr& rr : msg.answers) {
      if (rr.type == task->current_qtype && rr.name == task->current_qname) {
        rrset.push_back(rr);
      }
    }
    if (!rrset.empty()) cache_.insert_positive(rrset, now);
    task->zone_depth = task->current_qname.label_count();
    advance_qmin(task);
    task->server_idx = 0;
    task->retries_left = config_.max_retries;
    send_current_query(task);
    return;
  }

  // Split the answer into the RRset we asked for and any CNAMEs.
  std::vector<DnsRr> wanted;
  std::optional<DnsName> cname_target;
  for (const DnsRr& rr : msg.answers) {
    if (rr.type == task->qtype && rr.name == task->qname) {
      wanted.push_back(rr);
    } else if (rr.type == RrType::kCname && rr.name == task->qname) {
      const auto* rd = std::get_if<cd::dns::CnameRdata>(&rr.rdata);
      if (rd) cname_target = rd->target;
      task->cname_chain.push_back(rr);
      cache_.insert_positive({rr}, now);
    }
  }

  if (!wanted.empty()) {
    cache_.insert_positive(wanted, now);
    std::vector<DnsRr> full = task->cname_chain;
    full.insert(full.end(), wanted.begin(), wanted.end());
    finish(task, Rcode::kNoError, std::move(full));
    return;
  }

  if (cname_target && task->qtype != RrType::kCname) {
    if (++task->cname_depth > kMaxCnameDepth) {
      finish(task, Rcode::kServFail, {});
      return;
    }
    // Restart resolution at the CNAME target, keeping the chain and the
    // depth guard (a fresh depth would loop forever on CNAME cycles).
    std::vector<DnsRr> chain = task->cname_chain;
    const RrType qtype = task->qtype;
    const int depth = task->cname_depth;
    auto done = std::move(task->done);
    task->finished = true;  // retire the old task; continuation owns `done`
    resolve_internal(
        *cname_target, qtype,
        [done = std::move(done), chain = std::move(chain)](
            Rcode rcode, const std::vector<DnsRr>& records) mutable {
          std::vector<DnsRr> full = std::move(chain);
          full.insert(full.end(), records.begin(), records.end());
          done(rcode, full);
        },
        depth);
    return;
  }

  // Answer section had nothing usable; treat as NODATA.
  cache_.insert_nodata(task->qname, task->qtype, negative_ttl(msg), now);
  finish(task, Rcode::kNoError, {});
}

void RecursiveResolver::finish(const TaskPtr& task, Rcode rcode,
                               std::vector<DnsRr> records) {
  if (task->finished) return;
  task->finished = true;
  switch (rcode) {
    case Rcode::kNoError: ++stats_.answered; break;
    case Rcode::kNxDomain: ++stats_.nxdomain; break;
    default: ++stats_.servfail; break;
  }
  if (task->done) task->done(rcode, records);
}

}  // namespace cd::resolver
