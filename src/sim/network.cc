#include "sim/network.h"

namespace campion::sim {

void Network::AddRouter(ir::RouterConfig config) {
  std::string name = config.hostname;
  routers_[name] = std::move(config);
}

void Network::AddAdjacency(const std::string& router1,
                           const std::string& iface1,
                           const std::string& router2,
                           const std::string& iface2) {
  adjacencies_.push_back({router1, iface1, router2, iface2});
}

void Network::AddBgpSession(const std::string& router1,
                            util::Ipv4Address addr1,
                            const std::string& router2,
                            util::Ipv4Address addr2) {
  sessions_.push_back({router1, addr1, router2, addr2});
}

void Network::ReplaceRouter(const std::string& name,
                            ir::RouterConfig config) {
  config.hostname = name;
  routers_[name] = std::move(config);
}

const ir::RouterConfig* Network::FindRouter(const std::string& name) const {
  auto it = routers_.find(name);
  return it == routers_.end() ? nullptr : &it->second;
}

namespace {

using Rib = std::map<util::IpPrefix, Route>;

void Install(Rib& rib, const Route& route) {
  auto [it, inserted] = rib.try_emplace(route.prefix, route);
  if (!inserted && Preferred(route, it->second)) it->second = route;
}

// Locally originated routes: connected subnets and static routes.
Rib LocalRoutes(const ir::RouterConfig& config) {
  Rib rib;
  for (const auto& iface : config.interfaces) {
    if (iface.shutdown) continue;
    auto subnet = iface.ConnectedSubnet();
    if (!subnet) continue;
    Route route;
    route.prefix = *subnet;
    route.protocol = ir::Protocol::kConnected;
    route.admin_distance = config.admin_distances.connected;
    Install(rib, route);
  }
  for (const auto& s : config.static_routes) {
    Route route;
    route.prefix = s.prefix;
    route.protocol = ir::Protocol::kStatic;
    route.admin_distance = s.admin_distance;
    if (s.next_hop) route.next_hop = *s.next_hop;
    if (s.tag) route.tag = *s.tag;
    Install(rib, route);
  }
  return rib;
}

// What `sender` offers into BGP toward one neighbor, before export policy.
std::vector<Route> BgpOfferings(const ir::RouterConfig& sender,
                                const Rib& rib) {
  std::vector<Route> offered;
  if (!sender.bgp) return offered;
  // (a) BGP-learned routes already in the RIB.
  for (const auto& [prefix, route] : rib) {
    if (route.protocol == ir::Protocol::kBgp) offered.push_back(route);
  }
  // (b) Network statements originate with default attributes.
  for (const auto& network : sender.bgp->networks) {
    Route route;
    route.prefix = network;
    route.protocol = ir::Protocol::kBgp;
    route.admin_distance = sender.admin_distances.ebgp;
    offered.push_back(route);
  }
  // (c) Redistribution of other protocols into BGP.
  for (const auto& redist : sender.bgp->redistributions) {
    for (const auto& [prefix, route] : rib) {
      if (route.protocol != redist.from) continue;
      std::optional<Route> exported =
          EvalPolicy(sender, redist.route_map, route);
      if (!exported) continue;
      exported->protocol = ir::Protocol::kBgp;
      offered.push_back(*exported);
    }
  }
  return offered;
}

// One directed BGP advertisement step: sender -> receiver over a session.
void PropagateBgp(const ir::RouterConfig& sender,
                  util::Ipv4Address sender_addr, const Rib& sender_rib,
                  const ir::RouterConfig& receiver,
                  util::Ipv4Address receiver_addr, Rib& receiver_next) {
  if (!sender.bgp || !receiver.bgp) return;
  const ir::BgpNeighbor* out_stanza = sender.FindBgpNeighbor(receiver_addr);
  const ir::BgpNeighbor* in_stanza = receiver.FindBgpNeighbor(sender_addr);
  if (out_stanza == nullptr || in_stanza == nullptr) return;
  bool ebgp = sender.bgp->asn != receiver.bgp->asn;

  for (Route route : BgpOfferings(sender, sender_rib)) {
    // iBGP loop prevention: an iBGP-learned route is re-advertised over
    // iBGP only by a route reflector — to clients always, to non-clients
    // only when the route was learned from a client.
    if (!ebgp && route.ibgp && !out_stanza->route_reflector_client &&
        !route.learned_from_client) {
      continue;
    }
    std::optional<Route> exported =
        EvalPolicy(sender, out_stanza->export_policy, route);
    if (!exported) continue;
    Route advert = *exported;
    if (!out_stanza->send_community) advert.communities.clear();
    if (ebgp) {
      advert.as_path_length += 1;
      advert.local_pref = 100;  // Local pref does not cross AS boundaries.
      advert.next_hop = sender_addr;
    } else if (out_stanza->next_hop_self ||
               advert.next_hop == util::Ipv4Address(0)) {
      advert.next_hop = sender_addr;
    }
    std::optional<Route> imported =
        EvalPolicy(receiver, in_stanza->import_policy, advert);
    if (!imported) continue;
    Route installed = *imported;
    installed.protocol = ir::Protocol::kBgp;
    installed.ibgp = !ebgp;
    installed.learned_from = sender.hostname;
    installed.learned_from_client = in_stanza->route_reflector_client;
    installed.admin_distance = ebgp ? receiver.admin_distances.ebgp
                                    : receiver.admin_distances.ibgp;
    Install(receiver_next, installed);
  }
}

// One directed OSPF flooding step over an adjacency.
void PropagateOspf(const ir::RouterConfig& sender,
                   const ir::Interface& sender_iface, const Rib& sender_rib,
                   const ir::RouterConfig& receiver,
                   const ir::Interface& receiver_iface, Rib& receiver_next) {
  if (!sender_iface.ospf_enabled || !receiver_iface.ospf_enabled) return;
  if (sender_iface.ospf_passive || receiver_iface.ospf_passive) return;
  if (sender_iface.ospf_area != receiver_iface.ospf_area) return;
  std::uint32_t link_cost = receiver_iface.ospf_cost.value_or(10);

  auto deliver = [&](Route route) {
    route.protocol = ir::Protocol::kOspf;
    route.metric += link_cost;
    route.admin_distance = receiver.admin_distances.ospf;
    route.learned_from = sender.hostname;
    Install(receiver_next, route);
  };

  // (a) OSPF routes already known to the sender.
  for (const auto& [prefix, route] : sender_rib) {
    if (route.protocol == ir::Protocol::kOspf) deliver(route);
  }
  // (b) The sender's own OSPF-enabled subnets (intra-area origination).
  for (const auto& iface : sender.interfaces) {
    if (!iface.ospf_enabled || iface.shutdown) continue;
    auto subnet = iface.ConnectedSubnet();
    if (!subnet) continue;
    Route route;
    route.prefix = *subnet;
    route.metric = 0;
    deliver(route);
  }
  // (c) Redistribution into OSPF (external routes).
  if (sender.ospf) {
    for (const auto& redist : sender.ospf->redistributions) {
      for (const auto& [prefix, route] : sender_rib) {
        if (route.protocol != redist.from) continue;
        std::optional<Route> exported =
            EvalPolicy(sender, redist.route_map, route);
        if (!exported) continue;
        deliver(*exported);
      }
    }
  }
}

}  // namespace

bool RoutingSolution::SameAs(const RoutingSolution& other) const {
  return ribs == other.ribs;
}

std::string RoutingSolution::ToString() const {
  std::string out;
  for (const auto& [router, rib] : ribs) {
    out += router + ":\n";
    for (const auto& [prefix, route] : rib) {
      out += "  " + route.ToString() + "\n";
    }
  }
  return out;
}

RoutingSolution Solve(const Network& network, int max_iterations) {
  RoutingSolution solution;
  for (const auto& [name, config] : network.routers()) {
    solution.ribs[name] = LocalRoutes(config);
  }

  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    // Synchronous step: next state computed from the previous RIBs, so the
    // fixed point is independent of session ordering.
    std::map<std::string, Rib> next;
    for (const auto& [name, config] : network.routers()) {
      next[name] = LocalRoutes(config);
    }

    for (const auto& session : network.bgp_sessions()) {
      const ir::RouterConfig* r1 = network.FindRouter(session.router1);
      const ir::RouterConfig* r2 = network.FindRouter(session.router2);
      if (r1 == nullptr || r2 == nullptr) continue;
      PropagateBgp(*r1, session.addr1, solution.ribs[session.router1], *r2,
                   session.addr2, next[session.router2]);
      PropagateBgp(*r2, session.addr2, solution.ribs[session.router2], *r1,
                   session.addr1, next[session.router1]);
    }
    for (const auto& adjacency : network.adjacencies()) {
      const ir::RouterConfig* r1 = network.FindRouter(adjacency.router1);
      const ir::RouterConfig* r2 = network.FindRouter(adjacency.router2);
      if (r1 == nullptr || r2 == nullptr) continue;
      const ir::Interface* i1 = r1->FindInterface(adjacency.interface1);
      const ir::Interface* i2 = r2->FindInterface(adjacency.interface2);
      if (i1 == nullptr || i2 == nullptr) continue;
      PropagateOspf(*r1, *i1, solution.ribs[adjacency.router1], *r2, *i2,
                    next[adjacency.router2]);
      PropagateOspf(*r2, *i2, solution.ribs[adjacency.router2], *r1, *i1,
                    next[adjacency.router1]);
    }

    if (next == solution.ribs) break;
    solution.ribs = std::move(next);
  }
  return solution;
}

}  // namespace campion::sim
