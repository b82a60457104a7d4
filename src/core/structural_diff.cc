#include "core/structural_diff.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string_view>
#include <utility>

namespace campion::core {
namespace {

constexpr const char* kAbsent = "(absent)";

std::string OptIpToString(const std::optional<util::Ipv4Address>& ip,
                          const std::string& iface) {
  if (ip) return ip->ToString();
  if (!iface.empty()) return "interface " + iface;
  return "none";
}

std::string OptToString(const std::optional<std::uint32_t>& v) {
  return v ? std::to_string(*v) : "none";
}

std::string BoolToString(bool b) { return b ? "yes" : "no"; }

using RouteRun = std::span<const ir::StaticRoute* const>;

// True when two sides' routes to one prefix have the same next hops, and
// the same admin distance and tag per next hop: DiffStaticPrefix would
// report nothing. Decided without building a string. Next hops compare as
// their rendered keys do (the address when set, else the interface), and,
// as there, the last route of a next hop stands for it.
bool SameStaticRoutes(RouteRun routes1, RouteRun routes2) {
  using Key = std::pair<std::optional<util::Ipv4Address>, std::string_view>;
  auto by_next_hop = [](RouteRun routes) {
    std::vector<std::pair<Key, const ir::StaticRoute*>> keyed;
    keyed.reserve(routes.size());
    for (const ir::StaticRoute* r : routes) {
      keyed.push_back({{r->next_hop, r->next_hop ? std::string_view()
                                                  : r->next_hop_interface},
                       r});
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    // Keep the last route of each next hop.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < keyed.size(); ++i) {
      if (i + 1 < keyed.size() && keyed[i + 1].first == keyed[i].first) {
        continue;
      }
      keyed[kept++] = keyed[i];
    }
    keyed.resize(kept);
    return keyed;
  };
  const auto side1 = by_next_hop(routes1);
  const auto side2 = by_next_hop(routes2);
  return std::equal(side1.begin(), side1.end(), side2.begin(), side2.end(),
                    [](const auto& a, const auto& b) {
                      return a.first == b.first &&
                             a.second->admin_distance ==
                                 b.second->admin_distance &&
                             a.second->tag == b.second->tag;
                    });
}

// Appends the differences between two sides' routes to `prefix`, each
// side's in config order (one side may be empty).
void DiffStaticPrefix(const util::IpPrefix& prefix, RouteRun routes1,
                      RouteRun routes2,
                      std::vector<StructuralDifference>& diffs) {
  if (!routes1.empty() && !routes2.empty() &&
      SameStaticRoutes(routes1, routes2)) {
    return;
  }
  std::string component = "Static Route " + prefix.ToString();
  if (routes1.empty() || routes2.empty()) {
    const ir::StaticRoute* present =
        !routes1.empty() ? routes1.front() : routes2.front();
    StructuralDifference d;
    d.component = component;
    d.field = "presence";
    d.value1 = !routes1.empty() ? "configured" : kAbsent;
    d.value2 = !routes2.empty() ? "configured" : kAbsent;
    (!routes1.empty() ? d.span1 : d.span2) = present->span;
    diffs.push_back(std::move(d));
    return;
  }
  // Both sides configure the prefix: compare the route attribute tuples,
  // keyed by next hop so multipath static routes line up.
  auto tuple_key = [](const ir::StaticRoute* r) {
    return OptIpToString(r->next_hop, r->next_hop_interface);
  };
  std::map<std::string, const ir::StaticRoute*> side1, side2;
  for (const auto* r : routes1) side1[tuple_key(r)] = r;
  for (const auto* r : routes2) side2[tuple_key(r)] = r;

  bool next_hops_match = true;
  for (const auto& [key, r] : side1) {
    if (!side2.contains(key)) next_hops_match = false;
  }
  for (const auto& [key, r] : side2) {
    if (!side1.contains(key)) next_hops_match = false;
  }
  if (!next_hops_match) {
    StructuralDifference d;
    d.component = component;
    d.field = "next hop";
    for (const auto& [key, r] : side1) {
      if (!d.value1.empty()) d.value1 += "\n";
      d.value1 += key;
      d.span1 = r->span;
    }
    for (const auto& [key, r] : side2) {
      if (!d.value2.empty()) d.value2 += "\n";
      d.value2 += key;
      d.span2 = r->span;
    }
    diffs.push_back(std::move(d));
    return;
  }
  for (const auto& [key, r1] : side1) {
    const ir::StaticRoute* r2 = side2.at(key);
    if (r1->admin_distance != r2->admin_distance) {
      diffs.push_back({component + " via " + key, "admin distance",
                       std::to_string(r1->admin_distance),
                       std::to_string(r2->admin_distance), r1->span,
                       r2->span});
    }
    if (r1->tag != r2->tag) {
      diffs.push_back({component + " via " + key, "tag",
                       OptToString(r1->tag), OptToString(r2->tag), r1->span,
                       r2->span});
    }
  }
}

}  // namespace

std::vector<StructuralDifference> DiffStaticRoutes(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2) {
  // Each side's routes in prefix order (config order within a prefix),
  // walked together one prefix at a time.
  auto by_prefix = [](const ir::RouterConfig& config) {
    std::vector<const ir::StaticRoute*> routes;
    routes.reserve(config.static_routes.size());
    for (const auto& r : config.static_routes) routes.push_back(&r);
    std::stable_sort(routes.begin(), routes.end(),
                     [](const ir::StaticRoute* a, const ir::StaticRoute* b) {
                       return a->prefix < b->prefix;
                     });
    return routes;
  };
  const std::vector<const ir::StaticRoute*> routes1 = by_prefix(config1);
  const std::vector<const ir::StaticRoute*> routes2 = by_prefix(config2);
  // The run of `routes` from `i` that is routes to `prefix`.
  auto run = [](const std::vector<const ir::StaticRoute*>& routes,
                std::size_t i, const util::IpPrefix& prefix) {
    std::size_t end = i;
    while (end < routes.size() && routes[end]->prefix == prefix) ++end;
    return RouteRun(routes.data() + i, end - i);
  };

  std::vector<StructuralDifference> diffs;
  std::size_t i1 = 0;
  std::size_t i2 = 0;
  while (i1 < routes1.size() || i2 < routes2.size()) {
    const bool first_in_1 = i1 < routes1.size() &&
                            (i2 == routes2.size() ||
                             routes1[i1]->prefix < routes2[i2]->prefix);
    const util::IpPrefix prefix =
        first_in_1 ? routes1[i1]->prefix : routes2[i2]->prefix;
    const RouteRun run1 = run(routes1, i1, prefix);
    const RouteRun run2 = run(routes2, i2, prefix);
    DiffStaticPrefix(prefix, run1, run2, diffs);
    i1 += run1.size();
    i2 += run2.size();
  }
  return diffs;
}

std::vector<StructuralDifference> DiffConnectedRoutes(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2) {
  auto subnets = [](const ir::RouterConfig& config) {
    std::map<util::IpPrefix, const ir::Interface*> out;
    for (const auto& iface : config.interfaces) {
      if (auto subnet = iface.ConnectedSubnet(); subnet && !iface.shutdown) {
        out.emplace(*subnet, &iface);
      }
    }
    return out;
  };
  auto s1 = subnets(config1);
  auto s2 = subnets(config2);

  std::vector<StructuralDifference> diffs;
  for (const auto& [subnet, iface] : s1) {
    if (!s2.contains(subnet)) {
      diffs.push_back({"Connected Route " + subnet.ToString(), "presence",
                       "interface " + iface->name, kAbsent, iface->span,
                       {}});
    }
  }
  for (const auto& [subnet, iface] : s2) {
    if (!s1.contains(subnet)) {
      diffs.push_back({"Connected Route " + subnet.ToString(), "presence",
                       kAbsent, "interface " + iface->name, {},
                       iface->span});
    }
  }
  return diffs;
}

std::vector<StructuralDifference> DiffOspf(
    const ir::RouterConfig& config1, const ir::InterfaceIndex& interfaces1,
    const ir::RouterConfig& config2, const ir::InterfaceIndex& interfaces2,
    const std::vector<std::pair<std::string, std::string>>& interface_pairs) {
  std::vector<StructuralDifference> diffs;

  for (const auto& [name1, name2] : interface_pairs) {
    const ir::Interface* i1 = interfaces1.Find(name1);
    const ir::Interface* i2 = interfaces2.Find(name2);
    if (i1 == nullptr || i2 == nullptr) continue;
    std::string component = "OSPF Interface " + name1 + " / " + name2;
    if (i1->ospf_enabled != i2->ospf_enabled) {
      diffs.push_back({component, "ospf enabled",
                       BoolToString(i1->ospf_enabled),
                       BoolToString(i2->ospf_enabled), i1->span, i2->span});
      continue;
    }
    if (!i1->ospf_enabled) continue;
    if (i1->ospf_cost != i2->ospf_cost) {
      diffs.push_back({component, "cost", OptToString(i1->ospf_cost),
                       OptToString(i2->ospf_cost), i1->span, i2->span});
    }
    if (i1->ospf_area != i2->ospf_area) {
      diffs.push_back({component, "area", OptToString(i1->ospf_area),
                       OptToString(i2->ospf_area), i1->span, i2->span});
    }
    if (i1->ospf_passive != i2->ospf_passive) {
      diffs.push_back({component, "passive", BoolToString(i1->ospf_passive),
                       BoolToString(i2->ospf_passive), i1->span, i2->span});
    }
  }

  const bool has1 = config1.ospf.has_value();
  const bool has2 = config2.ospf.has_value();
  if (has1 != has2) {
    diffs.push_back({"OSPF Process", "presence",
                     has1 ? "configured" : kAbsent,
                     has2 ? "configured" : kAbsent,
                     has1 ? config1.ospf->span : util::SourceSpan{},
                     has2 ? config2.ospf->span : util::SourceSpan{}});
    return diffs;
  }
  if (!has1) return diffs;

  const ir::OspfProcess& p1 = *config1.ospf;
  const ir::OspfProcess& p2 = *config2.ospf;
  if (p1.reference_bandwidth_mbps != p2.reference_bandwidth_mbps) {
    diffs.push_back({"OSPF Process", "reference bandwidth (Mbps)",
                     std::to_string(p1.reference_bandwidth_mbps),
                     std::to_string(p2.reference_bandwidth_mbps), p1.span,
                     p2.span});
  }
  // Redistribution *presence* per source protocol is structural; the route
  // maps applied to redistribution are checked by SemanticDiff.
  auto redist_protocols = [](const ir::OspfProcess& p) {
    std::map<ir::Protocol, const ir::Redistribution*> out;
    for (const auto& r : p.redistributions) out.emplace(r.from, &r);
    return out;
  };
  auto r1 = redist_protocols(p1);
  auto r2 = redist_protocols(p2);
  for (const auto& [proto, redist] : r1) {
    if (!r2.contains(proto)) {
      diffs.push_back({"OSPF Redistribution of " + ir::ToString(proto),
                       "presence", "configured", kAbsent, redist->span, {}});
    }
  }
  for (const auto& [proto, redist] : r2) {
    if (!r1.contains(proto)) {
      diffs.push_back({"OSPF Redistribution of " + ir::ToString(proto),
                       "presence", kAbsent, "configured", {}, redist->span});
    }
  }
  return diffs;
}

std::vector<StructuralDifference> DiffBgpProperties(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2) {
  std::vector<StructuralDifference> diffs;
  const bool has1 = config1.bgp.has_value();
  const bool has2 = config2.bgp.has_value();
  if (has1 != has2) {
    diffs.push_back({"BGP Process", "presence",
                     has1 ? "configured" : kAbsent,
                     has2 ? "configured" : kAbsent,
                     has1 ? config1.bgp->span : util::SourceSpan{},
                     has2 ? config2.bgp->span : util::SourceSpan{}});
    return diffs;
  }
  if (!has1) return diffs;

  const ir::BgpProcess& b1 = *config1.bgp;
  const ir::BgpProcess& b2 = *config2.bgp;
  if (b1.asn != b2.asn) {
    diffs.push_back({"BGP Process", "local AS", std::to_string(b1.asn),
                     std::to_string(b2.asn), b1.span, b2.span});
  }

  std::map<util::Ipv4Address, const ir::BgpNeighbor*> n1, n2;
  for (const auto& n : b1.neighbors) n1.emplace(n.ip, &n);
  for (const auto& n : b2.neighbors) n2.emplace(n.ip, &n);

  for (const auto& [ip, neighbor] : n1) {
    if (!n2.contains(ip)) {
      diffs.push_back({"BGP Neighbor " + ip.ToString(), "presence",
                       "configured", kAbsent, neighbor->span, {}});
    }
  }
  for (const auto& [ip, neighbor] : n2) {
    if (!n1.contains(ip)) {
      diffs.push_back({"BGP Neighbor " + ip.ToString(), "presence", kAbsent,
                       "configured", {}, neighbor->span});
    }
  }
  for (const auto& [ip, x1] : n1) {
    auto it = n2.find(ip);
    if (it == n2.end()) continue;
    const ir::BgpNeighbor* x2 = it->second;
    std::string component = "BGP Neighbor " + ip.ToString();
    if (x1->remote_as != x2->remote_as) {
      diffs.push_back({component, "remote AS", std::to_string(x1->remote_as),
                       std::to_string(x2->remote_as), x1->span, x2->span});
    }
    if (x1->route_reflector_client != x2->route_reflector_client) {
      diffs.push_back({component, "route-reflector-client",
                       BoolToString(x1->route_reflector_client),
                       BoolToString(x2->route_reflector_client), x1->span,
                       x2->span});
    }
    if (x1->send_community != x2->send_community) {
      diffs.push_back({component, "send-community",
                       BoolToString(x1->send_community),
                       BoolToString(x2->send_community), x1->span, x2->span});
    }
    if (x1->next_hop_self != x2->next_hop_self) {
      diffs.push_back({component, "next-hop-self",
                       BoolToString(x1->next_hop_self),
                       BoolToString(x2->next_hop_self), x1->span, x2->span});
    }
  }

  std::set<util::IpPrefix> nets1(b1.networks.begin(), b1.networks.end());
  std::set<util::IpPrefix> nets2(b2.networks.begin(), b2.networks.end());
  for (const auto& net : nets1) {
    if (!nets2.contains(net)) {
      diffs.push_back({"BGP Network " + net.ToString(), "presence",
                       "configured", kAbsent, b1.span, {}});
    }
  }
  for (const auto& net : nets2) {
    if (!nets1.contains(net)) {
      diffs.push_back({"BGP Network " + net.ToString(), "presence", kAbsent,
                       "configured", {}, b2.span});
    }
  }
  return diffs;
}

std::vector<StructuralDifference> DiffAdminDistances(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2) {
  std::vector<StructuralDifference> diffs;
  const ir::AdminDistances& a1 = config1.admin_distances;
  const ir::AdminDistances& a2 = config2.admin_distances;
  auto compare = [&](const char* field, int v1, int v2) {
    if (v1 != v2) {
      diffs.push_back({"Administrative Distances", field, std::to_string(v1),
                       std::to_string(v2), {}, {}});
    }
  };
  compare("connected", a1.connected, a2.connected);
  compare("static", a1.static_route, a2.static_route);
  compare("ebgp", a1.ebgp, a2.ebgp);
  compare("ospf", a1.ospf, a2.ospf);
  compare("ibgp", a1.ibgp, a2.ibgp);
  return diffs;
}

}  // namespace campion::core
