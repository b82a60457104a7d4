#include "cisco/cisco_unparser.h"

#include <algorithm>

namespace campion::cisco {
namespace {

std::string MaskString(int length) {
  return util::Ipv4Address(
             static_cast<std::uint32_t>(util::MaskBits(length, 32).lo()))
      .ToString();
}

std::string WildcardString(const util::IpWildcard& w) {
  if (w.IsAny()) return "any";
  if (w.family() == util::AddressFamily::kIpv6) {
    // IOS v6 ACL address specs are prefix-shaped: host A6 or P6/LEN.
    if (w.wildcard_wide() == util::U128()) {
      return "host " + util::Ipv6Address(w.address_wide()).ToString();
    }
    if (auto prefix = w.AsIpPrefix()) return prefix->ToString();
    // Non-contiguous v6 wildcards are inexpressible in IOS syntax; emit the
    // nearest prefix over the cared-about leading bits.
    return util::Ipv6Address(w.address_wide()).ToString() + "/128";
  }
  if (w.wildcard_bits() == 0) return "host " + w.address().ToString();
  return w.address().ToString() + " " +
         util::Ipv4Address(w.wildcard_bits()).ToString();
}

std::string PortSpecString(const std::vector<ir::PortRange>& ports) {
  // The IR allows several ranges per side; IOS expresses one per line, so
  // the unparser emits the first (the generator only ever uses one).
  if (ports.empty()) return "";
  const ir::PortRange& r = ports.front();
  if (r.IsAny()) return "";
  if (r.low == r.high) return " eq " + std::to_string(r.low);
  return " range " + std::to_string(r.low) + " " + std::to_string(r.high);
}

}  // namespace

std::string UnparsePrefixList(const ir::PrefixList& list) {
  const bool v6 = list.family == util::AddressFamily::kIpv6;
  const int max_len = util::MaxPrefixLength(list.family);
  std::string out;
  int seq = 5;
  for (const auto& entry : list.entries) {
    out += std::string(v6 ? "ipv6" : "ip") + " prefix-list " + list.name +
           " seq " + std::to_string(seq) + " " + ir::ToString(entry.action) +
           " " + entry.range.prefix().ToString();
    // IOS length-window semantics: "ge X" alone means [X, family max],
    // "le Y" alone means [base, Y], both together mean [X, Y], neither
    // means exact.
    int base = entry.range.prefix().length();
    int low = entry.range.low();
    int high = entry.range.high();
    if (low == base && high == base) {
      // Exact match: no modifier.
    } else if (low == base) {
      out += " le " + std::to_string(high);
    } else if (high == max_len) {
      out += " ge " + std::to_string(low);
    } else {
      out += " ge " + std::to_string(low) + " le " + std::to_string(high);
    }
    out += "\n";
    seq += 5;
  }
  return out;
}

std::string UnparseCommunityList(const ir::CommunityList& list) {
  std::string out;
  for (const auto& entry : list.entries) {
    out += "ip community-list standard " + list.name + " " +
           ir::ToString(entry.action);
    for (const auto& community : entry.all_of) {
      out += ' ';
      out += community.ToString();
    }
    out += "\n";
  }
  return out;
}

std::string UnparseRouteMap(const ir::RouteMap& map) {
  std::string out;
  int max_sequence = 0;
  for (const auto& clause : map.clauses) {
    // Fall-through is IOS `continue`: a permit clause that keeps matching.
    const char* action =
        clause.action == ir::ClauseAction::kDeny ? "deny" : "permit";
    out += "route-map " + map.name + " " + action + " " +
           std::to_string(clause.sequence) + "\n";
    max_sequence = std::max(max_sequence, clause.sequence);
    for (const auto& match : clause.matches) {
      switch (match.kind) {
        case ir::RouteMapMatch::Kind::kPrefixList:
          out += " match ip address prefix-list";
          for (const auto& name : match.names) out += " " + name;
          out += "\n";
          break;
        case ir::RouteMapMatch::Kind::kCommunityList:
          out += " match community";
          for (const auto& name : match.names) out += " " + name;
          out += "\n";
          break;
        case ir::RouteMapMatch::Kind::kAsPathList:
          out += " match as-path";
          for (const auto& name : match.names) out += " " + name;
          out += "\n";
          break;
        case ir::RouteMapMatch::Kind::kTag:
          out += " match tag " + std::to_string(match.value) + "\n";
          break;
        case ir::RouteMapMatch::Kind::kMetric:
          out += " match metric " + std::to_string(match.value) + "\n";
          break;
        case ir::RouteMapMatch::Kind::kProtocol:
          out += " match source-protocol " + ir::ToString(match.protocol) +
                 "\n";
          break;
      }
    }
    for (const auto& set : clause.sets) {
      switch (set.kind) {
        case ir::RouteMapSet::Kind::kLocalPreference:
          out += " set local-preference " + std::to_string(set.value) + "\n";
          break;
        case ir::RouteMapSet::Kind::kMetric:
          out += " set metric " + std::to_string(set.value) + "\n";
          break;
        case ir::RouteMapSet::Kind::kTag:
          out += " set tag " + std::to_string(set.value) + "\n";
          break;
        case ir::RouteMapSet::Kind::kNextHop:
          out += " set ip next-hop " + set.next_hop.ToString() + "\n";
          break;
        case ir::RouteMapSet::Kind::kNextHopSelf:
          out += " set ip next-hop self\n";
          break;
        case ir::RouteMapSet::Kind::kCommunitySet:
        case ir::RouteMapSet::Kind::kCommunityAdd: {
          out += " set community";
          for (const auto& community : set.communities) {
            out += ' ';
            out += community.ToString();
          }
          if (set.kind == ir::RouteMapSet::Kind::kCommunityAdd) {
            out += " additive";
          }
          out += "\n";
          break;
        }
        case ir::RouteMapSet::Kind::kCommunityDelete:
          // "set comm-list ... delete" needs a named list; not emitted.
          break;
      }
    }
    if (clause.action == ir::ClauseAction::kFallThrough) {
      out += " continue\n";
    }
  }
  // IOS route maps implicitly deny; an IR default-permit needs an explicit
  // catch-all clause to survive the round trip.
  if (map.default_action == ir::ClauseAction::kPermit) {
    out += "route-map " + map.name + " permit " +
           std::to_string(max_sequence + 10) + "\n";
  }
  return out;
}

std::string UnparseAcl(const ir::Acl& acl) {
  const bool v6 = acl.family == util::AddressFamily::kIpv6;
  std::string out = v6 ? "ipv6 access-list " + acl.name + "\n"
                       : "ip access-list extended " + acl.name + "\n";
  for (const auto& line : acl.lines) {
    out += ' ';
    out += ir::ToString(line.action);
    out += ' ';
    out += line.protocol ? ir::ProtocolNumberToString(*line.protocol)
                         : (v6 ? "ipv6" : "ip");
    out += ' ';
    out += WildcardString(line.src);
    out += PortSpecString(line.src_ports);
    out += ' ';
    out += WildcardString(line.dst);
    out += PortSpecString(line.dst_ports);
    if (line.icmp_type) {
      out += ' ';
      out += std::to_string(*line.icmp_type);
    }
    if (line.established) out += " established";
    out += "\n";
  }
  return out;
}

std::string UnparseStaticRoute(const ir::StaticRoute& route) {
  std::string out = "ip route " + route.prefix.address().ToString() + " " +
                    MaskString(route.prefix.length());
  if (route.next_hop) {
    out += " " + route.next_hop->ToString();
  } else {
    out += " " + route.next_hop_interface;
  }
  if (route.admin_distance != 1) {
    out += " " + std::to_string(route.admin_distance);
  }
  if (route.tag) out += " tag " + std::to_string(*route.tag);
  return out + "\n";
}

std::string UnparseCiscoConfig(const ir::RouterConfig& config) {
  std::string out;
  out += "hostname " + (config.hostname.empty() ? "router" : config.hostname) +
         "\n!\n";

  for (const auto& iface : config.interfaces) {
    out += "interface " + iface.name + "\n";
    if (iface.address) {
      out += " ip address " + iface.address->ToString() + " " +
             MaskString(iface.prefix_length) + "\n";
    }
    if (iface.ospf_cost) {
      out += " ip ospf cost " + std::to_string(*iface.ospf_cost) + "\n";
    }
    if (iface.ospf_enabled) {
      out += " ip ospf 1 area " +
             std::to_string(iface.ospf_area.value_or(0)) + "\n";
    }
    if (!iface.in_acl.empty()) {
      out += " ip access-group " + iface.in_acl + " in\n";
    }
    if (!iface.out_acl.empty()) {
      out += " ip access-group " + iface.out_acl + " out\n";
    }
    if (iface.shutdown) out += " shutdown\n";
    out += "!\n";
  }

  for (const auto& [name, list] : config.prefix_lists) {
    out += UnparsePrefixList(list);
  }
  if (!config.prefix_lists.empty()) out += "!\n";
  for (const auto& [name, list] : config.community_lists) {
    out += UnparseCommunityList(list);
  }
  if (!config.community_lists.empty()) out += "!\n";
  for (const auto& [name, list] : config.as_path_lists) {
    for (const auto& entry : list.entries) {
      out += "ip as-path access-list " + list.name + " " +
             ir::ToString(entry.action) + " " + entry.regex + "\n";
    }
  }
  if (!config.as_path_lists.empty()) out += "!\n";
  for (const auto& [name, acl] : config.acls) {
    out += UnparseAcl(acl) + "!\n";
  }
  for (const auto& [name, map] : config.route_maps) {
    out += UnparseRouteMap(map) + "!\n";
  }
  for (const auto& route : config.static_routes) {
    out += UnparseStaticRoute(route);
  }
  if (!config.static_routes.empty()) out += "!\n";

  if (config.ospf) {
    out += "router ospf " + std::to_string(config.ospf->process_id) + "\n";
    if (config.ospf->router_id) {
      out += " router-id " + config.ospf->router_id->ToString() + "\n";
    }
    if (config.ospf->reference_bandwidth_mbps != 100) {
      out += " auto-cost reference-bandwidth " +
             std::to_string(config.ospf->reference_bandwidth_mbps) + "\n";
    }
    for (const auto& iface : config.interfaces) {
      if (iface.ospf_passive) {
        out += " passive-interface " + iface.name + "\n";
      }
    }
    for (const auto& redist : config.ospf->redistributions) {
      out += " redistribute " + ir::ToString(redist.from);
      if (!redist.route_map.empty()) {
        out += " route-map " + redist.route_map;
      }
      out += "\n";
    }
    out += "!\n";
  }

  if (config.bgp) {
    out += "router bgp " + std::to_string(config.bgp->asn) + "\n";
    if (config.bgp->router_id) {
      out += " bgp router-id " + config.bgp->router_id->ToString() + "\n";
    }
    for (const auto& network : config.bgp->networks) {
      out += " network " + network.address().ToString() + " mask " +
             MaskString(network.length()) + "\n";
    }
    for (const auto& neighbor : config.bgp->neighbors) {
      std::string prefix = " neighbor " + neighbor.ip.ToString() + " ";
      out += prefix + "remote-as " + std::to_string(neighbor.remote_as) + "\n";
      if (!neighbor.description.empty()) {
        out += prefix + "description " + neighbor.description + "\n";
      }
      if (neighbor.route_reflector_client) {
        out += prefix + "route-reflector-client\n";
      }
      if (neighbor.send_community) out += prefix + "send-community\n";
      if (neighbor.next_hop_self) out += prefix + "next-hop-self\n";
      if (!neighbor.import_policy.empty()) {
        out += prefix + "route-map " + neighbor.import_policy + " in\n";
      }
      if (!neighbor.export_policy.empty()) {
        out += prefix + "route-map " + neighbor.export_policy + " out\n";
      }
    }
    for (const auto& redist : config.bgp->redistributions) {
      out += " redistribute " + ir::ToString(redist.from);
      if (!redist.route_map.empty()) {
        out += " route-map " + redist.route_map;
      }
      out += "\n";
    }
    if (config.admin_distances.ebgp != 20 ||
        config.admin_distances.ibgp != 200) {
      out += " distance bgp " + std::to_string(config.admin_distances.ebgp) +
             " " + std::to_string(config.admin_distances.ibgp) + " 200\n";
    }
    out += "!\n";
  }
  out += "end\n";
  return out;
}

}  // namespace campion::cisco
