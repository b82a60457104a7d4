#include "juniper/juniper_unparser.h"

#include <map>

namespace campion::juniper {
namespace {

// Renders one prefix-list entry as a route-filter condition line.
std::string RouteFilterLine(const util::PrefixRange& range,
                            const std::string& indent) {
  int base = range.prefix().length();
  const int max_len = util::MaxPrefixLength(range.family());
  std::string out = indent + "route-filter " + range.prefix().ToString();
  if (range.low() == base && range.high() == base) {
    out += " exact";
  } else if (range.low() == base && range.high() == max_len) {
    out += " orlonger";
  } else if (range.low() == base + 1 && range.high() == max_len) {
    out += " longer";
  } else if (range.low() == base) {
    out += " upto /" + std::to_string(range.high());
  } else {
    out += " prefix-length-range /" + std::to_string(range.low()) + "-/" +
           std::to_string(range.high());
  }
  return out + ";\n";
}

// A discontiguous wildcard (don't-care bits that are not a contiguous low
// suffix) has no single JunOS prefix equivalent, but it is exactly the
// union of 2^k prefixes over its k non-suffix free bits, and repeated
// source-address / destination-address entries within a term OR together
// (the parser turns them back into one IR line per prefix with the same
// action). Returns the expansion, or empty when it would exceed `cap`
// prefixes.
std::vector<util::IpPrefix> ExpandWildcard(const util::IpWildcard& w,
                                           std::size_t cap) {
  std::uint32_t mask = w.wildcard_bits();
  int suffix = 0;
  while (suffix < 32 && ((mask >> suffix) & 1u) != 0) ++suffix;
  std::vector<int> free_bits;
  for (int bit = suffix; bit < 32; ++bit) {
    if (((mask >> bit) & 1u) != 0) free_bits.push_back(bit);
  }
  if (free_bits.size() >= 20 ||
      (std::size_t{1} << free_bits.size()) > cap) {
    return {};
  }
  std::vector<util::IpPrefix> out;
  out.reserve(std::size_t{1} << free_bits.size());
  for (std::size_t combo = 0; combo < (std::size_t{1} << free_bits.size());
       ++combo) {
    std::uint32_t bits = w.address().bits();
    for (std::size_t i = 0; i < free_bits.size(); ++i) {
      if (((combo >> i) & 1u) != 0) bits |= 1u << free_bits[i];
    }
    out.emplace_back(util::Ipv4Address(bits), 32 - suffix);
  }
  return out;
}

bool IsExactPermitList(const ir::PrefixList& list) {
  for (const auto& entry : list.entries) {
    if (entry.action != ir::LineAction::kPermit) return false;
    if (entry.range.low() != entry.range.prefix().length() ||
        entry.range.high() != entry.range.prefix().length()) {
      return false;
    }
  }
  return true;
}

std::string UnparseTerm(const ir::RouteMapClause& clause,
                        const ir::RouterConfig* config, int index) {
  std::string name = clause.term_name.empty()
                         ? "t" + std::to_string(index)
                         : clause.term_name;
  std::string out = "        term " + name + " {\n";
  if (!clause.matches.empty()) {
    out += "            from {\n";
    for (const auto& match : clause.matches) {
      switch (match.kind) {
        case ir::RouteMapMatch::Kind::kPrefixList:
          for (const auto& list_name : match.names) {
            const ir::PrefixList* list =
                config != nullptr ? config->FindPrefixList(list_name)
                                  : nullptr;
            if (list != nullptr && !IsExactPermitList(*list)) {
              // Windowed entries: inline as route-filters. Deny entries
              // have no JunOS equivalent (see header); refuse silently
              // changing behavior and leave a marker instead.
              for (const auto& entry : list->entries) {
                if (entry.action == ir::LineAction::kDeny) {
                  out += "                /* unrepresentable deny entry of " +
                         list_name + ": " + entry.range.ToString() + " */\n";
                  continue;
                }
                out += RouteFilterLine(entry.range, "                ");
              }
            } else {
              out += "                prefix-list " + list_name + ";\n";
            }
          }
          break;
        case ir::RouteMapMatch::Kind::kCommunityList:
          for (const auto& list_name : match.names) {
            const ir::CommunityList* list =
                config != nullptr ? config->FindCommunityList(list_name)
                                  : nullptr;
            if (list != nullptr && list->entries.size() > 1) {
              // A multi-entry (OR) list maps to the per-entry community
              // names UnparseCommunity emits, OR'd with bracket syntax.
              out += "                community [";
              for (std::size_t i = 0; i < list->entries.size(); ++i) {
                out += " " + list_name + "__" + std::to_string(i);
              }
              out += " ];\n";
            } else {
              out += "                community " + list_name + ";\n";
            }
          }
          break;
        case ir::RouteMapMatch::Kind::kAsPathList:
          for (const auto& list_name : match.names) {
            out += "                as-path " + list_name + ";\n";
          }
          break;
        case ir::RouteMapMatch::Kind::kTag:
          out += "                tag " + std::to_string(match.value) + ";\n";
          break;
        case ir::RouteMapMatch::Kind::kMetric:
          out += "                metric " + std::to_string(match.value) +
                 ";\n";
          break;
        case ir::RouteMapMatch::Kind::kProtocol: {
          std::string protocol = ir::ToString(match.protocol);
          if (match.protocol == ir::Protocol::kConnected) protocol = "direct";
          out += "                protocol " + protocol + ";\n";
          break;
        }
      }
    }
    out += "            }\n";
  }
  out += "            then {\n";
  for (const auto& set : clause.sets) {
    switch (set.kind) {
      case ir::RouteMapSet::Kind::kLocalPreference:
        out += "                local-preference " +
               std::to_string(set.value) + ";\n";
        break;
      case ir::RouteMapSet::Kind::kMetric:
        out += "                metric " + std::to_string(set.value) + ";\n";
        break;
      case ir::RouteMapSet::Kind::kTag:
        out += "                tag " + std::to_string(set.value) + ";\n";
        break;
      case ir::RouteMapSet::Kind::kNextHop:
        out += "                next-hop " + set.next_hop.ToString() + ";\n";
        break;
      case ir::RouteMapSet::Kind::kNextHopSelf:
        out += "                next-hop self;\n";
        break;
      case ir::RouteMapSet::Kind::kCommunitySet:
      case ir::RouteMapSet::Kind::kCommunityAdd:
      case ir::RouteMapSet::Kind::kCommunityDelete: {
        const char* operation =
            set.kind == ir::RouteMapSet::Kind::kCommunitySet ? "set"
            : set.kind == ir::RouteMapSet::Kind::kCommunityAdd ? "add"
                                                                : "delete";
        // Communities are set by named group; emit one single-member
        // reference per community (the member itself parses as a name).
        for (const auto& community : set.communities) {
          out += std::string("                community ") + operation + " " +
                 community.ToString() + ";\n";
        }
        break;
      }
    }
  }
  switch (clause.action) {
    case ir::ClauseAction::kPermit: out += "                accept;\n"; break;
    case ir::ClauseAction::kDeny: out += "                reject;\n"; break;
    case ir::ClauseAction::kFallThrough:
      out += "                next term;\n";
      break;
  }
  out += "            }\n        }\n";
  return out;
}

}  // namespace

std::string UnparsePrefixList(const ir::PrefixList& list) {
  std::string out = "    prefix-list " + list.name + " {\n";
  for (const auto& entry : list.entries) {
    out += "        " + entry.range.prefix().ToString() + ";\n";
  }
  return out + "    }\n";
}

std::string UnparseCommunity(const ir::CommunityList& list) {
  std::string out;
  int index = 0;
  for (const auto& entry : list.entries) {
    std::string name =
        list.entries.size() == 1 ? list.name
                                 : list.name + "__" + std::to_string(index++);
    out += "    community " + name + " members [";
    for (const auto& community : entry.all_of) {
      out += ' ';
      out += community.ToString();
    }
    out += " ];\n";
  }
  return out;
}

// JunOS policies fall through to the protocol default (accept in the BGP
// contexts Campion checks); an IR default-deny therefore needs an explicit
// final reject term to survive the round trip.
std::string DefaultActionTerm(const ir::RouteMap& map) {
  if (map.default_action != ir::ClauseAction::kDeny) return "";
  return "        term __implicit-deny__ {\n"
         "            then {\n"
         "                reject;\n"
         "            }\n"
         "        }\n";
}

std::string UnparsePolicyStatement(const ir::RouteMap& map) {
  std::string out = "    policy-statement " + map.name + " {\n";
  int index = 0;
  for (const auto& clause : map.clauses) {
    out += UnparseTerm(clause, nullptr, index++);
  }
  out += DefaultActionTerm(map);
  return out + "    }\n";
}

std::string UnparseFilter(const ir::Acl& acl) {
  std::string out = "        filter " + acl.name + " {\n";
  int index = 0;
  for (const auto& line : acl.lines) {
    out += "            term t" + std::to_string(index++) + " {\n";
    out += "                from {\n";
    // Dropping an unrepresentable address match would silently widen the
    // term to match-any; expand discontiguous wildcards into an OR of
    // prefixes instead, and leave a visible marker (like the deny-entry
    // case above) when the expansion is too large.
    auto address_match = [&out](const char* keyword,
                                const util::IpWildcard& w) {
      if (w.IsAny()) return;
      if (auto prefix = w.AsIpPrefix()) {
        out += std::string("                    ") + keyword + " " +
               prefix->ToString() + ";\n";
        return;
      }
      if (w.family() != util::AddressFamily::kIpv4) {
        // The 2^k-prefix expansion below is 32-bit; discontiguous 128-bit
        // wildcards (which no frontend produces) only get the marker.
        out += std::string("                    /* unrepresentable "
                           "wildcard ") +
               keyword + " " + w.ToString() + " */\n";
        return;
      }
      std::vector<util::IpPrefix> prefixes = ExpandWildcard(w, 256);
      if (prefixes.empty()) {
        out += std::string("                    /* unrepresentable "
                           "wildcard ") +
               keyword + " " + w.ToString() + " */\n";
        return;
      }
      for (const auto& prefix : prefixes) {
        out += std::string("                    ") + keyword + " " +
               prefix.ToString() + ";\n";
      }
    };
    address_match("source-address", line.src);
    address_match("destination-address", line.dst);
    if (line.protocol) {
      out += "                    protocol " +
             ir::ProtocolNumberToString(*line.protocol) + ";\n";
    }
    auto ports = [&](const char* keyword,
                     const std::vector<ir::PortRange>& ranges) {
      if (ranges.empty()) return;
      out += std::string("                    ") + keyword;
      for (const auto& r : ranges) {
        out += ' ';
        out += std::to_string(r.low);
        if (r.low != r.high) {
          out += '-';
          out += std::to_string(r.high);
        }
      }
      out += ";\n";
    };
    ports("source-port", line.src_ports);
    ports("destination-port", line.dst_ports);
    if (line.icmp_type) {
      out += "                    icmp-type " +
             std::to_string(*line.icmp_type) + ";\n";
    }
    if (line.established) {
      out += "                    tcp-established;\n";
    }
    out += "                }\n";
    out += std::string("                then ") +
           (line.action == ir::LineAction::kPermit ? "accept" : "discard") +
           ";\n";
    out += "            }\n";
  }
  return out + "        }\n";
}

std::string UnparseJuniperConfig(const ir::RouterConfig& config) {
  std::string out;
  out += "system {\n    host-name " +
         (config.hostname.empty() ? "router" : config.hostname) + ";\n}\n";

  if (!config.interfaces.empty()) {
    out += "interfaces {\n";
    // Group units under their physical interface.
    std::map<std::string, std::vector<const ir::Interface*>> physical;
    for (const auto& iface : config.interfaces) {
      auto dot = iface.name.find('.');
      physical[iface.name.substr(0, dot)].push_back(&iface);
    }
    for (const auto& [base, units] : physical) {
      out += "    " + base + " {\n";
      for (const ir::Interface* iface : units) {
        auto dot = iface->name.find('.');
        std::string unit =
            dot == std::string::npos ? "0" : iface->name.substr(dot + 1);
        out += "        unit " + unit + " {\n";
        if (iface->shutdown) out += "            disable;\n";
        if (iface->address) {
          out += "            family inet {\n                address " +
                 iface->address->ToString() + "/" +
                 std::to_string(iface->prefix_length) +
                 ";\n            }\n";
        }
        out += "        }\n";
      }
      out += "    }\n";
    }
    out += "}\n";
  }

  bool has_routing_options = !config.static_routes.empty() ||
                             (config.bgp && config.bgp->asn != 0);
  if (has_routing_options) {
    out += "routing-options {\n";
    if (config.bgp && config.bgp->router_id) {
      out += "    router-id " + config.bgp->router_id->ToString() + ";\n";
    }
    if (config.bgp && config.bgp->asn != 0) {
      out += "    autonomous-system " + std::to_string(config.bgp->asn) +
             ";\n";
    }
    if (!config.static_routes.empty()) {
      out += "    static {\n";
      for (const auto& route : config.static_routes) {
        out += "        route " + route.prefix.ToString() + " {\n";
        if (route.next_hop) {
          out += "            next-hop " + route.next_hop->ToString() + ";\n";
        } else if (!route.next_hop_interface.empty()) {
          out += "            next-hop " + route.next_hop_interface + ";\n";
        }
        if (route.admin_distance != 5) {
          out += "            preference " +
                 std::to_string(route.admin_distance) + ";\n";
        }
        if (route.tag) {
          out += "            tag " + std::to_string(*route.tag) + ";\n";
        }
        out += "        }\n";
      }
      out += "    }\n";
    }
    out += "}\n";
  }

  if (!config.prefix_lists.empty() || !config.community_lists.empty() ||
      !config.route_maps.empty()) {
    out += "policy-options {\n";
    for (const auto& [name, list] : config.prefix_lists) {
      // Anonymous route-filter lists are re-inlined by the policy below.
      if (name.starts_with("__route-filter-")) continue;
      if (IsExactPermitList(list)) {
        out += UnparsePrefixList(list);
      }
    }
    for (const auto& [name, list] : config.community_lists) {
      out += UnparseCommunity(list);
    }
    for (const auto& [name, list] : config.as_path_lists) {
      // JunOS as-path holds a single regex; multi-entry lists emit one
      // as-path-group-style name per entry, OR'd at the use site.
      if (list.entries.size() == 1) {
        out += "    as-path " + list.name + " \"" + list.entries[0].regex +
               "\";\n";
      } else {
        int index = 0;
        for (const auto& entry : list.entries) {
          out += "    as-path " + list.name + "__" + std::to_string(index++) +
                 " \"" + entry.regex + "\";\n";
        }
      }
    }
    for (const auto& [name, map] : config.route_maps) {
      out += "    policy-statement " + map.name + " {\n";
      int index = 0;
      for (const auto& clause : map.clauses) {
        out += UnparseTerm(clause, &config, index++);
      }
      out += DefaultActionTerm(map);
      out += "    }\n";
    }
    out += "}\n";
  }

  if (!config.acls.empty()) {
    out += "firewall {\n";
    for (util::AddressFamily family :
         {util::AddressFamily::kIpv4, util::AddressFamily::kIpv6}) {
      bool any = false;
      for (const auto& [name, acl] : config.acls) {
        if (acl.family != family) continue;
        if (!any) {
          out += family == util::AddressFamily::kIpv4
                     ? "    family inet {\n"
                     : "    family inet6 {\n";
          any = true;
        }
        out += UnparseFilter(acl);
      }
      if (any) out += "    }\n";
    }
    out += "}\n";
  }

  bool has_protocols = config.ospf.has_value() ||
                       (config.bgp && !config.bgp->neighbors.empty());
  if (has_protocols) {
    out += "protocols {\n";
    if (config.ospf) {
      out += "    ospf {\n";
      if (config.ospf->reference_bandwidth_mbps != 100) {
        out += "        reference-bandwidth " +
               std::to_string(config.ospf->reference_bandwidth_mbps) + "m;\n";
      }
      for (const auto& redist : config.ospf->redistributions) {
        if (!redist.route_map.empty()) {
          out += "        export " + redist.route_map + ";\n";
          break;  // JunOS takes one export chain; first map wins here.
        }
      }
      // Group OSPF interfaces by area.
      std::map<std::uint32_t, std::vector<const ir::Interface*>> areas;
      for (const auto& iface : config.interfaces) {
        if (iface.ospf_enabled) {
          areas[iface.ospf_area.value_or(0)].push_back(&iface);
        }
      }
      for (const auto& [area, ifaces] : areas) {
        out += "        area " + util::Ipv4Address(area).ToString() + " {\n";
        for (const ir::Interface* iface : ifaces) {
          // The interfaces block emits unit-qualified names ("xe-0/0/0.0");
          // OSPF must reference the same logical unit or a re-parse sees a
          // phantom interface.
          std::string unit_name =
              iface->name.find('.') == std::string::npos ? iface->name + ".0"
                                                         : iface->name;
          out += "            interface " + unit_name + " {\n";
          if (iface->ospf_cost) {
            out += "                metric " +
                   std::to_string(*iface->ospf_cost) + ";\n";
          }
          if (iface->ospf_passive) out += "                passive;\n";
          out += "            }\n";
        }
        out += "        }\n";
      }
      out += "    }\n";
    }
    if (config.bgp && !config.bgp->neighbors.empty()) {
      out += "    bgp {\n";
      // Dialect extension (see DESIGN.md): JunOS expresses origination via
      // export policies over direct routes; to round-trip the IR's network
      // statements we emit them directly, and the parser reads them back.
      for (const auto& network : config.bgp->networks) {
        out += "        network " + network.ToString() + ";\n";
      }
      // One group per (internal/external, remote AS, reflector-client).
      struct GroupKey {
        bool internal;
        std::uint32_t remote_as;
        bool cluster;
        auto operator<=>(const GroupKey&) const = default;
      };
      std::map<GroupKey, std::vector<const ir::BgpNeighbor*>> groups;
      for (const auto& neighbor : config.bgp->neighbors) {
        groups[{neighbor.remote_as == config.bgp->asn, neighbor.remote_as,
                neighbor.route_reflector_client}]
            .push_back(&neighbor);
      }
      int group_index = 0;
      for (const auto& [key, neighbors] : groups) {
        out += "        group g" + std::to_string(group_index++) + " {\n";
        out += std::string("            type ") +
               (key.internal ? "internal" : "external") + ";\n";
        if (!key.internal) {
          out += "            peer-as " + std::to_string(key.remote_as) +
                 ";\n";
        }
        if (key.cluster && config.bgp->router_id) {
          out += "            cluster " + config.bgp->router_id->ToString() +
                 ";\n";
        } else if (key.cluster) {
          out += "            cluster 0.0.0.1;\n";
        }
        for (const ir::BgpNeighbor* neighbor : neighbors) {
          out += "            neighbor " + neighbor->ip.ToString() + " {\n";
          if (!neighbor->description.empty()) {
            out += "                description \"" + neighbor->description +
                   "\";\n";
          }
          if (!neighbor->import_policy.empty()) {
            out += "                import " + neighbor->import_policy +
                   ";\n";
          }
          if (!neighbor->export_policy.empty()) {
            out += "                export " + neighbor->export_policy +
                   ";\n";
          }
          out += "            }\n";
        }
        out += "        }\n";
      }
      out += "    }\n";
    }
    out += "}\n";
  }
  return out;
}

}  // namespace campion::juniper
