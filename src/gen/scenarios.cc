#include "gen/scenarios.h"

#include "gen/acl_gen.h"

namespace campion::gen {
namespace {

using util::Community;
using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

// --- small IR construction helpers -----------------------------------------

ir::PrefixList MakePrefixList(const std::string& name,
                              std::vector<PrefixRange> ranges) {
  ir::PrefixList list;
  list.name = name;
  for (const auto& range : ranges) {
    list.entries.push_back({ir::LineAction::kPermit, range, {}});
  }
  return list;
}

ir::CommunityList MakeOrCommunityList(const std::string& name,
                                      std::vector<Community> communities) {
  ir::CommunityList list;
  list.name = name;
  for (const auto& community : communities) {
    list.entries.push_back({ir::LineAction::kPermit, {community}, {}});
  }
  return list;
}

ir::CommunityList MakeAndCommunityList(const std::string& name,
                                       std::vector<Community> communities) {
  ir::CommunityList list;
  list.name = name;
  list.entries.push_back(
      {ir::LineAction::kPermit, std::move(communities), {}});
  return list;
}

ir::RouteMapMatch MatchPrefixList(const std::string& name) {
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kPrefixList;
  match.names = {name};
  return match;
}

ir::RouteMapMatch MatchCommunityList(const std::string& name) {
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kCommunityList;
  match.names = {name};
  return match;
}

ir::RouteMapSet SetLocalPref(std::uint32_t value) {
  ir::RouteMapSet set;
  set.kind = ir::RouteMapSet::Kind::kLocalPreference;
  set.value = value;
  return set;
}

ir::RouteMapSet SetCommunity(std::vector<Community> communities) {
  ir::RouteMapSet set;
  set.kind = ir::RouteMapSet::Kind::kCommunitySet;
  set.communities = std::move(communities);
  return set;
}

ir::RouteMapClause Clause(int seq, ir::ClauseAction action,
                          std::vector<ir::RouteMapMatch> matches,
                          std::vector<ir::RouteMapSet> sets = {}) {
  ir::RouteMapClause clause;
  clause.sequence = seq;
  clause.action = action;
  clause.matches = std::move(matches);
  clause.sets = std::move(sets);
  return clause;
}

ir::RouteMap MakeRouteMap(const std::string& name,
                          std::vector<ir::RouteMapClause> clauses,
                          ir::ClauseAction default_action) {
  ir::RouteMap map;
  map.name = name;
  map.clauses = std::move(clauses);
  map.default_action = default_action;
  return map;
}

ir::StaticRoute MakeStatic(const IpPrefix& prefix, Ipv4Address next_hop,
                           int distance = 1,
                           std::optional<std::uint32_t> tag = std::nullopt) {
  ir::StaticRoute route;
  route.prefix = prefix;
  route.next_hop = next_hop;
  route.admin_distance = distance;
  route.tag = tag;
  return route;
}

ir::Interface MakeInterface(const std::string& name, Ipv4Address address,
                            int length) {
  ir::Interface iface;
  iface.name = name;
  iface.address = address;
  iface.prefix_length = length;
  return iface;
}

ir::BgpNeighbor MakeNeighbor(Ipv4Address ip, std::uint32_t remote_as,
                             const std::string& import_policy,
                             const std::string& export_policy) {
  ir::BgpNeighbor neighbor;
  neighbor.ip = ip;
  neighbor.remote_as = remote_as;
  neighbor.import_policy = import_policy;
  neighbor.export_policy = export_policy;
  neighbor.send_community = true;
  return neighbor;
}

// --- data center base router -------------------------------------------------

// A Top-of-Rack router: two spine uplinks (eBGP), service prefixes
// announced through an export policy, an import filter on service ranges,
// and a couple of static routes toward management.
ir::RouterConfig MakeTorRouter(int index, ir::Vendor vendor) {
  ir::RouterConfig config;
  config.vendor = vendor;
  config.hostname = (vendor == ir::Vendor::kCisco ? "tor-c-" : "tor-j-") +
                    std::to_string(index);

  std::uint8_t rack = static_cast<std::uint8_t>(index);
  config.interfaces.push_back(MakeInterface(
      vendor == ir::Vendor::kCisco ? "Ethernet1" : "xe-0/0/0.0",
      Ipv4Address(10, 200, rack, 1), 31));
  config.interfaces.push_back(MakeInterface(
      vendor == ir::Vendor::kCisco ? "Ethernet2" : "xe-0/0/1.0",
      Ipv4Address(10, 201, rack, 1), 31));
  config.interfaces.push_back(MakeInterface(
      vendor == ir::Vendor::kCisco ? "Vlan100" : "irb.100",
      Ipv4Address(10, 1, rack, 1), 24));

  config.prefix_lists["PL-SERVICES"] = MakePrefixList(
      "PL-SERVICES", {PrefixRange(IpPrefix(Ipv4Address(10, 1, rack, 0), 24)),
                      PrefixRange(IpPrefix(Ipv4Address(10, 2, rack, 0), 24)),
                      PrefixRange(IpPrefix(Ipv4Address(10, 3, rack, 0), 24))});
  // The export side announces the same ranges through its own list, so an
  // import-filter bug stays localized to the import policy.
  config.prefix_lists["PL-ANNOUNCE"] = MakePrefixList(
      "PL-ANNOUNCE", {PrefixRange(IpPrefix(Ipv4Address(10, 1, rack, 0), 24)),
                      PrefixRange(IpPrefix(Ipv4Address(10, 2, rack, 0), 24)),
                      PrefixRange(IpPrefix(Ipv4Address(10, 3, rack, 0), 24))});
  config.prefix_lists["PL-DEFAULT"] = MakePrefixList(
      "PL-DEFAULT", {PrefixRange(IpPrefix(Ipv4Address(0, 0, 0, 0), 0))});
  config.community_lists["CL-DC"] =
      MakeOrCommunityList("CL-DC", {Community(65000, 100)});

  config.route_maps["IMPORT-POL"] = MakeRouteMap(
      "IMPORT-POL",
      {Clause(10, ir::ClauseAction::kPermit, {MatchPrefixList("PL-DEFAULT")},
              {SetLocalPref(100)}),
       Clause(20, ir::ClauseAction::kPermit, {MatchPrefixList("PL-SERVICES")},
              {SetLocalPref(200)})},
      ir::ClauseAction::kDeny);
  config.route_maps["EXPORT-POL"] = MakeRouteMap(
      "EXPORT-POL",
      {Clause(10, ir::ClauseAction::kPermit, {MatchPrefixList("PL-ANNOUNCE")},
              {SetCommunity({Community(65000, 100)})})},
      ir::ClauseAction::kDeny);

  ir::BgpProcess bgp;
  bgp.asn = 65100u + static_cast<std::uint32_t>(index);
  bgp.router_id = Ipv4Address(10, 1, rack, 1);
  bgp.networks = {IpPrefix(Ipv4Address(10, 1, rack, 0), 24)};
  bgp.neighbors.push_back(MakeNeighbor(Ipv4Address(10, 200, rack, 0), 65000,
                                       "IMPORT-POL", "EXPORT-POL"));
  bgp.neighbors.push_back(MakeNeighbor(Ipv4Address(10, 201, rack, 0), 65000,
                                       "IMPORT-POL", "EXPORT-POL"));
  config.bgp = std::move(bgp);

  config.static_routes.push_back(MakeStatic(
      IpPrefix(Ipv4Address(10, 250, rack, 0), 24),
      Ipv4Address(10, 200, rack, 0)));
  config.static_routes.push_back(MakeStatic(
      IpPrefix(Ipv4Address(10, 251, rack, 0), 24),
      Ipv4Address(10, 201, rack, 0)));
  return config;
}

// An iBGP route reflector, for the replacement scenario's severe-outage bug.
ir::RouterConfig MakeReflectorRouter(ir::Vendor vendor) {
  ir::RouterConfig config;
  config.vendor = vendor;
  config.hostname = vendor == ir::Vendor::kCisco ? "rr-c" : "rr-j";
  config.interfaces.push_back(MakeInterface(
      vendor == ir::Vendor::kCisco ? "Loopback0" : "lo0.0",
      Ipv4Address(10, 255, 0, 1), 32));

  config.prefix_lists["PL-INFRA"] = MakePrefixList(
      "PL-INFRA", {PrefixRange(IpPrefix(Ipv4Address(10, 0, 0, 0), 8), 8, 24)});
  config.route_maps["RR-EXPORT"] = MakeRouteMap(
      "RR-EXPORT",
      {Clause(10, ir::ClauseAction::kPermit, {MatchPrefixList("PL-INFRA")},
              {SetLocalPref(200)})},
      ir::ClauseAction::kDeny);

  ir::BgpProcess bgp;
  bgp.asn = 65000;
  bgp.router_id = Ipv4Address(10, 255, 0, 1);
  for (int i = 0; i < 4; ++i) {
    ir::BgpNeighbor client = MakeNeighbor(
        Ipv4Address(10, 255, 1, static_cast<std::uint8_t>(i + 1)), 65000, "",
        "RR-EXPORT");
    client.route_reflector_client = true;
    bgp.neighbors.push_back(std::move(client));
  }
  config.bgp = std::move(bgp);
  return config;
}

// A gateway router with an access-control filter (scenario 3).
ir::RouterConfig MakeGatewayRouter(int index, ir::Vendor vendor,
                                   const ir::Acl& acl) {
  ir::RouterConfig config = WrapAclInConfig(
      acl,
      (vendor == ir::Vendor::kCisco ? "gw-c-" : "gw-j-") +
          std::to_string(index),
      vendor);
  return config;
}

// The "translation" of a config to the other vendor: identical IR with the
// vendor tag and hostname changed — exactly what a correct manual
// translation achieves.
ir::RouterConfig TranslateToJuniper(const ir::RouterConfig& cisco,
                                    const std::string& hostname) {
  ir::RouterConfig juniper = cisco;
  juniper.vendor = ir::Vendor::kJuniper;
  juniper.hostname = hostname;
  return juniper;
}

// Pads both routers of a pair with `count` behaviorally identical
// components, deterministically derived from the index: the two sides stay
// equivalent while the unparsed text grows toward realistic sizes.
void AddFillerComponents(ir::RouterConfig& a, ir::RouterConfig& b,
                         int count) {
  auto add_to_both = [&](auto&& fn) {
    fn(a);
    fn(b);
  };
  // Prefix-list entries, 16 per list.
  for (int i = 0; i < count / 2; ++i) {
    std::string list_name = "PL-FILLER-" + std::to_string(i / 16);
    PrefixRange range(
        IpPrefix(Ipv4Address(172, static_cast<std::uint8_t>(16 + i / 256),
                             static_cast<std::uint8_t>(i % 256), 0),
                 24),
        24, 24 + (i % 9));
    add_to_both([&](ir::RouterConfig& config) {
      auto [it, inserted] = config.prefix_lists.try_emplace(list_name);
      if (inserted) it->second.name = list_name;
      it->second.entries.push_back({ir::LineAction::kPermit, range, {}});
    });
  }
  // Static routes toward a management pod.
  for (int i = 0; i < count / 4; ++i) {
    ir::StaticRoute route = MakeStatic(
        IpPrefix(Ipv4Address(10, 240, static_cast<std::uint8_t>(i % 256),
                             0),
                 24),
        Ipv4Address(10, 254, 0, static_cast<std::uint8_t>(1 + i % 200)));
    add_to_both(
        [&](ir::RouterConfig& config) { config.static_routes.push_back(route); });
  }
  // Access interfaces on shared subnets.
  for (int i = 0; i < count / 8; ++i) {
    std::uint8_t octet = static_cast<std::uint8_t>(i % 250);
    a.interfaces.push_back(MakeInterface(
        "Vlan" + std::to_string(100 + i), Ipv4Address(10, 230, octet, 2),
        24));
    b.interfaces.push_back(MakeInterface(
        "irb." + std::to_string(100 + i), Ipv4Address(10, 230, octet, 3),
        24));
  }
  // One sizeable, identical dataplane filter.
  if (count > 0) {
    ir::Acl acl;
    acl.name = "EDGE-PROTECT";
    for (int i = 0; i < count / 4; ++i) {
      ir::AclLine line;
      line.action =
          i % 5 == 0 ? ir::LineAction::kDeny : ir::LineAction::kPermit;
      line.protocol = i % 3 == 0 ? std::optional<std::uint8_t>(ir::kProtoTcp)
                                 : std::nullopt;
      line.src = util::IpWildcard(
          IpPrefix(Ipv4Address(10, static_cast<std::uint8_t>(i % 200), 0, 0),
                   16));
      line.dst = util::IpWildcard(IpPrefix(
          Ipv4Address(10, 230, static_cast<std::uint8_t>(i % 250), 0), 24));
      if (line.protocol == ir::kProtoTcp) {
        line.dst_ports.push_back(
            {static_cast<std::uint16_t>(1024 + i),
             static_cast<std::uint16_t>(1024 + i)});
      }
      acl.lines.push_back(std::move(line));
    }
    add_to_both([&](ir::RouterConfig& config) { config.acls[acl.name] = acl; });
  }
}

}  // namespace

DataCenterScenario BuildDataCenterScenario(std::uint64_t seed) {
  DataCenterScenario scenario;

  // ---- Scenario 1: redundant ToR pairs ------------------------------------
  for (int i = 0; i < 8; ++i) {
    RouterPair pair;
    pair.label = "redundant-tor-" + std::to_string(i);
    pair.config1 = MakeTorRouter(i, ir::Vendor::kCisco);
    pair.config2 = MakeTorRouter(i, ir::Vendor::kJuniper);
    scenario.redundant_pairs.push_back(std::move(pair));
  }
  // Five missing-BGP-policy-fragment bugs across the pairs.
  {
    // Pair 0: a service prefix missing from the backup's import filter.
    auto& lists = scenario.redundant_pairs[0].config2.prefix_lists;
    lists["PL-SERVICES"].entries.pop_back();
    scenario.redundant_pairs[0].injected.push_back(
        "BGP: prefix missing from PL-SERVICES in backup import filter");

    // Pair 1: same class of bug on the primary side.
    auto& lists1 = scenario.redundant_pairs[1].config1.prefix_lists;
    lists1["PL-SERVICES"].entries.erase(lists1["PL-SERVICES"].entries.begin());
    scenario.redundant_pairs[1].injected.push_back(
        "BGP: prefix missing from PL-SERVICES in primary import filter");

    // Pair 2: whole clause missing from the backup's import policy.
    auto& map2 = scenario.redundant_pairs[2].config2.route_maps["IMPORT-POL"];
    map2.clauses.pop_back();
    scenario.redundant_pairs[2].injected.push_back(
        "BGP: clause 20 missing from IMPORT-POL in backup");

    // Pair 3: wrong local preference in the backup's import policy.
    auto& map3 = scenario.redundant_pairs[3].config2.route_maps["IMPORT-POL"];
    map3.clauses[1].sets[0].value = 150;
    scenario.redundant_pairs[3].injected.push_back(
        "BGP: local preference 200 vs 150 in IMPORT-POL clause 20");

    // Pair 4: export tags the wrong community.
    auto& map4 = scenario.redundant_pairs[4].config2.route_maps["EXPORT-POL"];
    map4.clauses[0].sets[0].communities = {Community(65000, 101)};
    scenario.redundant_pairs[4].injected.push_back(
        "BGP: EXPORT-POL sets community 65000:101 instead of 65000:100");
  }
  scenario.scenario1_bgp_bugs = 5;
  // Two static-route next-hop bugs.
  {
    scenario.redundant_pairs[5].config2.static_routes[0].next_hop =
        Ipv4Address(10, 201, 5, 0);  // Should be 10.200.5.0.
    scenario.redundant_pairs[5].injected.push_back(
        "static: wrong next hop for 10.250.5.0/24");
    scenario.redundant_pairs[6].config2.static_routes[1].next_hop =
        Ipv4Address(10, 200, 6, 0);  // Should be 10.201.6.0.
    scenario.redundant_pairs[6].injected.push_back(
        "static: wrong next hop for 10.251.6.0/24");
  }
  scenario.scenario1_static_bugs = 2;

  // ---- Scenario 2: router replacements --------------------------------------
  for (int i = 0; i < 30; ++i) {
    RouterPair pair;
    pair.label = "replacement-" + std::to_string(i);
    if (i == 12) {
      // The route reflector replacement (the severe-outage candidate).
      pair.config1 = MakeReflectorRouter(ir::Vendor::kCisco);
      pair.config2 = TranslateToJuniper(pair.config1, "rr-j");
      pair.config2.vendor = ir::Vendor::kJuniper;
    } else {
      pair.config1 = MakeTorRouter(100 + i, ir::Vendor::kCisco);
      pair.config2 =
          TranslateToJuniper(pair.config1, "tor-j-" + std::to_string(100 + i));
    }
    scenario.replacements.push_back(std::move(pair));
  }
  {
    // Bug 1: wrong community number in the translated export policy.
    auto& map = scenario.replacements[3].config2.route_maps["EXPORT-POL"];
    map.clauses[0].sets[0].communities = {Community(65000, 10)};
    scenario.replacements[3].injected.push_back(
        "BGP: community 65000:10 instead of 65000:100 after translation");

    // Bugs 2 and 3: wrong local preferences in translated import policies.
    auto& map8 = scenario.replacements[8].config2.route_maps["IMPORT-POL"];
    map8.clauses[0].sets[0].value = 110;
    scenario.replacements[8].injected.push_back(
        "BGP: local preference 100 vs 110 after translation");
    auto& map21 = scenario.replacements[21].config2.route_maps["IMPORT-POL"];
    map21.clauses[1].sets[0].value = 20;
    scenario.replacements[21].injected.push_back(
        "BGP: local preference 200 vs 20 after translation");

    // Bug 4: the route reflector's export policy loses its local
    // preference — the would-have-been severe outage.
    auto& rr = scenario.replacements[12].config2.route_maps["RR-EXPORT"];
    rr.clauses[0].sets[0].value = 100;
    scenario.replacements[12].injected.push_back(
        "BGP: reflector export local preference 200 vs 100 (severe)");
  }
  scenario.scenario2_bgp_bugs = 4;

  // ---- Scenario 3: gateway ACLs ----------------------------------------------
  AclGenOptions acl_options;
  acl_options.rules = 60;
  acl_options.seed = seed;
  acl_options.differences = 0;
  acl_options.name = "VM_FILTER_1";
  for (int i = 0; i < 4; ++i) {
    acl_options.seed = seed + static_cast<std::uint64_t>(i);
    GeneratedAclPair generated = GenerateAclPair(acl_options);
    RouterPair pair;
    pair.label = "gateway-" + std::to_string(i);
    pair.config1 =
        MakeGatewayRouter(i, ir::Vendor::kCisco, generated.acl1);
    pair.config2 =
        MakeGatewayRouter(i, ir::Vendor::kJuniper, generated.acl2);
    scenario.gateway_pairs.push_back(std::move(pair));
  }
  {
    // Three ACL differences. Each is injected at the top of the filter so
    // it cannot be shadowed by an earlier line and is guaranteed to be a
    // behavioral difference.

    // (1) The first line's action is flipped.
    auto& acl0 = scenario.gateway_pairs[0].config2.acls["VM_FILTER_1"];
    acl0.lines[0].action = acl0.lines[0].action == ir::LineAction::kPermit
                               ? ir::LineAction::kDeny
                               : ir::LineAction::kPermit;
    scenario.gateway_pairs[0].injected.push_back(
        "ACL: flipped action on the first line");

    // (2) A permit for management traffic outside the filter's network
    // pool (the reference implicitly denies it).
    auto& acl1 = scenario.gateway_pairs[1].config2.acls["VM_FILTER_1"];
    ir::AclLine extra;
    extra.action = ir::LineAction::kPermit;
    extra.src = util::IpWildcard(IpPrefix(Ipv4Address(172, 31, 0, 0), 16));
    extra.dst = util::IpWildcard(IpPrefix(Ipv4Address(172, 31, 0, 0), 16));
    acl1.lines.insert(acl1.lines.begin(), extra);
    scenario.gateway_pairs[1].injected.push_back(
        "ACL: extra permit for 172.31.0.0/16 management traffic");

    // (3) The first line is shadowed by a copy with the opposite action.
    auto& acl2 = scenario.gateway_pairs[2].config2.acls["VM_FILTER_1"];
    ir::AclLine shadow = acl2.lines[0];
    shadow.action = shadow.action == ir::LineAction::kPermit
                        ? ir::LineAction::kDeny
                        : ir::LineAction::kPermit;
    acl2.lines.insert(acl2.lines.begin(), shadow);
    scenario.gateway_pairs[2].injected.push_back(
        "ACL: first line shadowed by opposite action");
  }
  scenario.scenario3_acl_bugs = 3;

  return scenario;
}

UniversityScenario BuildUniversityScenario(int filler_components) {
  UniversityScenario scenario;
  scenario.core_exports = {"EXPORT-1", "EXPORT-2"};
  scenario.border_exports = {"EXPORT-3", "EXPORT-4", "EXPORT-5"};
  scenario.import_policy = "IMPORT-CORE";

  const PrefixRange nets_window1(IpPrefix(Ipv4Address(10, 9, 0, 0), 16), 16,
                                 32);
  const PrefixRange nets_window2(IpPrefix(Ipv4Address(10, 100, 0, 0), 16), 16,
                                 32);
  const PrefixRange nets_exact1(IpPrefix(Ipv4Address(10, 9, 0, 0), 16));
  const PrefixRange nets_exact2(IpPrefix(Ipv4Address(10, 100, 0, 0), 16));
  const PrefixRange pl3_range(IpPrefix(Ipv4Address(192, 168, 0, 0), 16), 16,
                              24);

  // ---- Core pair --------------------------------------------------------------
  ir::RouterConfig& cisco = scenario.core.config1;
  ir::RouterConfig& juniper = scenario.core.config2;
  scenario.core.label = "core-routers";
  cisco.vendor = ir::Vendor::kCisco;
  cisco.hostname = "core-cisco";
  juniper.vendor = ir::Vendor::kJuniper;
  juniper.hostname = "core-juniper";

  cisco.interfaces.push_back(
      MakeInterface("TenGigE0/0/0", Ipv4Address(10, 0, 1, 1), 24));
  juniper.interfaces.push_back(
      MakeInterface("xe-0/0/0.0", Ipv4Address(10, 0, 1, 2), 24));

  // Prefix lists: the Figure 1 window error.
  cisco.prefix_lists["NETS"] =
      MakePrefixList("NETS", {nets_window1, nets_window2});
  juniper.prefix_lists["NETS"] =
      MakePrefixList("NETS", {nets_exact1, nets_exact2});
  cisco.prefix_lists["PL3"] = MakePrefixList("PL3", {pl3_range});
  juniper.prefix_lists["PL3"] = MakePrefixList("PL3", {pl3_range});

  // Community lists: the OR vs AND error, plus the third-clause community.
  cisco.community_lists["COMM"] = MakeOrCommunityList(
      "COMM", {Community(10, 10), Community(10, 11)});
  juniper.community_lists["COMM"] = MakeAndCommunityList(
      "COMM", {Community(10, 10), Community(10, 11)});
  juniper.community_lists["C3"] =
      MakeOrCommunityList("C3", {Community(10, 30)});

  // EXPORT-1: five raw differences (window, AND/OR, third-clause community,
  // set-vs-no-set on PL3, and fall-through accept vs deny).
  cisco.route_maps["EXPORT-1"] = MakeRouteMap(
      "EXPORT-1",
      {Clause(10, ir::ClauseAction::kDeny, {MatchPrefixList("NETS")}),
       Clause(20, ir::ClauseAction::kDeny, {MatchCommunityList("COMM")}),
       Clause(30, ir::ClauseAction::kPermit, {MatchPrefixList("PL3")},
              {SetLocalPref(30)})},
      ir::ClauseAction::kDeny);
  juniper.route_maps["EXPORT-1"] = MakeRouteMap(
      "EXPORT-1",
      {Clause(10, ir::ClauseAction::kDeny, {MatchPrefixList("NETS")}),
       Clause(20, ir::ClauseAction::kDeny, {MatchCommunityList("COMM")}),
       Clause(30, ir::ClauseAction::kPermit,
              {MatchPrefixList("PL3"), MatchCommunityList("C3")},
              {SetLocalPref(30)})},
      ir::ClauseAction::kPermit);

  // EXPORT-2: only the prefix-window error.
  cisco.route_maps["EXPORT-2"] = MakeRouteMap(
      "EXPORT-2",
      {Clause(10, ir::ClauseAction::kDeny, {MatchPrefixList("NETS")}),
       Clause(20, ir::ClauseAction::kPermit, {})},
      ir::ClauseAction::kDeny);
  juniper.route_maps["EXPORT-2"] = MakeRouteMap(
      "EXPORT-2",
      {Clause(10, ir::ClauseAction::kDeny, {MatchPrefixList("NETS")}),
       Clause(20, ir::ClauseAction::kPermit, {})},
      ir::ClauseAction::kPermit);

  // IMPORT-CORE: identical on both sides (0 differences). It references
  // PL3, which is defined identically in both configurations — a map that
  // referenced NETS would inherit the prefix-window difference.
  for (ir::RouterConfig* config : {&cisco, &juniper}) {
    config->route_maps["IMPORT-CORE"] = MakeRouteMap(
        "IMPORT-CORE",
        {Clause(10, ir::ClauseAction::kDeny, {MatchPrefixList("PL3")}),
         Clause(20, ir::ClauseAction::kPermit, {}, {SetLocalPref(120)})},
        ir::ClauseAction::kDeny);
  }

  // Static routes: one prefix with differing next hops and admin distances
  // (the intentional class), and two workaround routes present only on the
  // Cisco side (the §2.2 class).
  cisco.static_routes.push_back(
      MakeStatic(IpPrefix(Ipv4Address(172, 16, 1, 0), 24),
                 Ipv4Address(10, 0, 1, 254), 1));
  juniper.static_routes.push_back(
      MakeStatic(IpPrefix(Ipv4Address(172, 16, 1, 0), 24),
                 Ipv4Address(10, 0, 1, 253), 5));
  cisco.static_routes.push_back(MakeStatic(
      IpPrefix(Ipv4Address(10, 1, 1, 2), 31), Ipv4Address(10, 2, 2, 2), 1));
  cisco.static_routes.push_back(MakeStatic(
      IpPrefix(Ipv4Address(10, 1, 1, 4), 31), Ipv4Address(10, 2, 2, 2), 1));

  // BGP: two external neighbors carrying the export policies, one import
  // pair, and the send-community property difference on the iBGP neighbors
  // (Cisco missing the send-community command; JunOS sends by default).
  {
    ir::BgpProcess bgp;
    bgp.asn = 64700;
    bgp.router_id = Ipv4Address(10, 0, 1, 1);
    bgp.neighbors.push_back(
        MakeNeighbor(Ipv4Address(10, 0, 2, 1), 64701, "", "EXPORT-1"));
    bgp.neighbors.push_back(
        MakeNeighbor(Ipv4Address(10, 0, 3, 1), 64702, "IMPORT-CORE",
                     "EXPORT-2"));
    ir::BgpNeighbor ibgp1 =
        MakeNeighbor(Ipv4Address(10, 0, 10, 1), 64700, "", "");
    ir::BgpNeighbor ibgp2 =
        MakeNeighbor(Ipv4Address(10, 0, 10, 2), 64700, "", "");
    ibgp1.send_community = false;  // The missing neighbor send-community.
    ibgp2.send_community = false;
    bgp.neighbors.push_back(std::move(ibgp1));
    bgp.neighbors.push_back(std::move(ibgp2));
    cisco.bgp = bgp;

    ir::BgpProcess jbgp = bgp;
    jbgp.router_id = Ipv4Address(10, 0, 1, 2);
    for (auto& neighbor : jbgp.neighbors) neighbor.send_community = true;
    juniper.bgp = std::move(jbgp);
  }
  scenario.core.injected = {
      "EXPORT-1: prefix window 16-32 vs exact (Fig.1 difference 1)",
      "EXPORT-1: community OR vs AND (Fig.1 difference 2)",
      "EXPORT-1: third clause matches community C3 only on Juniper",
      "EXPORT-1/2: fall-through deny (Cisco) vs accept (Juniper)",
      "static: 172.16.1.0/24 next-hop/AD differ (intentional)",
      "static: two workaround routes only on Cisco (intentional)",
      "BGP: iBGP neighbors missing send-community on Cisco",
  };

  // ---- Border pair ---------------------------------------------------------------
  ir::RouterConfig& border_cisco = scenario.border.config1;
  ir::RouterConfig& border_juniper = scenario.border.config2;
  scenario.border.label = "border-routers";
  border_cisco.vendor = ir::Vendor::kCisco;
  border_cisco.hostname = "border-cisco";
  border_juniper.vendor = ir::Vendor::kJuniper;
  border_juniper.hostname = "border-juniper";

  border_cisco.interfaces.push_back(
      MakeInterface("TenGigE0/1/0", Ipv4Address(192, 0, 2, 1), 30));
  border_juniper.interfaces.push_back(
      MakeInterface("xe-0/1/0.0", Ipv4Address(192, 0, 2, 2), 30));

  // EXPORT-3: the community "regex" error — Cisco matches 65000:100 alone,
  // the Juniper expression additionally requires 65000:101.
  border_cisco.community_lists["CL3"] =
      MakeOrCommunityList("CL3", {Community(65000, 100)});
  border_juniper.community_lists["CL3"] = MakeAndCommunityList(
      "CL3", {Community(65000, 100), Community(65000, 101)});
  for (ir::RouterConfig* config : {&border_cisco, &border_juniper}) {
    config->route_maps["EXPORT-3"] = MakeRouteMap(
        "EXPORT-3",
        {Clause(10, ir::ClauseAction::kPermit, {MatchCommunityList("CL3")}),
         Clause(20, ir::ClauseAction::kDeny, {})},
        ir::ClauseAction::kDeny);
  }

  // EXPORT-4: Cisco accepts either of two communities, Juniper only one.
  border_cisco.community_lists["CL4"] = MakeOrCommunityList(
      "CL4", {Community(65000, 200), Community(65000, 201)});
  border_juniper.community_lists["CL4"] =
      MakeOrCommunityList("CL4", {Community(65000, 200)});
  for (ir::RouterConfig* config : {&border_cisco, &border_juniper}) {
    config->route_maps["EXPORT-4"] = MakeRouteMap(
        "EXPORT-4",
        {Clause(10, ir::ClauseAction::kDeny, {MatchCommunityList("CL4")}),
         Clause(20, ir::ClauseAction::kPermit, {})},
        ir::ClauseAction::kDeny);
  }

  // EXPORT-5: one prefix absent from the Juniper list; the differing
  // fall-through contributes a second raw output for the same issue.
  border_cisco.prefix_lists["PL5"] = MakePrefixList(
      "PL5", {PrefixRange(IpPrefix(Ipv4Address(198, 51, 100, 0), 24)),
              PrefixRange(IpPrefix(Ipv4Address(203, 0, 113, 0), 24)),
              PrefixRange(IpPrefix(Ipv4Address(198, 18, 0, 0), 15))});
  border_juniper.prefix_lists["PL5"] = MakePrefixList(
      "PL5", {PrefixRange(IpPrefix(Ipv4Address(198, 51, 100, 0), 24)),
              PrefixRange(IpPrefix(Ipv4Address(203, 0, 113, 0), 24))});
  border_cisco.route_maps["EXPORT-5"] = MakeRouteMap(
      "EXPORT-5",
      {Clause(10, ir::ClauseAction::kPermit, {MatchPrefixList("PL5")},
              {SetLocalPref(40)})},
      ir::ClauseAction::kDeny);
  border_juniper.route_maps["EXPORT-5"] = MakeRouteMap(
      "EXPORT-5",
      {Clause(10, ir::ClauseAction::kPermit, {MatchPrefixList("PL5")},
              {SetLocalPref(40)})},
      ir::ClauseAction::kPermit);

  for (ir::RouterConfig* config : {&border_cisco, &border_juniper}) {
    ir::BgpProcess bgp;
    bgp.asn = 64700;
    bgp.router_id = config == &border_cisco ? Ipv4Address(192, 0, 2, 1)
                                            : Ipv4Address(192, 0, 2, 2);
    bgp.neighbors.push_back(
        MakeNeighbor(Ipv4Address(192, 0, 2, 9), 3356, "", "EXPORT-3"));
    bgp.neighbors.push_back(
        MakeNeighbor(Ipv4Address(192, 0, 2, 13), 174, "", "EXPORT-4"));
    bgp.neighbors.push_back(
        MakeNeighbor(Ipv4Address(192, 0, 2, 17), 6939, "", "EXPORT-5"));
    config->bgp = std::move(bgp);
  }
  scenario.border.injected = {
      "EXPORT-3: community expression requires both tags on Juniper",
      "EXPORT-4: community 65000:201 accepted only by Cisco",
      "EXPORT-5: prefix 198.18.0.0/15 missing from Juniper PL5",
  };

  if (filler_components > 0) {
    AddFillerComponents(scenario.core.config1, scenario.core.config2,
                        filler_components);
    AddFillerComponents(scenario.border.config1, scenario.border.config2,
                        filler_components);
  }
  return scenario;
}

}  // namespace campion::gen
