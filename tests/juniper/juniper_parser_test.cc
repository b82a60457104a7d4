#include "juniper/juniper_parser.h"

#include <gtest/gtest.h>

namespace campion::juniper {
namespace {

using util::Community;
using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

ir::RouterConfig Parse(const std::string& text) {
  return ParseJuniperConfig(text, "test.conf").config;
}

TEST(JuniperParserTest, HostnameAndVendor) {
  auto config = Parse("system { host-name core-j; }\n");
  EXPECT_EQ(config.hostname, "core-j");
  EXPECT_EQ(config.vendor, ir::Vendor::kJuniper);
}

TEST(JuniperParserTest, InterfaceUnits) {
  auto config = Parse(R"(
interfaces {
    xe-0/0/0 {
        unit 0 {
            family inet {
                address 10.0.1.2/24;
            }
        }
        unit 100 {
            family inet {
                address 10.0.2.2/31;
            }
        }
    }
    xe-0/0/1 {
        disable;
        unit 0 {
            family inet {
                address 10.0.3.2/30;
            }
        }
    }
}
)");
  ASSERT_EQ(config.interfaces.size(), 3u);
  EXPECT_EQ(config.interfaces[0].name, "xe-0/0/0.0");
  EXPECT_EQ(config.interfaces[0].address, Ipv4Address(10, 0, 1, 2));
  EXPECT_EQ(config.interfaces[0].prefix_length, 24);
  EXPECT_EQ(config.interfaces[0].ConnectedSubnet(),
            *IpPrefix::Parse("10.0.1.0/24"));
  EXPECT_EQ(config.interfaces[1].name, "xe-0/0/0.100");
  EXPECT_EQ(config.interfaces[1].prefix_length, 31);
  // disable on the physical interface shuts all units down.
  EXPECT_TRUE(config.interfaces[2].shutdown);
}

TEST(JuniperParserTest, StaticRoutesBlockAndInline) {
  auto config = Parse(R"(
routing-options {
    static {
        route 10.1.1.2/31 {
            next-hop 10.2.2.2;
            preference 7;
            tag 42;
        }
        route 0.0.0.0/0 next-hop 10.0.0.1;
    }
}
)");
  ASSERT_EQ(config.static_routes.size(), 2u);
  EXPECT_EQ(config.static_routes[0].prefix, *IpPrefix::Parse("10.1.1.2/31"));
  EXPECT_EQ(config.static_routes[0].next_hop, Ipv4Address(10, 2, 2, 2));
  EXPECT_EQ(config.static_routes[0].admin_distance, 7);
  EXPECT_EQ(config.static_routes[0].tag, 42u);
  EXPECT_EQ(config.static_routes[1].prefix, *IpPrefix::Parse("0.0.0.0/0"));
  EXPECT_EQ(config.static_routes[1].next_hop, Ipv4Address(10, 0, 0, 1));
  // JunOS default static preference.
  EXPECT_EQ(config.static_routes[1].admin_distance, 5);
}

TEST(JuniperParserTest, PrefixListMatchesExactly) {
  auto config = Parse(R"(
policy-options {
    prefix-list NETS {
        10.9.0.0/16;
        10.100.0.0/16;
    }
}
)");
  const ir::PrefixList* list = config.FindPrefixList("NETS");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->entries.size(), 2u);
  // Exact windows: the crux of the paper's Difference 1.
  EXPECT_EQ(list->entries[0].range,
            PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 16));
}

TEST(JuniperParserTest, CommunityMembersAreConjunction) {
  auto config = Parse(
      "policy-options { community COMM members [ 10:10 10:11 ]; }\n");
  const ir::CommunityList* list = config.FindCommunityList("COMM");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->entries.size(), 1u);
  EXPECT_EQ(list->entries[0].all_of,
            (std::vector<Community>{Community(10, 10), Community(10, 11)}));
}

TEST(JuniperParserTest, SingleMemberCommunityWithoutBrackets) {
  auto config =
      Parse("policy-options { community ONE members 65000:7; }\n");
  const ir::CommunityList* list = config.FindCommunityList("ONE");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->entries[0].all_of,
            std::vector<Community>{Community(65000, 7)});
}

TEST(JuniperParserTest, PolicyStatementTerms) {
  auto config = Parse(R"(
policy-options {
    prefix-list NETS { 10.9.0.0/16; }
    community COMM members [ 10:10 ];
    policy-statement POL {
        term rule1 {
            from {
                prefix-list NETS;
            }
            then reject;
        }
        term rule2 {
            from {
                community COMM;
            }
            then {
                local-preference 30;
                accept;
            }
        }
    }
}
)");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->clauses.size(), 2u);
  EXPECT_EQ(map->default_action, ir::ClauseAction::kPermit);
  EXPECT_EQ(map->clauses[0].term_name, "rule1");
  EXPECT_EQ(map->clauses[0].action, ir::ClauseAction::kDeny);
  EXPECT_EQ(map->clauses[1].action, ir::ClauseAction::kPermit);
  ASSERT_EQ(map->clauses[1].sets.size(), 1u);
  EXPECT_EQ(map->clauses[1].sets[0].kind,
            ir::RouteMapSet::Kind::kLocalPreference);
  EXPECT_EQ(map->clauses[1].sets[0].value, 30u);
}

TEST(JuniperParserTest, TermWithoutTerminatingActionFallsThrough) {
  auto config = Parse(R"(
policy-options {
    policy-statement POL {
        term set-pref {
            then {
                local-preference 200;
            }
        }
        term final {
            then accept;
        }
    }
}
)");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->clauses[0].action, ir::ClauseAction::kFallThrough);
  EXPECT_EQ(map->clauses[1].action, ir::ClauseAction::kPermit);
}

TEST(JuniperParserTest, NextTermIsExplicitFallThrough) {
  auto config = Parse(R"(
policy-options {
    policy-statement POL {
        term t1 {
            then {
                metric 5;
                next term;
            }
        }
    }
}
)");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->clauses[0].action, ir::ClauseAction::kFallThrough);
}

TEST(JuniperParserTest, RouteFilterModes) {
  auto config = Parse(R"(
policy-options {
    policy-statement POL {
        term t1 {
            from {
                route-filter 10.0.0.0/8 exact;
                route-filter 10.1.0.0/16 orlonger;
                route-filter 10.2.0.0/16 longer;
                route-filter 10.3.0.0/16 upto /24;
                route-filter 10.4.0.0/16 prefix-length-range /20-/28;
            }
            then accept;
        }
    }
}
)");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->clauses[0].matches.size(), 1u);
  const auto& names = map->clauses[0].matches[0].names;
  ASSERT_EQ(names.size(), 5u);
  auto range_of = [&](int i) {
    const ir::PrefixList* list = config.FindPrefixList(names[i]);
    EXPECT_NE(list, nullptr);
    return list->entries[0].range;
  };
  EXPECT_EQ(range_of(0), PrefixRange(*IpPrefix::Parse("10.0.0.0/8"), 8, 8));
  EXPECT_EQ(range_of(1), PrefixRange(*IpPrefix::Parse("10.1.0.0/16"), 16, 32));
  EXPECT_EQ(range_of(2), PrefixRange(*IpPrefix::Parse("10.2.0.0/16"), 17, 32));
  EXPECT_EQ(range_of(3), PrefixRange(*IpPrefix::Parse("10.3.0.0/16"), 16, 24));
  EXPECT_EQ(range_of(4), PrefixRange(*IpPrefix::Parse("10.4.0.0/16"), 20, 28));
}

TEST(JuniperParserTest, CommunitySetActions) {
  auto config = Parse(R"(
policy-options {
    community TAG members [ 65000:1 65000:2 ];
    policy-statement POL {
        term t1 {
            then {
                community add TAG;
                community delete TAG;
                community set TAG;
                accept;
            }
        }
    }
}
)");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->clauses[0].sets.size(), 3u);
  EXPECT_EQ(map->clauses[0].sets[0].kind,
            ir::RouteMapSet::Kind::kCommunityAdd);
  EXPECT_EQ(map->clauses[0].sets[0].communities.size(), 2u);
  EXPECT_EQ(map->clauses[0].sets[1].kind,
            ir::RouteMapSet::Kind::kCommunityDelete);
  EXPECT_EQ(map->clauses[0].sets[2].kind,
            ir::RouteMapSet::Kind::kCommunitySet);
}

TEST(JuniperParserTest, FirewallFilterTerms) {
  auto config = Parse(R"(
firewall {
    family inet {
        filter VM_FILTER {
            term permit_web {
                from {
                    source-address 10.1.0.0/16;
                    destination-address 10.2.0.0/16;
                    protocol tcp;
                    destination-port 443;
                }
                then accept;
            }
            term deny_rest {
                then discard;
            }
        }
    }
}
)");
  const ir::Acl* acl = config.FindAcl("VM_FILTER");
  ASSERT_NE(acl, nullptr);
  ASSERT_EQ(acl->lines.size(), 2u);
  EXPECT_EQ(acl->lines[0].action, ir::LineAction::kPermit);
  EXPECT_EQ(acl->lines[0].protocol, ir::kProtoTcp);
  EXPECT_EQ(acl->lines[0].dst_ports[0], (ir::PortRange{443, 443}));
  EXPECT_EQ(acl->lines[1].action, ir::LineAction::kDeny);
  EXPECT_TRUE(acl->lines[1].src.IsAny());
}

TEST(JuniperParserTest, FilterTermCartesianExpansion) {
  // Two sources x one destination x two protocols = 4 IR lines.
  auto config = Parse(R"(
firewall {
    family inet {
        filter F {
            term t {
                from {
                    source-address 10.1.0.0/16;
                    source-address 10.2.0.0/16;
                    destination-address 10.3.0.0/16;
                    protocol tcp;
                    protocol udp;
                }
                then accept;
            }
        }
    }
}
)");
  const ir::Acl* acl = config.FindAcl("F");
  ASSERT_NE(acl, nullptr);
  EXPECT_EQ(acl->lines.size(), 4u);
}

TEST(JuniperParserTest, FilterPortRanges) {
  auto config = Parse(R"(
firewall {
    family inet {
        filter F {
            term t {
                from {
                    protocol udp;
                    destination-port 1024-65535;
                }
                then accept;
            }
        }
    }
}
)");
  const ir::Acl* acl = config.FindAcl("F");
  ASSERT_NE(acl, nullptr);
  EXPECT_EQ(acl->lines[0].dst_ports[0], (ir::PortRange{1024, 65535}));
}

TEST(JuniperParserTest, OspfAreasAndInterfaces) {
  auto config = Parse(R"(
interfaces {
    xe-0/0/0 {
        unit 0 { family inet { address 10.0.1.2/24; } }
    }
}
protocols {
    ospf {
        reference-bandwidth 10g;
        area 0.0.0.0 {
            interface xe-0/0/0.0 {
                metric 15;
            }
            interface lo0.0 {
                passive;
            }
        }
    }
}
)");
  ASSERT_TRUE(config.ospf.has_value());
  EXPECT_EQ(config.ospf->reference_bandwidth_mbps, 10000u);
  const ir::Interface* xe = config.FindInterface("xe-0/0/0.0");
  ASSERT_NE(xe, nullptr);
  EXPECT_TRUE(xe->ospf_enabled);
  EXPECT_EQ(xe->ospf_cost, 15u);
  EXPECT_EQ(xe->ospf_area, 0u);
  const ir::Interface* lo = config.FindInterface("lo0.0");
  ASSERT_NE(lo, nullptr);
  EXPECT_TRUE(lo->ospf_passive);
}

TEST(JuniperParserTest, OspfExportBecomesRedistribution) {
  auto config = Parse(R"(
policy-options {
    policy-statement REDIST {
        term statics {
            from {
                protocol static;
            }
            then accept;
        }
    }
}
protocols {
    ospf {
        export REDIST;
    }
}
)");
  ASSERT_TRUE(config.ospf.has_value());
  ASSERT_EQ(config.ospf->redistributions.size(), 1u);
  EXPECT_EQ(config.ospf->redistributions[0].from, ir::Protocol::kStatic);
  EXPECT_EQ(config.ospf->redistributions[0].route_map, "REDIST");
}

TEST(JuniperParserTest, BgpGroupsAndNeighbors) {
  auto config = Parse(R"(
routing-options {
    router-id 3.3.3.3;
    autonomous-system 65000;
}
protocols {
    bgp {
        group ebgp-peers {
            type external;
            peer-as 65001;
            import GROUP-IN;
            neighbor 10.0.0.2 {
                export PEER-OUT;
            }
            neighbor 10.0.0.6 {
                peer-as 65002;
            }
        }
        group rr-clients {
            type internal;
            cluster 3.3.3.3;
            neighbor 10.255.0.1;
        }
    }
}
)");
  ASSERT_TRUE(config.bgp.has_value());
  EXPECT_EQ(config.bgp->asn, 65000u);
  EXPECT_EQ(config.bgp->router_id, Ipv4Address(3, 3, 3, 3));
  ASSERT_EQ(config.bgp->neighbors.size(), 3u);
  const ir::BgpNeighbor& n1 = config.bgp->neighbors[0];
  EXPECT_EQ(n1.remote_as, 65001u);
  EXPECT_EQ(n1.import_policy, "GROUP-IN");  // Inherited from the group.
  EXPECT_EQ(n1.export_policy, "PEER-OUT");  // Neighbor-level.
  EXPECT_TRUE(n1.send_community);           // JunOS default.
  EXPECT_EQ(config.bgp->neighbors[1].remote_as, 65002u);  // Override.
  const ir::BgpNeighbor& rr = config.bgp->neighbors[2];
  EXPECT_EQ(rr.remote_as, 65000u);  // Internal group.
  EXPECT_TRUE(rr.route_reflector_client);
}

TEST(JuniperParserTest, CommentsAndStringsTolerated) {
  auto config = Parse(R"(
# leading comment
system {
    /* block
       comment */
    host-name "quoted name";
}
)");
  EXPECT_EQ(config.hostname, "quoted name");
}

TEST(JuniperParserTest, DiagnosticsForUnsupportedConditions) {
  auto result = ParseJuniperConfig(R"(
policy-options {
    policy-statement POL {
        term t {
            from {
                rib inet.3;
            }
            then accept;
        }
    }
}
)",
                                   "x.conf");
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_NE(result.diagnostics[0].find("rib"), std::string::npos);
}

TEST(JuniperParserTest, StrayTopLevelBraceIsDiagnosedAndSkipped) {
  auto result = ParseJuniperConfig(
      "system { host-name a; }\n}\n"
      "policy-options { prefix-list P { 10.0.0.0/8; } }",
      "x.conf");
  EXPECT_EQ(result.config.hostname, "a");
  EXPECT_EQ(result.config.prefix_lists.size(), 1u);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0], "x.conf:2: unmatched '}'");
  // A run of stray braces is one diagnostic, and parsing goes on after it.
  result = ParseJuniperConfig("}\n} }\nsystem { host-name b; }\n}", "y.conf");
  EXPECT_EQ(result.config.hostname, "b");
  EXPECT_EQ(result.diagnostics,
            (std::vector<std::string>{"y.conf:1: unmatched '}'",
                                      "y.conf:4: unmatched '}'"}));
}

TEST(JuniperParserTest, SpanCoversTermText) {
  auto result = ParseJuniperConfig(R"(policy-options {
    policy-statement POL {
        term rule3 {
            then {
                local-preference 30;
                accept;
            }
        }
    }
}
)",
                                   "x.conf");
  const ir::RouteMap* map = result.config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  const ir::RouteMapClause& clause = map->clauses[0];
  EXPECT_NE(clause.span.text.find("term rule3"), std::string::npos);
  EXPECT_NE(clause.span.text.find("local-preference 30"), std::string::npos);
  EXPECT_EQ(clause.span.first_line, 3);
  EXPECT_EQ(clause.span.last_line, 8);
}


// Line numbers must stay exact (1-based) across multi-line /* */ comments,
// '#' comments, and nested multi-line {} blocks — these all advance the
// tokenizer without producing statements, the classic off-by-one source.
TEST(JuniperParserTest, LineNumbersSurviveCommentsAndNestedBlocks) {
  auto result = ParseJuniperConfig(
      "/* header\n"                              // 1
      "   comment */\n"                          // 2
      "firewall {\n"                             // 3
      "    family inet {\n"                      // 4
      "        filter F {\n"                     // 5
      "            # interleaved noise\n"        // 6
      "            term t0 {\n"                  // 7
      "                from {\n"                 // 8
      "                    protocol tcp;\n"      // 9
      "                }\n"                      // 10
      "                then accept;\n"           // 11
      "            }\n"                          // 12
      "        }\n"                              // 13
      "    }\n"                                  // 14
      "}\n",                                     // 15
      "f.conf");
  EXPECT_TRUE(result.diagnostics.empty());
  const ir::Acl* acl = result.config.FindAcl("F");
  ASSERT_NE(acl, nullptr);
  EXPECT_EQ(acl->span.first_line, 5);
  EXPECT_EQ(acl->span.last_line, 13);
  EXPECT_EQ(acl->span.LocationString(), "f.conf:5-13");
  ASSERT_EQ(acl->lines.size(), 1u);
  EXPECT_EQ(acl->lines[0].span.first_line, 7);
  EXPECT_EQ(acl->lines[0].span.last_line, 12);
  // The span text is exactly the covered lines.
  EXPECT_NE(acl->lines[0].span.text.find("term t0 {"), std::string::npos);
  EXPECT_NE(acl->lines[0].span.text.find("then accept;"),
            std::string::npos);
  EXPECT_EQ(acl->lines[0].span.text.find("filter F"), std::string::npos);
}

TEST(JuniperParserTest, PrefixListFilterModes) {
  auto config = Parse(R"(
policy-options {
    prefix-list NETS {
        10.9.0.0/16;
        10.100.0.0/16;
    }
    policy-statement POL {
        term t {
            from {
                prefix-list-filter NETS orlonger;
            }
            then accept;
        }
    }
}
)");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->clauses[0].matches.size(), 1u);
  const auto& names = map->clauses[0].matches[0].names;
  ASSERT_EQ(names.size(), 1u);
  const ir::PrefixList* lowered = config.FindPrefixList(names[0]);
  ASSERT_NE(lowered, nullptr);
  ASSERT_EQ(lowered->entries.size(), 2u);
  // orlonger widens each entry to [base, 32] — the JunOS counterpart of
  // Cisco's `le 32` window, making Fig.1-style pairs expressible.
  EXPECT_EQ(lowered->entries[0].range,
            PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32));
}

TEST(JuniperParserTest, PrefixListFilterUndefinedListDiagnosed) {
  auto result = ParseJuniperConfig(R"(
policy-options {
    policy-statement POL {
        term t {
            from {
                prefix-list-filter GHOST exact;
            }
            then accept;
        }
    }
}
)",
                                   "x.conf");
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_NE(result.diagnostics[0].find("GHOST"), std::string::npos);
}

TEST(JuniperParserTest, FamilyInet6FilterTerms) {
  auto config = Parse(R"(
firewall {
    family inet6 {
        filter V6F {
            term bgp {
                from {
                    source-address 2001:db8:1::/48;
                    protocol tcp;
                    destination-port 179;
                }
                then accept;
            }
            term ping {
                from {
                    next-header icmp6;
                    icmpv6-type echo-request;
                }
                then accept;
            }
            term rest {
                then discard;
            }
        }
    }
}
)");
  const ir::Acl* acl = config.FindAcl("V6F");
  ASSERT_NE(acl, nullptr);
  EXPECT_EQ(acl->family, util::AddressFamily::kIpv6);
  ASSERT_EQ(acl->lines.size(), 3u);
  EXPECT_EQ(acl->lines[0].protocol, ir::kProtoTcp);
  EXPECT_EQ(acl->lines[0].src.family(), util::AddressFamily::kIpv6);
  ASSERT_TRUE(acl->lines[0].src.AsIpPrefix().has_value());
  EXPECT_EQ(*acl->lines[0].src.AsIpPrefix(),
            *util::IpPrefix::Parse("2001:db8:1::/48"));
  EXPECT_EQ(acl->lines[0].dst_ports[0], (ir::PortRange{179, 179}));
  // next-header is the inet6 spelling of protocol; icmpv6 echo-request is
  // type 128 (not the v4 type 8).
  EXPECT_EQ(acl->lines[1].protocol, ir::kProtoIcmpv6);
  EXPECT_EQ(acl->lines[1].icmp_type, 128);
  // Unconstrained terms default to the filter's family universe.
  EXPECT_TRUE(acl->lines[2].src.IsAny());
  EXPECT_EQ(acl->lines[2].src.family(), util::AddressFamily::kIpv6);
}

TEST(JuniperParserTest, InetAndInet6FiltersCoexist) {
  auto config = Parse(R"(
firewall {
    family inet {
        filter F4 {
            term t { from { source-address 10.0.0.0/8; } then accept; }
        }
    }
    family inet6 {
        filter F6 {
            term t { from { source-address 2001:db8::/32; } then accept; }
        }
    }
}
)");
  const ir::Acl* f4 = config.FindAcl("F4");
  const ir::Acl* f6 = config.FindAcl("F6");
  ASSERT_NE(f4, nullptr);
  ASSERT_NE(f6, nullptr);
  EXPECT_EQ(f4->family, util::AddressFamily::kIpv4);
  EXPECT_EQ(f6->family, util::AddressFamily::kIpv6);
}

TEST(JuniperParserTest, Inet6PrefixListAndRouteFilter) {
  auto config = Parse(R"(
policy-options {
    prefix-list NETS6 {
        2001:db8:9::/48;
        2001:db8:100::/48;
    }
    policy-statement P {
        term a {
            from {
                route-filter 2001:db8::/32 orlonger;
            }
            then accept;
        }
    }
}
)");
  const ir::PrefixList* list = config.FindPrefixList("NETS6");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->family, util::AddressFamily::kIpv6);
  ASSERT_EQ(list->entries.size(), 2u);
  EXPECT_EQ(list->entries[0].range,
            PrefixRange(*util::IpPrefix::Parse("2001:db8:9::/48"), 48, 48));
  const ir::RouteMap* map = config.FindRouteMap("P");
  ASSERT_NE(map, nullptr);
  // orlonger on a v6 route-filter must run to /128, not /32. Route filters
  // lower to synthesized prefix lists; follow the reference.
  ASSERT_EQ(map->clauses[0].matches.size(), 1u);
  ASSERT_EQ(map->clauses[0].matches[0].names.size(), 1u);
  const ir::PrefixList* lowered =
      config.FindPrefixList(map->clauses[0].matches[0].names[0]);
  ASSERT_NE(lowered, nullptr);
  EXPECT_EQ(lowered->family, util::AddressFamily::kIpv6);
  ASSERT_EQ(lowered->entries.size(), 1u);
  EXPECT_EQ(lowered->entries[0].range,
            PrefixRange(*util::IpPrefix::Parse("2001:db8::/32"), 32, 128));
}

TEST(JuniperParserTest, MixedFamilyPrefixListDiagnosed) {
  auto result = ParseJuniperConfig(R"(
policy-options {
    prefix-list MIXED {
        2001:db8::/32;
        10.0.0.0/8;
    }
}
)",
                                   "x.conf");
  const ir::PrefixList* list = result.config.FindPrefixList("MIXED");
  ASSERT_NE(list, nullptr);
  // First entry fixes the family; the v4 straggler is diagnosed, not kept.
  EXPECT_EQ(list->family, util::AddressFamily::kIpv6);
  EXPECT_EQ(list->entries.size(), 1u);
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_NE(result.diagnostics[0].find("famil"), std::string::npos);
}

TEST(JuniperParserTest, UnsupportedFirewallFamilyDiagnosed) {
  auto result = ParseJuniperConfig(R"(
firewall {
    family mpls {
        filter M {
            term t { then accept; }
        }
    }
}
)",
                                   "x.conf");
  EXPECT_EQ(result.config.FindAcl("M"), nullptr);
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_NE(result.diagnostics[0].find("family"), std::string::npos);
}

// Positions whose syntax takes one address family reject a literal of the
// other with the diagnostic they always gave, and keep nothing of it: no
// interface address, static route or BGP network, and no filter address
// (the term's line keeps matching any source, as it always has).
TEST(JuniperParserTest, OneFamilyPositionsRejectTheOtherFamily) {
  struct Case {
    const char* position;
    const char* text;
    const char* diagnostic;
  };
  const Case cases[] = {
      {"family inet address",
       "interfaces {\n"
       "    xe-0/0/0 { unit 0 { family inet { address 2001:db8::1/64; } } }\n"
       "}\n",
       "j.conf:2: bad interface address"},
      {"static route",
       "routing-options {\n"
       "    static {\n"
       "        route 2001:db8::/32 next-hop 10.0.0.1;\n"
       "    }\n"
       "}\n",
       "j.conf:3: bad static route prefix"},
      {"bgp network",
       "protocols {\n"
       "    bgp {\n"
       "        network 2001:db8::/32;\n"
       "    }\n"
       "}\n",
       "j.conf:3: bad bgp network"},
      {"family inet filter source-address",
       "firewall {\n"
       "    family inet {\n"
       "        filter F4 {\n"
       "            term t {\n"
       "                from { source-address 2001:db8::/32; }\n"
       "                then accept;\n"
       "            }\n"
       "        }\n"
       "    }\n"
       "}\n",
       "j.conf:5: bad source-address"},
      {"family inet6 filter source-address",
       "firewall {\n"
       "    family inet6 {\n"
       "        filter F6 {\n"
       "            term t {\n"
       "                from { source-address 10.0.0.0/8; }\n"
       "                then accept;\n"
       "            }\n"
       "        }\n"
       "    }\n"
       "}\n",
       "j.conf:5: bad source-address"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.position);
    auto result = ParseJuniperConfig(c.text, "j.conf");
    EXPECT_EQ(result.diagnostics, std::vector<std::string>{c.diagnostic});
    const ir::RouterConfig& config = result.config;
    for (const ir::Interface& iface : config.interfaces) {
      EXPECT_FALSE(iface.address.has_value()) << iface.name;
    }
    EXPECT_TRUE(config.static_routes.empty());
    if (config.bgp) {
      EXPECT_TRUE(config.bgp->networks.empty());
    }
    for (const auto& [name, acl] : config.acls) {
      for (const ir::AclLine& line : acl.lines) {
        EXPECT_EQ(line.src, util::IpWildcard::AnyOf(acl.family)) << name;
      }
    }
  }
}

// Filter F of `family`: a discarding term t with the given `from` body on
// line 5, then an accept-everything term.
std::string FilterWithTerm(const std::string& family, const std::string& from) {
  return "firewall {\n"
         "    family " + family + " {\n"
         "        filter F {\n"
         "            term t {\n"
         "                from { " + from + " }\n"
         "                then discard;\n"
         "            }\n"
         "            term rest { then accept; }\n"
         "        }\n"
         "    }\n"
         "}\n";
}

// A filter condition none of whose operands parses is diagnosed and drops
// the whole term; ignoring it would widen the term to every value of the
// field. Port operands take the service names Cisco takes, and numbers only
// up to 65535.
TEST(JuniperParserTest, FilterOperandsNeverWidenATerm) {
  const auto& filter = FilterWithTerm;
  struct Dropped {
    const char* family;
    const char* from;
    std::vector<std::string> diagnostics;
  };
  const Dropped dropped[] = {
      {"inet", "source-address 2001:db8::/32;",
       {"j.conf:5: bad source-address"}},
      {"inet6", "destination-address 10.0.0.0/8;",
       {"j.conf:5: bad destination-address"}},
      {"inet", "protocol bogus;", {"j.conf:5: unsupported protocol: bogus"}},
      {"inet", "protocol tcp; destination-port bogus;",
       {"j.conf:5: bad port: bogus"}},
      {"inet", "protocol tcp; destination-port 70000;",
       {"j.conf:5: bad port: 70000"}},
      {"inet", "protocol tcp; source-port 1024-65536;",
       {"j.conf:5: bad port: 1024-65536"}},
      {"inet", "protocol tcp; destination-port;",
       {"j.conf:5: missing operand: destination-port"}},
      {"inet", "protocol icmp; icmp-type 256;",
       {"j.conf:5: bad icmp-type: 256"}},
      {"inet", "protocol icmp; icmp-type bogus;",
       {"j.conf:5: bad icmp-type: bogus"}},
  };
  for (const Dropped& c : dropped) {
    SCOPED_TRACE(c.from);
    auto result = ParseJuniperConfig(filter(c.family, c.from), "j.conf");
    EXPECT_EQ(result.diagnostics, c.diagnostics);
    const ir::Acl* acl = result.config.FindAcl("F");
    ASSERT_NE(acl, nullptr);
    // Only `rest` is left: one permit-everything line.
    ASSERT_EQ(acl->lines.size(), 1u);
    EXPECT_EQ(acl->lines[0].action, ir::LineAction::kPermit);
  }

  struct Kept {
    const char* from;
    std::vector<std::string> diagnostics;
    std::vector<ir::PortRange> dst_ports;
    std::size_t lines;  // One per protocol operand that parsed.
  };
  const Kept kept[] = {
      {"protocol tcp; destination-port ssh;", {}, {{22, 22}}, 1},
      {"protocol tcp; destination-port [ bgp 8080 ];", {},
       {{179, 179}, {8080, 8080}}, 1},
      {"protocol tcp; destination-port ftp-telnet;", {}, {{21, 23}}, 1},
      {"protocol tcp; destination-port 1024-65535;", {}, {{1024, 65535}}, 1},
      // A bad operand beside good ones narrows the condition, no more.
      {"protocol tcp; destination-port [ 22 bogus ];",
       {"j.conf:5: bad port: bogus"}, {{22, 22}}, 1},
      {"protocol [ tcp bogus udp ];",
       {"j.conf:5: unsupported protocol: bogus"}, {}, 2},
  };
  for (const Kept& c : kept) {
    SCOPED_TRACE(c.from);
    auto result = ParseJuniperConfig(filter("inet", c.from), "j.conf");
    EXPECT_EQ(result.diagnostics, c.diagnostics);
    const ir::Acl* acl = result.config.FindAcl("F");
    ASSERT_NE(acl, nullptr);
    ASSERT_EQ(acl->lines.size(), c.lines + 1);
    for (std::size_t i = 0; i < c.lines; ++i) {
      EXPECT_EQ(acl->lines[i].action, ir::LineAction::kDeny);
      EXPECT_EQ(acl->lines[i].dst_ports, c.dst_ports);
    }
  }
}

// The block form JunOS itself prints, `source-address { 10.0.0.0/8; }`,
// lists entries that OR together, like the one-operand form. A bad entry
// beside good ones is diagnosed and narrows the condition; an `except`
// entry, which the IR cannot express, is diagnosed and drops the term.
TEST(JuniperParserTest, FilterAddressBlocksOrTheirEntries) {
  struct Case {
    const char* family;
    const char* from;
    std::vector<std::string> diagnostics;
    std::vector<std::string> sources;       // Of t's lines, in order.
    std::vector<std::string> destinations;  // Of t's lines, in order.
  };
  const Case cases[] = {
      {"inet", "source-address { 10.0.0.0/8; }", {}, {"10.0.0.0/8"},
       {"0.0.0.0/0"}},
      {"inet", "source-address { 10.0.0.0/8; 192.168.0.0/16; }", {},
       {"10.0.0.0/8", "192.168.0.0/16"}, {"0.0.0.0/0", "0.0.0.0/0"}},
      {"inet6", "destination-address { 2001:db8::/32; }", {}, {"::/0"},
       {"2001:db8::/32"}},
      {"inet", "source-address { 10.0.0.0/8; bogus; }",
       {"j.conf:5: bad source-address"}, {"10.0.0.0/8"}, {"0.0.0.0/0"}},
      {"inet", "source-address { 10.0.0.0/8; 10.1.0.0/16 except; }",
       {"j.conf:5: unsupported except: 10.1.0.0/16"}, {}, {}},
      {"inet", "source-address 10.0.0.0/8 except;",
       {"j.conf:5: unsupported except: 10.0.0.0/8"}, {}, {}},
      {"inet", "destination-address { bogus; }",
       {"j.conf:5: bad destination-address"}, {}, {}},
      {"inet", "source-address { }",
       {"j.conf:5: missing operand: source-address"}, {}, {}},
  };
  auto wildcard = [](const std::string& prefix) {
    return util::IpWildcard(*util::IpPrefix::Parse(prefix));
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.from);
    auto result = ParseJuniperConfig(FilterWithTerm(c.family, c.from),
                                     "j.conf");
    EXPECT_EQ(result.diagnostics, c.diagnostics);
    const ir::Acl* acl = result.config.FindAcl("F");
    ASSERT_NE(acl, nullptr);
    // t's lines (none when it was dropped), then `rest`.
    ASSERT_EQ(acl->lines.size(), c.sources.size() + 1);
    for (std::size_t i = 0; i < c.sources.size(); ++i) {
      EXPECT_EQ(acl->lines[i].action, ir::LineAction::kDeny);
      EXPECT_EQ(acl->lines[i].src, wildcard(c.sources[i]));
      EXPECT_EQ(acl->lines[i].dst, wildcard(c.destinations[i]));
    }
    EXPECT_EQ(acl->lines.back().action, ir::LineAction::kPermit);
  }
}

}  // namespace
}  // namespace campion::juniper
