#include "cisco/cisco_parser.h"

#include <gtest/gtest.h>

namespace campion::cisco {
namespace {

using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

ir::RouterConfig Parse(const std::string& text) {
  return ParseCiscoConfig(text, "test.cfg").config;
}

TEST(CiscoParserTest, HostnameAndVendor) {
  auto config = Parse("hostname edge-1\n");
  EXPECT_EQ(config.hostname, "edge-1");
  EXPECT_EQ(config.vendor, ir::Vendor::kCisco);
}

TEST(CiscoParserTest, InterfaceAddressAndMask) {
  auto config = Parse(
      "interface GigabitEthernet0/1\n"
      " ip address 10.0.1.1 255.255.255.0\n"
      "!\n");
  ASSERT_EQ(config.interfaces.size(), 1u);
  const ir::Interface& iface = config.interfaces[0];
  EXPECT_EQ(iface.name, "GigabitEthernet0/1");
  EXPECT_EQ(iface.address, Ipv4Address(10, 0, 1, 1));
  EXPECT_EQ(iface.prefix_length, 24);
  EXPECT_EQ(iface.ConnectedSubnet(), *IpPrefix::Parse("10.0.1.0/24"));
}

TEST(CiscoParserTest, InterfaceShutdownAndAcls) {
  auto config = Parse(
      "interface Ethernet1\n"
      " ip address 10.0.1.1 255.255.255.254\n"
      " ip access-group FILTER-IN in\n"
      " ip access-group FILTER-OUT out\n"
      " shutdown\n"
      "!\n");
  const ir::Interface& iface = config.interfaces[0];
  EXPECT_TRUE(iface.shutdown);
  EXPECT_EQ(iface.in_acl, "FILTER-IN");
  EXPECT_EQ(iface.out_acl, "FILTER-OUT");
  EXPECT_EQ(iface.prefix_length, 31);
}

TEST(CiscoParserTest, StaticRouteBasic) {
  auto config = Parse("ip route 10.1.1.2 255.255.255.254 10.2.2.2\n");
  ASSERT_EQ(config.static_routes.size(), 1u);
  const ir::StaticRoute& route = config.static_routes[0];
  EXPECT_EQ(route.prefix, *IpPrefix::Parse("10.1.1.2/31"));
  EXPECT_EQ(route.next_hop, Ipv4Address(10, 2, 2, 2));
  EXPECT_EQ(route.admin_distance, 1);
  EXPECT_FALSE(route.tag.has_value());
  EXPECT_EQ(route.span.first_line, 1);
  EXPECT_NE(route.span.text.find("ip route"), std::string::npos);
}

TEST(CiscoParserTest, StaticRouteWithDistanceAndTag) {
  auto config = Parse("ip route 10.1.0.0 255.255.0.0 10.2.2.2 250 tag 77\n");
  ASSERT_EQ(config.static_routes.size(), 1u);
  EXPECT_EQ(config.static_routes[0].admin_distance, 250);
  EXPECT_EQ(config.static_routes[0].tag, 77u);
}

TEST(CiscoParserTest, StaticRouteViaInterface) {
  auto config = Parse("ip route 0.0.0.0 0.0.0.0 Null0\n");
  ASSERT_EQ(config.static_routes.size(), 1u);
  EXPECT_FALSE(config.static_routes[0].next_hop.has_value());
  EXPECT_EQ(config.static_routes[0].next_hop_interface, "Null0");
}

TEST(CiscoParserTest, PrefixListWindows) {
  auto config = Parse(
      "ip prefix-list PL seq 5 permit 10.9.0.0/16 le 32\n"
      "ip prefix-list PL seq 10 permit 10.10.0.0/16 ge 24\n"
      "ip prefix-list PL seq 15 permit 10.11.0.0/16 ge 20 le 28\n"
      "ip prefix-list PL seq 20 deny 10.12.0.0/16\n");
  const ir::PrefixList* list = config.FindPrefixList("PL");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->entries.size(), 4u);
  EXPECT_EQ(list->entries[0].range,
            PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32));
  EXPECT_EQ(list->entries[1].range,
            PrefixRange(*IpPrefix::Parse("10.10.0.0/16"), 24, 32));
  EXPECT_EQ(list->entries[2].range,
            PrefixRange(*IpPrefix::Parse("10.11.0.0/16"), 20, 28));
  EXPECT_EQ(list->entries[3].range,
            PrefixRange(*IpPrefix::Parse("10.12.0.0/16"), 16, 16));
  EXPECT_EQ(list->entries[3].action, ir::LineAction::kDeny);
}

TEST(CiscoParserTest, CommunityListEntriesAreOrOfAnds) {
  auto config = Parse(
      "ip community-list standard CL permit 10:10\n"
      "ip community-list standard CL permit 10:11 10:12\n"
      "ip community-list standard CL deny 10:13\n");
  const ir::CommunityList* list = config.FindCommunityList("CL");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->entries.size(), 3u);
  EXPECT_EQ(list->entries[0].all_of.size(), 1u);
  EXPECT_EQ(list->entries[1].all_of.size(), 2u);  // AND within one line.
  EXPECT_EQ(list->entries[2].action, ir::LineAction::kDeny);
}

TEST(CiscoParserTest, RouteMapClausesInSequence) {
  auto config = Parse(
      "route-map POL deny 10\n"
      " match ip address prefix-list NETS\n"
      "route-map POL permit 20\n"
      " match community COMM\n"
      " set local-preference 200\n"
      " set community 65000:1 additive\n"
      "route-map POL permit 30\n");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->clauses.size(), 3u);
  EXPECT_EQ(map->default_action, ir::ClauseAction::kDeny);

  EXPECT_EQ(map->clauses[0].sequence, 10);
  EXPECT_EQ(map->clauses[0].action, ir::ClauseAction::kDeny);
  ASSERT_EQ(map->clauses[0].matches.size(), 1u);
  EXPECT_EQ(map->clauses[0].matches[0].kind,
            ir::RouteMapMatch::Kind::kPrefixList);
  EXPECT_EQ(map->clauses[0].matches[0].names,
            std::vector<std::string>{"NETS"});

  ASSERT_EQ(map->clauses[1].sets.size(), 2u);
  EXPECT_EQ(map->clauses[1].sets[0].kind,
            ir::RouteMapSet::Kind::kLocalPreference);
  EXPECT_EQ(map->clauses[1].sets[0].value, 200u);
  EXPECT_EQ(map->clauses[1].sets[1].kind,
            ir::RouteMapSet::Kind::kCommunityAdd);

  EXPECT_TRUE(map->clauses[2].matches.empty());
}

TEST(CiscoParserTest, RouteMapSpanCoversClauseLines) {
  auto config = Parse(
      "route-map POL deny 10\n"
      " match ip address NETS\n");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  const ir::RouteMapClause& clause = map->clauses[0];
  EXPECT_EQ(clause.span.first_line, 1);
  EXPECT_EQ(clause.span.last_line, 2);
  EXPECT_NE(clause.span.text.find("route-map POL deny 10"),
            std::string::npos);
  EXPECT_NE(clause.span.text.find("match ip address NETS"),
            std::string::npos);
}

// Continuation lines (indented mode) must extend the owning span to the
// exact 1-based last line, with comment separators in between not
// shifting the count.
TEST(CiscoParserTest, ContinuationLineNumbersAreExact) {
  auto config = Parse(
      "!\n"                                        // 1
      "hostname r1\n"                              // 2
      "!\n"                                        // 3
      "interface GigabitEthernet0/0\n"             // 4
      " ip address 10.0.0.1 255.255.255.0\n"       // 5
      " shutdown\n"                                // 6
      "!\n"                                        // 7
      "route-map POL permit 10\n"                  // 8
      " match ip address prefix-list NETS\n"       // 9
      " set metric 5\n"                            // 10
      "!\n"                                        // 11
      "router bgp 65000\n"                         // 12
      " neighbor 10.0.0.2 remote-as 65001\n"       // 13
      " neighbor 10.0.0.2 route-map POL out\n");   // 14
  ASSERT_EQ(config.interfaces.size(), 1u);
  EXPECT_EQ(config.interfaces[0].span.first_line, 4);
  EXPECT_EQ(config.interfaces[0].span.last_line, 6);
  EXPECT_EQ(config.interfaces[0].span.LocationString(), "test.cfg:4-6");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  const ir::RouteMapClause& clause = map->clauses[0];
  EXPECT_EQ(clause.span.first_line, 8);
  EXPECT_EQ(clause.span.last_line, 10);
  // Match and set sub-spans point at their own single lines.
  ASSERT_EQ(clause.matches.size(), 1u);
  EXPECT_EQ(clause.matches[0].span.first_line, 9);
  EXPECT_EQ(clause.matches[0].span.last_line, 9);
  ASSERT_EQ(clause.sets.size(), 1u);
  EXPECT_EQ(clause.sets[0].span.first_line, 10);
  EXPECT_EQ(clause.sets[0].span.LocationString(), "test.cfg:10");
  // Neighbor attribute lines extend both the line range and the text.
  ASSERT_TRUE(config.bgp.has_value());
  ASSERT_EQ(config.bgp->neighbors.size(), 1u);
  const util::SourceSpan& nspan = config.bgp->neighbors[0].span;
  EXPECT_EQ(nspan.first_line, 13);
  EXPECT_EQ(nspan.last_line, 14);
  EXPECT_NE(nspan.text.find("remote-as 65001"), std::string::npos);
  EXPECT_NE(nspan.text.find("route-map POL out"), std::string::npos);
}

TEST(CiscoParserTest, RouteMapSetNextHopAndTagAndMetric) {
  auto config = Parse(
      "route-map RM permit 10\n"
      " set ip next-hop 10.0.0.9\n"
      " set tag 42\n"
      " set metric 120\n"
      " match tag 7\n"
      " match metric 99\n"
      " match source-protocol static\n");
  const ir::RouteMap* map = config.FindRouteMap("RM");
  ASSERT_NE(map, nullptr);
  const ir::RouteMapClause& clause = map->clauses[0];
  ASSERT_EQ(clause.sets.size(), 3u);
  EXPECT_EQ(clause.sets[0].kind, ir::RouteMapSet::Kind::kNextHop);
  EXPECT_EQ(clause.sets[0].next_hop, Ipv4Address(10, 0, 0, 9));
  EXPECT_EQ(clause.sets[1].value, 42u);
  EXPECT_EQ(clause.sets[2].value, 120u);
  ASSERT_EQ(clause.matches.size(), 3u);
  EXPECT_EQ(clause.matches[2].protocol, ir::Protocol::kStatic);
}

TEST(CiscoParserTest, NamedExtendedAcl) {
  auto config = Parse(
      "ip access-list extended FILTER\n"
      " permit tcp 10.1.0.0 0.0.255.255 any eq 443\n"
      " deny ip host 10.2.2.2 10.3.0.0 0.0.0.255\n"
      " permit icmp any any echo\n");
  const ir::Acl* acl = config.FindAcl("FILTER");
  ASSERT_NE(acl, nullptr);
  ASSERT_EQ(acl->lines.size(), 3u);

  EXPECT_EQ(acl->lines[0].action, ir::LineAction::kPermit);
  EXPECT_EQ(acl->lines[0].protocol, ir::kProtoTcp);
  EXPECT_EQ(acl->lines[0].src.address(), Ipv4Address(10, 1, 0, 0));
  EXPECT_TRUE(acl->lines[0].dst.IsAny());
  ASSERT_EQ(acl->lines[0].dst_ports.size(), 1u);
  EXPECT_EQ(acl->lines[0].dst_ports[0], (ir::PortRange{443, 443}));

  EXPECT_EQ(acl->lines[1].action, ir::LineAction::kDeny);
  EXPECT_FALSE(acl->lines[1].protocol.has_value());
  EXPECT_EQ(acl->lines[1].src.wildcard_bits(), 0u);

  EXPECT_EQ(acl->lines[2].protocol, ir::kProtoIcmp);
  EXPECT_EQ(acl->lines[2].icmp_type, 8);
}

// A wildcard whose free bits are not a contiguous low suffix ("0.0.255.0"
// frees the third octet only) must survive parsing bit-for-bit; coercing
// it to a prefix length would silently widen or narrow the match.
TEST(CiscoParserTest, DiscontiguousWildcardPreservedBitForBit) {
  auto config = Parse(
      "ip access-list extended DW\n"
      " permit ip 10.1.77.5 0.0.255.0 any\n");
  const ir::Acl* acl = config.FindAcl("DW");
  ASSERT_NE(acl, nullptr);
  ASSERT_EQ(acl->lines.size(), 1u);
  const util::IpWildcard& src = acl->lines[0].src;
  EXPECT_EQ(src.wildcard_bits(), 0x0000FF00u);
  // The constructor zeroes don't-care address bits (third octet, 77).
  EXPECT_EQ(src.address(), Ipv4Address(10, 1, 0, 5));
  // Not expressible as a prefix: the free bits are not a suffix.
  EXPECT_FALSE(src.AsIpPrefix().has_value());
  // Free third octet matches anything; the care octets are exact.
  EXPECT_TRUE(src.Matches(Ipv4Address(10, 1, 0, 5)));
  EXPECT_TRUE(src.Matches(Ipv4Address(10, 1, 200, 5)));
  EXPECT_FALSE(src.Matches(Ipv4Address(10, 1, 0, 6)));
  EXPECT_FALSE(src.Matches(Ipv4Address(10, 2, 0, 5)));
}

TEST(CiscoParserTest, NumberedAcl) {
  auto config = Parse(
      "access-list 101 permit udp any any eq 53\n"
      "access-list 101 deny ip any any\n");
  const ir::Acl* acl = config.FindAcl("101");
  ASSERT_NE(acl, nullptr);
  EXPECT_EQ(acl->lines.size(), 2u);
}

TEST(CiscoParserTest, AclPortOperators) {
  auto config = Parse(
      "ip access-list extended P\n"
      " permit tcp any any range 1024 2048\n"
      " permit tcp any any gt 1023\n"
      " permit tcp any any lt 512\n"
      " permit tcp any eq 179 any\n");
  const ir::Acl* acl = config.FindAcl("P");
  ASSERT_NE(acl, nullptr);
  ASSERT_EQ(acl->lines.size(), 4u);
  EXPECT_EQ(acl->lines[0].dst_ports[0], (ir::PortRange{1024, 2048}));
  EXPECT_EQ(acl->lines[1].dst_ports[0], (ir::PortRange{1024, 65535}));
  EXPECT_EQ(acl->lines[2].dst_ports[0], (ir::PortRange{0, 511}));
  EXPECT_EQ(acl->lines[3].src_ports[0], (ir::PortRange{179, 179}));
}

TEST(CiscoParserTest, OspfProcessAndNetworks) {
  auto config = Parse(
      "interface Ethernet1\n"
      " ip address 10.0.1.1 255.255.255.0\n"
      "!\n"
      "interface Ethernet2\n"
      " ip address 192.168.0.1 255.255.255.0\n"
      "!\n"
      "router ospf 10\n"
      " router-id 1.1.1.1\n"
      " network 10.0.0.0 0.255.255.255 area 0\n"
      " passive-interface Ethernet2\n"
      " redistribute static route-map RM-STATIC\n"
      " auto-cost reference-bandwidth 100000\n");
  ASSERT_TRUE(config.ospf.has_value());
  EXPECT_EQ(config.ospf->process_id, 10u);
  EXPECT_EQ(config.ospf->router_id, Ipv4Address(1, 1, 1, 1));
  EXPECT_EQ(config.ospf->reference_bandwidth_mbps, 100000u);
  ASSERT_EQ(config.ospf->redistributions.size(), 1u);
  EXPECT_EQ(config.ospf->redistributions[0].from, ir::Protocol::kStatic);
  EXPECT_EQ(config.ospf->redistributions[0].route_map, "RM-STATIC");
  // Network statement enables OSPF on Ethernet1 only.
  EXPECT_TRUE(config.interfaces[0].ospf_enabled);
  EXPECT_EQ(config.interfaces[0].ospf_area, 0u);
  EXPECT_FALSE(config.interfaces[1].ospf_enabled);
  EXPECT_TRUE(config.interfaces[1].ospf_passive);
}

TEST(CiscoParserTest, InterfaceLevelOspf) {
  auto config = Parse(
      "interface Ethernet1\n"
      " ip address 10.0.1.1 255.255.255.0\n"
      " ip ospf cost 55\n"
      " ip ospf 1 area 3\n");
  EXPECT_EQ(config.interfaces[0].ospf_cost, 55u);
  EXPECT_TRUE(config.interfaces[0].ospf_enabled);
  EXPECT_EQ(config.interfaces[0].ospf_area, 3u);
}

TEST(CiscoParserTest, BgpNeighborsAndProperties) {
  auto config = Parse(
      "router bgp 65000\n"
      " bgp router-id 2.2.2.2\n"
      " network 10.1.0.0 mask 255.255.0.0\n"
      " neighbor 10.0.0.2 remote-as 65001\n"
      " neighbor 10.0.0.2 route-map IMP in\n"
      " neighbor 10.0.0.2 route-map EXP out\n"
      " neighbor 10.0.0.2 send-community\n"
      " neighbor 10.0.0.6 remote-as 65000\n"
      " neighbor 10.0.0.6 route-reflector-client\n"
      " neighbor 10.0.0.6 next-hop-self\n"
      " redistribute connected route-map RM-CONN\n"
      " distance bgp 25 210 200\n");
  ASSERT_TRUE(config.bgp.has_value());
  EXPECT_EQ(config.bgp->asn, 65000u);
  EXPECT_EQ(config.bgp->router_id, Ipv4Address(2, 2, 2, 2));
  ASSERT_EQ(config.bgp->networks.size(), 1u);
  EXPECT_EQ(config.bgp->networks[0], *IpPrefix::Parse("10.1.0.0/16"));
  ASSERT_EQ(config.bgp->neighbors.size(), 2u);
  const ir::BgpNeighbor& ebgp = config.bgp->neighbors[0];
  EXPECT_EQ(ebgp.remote_as, 65001u);
  EXPECT_EQ(ebgp.import_policy, "IMP");
  EXPECT_EQ(ebgp.export_policy, "EXP");
  EXPECT_TRUE(ebgp.send_community);
  const ir::BgpNeighbor& ibgp = config.bgp->neighbors[1];
  EXPECT_TRUE(ibgp.route_reflector_client);
  EXPECT_TRUE(ibgp.next_hop_self);
  EXPECT_FALSE(ibgp.send_community);
  ASSERT_EQ(config.bgp->redistributions.size(), 1u);
  EXPECT_EQ(config.bgp->redistributions[0].from, ir::Protocol::kConnected);
  EXPECT_EQ(config.admin_distances.ebgp, 25);
  EXPECT_EQ(config.admin_distances.ibgp, 210);
}

TEST(CiscoParserTest, DiagnosticsForUnknownLines) {
  auto result = ParseCiscoConfig("frobnicate the network\n", "x.cfg");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_NE(result.diagnostics[0].find("x.cfg:1"), std::string::npos);
}

TEST(CiscoParserTest, MalformedLinesDiagnosedNotFatal) {
  auto result = ParseCiscoConfig(
      "ip route 10.1.1.2 bogus 10.2.2.2\n"
      "ip prefix-list PL permit not-a-prefix\n"
      "hostname ok\n",
      "x.cfg");
  EXPECT_EQ(result.config.hostname, "ok");
  EXPECT_EQ(result.diagnostics.size(), 2u);
  EXPECT_TRUE(result.config.static_routes.empty());
}

TEST(CiscoParserTest, IgnoredDirectivesProduceNoDiagnostics) {
  auto result = ParseCiscoConfig(
      "version 15.2\n"
      "service timestamps debug datetime msec\n"
      "no ip domain lookup\n"
      "logging buffered 4096\n"
      "ntp server 10.0.0.1\n"
      "end\n",
      "x.cfg");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(CiscoParserTest, CarriageReturnsStripped) {
  auto config = Parse("hostname crlf-router\r\n");
  EXPECT_EQ(config.hostname, "crlf-router");
}

TEST(CiscoParserTest, MatchMultiplePrefixListsIsDisjunction) {
  auto config = Parse(
      "route-map RM permit 10\n"
      " match ip address prefix-list A B C\n");
  const ir::RouteMap* map = config.FindRouteMap("RM");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->clauses[0].matches[0].names,
            (std::vector<std::string>{"A", "B", "C"}));
}


TEST(CiscoParserTest, StandardNumberedAcl) {
  auto config = Parse(
      "access-list 10 permit 10.1.0.0 0.0.255.255\n"
      "access-list 10 deny any\n");
  const ir::Acl* acl = config.FindAcl("10");
  ASSERT_NE(acl, nullptr);
  ASSERT_EQ(acl->lines.size(), 2u);
  // Source-only matching; protocol and destination are wildcards.
  EXPECT_EQ(acl->lines[0].src.address(), Ipv4Address(10, 1, 0, 0));
  EXPECT_TRUE(acl->lines[0].dst.IsAny());
  EXPECT_FALSE(acl->lines[0].protocol.has_value());
  EXPECT_TRUE(acl->lines[1].src.IsAny());
  EXPECT_EQ(acl->lines[1].action, ir::LineAction::kDeny);
}

TEST(CiscoParserTest, StandardNamedAcl) {
  auto config = Parse(
      "ip access-list standard MGMT\n"
      " permit host 10.0.0.5\n"
      " deny any\n");
  const ir::Acl* acl = config.FindAcl("MGMT");
  ASSERT_NE(acl, nullptr);
  ASSERT_EQ(acl->lines.size(), 2u);
  EXPECT_EQ(acl->lines[0].src.wildcard_bits(), 0u);
  EXPECT_EQ(acl->lines[0].src.address(), Ipv4Address(10, 0, 0, 5));
}

TEST(CiscoParserTest, StandardAndExtendedNumberRanges) {
  auto config = Parse(
      "access-list 99 permit 10.0.0.0 0.255.255.255\n"
      "access-list 1300 permit 10.0.0.0 0.255.255.255\n"
      "access-list 101 permit tcp any any eq 80\n");
  ASSERT_NE(config.FindAcl("99"), nullptr);
  EXPECT_FALSE(config.FindAcl("99")->lines[0].protocol.has_value());
  ASSERT_NE(config.FindAcl("1300"), nullptr);
  ASSERT_NE(config.FindAcl("101"), nullptr);
  EXPECT_EQ(config.FindAcl("101")->lines[0].protocol, ir::kProtoTcp);
}

TEST(CiscoParserTest, Ipv6PrefixListWindows) {
  auto config = Parse(
      "ipv6 prefix-list PL6 seq 5 permit 2001:db8::/32 le 128\n"
      "ipv6 prefix-list PL6 seq 10 permit 2001:db8:9::/48 ge 56\n"
      "ipv6 prefix-list PL6 seq 15 deny 2001:db8:bad::/48\n");
  const ir::PrefixList* list = config.FindPrefixList("PL6");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->family, util::AddressFamily::kIpv6);
  ASSERT_EQ(list->entries.size(), 3u);
  EXPECT_EQ(list->entries[0].range,
            PrefixRange(*util::IpPrefix::Parse("2001:db8::/32"), 32, 128));
  EXPECT_EQ(list->entries[1].range,
            PrefixRange(*util::IpPrefix::Parse("2001:db8:9::/48"), 56, 128));
  // Without ge/le the entry matches the exact length, as in v4.
  EXPECT_EQ(list->entries[2].range,
            PrefixRange(*util::IpPrefix::Parse("2001:db8:bad::/48"), 48, 48));
  EXPECT_EQ(list->entries[2].action, ir::LineAction::kDeny);
}

TEST(CiscoParserTest, Ipv6NamedAcl) {
  auto config = Parse(
      "ipv6 access-list V6\n"
      " permit tcp 2001:db8:1::/48 any eq 179\n"
      " permit icmpv6 any any 128\n"
      " deny ipv6 host 2001:db8::dead any\n"
      " permit ipv6 2001:db8::/32 any\n");
  const ir::Acl* acl = config.FindAcl("V6");
  ASSERT_NE(acl, nullptr);
  EXPECT_EQ(acl->family, util::AddressFamily::kIpv6);
  ASSERT_EQ(acl->lines.size(), 4u);

  EXPECT_EQ(acl->lines[0].protocol, ir::kProtoTcp);
  ASSERT_TRUE(acl->lines[0].src.AsIpPrefix().has_value());
  EXPECT_EQ(*acl->lines[0].src.AsIpPrefix(),
            *util::IpPrefix::Parse("2001:db8:1::/48"));
  EXPECT_TRUE(acl->lines[0].dst.IsAny());
  ASSERT_EQ(acl->lines[0].dst_ports.size(), 1u);
  EXPECT_EQ(acl->lines[0].dst_ports[0], (ir::PortRange{179, 179}));

  EXPECT_EQ(acl->lines[1].protocol, ir::kProtoIcmpv6);
  EXPECT_EQ(acl->lines[1].icmp_type, 128);

  // "host" form and "ipv6" (any-protocol) keyword.
  EXPECT_EQ(acl->lines[2].action, ir::LineAction::kDeny);
  EXPECT_FALSE(acl->lines[2].protocol.has_value());
  EXPECT_TRUE(acl->lines[2].src.Matches(
      *util::Ipv6Address::Parse("2001:db8::dead")));
  EXPECT_FALSE(acl->lines[2].src.Matches(
      *util::Ipv6Address::Parse("2001:db8::beef")));

  EXPECT_FALSE(acl->lines[3].protocol.has_value());
  EXPECT_EQ(acl->lines[3].src.family(), util::AddressFamily::kIpv6);
}

TEST(CiscoParserTest, Ipv6AclRejectsV4Addresses) {
  auto result = ParseCiscoConfig(
      "ipv6 access-list V6\n"
      " permit tcp 10.0.0.0 0.0.0.255 any\n",
      "test.cfg");
  const ir::Acl* acl = result.config.FindAcl("V6");
  ASSERT_NE(acl, nullptr);
  EXPECT_TRUE(acl->lines.empty());
  EXPECT_FALSE(result.diagnostics.empty());
}

TEST(CiscoParserTest, RouteMapMatchIpv6AddressPrefixList) {
  auto config = Parse(
      "ipv6 prefix-list NETS6 seq 5 permit 2001:db8::/32\n"
      "route-map POL permit 10\n"
      " match ipv6 address prefix-list NETS6\n");
  const ir::RouteMap* map = config.FindRouteMap("POL");
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->clauses.size(), 1u);
  ASSERT_EQ(map->clauses[0].matches.size(), 1u);
  EXPECT_EQ(map->clauses[0].matches[0].names,
            std::vector<std::string>{"NETS6"});
}

// Port operands: numbers up to 65535 and the shared service names parse;
// anything else (an unknown name, a number past 65535) is diagnosed and
// skips the line instead of becoming some other port.
TEST(CiscoParserTest, AclPortOperandsTable) {
  struct Case {
    const char* line;
    std::vector<ir::PortRange> src_ports;
    std::vector<ir::PortRange> dst_ports;
  };
  const Case parsed[] = {
      {"permit tcp any any eq ssh", {}, {{22, 22}}},
      {"permit tcp any any eq www", {}, {{80, 80}}},
      {"permit udp any any eq snmp", {}, {{161, 161}}},
      {"permit tcp any eq bgp any", {{179, 179}}, {}},
      {"permit tcp any any range ftp telnet", {}, {{21, 23}}},
      {"permit tcp any any eq 65535", {}, {{65535, 65535}}},
      {"permit tcp any any gt smtp", {}, {{26, 65535}}},
      {"permit udp any any lt domain", {}, {{0, 52}}},
  };
  for (const Case& c : parsed) {
    SCOPED_TRACE(c.line);
    auto result = ParseCiscoConfig(
        std::string("ip access-list extended P\n ") + c.line + "\n", "c.cfg");
    EXPECT_TRUE(result.diagnostics.empty());
    const ir::Acl* acl = result.config.FindAcl("P");
    ASSERT_NE(acl, nullptr);
    ASSERT_EQ(acl->lines.size(), 1u);
    EXPECT_EQ(acl->lines[0].src_ports, c.src_ports);
    EXPECT_EQ(acl->lines[0].dst_ports, c.dst_ports);
  }
  const char* rejected[] = {
      "permit tcp any any eq bogus",
      "permit tcp any any eq 65536",
      "permit tcp any any range 1024 70000",
      "permit tcp any eq gopher any",
      "permit tcp any any gt 99999",
      "permit tcp any any lt http",
  };
  for (const char* line : rejected) {
    SCOPED_TRACE(line);
    // The diagnostic quotes the raw line, indentation included.
    const std::string raw = std::string(" ") + line;
    auto result = ParseCiscoConfig(
        "ip access-list extended P\n" + raw + "\n", "c.cfg");
    EXPECT_EQ(result.diagnostics,
              std::vector<std::string>{"c.cfg:2: bad acl port: " + raw});
    const ir::Acl* acl = result.config.FindAcl("P");
    ASSERT_NE(acl, nullptr);
    EXPECT_TRUE(acl->lines.empty());
  }
}

}  // namespace
}  // namespace campion::cisco
