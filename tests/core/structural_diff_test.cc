#include "core/structural_diff.h"

#include <gtest/gtest.h>

namespace campion::core {
namespace {

using util::Ipv4Address;
using util::IpPrefix;

ir::StaticRoute Static(const char* prefix, const char* next_hop,
                       int distance = 1,
                       std::optional<std::uint32_t> tag = std::nullopt) {
  ir::StaticRoute route;
  route.prefix = *IpPrefix::Parse(prefix);
  route.next_hop = *Ipv4Address::Parse(next_hop);
  route.admin_distance = distance;
  route.tag = tag;
  return route;
}

ir::Interface Iface(const char* name, const char* address, int length) {
  ir::Interface iface;
  iface.name = name;
  iface.address = *Ipv4Address::Parse(address);
  iface.prefix_length = length;
  return iface;
}

// --- static routes --------------------------------------------------------

TEST(DiffStaticRoutesTest, IdenticalSetsAreEquivalent) {
  ir::RouterConfig a, b;
  a.static_routes = {Static("10.1.0.0/24", "10.0.0.1"),
                     Static("10.2.0.0/24", "10.0.0.2")};
  b.static_routes = a.static_routes;
  EXPECT_TRUE(DiffStaticRoutes(a, b).empty());
}

TEST(DiffStaticRoutesTest, OrderDoesNotMatter) {
  ir::RouterConfig a, b;
  a.static_routes = {Static("10.1.0.0/24", "10.0.0.1"),
                     Static("10.2.0.0/24", "10.0.0.2")};
  b.static_routes = {a.static_routes[1], a.static_routes[0]};
  EXPECT_TRUE(DiffStaticRoutes(a, b).empty());
}

TEST(DiffStaticRoutesTest, MissingRouteIsPresenceDifference) {
  ir::RouterConfig a, b;
  a.static_routes = {Static("10.1.1.2/31", "10.2.2.2")};
  auto diffs = DiffStaticRoutes(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].component, "Static Route 10.1.1.2/31");
  EXPECT_EQ(diffs[0].field, "presence");
  EXPECT_EQ(diffs[0].value1, "configured");
  EXPECT_EQ(diffs[0].value2, "(absent)");
}

TEST(DiffStaticRoutesTest, NextHopMismatch) {
  ir::RouterConfig a, b;
  a.static_routes = {Static("10.1.0.0/24", "10.0.0.1")};
  b.static_routes = {Static("10.1.0.0/24", "10.0.0.9")};
  auto diffs = DiffStaticRoutes(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "next hop");
  EXPECT_EQ(diffs[0].value1, "10.0.0.1");
  EXPECT_EQ(diffs[0].value2, "10.0.0.9");
}

TEST(DiffStaticRoutesTest, AdminDistanceMismatch) {
  ir::RouterConfig a, b;
  a.static_routes = {Static("10.1.0.0/24", "10.0.0.1", 1)};
  b.static_routes = {Static("10.1.0.0/24", "10.0.0.1", 5)};
  auto diffs = DiffStaticRoutes(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "admin distance");
  EXPECT_EQ(diffs[0].value1, "1");
  EXPECT_EQ(diffs[0].value2, "5");
}

TEST(DiffStaticRoutesTest, TagMismatch) {
  // The paper's synthetic replay: two static routes whose tags were
  // configured differently caused a significant outage.
  ir::RouterConfig a, b;
  a.static_routes = {Static("10.1.0.0/24", "10.0.0.1", 1, 100)};
  b.static_routes = {Static("10.1.0.0/24", "10.0.0.1", 1, 200)};
  auto diffs = DiffStaticRoutes(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "tag");
  EXPECT_EQ(diffs[0].value1, "100");
  EXPECT_EQ(diffs[0].value2, "200");
}

TEST(DiffStaticRoutesTest, MultipathSamePrefixMatchedByNextHop) {
  ir::RouterConfig a, b;
  a.static_routes = {Static("10.1.0.0/24", "10.0.0.1"),
                     Static("10.1.0.0/24", "10.0.0.2")};
  b.static_routes = {Static("10.1.0.0/24", "10.0.0.2"),
                     Static("10.1.0.0/24", "10.0.0.1")};
  EXPECT_TRUE(DiffStaticRoutes(a, b).empty());
}

TEST(DiffStaticRoutesTest, InterfaceNextHopRoutes) {
  ir::RouterConfig a, b;
  ir::StaticRoute route;
  route.prefix = *IpPrefix::Parse("0.0.0.0/0");
  route.next_hop_interface = "Null0";
  a.static_routes = {route};
  b.static_routes = {route};
  EXPECT_TRUE(DiffStaticRoutes(a, b).empty());
  b.static_routes[0].next_hop_interface = "Ethernet1";
  EXPECT_EQ(DiffStaticRoutes(a, b).size(), 1u);
}

// --- connected routes -----------------------------------------------------

TEST(DiffConnectedRoutesTest, SameSubnetsDifferentHosts) {
  // Backup routers on the same subnets with different addresses: no diff.
  ir::RouterConfig a, b;
  a.interfaces = {Iface("Ethernet1", "10.0.1.1", 24)};
  b.interfaces = {Iface("xe-0/0/0.0", "10.0.1.2", 24)};
  EXPECT_TRUE(DiffConnectedRoutes(a, b).empty());
}

TEST(DiffConnectedRoutesTest, MissingSubnet) {
  ir::RouterConfig a, b;
  a.interfaces = {Iface("Ethernet1", "10.0.1.1", 24),
                  Iface("Ethernet2", "10.0.2.1", 24)};
  b.interfaces = {Iface("xe-0/0/0.0", "10.0.1.2", 24)};
  auto diffs = DiffConnectedRoutes(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].component, "Connected Route 10.0.2.0/24");
  EXPECT_EQ(diffs[0].value2, "(absent)");
}

TEST(DiffConnectedRoutesTest, ShutdownInterfaceIgnored) {
  ir::RouterConfig a, b;
  a.interfaces = {Iface("Ethernet1", "10.0.1.1", 24)};
  a.interfaces[0].shutdown = true;
  EXPECT_TRUE(DiffConnectedRoutes(a, b).empty());
}

// --- OSPF ------------------------------------------------------------------

ir::Interface OspfIface(const char* name, std::uint32_t cost,
                        std::uint32_t area) {
  ir::Interface iface = Iface(name, "10.0.1.1", 24);
  iface.ospf_enabled = true;
  iface.ospf_cost = cost;
  iface.ospf_area = area;
  return iface;
}

std::vector<StructuralDifference> OspfDiffs(
    const ir::RouterConfig& a, const ir::RouterConfig& b,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  return DiffOspf(a, ir::InterfaceIndex(a), b, ir::InterfaceIndex(b), pairs);
}

TEST(DiffOspfTest, EqualLinkAttributes) {
  ir::RouterConfig a, b;
  a.interfaces = {OspfIface("e1", 10, 0)};
  b.interfaces = {OspfIface("x1", 10, 0)};
  a.ospf.emplace();
  b.ospf.emplace();
  EXPECT_TRUE(OspfDiffs(a, b, {{"e1", "x1"}}).empty());
}

TEST(DiffOspfTest, CostMismatch) {
  ir::RouterConfig a, b;
  a.interfaces = {OspfIface("e1", 10, 0)};
  b.interfaces = {OspfIface("x1", 20, 0)};
  a.ospf.emplace();
  b.ospf.emplace();
  auto diffs = OspfDiffs(a, b, {{"e1", "x1"}});
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "cost");
  EXPECT_EQ(diffs[0].value1, "10");
  EXPECT_EQ(diffs[0].value2, "20");
}

TEST(DiffOspfTest, AreaAndPassiveMismatch) {
  ir::RouterConfig a, b;
  a.interfaces = {OspfIface("e1", 10, 0)};
  b.interfaces = {OspfIface("x1", 10, 1)};
  b.interfaces[0].ospf_passive = true;
  a.ospf.emplace();
  b.ospf.emplace();
  auto diffs = OspfDiffs(a, b, {{"e1", "x1"}});
  EXPECT_EQ(diffs.size(), 2u);  // area + passive
}

TEST(DiffOspfTest, EnabledMismatchShortCircuits) {
  ir::RouterConfig a, b;
  a.interfaces = {OspfIface("e1", 10, 0)};
  b.interfaces = {Iface("x1", "10.0.1.2", 24)};  // OSPF disabled.
  a.ospf.emplace();
  b.ospf.emplace();
  auto diffs = OspfDiffs(a, b, {{"e1", "x1"}});
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "ospf enabled");
}

TEST(DiffOspfTest, ProcessPresence) {
  ir::RouterConfig a, b;
  a.ospf.emplace();
  auto diffs = OspfDiffs(a, b, {});
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].component, "OSPF Process");
  EXPECT_EQ(diffs[0].field, "presence");
}

TEST(DiffOspfTest, ReferenceBandwidthAndRedistribution) {
  ir::OspfProcess ospf_a, ospf_b;
  ospf_a.reference_bandwidth_mbps = 100000;
  ospf_b.reference_bandwidth_mbps = 100;
  ospf_a.redistributions.push_back({ir::Protocol::kStatic, "RM", {}});
  ir::RouterConfig a, b;
  a.ospf = std::move(ospf_a);
  b.ospf = std::move(ospf_b);
  auto diffs = OspfDiffs(a, b, {});
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0].field, "reference bandwidth (Mbps)");
  EXPECT_NE(diffs[1].component.find("Redistribution of static"),
            std::string::npos);
}

// --- BGP properties -----------------------------------------------------------

ir::RouterConfig BgpConfig(std::uint32_t asn) {
  ir::RouterConfig config;
  config.bgp.emplace();
  config.bgp->asn = asn;
  return config;
}

ir::BgpNeighbor Neighbor(const char* ip, std::uint32_t remote_as) {
  ir::BgpNeighbor n;
  n.ip = *Ipv4Address::Parse(ip);
  n.remote_as = remote_as;
  return n;
}

TEST(DiffBgpPropertiesTest, EqualProcesses) {
  ir::RouterConfig a = BgpConfig(65000);
  ir::RouterConfig b = BgpConfig(65000);
  a.bgp->neighbors = {Neighbor("10.0.0.2", 65001)};
  b.bgp->neighbors = {Neighbor("10.0.0.2", 65001)};
  EXPECT_TRUE(DiffBgpProperties(a, b).empty());
}

TEST(DiffBgpPropertiesTest, MissingNeighbor) {
  ir::RouterConfig a = BgpConfig(65000);
  ir::RouterConfig b = BgpConfig(65000);
  a.bgp->neighbors = {Neighbor("10.0.0.2", 65001)};
  auto diffs = DiffBgpProperties(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].component, "BGP Neighbor 10.0.0.2");
  EXPECT_EQ(diffs[0].field, "presence");
}

TEST(DiffBgpPropertiesTest, SendCommunityMismatch) {
  // The §5.2 finding: Cisco iBGP neighbors missing `send-community` while
  // JunOS sends communities by default.
  ir::RouterConfig a = BgpConfig(65000);
  ir::RouterConfig b = BgpConfig(65000);
  a.bgp->neighbors = {Neighbor("10.0.0.2", 65000)};
  b.bgp->neighbors = {Neighbor("10.0.0.2", 65000)};
  b.bgp->neighbors[0].send_community = true;
  auto diffs = DiffBgpProperties(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "send-community");
  EXPECT_EQ(diffs[0].value1, "no");
  EXPECT_EQ(diffs[0].value2, "yes");
}

TEST(DiffBgpPropertiesTest, RouteReflectorClientMismatch) {
  ir::RouterConfig a = BgpConfig(65000);
  ir::RouterConfig b = BgpConfig(65000);
  a.bgp->neighbors = {Neighbor("10.0.0.2", 65000)};
  b.bgp->neighbors = {Neighbor("10.0.0.2", 65000)};
  a.bgp->neighbors[0].route_reflector_client = true;
  auto diffs = DiffBgpProperties(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "route-reflector-client");
}

TEST(DiffBgpPropertiesTest, RemoteAsMismatch) {
  ir::RouterConfig a = BgpConfig(65000);
  ir::RouterConfig b = BgpConfig(65000);
  a.bgp->neighbors = {Neighbor("10.0.0.2", 65001)};
  b.bgp->neighbors = {Neighbor("10.0.0.2", 65002)};
  auto diffs = DiffBgpProperties(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "remote AS");
}

TEST(DiffBgpPropertiesTest, NetworkStatementSets) {
  ir::RouterConfig a = BgpConfig(65000);
  ir::RouterConfig b = BgpConfig(65000);
  a.bgp->networks = {*IpPrefix::Parse("10.1.0.0/24")};
  auto diffs = DiffBgpProperties(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].component, "BGP Network 10.1.0.0/24");
}

TEST(DiffBgpPropertiesTest, ProcessPresence) {
  ir::RouterConfig a = BgpConfig(65000);
  ir::RouterConfig b;
  auto diffs = DiffBgpProperties(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].component, "BGP Process");
}

TEST(DiffBgpPropertiesTest, LocalAsMismatch) {
  ir::RouterConfig a = BgpConfig(65000);
  ir::RouterConfig b = BgpConfig(65001);
  auto diffs = DiffBgpProperties(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "local AS");
}

// --- admin distances -------------------------------------------------------------

TEST(DiffAdminDistancesTest, Defaults) {
  ir::RouterConfig a, b;
  EXPECT_TRUE(DiffAdminDistances(a, b).empty());
}

TEST(DiffAdminDistancesTest, EbgpOverride) {
  ir::RouterConfig a, b;
  a.admin_distances.ebgp = 30;
  auto diffs = DiffAdminDistances(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "ebgp");
  EXPECT_EQ(diffs[0].value1, "30");
  EXPECT_EQ(diffs[0].value2, "20");
}

}  // namespace
}  // namespace campion::core
