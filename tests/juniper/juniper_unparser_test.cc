#include "juniper/juniper_unparser.h"

#include <gtest/gtest.h>

#include "juniper/juniper_parser.h"

namespace campion::juniper {
namespace {

using util::Community;
using util::IpPrefix;
using util::PrefixRange;

TEST(UnparseRouteFilterTest, AllWindowModes) {
  ir::RouterConfig config;
  ir::PrefixList list;
  list.name = "W";
  auto base = *IpPrefix::Parse("10.0.0.0/8");
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 8, 8), {}});      // exact
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 8, 32), {}});     // orlonger
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 9, 32), {}});     // longer
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 8, 24), {}});     // upto
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 16, 24), {}});    // range
  config.prefix_lists["W"] = list;

  ir::RouteMap map;
  map.name = "POL";
  ir::RouteMapClause clause;
  clause.action = ir::ClauseAction::kPermit;
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kPrefixList;
  match.names = {"W"};
  clause.matches.push_back(match);
  map.clauses.push_back(clause);
  map.default_action = ir::ClauseAction::kDeny;
  config.route_maps["POL"] = map;
  config.vendor = ir::Vendor::kJuniper;
  config.hostname = "j";

  std::string text = UnparseJuniperConfig(config);
  EXPECT_NE(text.find("route-filter 10.0.0.0/8 exact"), std::string::npos);
  EXPECT_NE(text.find("route-filter 10.0.0.0/8 orlonger"),
            std::string::npos);
  EXPECT_NE(text.find("route-filter 10.0.0.0/8 longer"), std::string::npos);
  EXPECT_NE(text.find("route-filter 10.0.0.0/8 upto /24"),
            std::string::npos);
  EXPECT_NE(text.find("route-filter 10.0.0.0/8 prefix-length-range /16-/24"),
            std::string::npos);

  // And it round-trips to the same windows.
  auto parsed = ParseJuniperConfig(text, "t.conf");
  const ir::RouteMap* back = parsed.config.FindRouteMap("POL");
  ASSERT_NE(back, nullptr);
  const auto& names = back->clauses[0].matches[0].names;
  ASSERT_EQ(names.size(), 5u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const ir::PrefixList* lowered = parsed.config.FindPrefixList(names[i]);
    ASSERT_NE(lowered, nullptr);
    EXPECT_EQ(lowered->entries[0].range, list.entries[i].range) << i;
  }
}

TEST(UnparseCommunityTest, SingleAndMultiEntry) {
  ir::CommunityList single;
  single.name = "ONE";
  single.entries.push_back(
      {ir::LineAction::kPermit, {Community(10, 10), Community(10, 11)}, {}});
  std::string one = UnparseCommunity(single);
  EXPECT_NE(one.find("community ONE members [ 10:10 10:11 ];"),
            std::string::npos);

  ir::CommunityList multi;
  multi.name = "OR2";
  multi.entries.push_back({ir::LineAction::kPermit, {Community(1, 1)}, {}});
  multi.entries.push_back({ir::LineAction::kPermit, {Community(2, 2)}, {}});
  std::string two = UnparseCommunity(multi);
  EXPECT_NE(two.find("community OR2__0"), std::string::npos);
  EXPECT_NE(two.find("community OR2__1"), std::string::npos);
}

TEST(UnparseDefaultActionTest, ImplicitDenyTermEmittedOnlyForDenyDefault) {
  ir::RouteMap map;
  map.name = "POL";
  map.default_action = ir::ClauseAction::kDeny;
  std::string deny = UnparsePolicyStatement(map);
  EXPECT_NE(deny.find("__implicit-deny__"), std::string::npos);
  map.default_action = ir::ClauseAction::kPermit;
  std::string permit = UnparsePolicyStatement(map);
  EXPECT_EQ(permit.find("__implicit-deny__"), std::string::npos);
}

TEST(UnparseFilterTest, TermsCarryConditionsAndActions) {
  ir::Acl acl;
  acl.name = "F";
  ir::AclLine line;
  line.action = ir::LineAction::kDeny;
  line.protocol = ir::kProtoTcp;
  line.src = util::IpWildcard(*IpPrefix::Parse("10.1.0.0/16"));
  line.dst_ports.push_back({443, 443});
  acl.lines.push_back(line);
  std::string text = UnparseFilter(acl);
  EXPECT_NE(text.find("source-address 10.1.0.0/16;"), std::string::npos);
  EXPECT_NE(text.find("protocol tcp;"), std::string::npos);
  EXPECT_NE(text.find("destination-port 443;"), std::string::npos);
  EXPECT_NE(text.find("then discard;"), std::string::npos);
}

// A discontiguous wildcard has no single JunOS prefix; dropping the match
// would widen the term to match-any. Small expansions become an OR of
// prefixes (entries in a term OR together), huge ones leave a visible
// marker instead of silently changing behavior.
TEST(UnparseFilterTest, DiscontiguousWildcardExpandsToPrefixUnion) {
  ir::Acl acl;
  acl.name = "DW";
  ir::AclLine line;
  line.action = ir::LineAction::kPermit;
  // Free bit 9 only (third octet, value 2): two /32 hosts.
  line.src = util::IpWildcard(util::Ipv4Address(10, 1, 0, 5), 0x00000200u);
  // Free low octet plus free bit 9: two /24 prefixes.
  line.dst = util::IpWildcard(util::Ipv4Address(10, 9, 0, 0), 0x000002FFu);
  acl.lines.push_back(line);
  std::string text = UnparseFilter(acl);
  EXPECT_NE(text.find("source-address 10.1.0.5/32;"), std::string::npos)
      << text;
  EXPECT_NE(text.find("source-address 10.1.2.5/32;"), std::string::npos)
      << text;
  EXPECT_NE(text.find("destination-address 10.9.0.0/24;"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("destination-address 10.9.2.0/24;"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("unrepresentable"), std::string::npos) << text;
}

TEST(UnparseFilterTest, HugeDiscontiguousWildcardLeavesMarker) {
  ir::Acl acl;
  acl.name = "DW";
  ir::AclLine line;
  line.action = ir::LineAction::kDeny;
  // 0x0F0F0F0F frees 12 non-suffix bits: 4096 prefixes, past the cap.
  line.src = util::IpWildcard(util::Ipv4Address(10, 0, 0, 0), 0x0F0F0F0Fu);
  acl.lines.push_back(line);
  std::string text = UnparseFilter(acl);
  EXPECT_NE(text.find("/* unrepresentable wildcard source-address"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("source-address 10."), std::string::npos) << text;
}

TEST(UnparseConfigTest, GroupsNeighborsByTypeAndAs) {
  ir::RouterConfig config;
  config.hostname = "j";
  config.vendor = ir::Vendor::kJuniper;
  ir::BgpProcess bgp;
  bgp.asn = 65000;
  bgp.router_id = *util::Ipv4Address::Parse("1.1.1.1");
  ir::BgpNeighbor ebgp;
  ebgp.ip = *util::Ipv4Address::Parse("10.0.0.2");
  ebgp.remote_as = 65001;
  bgp.neighbors.push_back(ebgp);
  ir::BgpNeighbor rr_client;
  rr_client.ip = *util::Ipv4Address::Parse("10.255.0.1");
  rr_client.remote_as = 65000;
  rr_client.route_reflector_client = true;
  bgp.neighbors.push_back(rr_client);
  config.bgp = std::move(bgp);

  std::string text = UnparseJuniperConfig(config);
  EXPECT_NE(text.find("type external;"), std::string::npos);
  EXPECT_NE(text.find("peer-as 65001;"), std::string::npos);
  EXPECT_NE(text.find("type internal;"), std::string::npos);
  EXPECT_NE(text.find("cluster 1.1.1.1;"), std::string::npos);

  auto parsed = ParseJuniperConfig(text, "t.conf");
  ASSERT_TRUE(parsed.config.bgp.has_value());
  ASSERT_EQ(parsed.config.bgp->neighbors.size(), 2u);
  const ir::BgpNeighbor* back =
      parsed.config.FindBgpNeighbor(*util::Ipv4Address::Parse("10.255.0.1"));
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->route_reflector_client);
  EXPECT_EQ(back->remote_as, 65000u);
}

TEST(UnparseRouteFilterTest, Ipv6WindowModesRoundTrip) {
  ir::RouterConfig config;
  ir::PrefixList list;
  list.name = "W6";
  list.family = util::AddressFamily::kIpv6;
  auto base = *util::IpPrefix::Parse("2001:db8::/32");
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 32, 32), {}});    // exact
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 32, 128), {}});   // orlonger
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 33, 128), {}});   // longer
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 32, 64), {}});    // upto
  config.prefix_lists["W6"] = list;

  ir::RouteMap map;
  map.name = "POL6";
  ir::RouteMapClause clause;
  clause.action = ir::ClauseAction::kPermit;
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kPrefixList;
  match.names = {"W6"};
  clause.matches.push_back(match);
  map.clauses.push_back(clause);
  map.default_action = ir::ClauseAction::kDeny;
  config.route_maps["POL6"] = map;
  config.vendor = ir::Vendor::kJuniper;
  config.hostname = "j";

  std::string text = UnparseJuniperConfig(config);
  // orlonger/longer are recognized against the v6 ceiling (128), not 32.
  EXPECT_NE(text.find("route-filter 2001:db8::/32 exact"), std::string::npos);
  EXPECT_NE(text.find("route-filter 2001:db8::/32 orlonger"),
            std::string::npos);
  EXPECT_NE(text.find("route-filter 2001:db8::/32 longer"),
            std::string::npos);
  EXPECT_NE(text.find("route-filter 2001:db8::/32 upto /64"),
            std::string::npos);

  auto parsed = ParseJuniperConfig(text, "t.conf");
  const ir::RouteMap* back = parsed.config.FindRouteMap("POL6");
  ASSERT_NE(back, nullptr);
  const auto& names = back->clauses[0].matches[0].names;
  ASSERT_EQ(names.size(), 4u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const ir::PrefixList* lowered = parsed.config.FindPrefixList(names[i]);
    ASSERT_NE(lowered, nullptr);
    EXPECT_EQ(lowered->family, util::AddressFamily::kIpv6) << i;
    EXPECT_EQ(lowered->entries[0].range, list.entries[i].range) << i;
  }
}

TEST(UnparseFilterTest, Inet6FilterRoundTrips) {
  ir::RouterConfig config;
  config.vendor = ir::Vendor::kJuniper;
  config.hostname = "j";
  ir::Acl acl;
  acl.name = "F6";
  acl.family = util::AddressFamily::kIpv6;
  ir::AclLine line;
  line.src = util::IpWildcard(*util::IpPrefix::Parse("2001:db8:1::/48"));
  line.dst = util::IpWildcard::AnyOf(util::AddressFamily::kIpv6);
  line.protocol = ir::kProtoTcp;
  line.dst_ports.push_back({179, 179});
  acl.lines.push_back(line);
  config.acls["F6"] = acl;

  std::string text = UnparseJuniperConfig(config);
  EXPECT_NE(text.find("family inet6"), std::string::npos);
  EXPECT_NE(text.find("source-address 2001:db8:1::/48;"), std::string::npos);

  auto parsed = ParseJuniperConfig(text, "t.conf");
  const ir::Acl* back = parsed.config.FindAcl("F6");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->family, util::AddressFamily::kIpv6);
  ASSERT_EQ(back->lines.size(), 1u);
  EXPECT_EQ(back->lines[0].src, acl.lines[0].src);
  EXPECT_EQ(back->lines[0].dst, acl.lines[0].dst);
  EXPECT_EQ(back->lines[0].protocol, acl.lines[0].protocol);
  EXPECT_EQ(back->lines[0].dst_ports, acl.lines[0].dst_ports);
}

TEST(UnparseFilterTest, V4OnlyConfigEmitsNoInet6Block) {
  ir::RouterConfig config;
  config.vendor = ir::Vendor::kJuniper;
  config.hostname = "j";
  ir::Acl acl;
  acl.name = "F4";
  ir::AclLine line;
  line.src = util::IpWildcard(*IpPrefix::Parse("10.0.0.0/8"));
  acl.lines.push_back(line);
  config.acls["F4"] = acl;
  std::string text = UnparseJuniperConfig(config);
  EXPECT_NE(text.find("family inet {"), std::string::npos);
  EXPECT_EQ(text.find("family inet6"), std::string::npos);
}

}  // namespace
}  // namespace campion::juniper
