#include "cisco/cisco_unparser.h"

#include <gtest/gtest.h>

#include "cisco/cisco_parser.h"

namespace campion::cisco {
namespace {

using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

TEST(UnparsePrefixListTest, WindowModifiers) {
  ir::PrefixList list;
  list.name = "PL";
  auto base = *IpPrefix::Parse("10.9.0.0/16");
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 16, 16), {}});
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 16, 32), {}});
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 24, 32), {}});
  list.entries.push_back(
      {ir::LineAction::kPermit, PrefixRange(base, 20, 28), {}});
  list.entries.push_back(
      {ir::LineAction::kDeny, PrefixRange(base, 16, 24), {}});
  std::string text = UnparsePrefixList(list);
  EXPECT_NE(text.find("permit 10.9.0.0/16\n"), std::string::npos);
  EXPECT_NE(text.find("permit 10.9.0.0/16 le 32"), std::string::npos);
  EXPECT_NE(text.find("permit 10.9.0.0/16 ge 24"), std::string::npos);
  EXPECT_NE(text.find("permit 10.9.0.0/16 ge 20 le 28"), std::string::npos);
  EXPECT_NE(text.find("deny 10.9.0.0/16 le 24"), std::string::npos);
}

TEST(UnparsePrefixListTest, RoundTripsWindows) {
  ir::PrefixList list;
  list.name = "PL";
  auto base = *IpPrefix::Parse("172.16.0.0/12");
  for (auto [low, high] : {std::pair{12, 12}, {12, 32}, {20, 32}, {14, 20}}) {
    list.entries.push_back(
        {ir::LineAction::kPermit, PrefixRange(base, low, high), {}});
  }
  auto parsed = ParseCiscoConfig(UnparsePrefixList(list), "t.cfg");
  const ir::PrefixList* back = parsed.config.FindPrefixList("PL");
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->entries.size(), list.entries.size());
  for (std::size_t i = 0; i < list.entries.size(); ++i) {
    EXPECT_EQ(back->entries[i].range, list.entries[i].range) << i;
  }
}

TEST(UnparseRouteMapTest, DefaultPermitGetsCatchAll) {
  ir::RouteMap map;
  map.name = "RM";
  ir::RouteMapClause clause;
  clause.sequence = 10;
  clause.action = ir::ClauseAction::kDeny;
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kTag;
  match.value = 5;
  clause.matches.push_back(match);
  map.clauses.push_back(clause);
  map.default_action = ir::ClauseAction::kPermit;
  std::string text = UnparseRouteMap(map);
  EXPECT_NE(text.find("route-map RM permit 20"), std::string::npos);

  map.default_action = ir::ClauseAction::kDeny;
  std::string text2 = UnparseRouteMap(map);
  EXPECT_EQ(text2.find("permit 20"), std::string::npos);
}

TEST(UnparseRouteMapTest, FallThroughBecomesContinue) {
  ir::RouteMap map;
  map.name = "RM";
  ir::RouteMapClause clause;
  clause.sequence = 10;
  clause.action = ir::ClauseAction::kFallThrough;
  ir::RouteMapSet set;
  set.kind = ir::RouteMapSet::Kind::kMetric;
  set.value = 5;
  clause.sets.push_back(set);
  map.clauses.push_back(clause);
  map.default_action = ir::ClauseAction::kDeny;
  std::string text = UnparseRouteMap(map);
  EXPECT_NE(text.find(" continue"), std::string::npos);

  auto parsed = ParseCiscoConfig(text, "t.cfg");
  const ir::RouteMap* back = parsed.config.FindRouteMap("RM");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->clauses[0].action, ir::ClauseAction::kFallThrough);
}

TEST(UnparseAclTest, WildcardShapes) {
  ir::Acl acl;
  acl.name = "F";
  ir::AclLine any_line;
  acl.lines.push_back(any_line);
  ir::AclLine host_line;
  host_line.src = util::IpWildcard(Ipv4Address(10, 1, 2, 3));
  host_line.protocol = ir::kProtoTcp;
  host_line.dst_ports.push_back({80, 80});
  acl.lines.push_back(host_line);
  ir::AclLine range_line;
  range_line.protocol = ir::kProtoUdp;
  range_line.dst = util::IpWildcard(*IpPrefix::Parse("10.2.0.0/16"));
  range_line.dst_ports.push_back({1024, 2048});
  acl.lines.push_back(range_line);

  std::string text = UnparseAcl(acl);
  EXPECT_NE(text.find("permit ip any any"), std::string::npos);
  EXPECT_NE(text.find("host 10.1.2.3"), std::string::npos);
  EXPECT_NE(text.find("eq 80"), std::string::npos);
  EXPECT_NE(text.find("10.2.0.0 0.0.255.255 range 1024 2048"),
            std::string::npos);
}

TEST(UnparseStaticRouteTest, AllFields) {
  ir::StaticRoute route;
  route.prefix = *IpPrefix::Parse("10.1.1.2/31");
  route.next_hop = Ipv4Address(10, 2, 2, 2);
  route.admin_distance = 250;
  route.tag = 99;
  std::string text = UnparseStaticRoute(route);
  EXPECT_EQ(text,
            "ip route 10.1.1.2 255.255.255.254 10.2.2.2 250 tag 99\n");
}

TEST(UnparseConfigTest, EmitsEndMarker) {
  ir::RouterConfig config;
  config.hostname = "r";
  std::string text = UnparseCiscoConfig(config);
  EXPECT_NE(text.find("hostname r"), std::string::npos);
  EXPECT_NE(text.find("end"), std::string::npos);
}

TEST(UnparsePrefixListTest, Ipv6RoundTripsWindows) {
  ir::PrefixList list;
  list.name = "PL6";
  list.family = util::AddressFamily::kIpv6;
  auto base = *util::IpPrefix::Parse("2001:db8::/32");
  // The window ceiling is 128, not 32: an "orlonger" v6 entry must emit
  // "le 128" and parse back to [32, 128].
  for (auto [low, high] :
       {std::pair{32, 32}, {32, 128}, {48, 128}, {40, 64}}) {
    list.entries.push_back(
        {ir::LineAction::kPermit, PrefixRange(base, low, high), {}});
  }
  std::string text = UnparsePrefixList(list);
  EXPECT_NE(text.find("ipv6 prefix-list PL6"), std::string::npos);
  EXPECT_NE(text.find("permit 2001:db8::/32 le 128"), std::string::npos);
  auto parsed = ParseCiscoConfig(text, "t.cfg");
  const ir::PrefixList* back = parsed.config.FindPrefixList("PL6");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->family, util::AddressFamily::kIpv6);
  ASSERT_EQ(back->entries.size(), list.entries.size());
  for (std::size_t i = 0; i < list.entries.size(); ++i) {
    EXPECT_EQ(back->entries[i].range, list.entries[i].range) << i;
  }
}

TEST(UnparseAclTest, Ipv6RoundTrips) {
  ir::Acl acl;
  acl.name = "F6";
  acl.family = util::AddressFamily::kIpv6;
  ir::AclLine any_line;
  any_line.src = util::IpWildcard::AnyOf(util::AddressFamily::kIpv6);
  any_line.dst = util::IpWildcard::AnyOf(util::AddressFamily::kIpv6);
  acl.lines.push_back(any_line);
  ir::AclLine host_line = any_line;
  host_line.src =
      util::IpWildcard(*util::Ipv6Address::Parse("2001:db8::dead"));
  host_line.protocol = ir::kProtoTcp;
  host_line.dst_ports.push_back({179, 179});
  acl.lines.push_back(host_line);
  ir::AclLine prefix_line = any_line;
  prefix_line.action = ir::LineAction::kDeny;
  prefix_line.dst =
      util::IpWildcard(*util::IpPrefix::Parse("2001:db8:bad::/48"));
  acl.lines.push_back(prefix_line);

  std::string text = UnparseAcl(acl);
  EXPECT_NE(text.find("ipv6 access-list F6"), std::string::npos);
  EXPECT_NE(text.find("permit ipv6 any any"), std::string::npos);
  EXPECT_NE(text.find("host 2001:db8::dead"), std::string::npos);
  EXPECT_NE(text.find("deny ipv6 any 2001:db8:bad::/48"), std::string::npos);

  auto parsed = ParseCiscoConfig(text, "t.cfg");
  const ir::Acl* back = parsed.config.FindAcl("F6");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->family, util::AddressFamily::kIpv6);
  ASSERT_EQ(back->lines.size(), acl.lines.size());
  for (std::size_t i = 0; i < acl.lines.size(); ++i) {
    EXPECT_EQ(back->lines[i].action, acl.lines[i].action) << i;
    EXPECT_EQ(back->lines[i].protocol, acl.lines[i].protocol) << i;
    EXPECT_EQ(back->lines[i].src, acl.lines[i].src) << i;
    EXPECT_EQ(back->lines[i].dst, acl.lines[i].dst) << i;
    EXPECT_EQ(back->lines[i].dst_ports, acl.lines[i].dst_ports) << i;
  }
}

}  // namespace
}  // namespace campion::cisco
