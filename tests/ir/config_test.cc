#include "ir/config.h"

#include <gtest/gtest.h>

namespace campion::ir {
namespace {

using util::Community;
using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

RouterConfig MakeConfig() {
  RouterConfig config;
  config.hostname = "r";

  PrefixList list;
  list.name = "PL";
  list.entries.push_back(
      {LineAction::kPermit,
       PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32), {}});
  list.entries.push_back(
      {LineAction::kDeny, PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32),
       {}});  // Duplicate range, different action.
  config.prefix_lists["PL"] = list;

  StaticRoute route;
  route.prefix = *IpPrefix::Parse("10.7.0.0/16");
  config.static_routes.push_back(route);

  BgpProcess bgp;
  bgp.asn = 65000;
  bgp.networks.push_back(*IpPrefix::Parse("10.8.0.0/16"));
  config.bgp = std::move(bgp);

  CommunityList comm;
  comm.name = "CL";
  comm.entries.push_back(
      {LineAction::kPermit, {Community(1, 1), Community(2, 2)}, {}});
  config.community_lists["CL"] = comm;

  RouteMap map;
  map.name = "RM";
  RouteMapClause clause;
  RouteMapSet set;
  set.kind = RouteMapSet::Kind::kCommunityAdd;
  set.communities = {Community(3, 3)};
  clause.sets.push_back(set);
  map.clauses.push_back(clause);
  config.route_maps["RM"] = map;
  return config;
}

TEST(RouterConfigTest, AllPrefixRangesDeduplicatesAndCoversSources) {
  RouterConfig config = MakeConfig();
  auto ranges = config.AllPrefixRanges();
  // PL's duplicate range appears once; static route and BGP network appear
  // as exact ranges.
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_TRUE(std::find(ranges.begin(), ranges.end(),
                        PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32)) !=
              ranges.end());
  EXPECT_TRUE(std::find(ranges.begin(), ranges.end(),
                        PrefixRange(*IpPrefix::Parse("10.7.0.0/16"))) !=
              ranges.end());
  EXPECT_TRUE(std::find(ranges.begin(), ranges.end(),
                        PrefixRange(*IpPrefix::Parse("10.8.0.0/16"))) !=
              ranges.end());
}

TEST(RouterConfigTest, AllCommunitiesCoversListsAndSets) {
  RouterConfig config = MakeConfig();
  auto communities = config.AllCommunities();
  ASSERT_EQ(communities.size(), 3u);
  EXPECT_EQ(communities[0], Community(1, 1));
  EXPECT_EQ(communities[1], Community(2, 2));
  EXPECT_EQ(communities[2], Community(3, 3));
}

TEST(RouterConfigTest, FindersReturnNullForMissing) {
  RouterConfig config = MakeConfig();
  EXPECT_NE(config.FindPrefixList("PL"), nullptr);
  EXPECT_EQ(config.FindPrefixList("NOPE"), nullptr);
  EXPECT_NE(config.FindCommunityList("CL"), nullptr);
  EXPECT_EQ(config.FindCommunityList("NOPE"), nullptr);
  EXPECT_NE(config.FindRouteMap("RM"), nullptr);
  EXPECT_EQ(config.FindRouteMap("NOPE"), nullptr);
  EXPECT_EQ(config.FindAcl("NOPE"), nullptr);
  EXPECT_EQ(config.FindAsPathList("NOPE"), nullptr);
  EXPECT_EQ(config.FindInterface("NOPE"), nullptr);
  EXPECT_EQ(config.FindBgpNeighbor(Ipv4Address(1, 2, 3, 4)), nullptr);
}

TEST(InterfaceTest, ConnectedSubnetDerivation) {
  Interface iface;
  EXPECT_FALSE(iface.ConnectedSubnet().has_value());
  iface.address = Ipv4Address(10, 0, 1, 7);
  iface.prefix_length = 24;
  EXPECT_EQ(iface.ConnectedSubnet(), *IpPrefix::Parse("10.0.1.0/24"));
}

TEST(AdminDistancesTest, ForProtocol) {
  AdminDistances distances;
  EXPECT_EQ(distances.For(Protocol::kConnected), 0);
  EXPECT_EQ(distances.For(Protocol::kStatic), 1);
  EXPECT_EQ(distances.For(Protocol::kBgp), 20);
  EXPECT_EQ(distances.For(Protocol::kBgp, /*ibgp_route=*/true), 200);
  EXPECT_EQ(distances.For(Protocol::kOspf), 110);
}

TEST(AsPathListTest, SignatureIsOrderSensitive) {
  AsPathList a;
  a.entries.push_back({LineAction::kPermit, "^1_", {}});
  a.entries.push_back({LineAction::kDeny, ".*", {}});
  AsPathList b;
  b.entries.push_back({LineAction::kDeny, ".*", {}});
  b.entries.push_back({LineAction::kPermit, "^1_", {}});
  EXPECT_NE(a.Signature(), b.Signature());
  AsPathList c = a;
  EXPECT_EQ(a.Signature(), c.Signature());
}

TEST(BgpNeighborTest, IbgpDetection) {
  BgpNeighbor neighbor;
  neighbor.remote_as = 65000;
  EXPECT_TRUE(neighbor.IsIbgp(65000));
  EXPECT_FALSE(neighbor.IsIbgp(65001));
}

}  // namespace
}  // namespace campion::ir
