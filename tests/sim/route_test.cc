#include "sim/route.h"

#include <gtest/gtest.h>

namespace campion::sim {
namespace {

using util::Community;
using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

ir::RouterConfig MakeConfig() {
  ir::RouterConfig config;
  ir::PrefixList nets;
  nets.name = "NETS";
  nets.entries.push_back(
      {ir::LineAction::kPermit,
       PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32), {}});
  config.prefix_lists["NETS"] = nets;

  ir::CommunityList comm;
  comm.name = "COMM";
  comm.entries.push_back({ir::LineAction::kPermit, {Community(10, 10)}, {}});
  comm.entries.push_back({ir::LineAction::kPermit, {Community(10, 11)}, {}});
  config.community_lists["COMM"] = comm;
  return config;
}

Route BgpRoute(const char* prefix) {
  Route route;
  route.prefix = *IpPrefix::Parse(prefix);
  route.protocol = ir::Protocol::kBgp;
  route.admin_distance = 20;
  return route;
}

ir::RouteMap DenyNetsThenAccept() {
  ir::RouteMap map;
  map.name = "POL";
  ir::RouteMapClause deny;
  deny.action = ir::ClauseAction::kDeny;
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kPrefixList;
  match.names = {"NETS"};
  deny.matches.push_back(match);
  map.clauses.push_back(deny);
  ir::RouteMapClause accept;
  accept.action = ir::ClauseAction::kPermit;
  ir::RouteMapSet set;
  set.kind = ir::RouteMapSet::Kind::kLocalPreference;
  set.value = 30;
  accept.sets.push_back(set);
  map.clauses.push_back(accept);
  map.default_action = ir::ClauseAction::kDeny;
  return map;
}

TEST(EvalRouteMapTest, DenyMatchingPrefix) {
  ir::RouterConfig config = MakeConfig();
  ir::RouteMap map = DenyNetsThenAccept();
  EXPECT_FALSE(EvalRouteMap(config, map, BgpRoute("10.9.1.0/24")));
  auto accepted = EvalRouteMap(config, map, BgpRoute("192.168.0.0/16"));
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(accepted->local_pref, 30u);
}

TEST(EvalRouteMapTest, CommunityListOrSemantics) {
  ir::RouterConfig config = MakeConfig();
  ir::RouteMap map;
  map.name = "M";
  ir::RouteMapClause clause;
  clause.action = ir::ClauseAction::kPermit;
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kCommunityList;
  match.names = {"COMM"};
  clause.matches.push_back(match);
  map.clauses.push_back(clause);
  map.default_action = ir::ClauseAction::kDeny;

  Route with10 = BgpRoute("192.168.0.0/16");
  with10.communities.insert(Community(10, 10));
  EXPECT_TRUE(EvalRouteMap(config, map, with10).has_value());
  Route with_other = BgpRoute("192.168.0.0/16");
  with_other.communities.insert(Community(99, 99));
  EXPECT_FALSE(EvalRouteMap(config, map, with_other).has_value());
  EXPECT_FALSE(EvalRouteMap(config, map, BgpRoute("192.168.0.0/16")));
}

TEST(EvalRouteMapTest, FallThroughAppliesSetsThenContinues) {
  ir::RouterConfig config = MakeConfig();
  ir::RouteMap map;
  map.name = "M";
  ir::RouteMapClause fall;
  fall.action = ir::ClauseAction::kFallThrough;
  ir::RouteMapSet set;
  set.kind = ir::RouteMapSet::Kind::kMetric;
  set.value = 99;
  fall.sets.push_back(set);
  map.clauses.push_back(fall);
  ir::RouteMapClause accept;
  accept.action = ir::ClauseAction::kPermit;
  map.clauses.push_back(accept);
  map.default_action = ir::ClauseAction::kDeny;

  auto result = EvalRouteMap(config, map, BgpRoute("192.168.0.0/16"));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metric, 99u);
}

TEST(EvalRouteMapTest, DefaultActionApplies) {
  ir::RouterConfig config = MakeConfig();
  ir::RouteMap deny_default;
  deny_default.default_action = ir::ClauseAction::kDeny;
  EXPECT_FALSE(
      EvalRouteMap(config, deny_default, BgpRoute("1.0.0.0/8")).has_value());
  ir::RouteMap accept_default;
  accept_default.default_action = ir::ClauseAction::kPermit;
  EXPECT_TRUE(
      EvalRouteMap(config, accept_default, BgpRoute("1.0.0.0/8")).has_value());
}

TEST(EvalRouteMapTest, CommunitySetReplaceAddDelete) {
  ir::RouterConfig config = MakeConfig();
  ir::RouteMap map;
  ir::RouteMapClause clause;
  clause.action = ir::ClauseAction::kPermit;
  ir::RouteMapSet replace;
  replace.kind = ir::RouteMapSet::Kind::kCommunitySet;
  replace.communities = {Community(1, 1)};
  ir::RouteMapSet add;
  add.kind = ir::RouteMapSet::Kind::kCommunityAdd;
  add.communities = {Community(2, 2)};
  ir::RouteMapSet del;
  del.kind = ir::RouteMapSet::Kind::kCommunityDelete;
  del.communities = {Community(1, 1)};
  clause.sets = {replace, add, del};
  map.clauses.push_back(clause);

  Route route = BgpRoute("192.168.0.0/16");
  route.communities.insert(Community(9, 9));
  auto result = EvalRouteMap(config, map, route);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->communities, (std::set<Community>{Community(2, 2)}));
}

TEST(EvalPolicyTest, EmptyNameAcceptsUnmodified) {
  ir::RouterConfig config = MakeConfig();
  Route route = BgpRoute("10.9.1.0/24");
  auto result = EvalPolicy(config, "", route);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, route);
}

TEST(PreferredTest, AdminDistanceFirst) {
  Route static_route = BgpRoute("10.0.0.0/8");
  static_route.protocol = ir::Protocol::kStatic;
  static_route.admin_distance = 1;
  Route bgp = BgpRoute("10.0.0.0/8");
  EXPECT_TRUE(Preferred(static_route, bgp));
  EXPECT_FALSE(Preferred(bgp, static_route));
}

TEST(PreferredTest, BgpLocalPrefThenAsPath) {
  Route high_lp = BgpRoute("10.0.0.0/8");
  high_lp.local_pref = 200;
  high_lp.as_path_length = 5;
  Route low_lp = BgpRoute("10.0.0.0/8");
  low_lp.local_pref = 100;
  low_lp.as_path_length = 1;
  EXPECT_TRUE(Preferred(high_lp, low_lp));

  Route short_path = BgpRoute("10.0.0.0/8");
  short_path.as_path_length = 1;
  Route long_path = BgpRoute("10.0.0.0/8");
  long_path.as_path_length = 3;
  EXPECT_TRUE(Preferred(short_path, long_path));
}

TEST(PreferredTest, MetricBreaksOspfTies) {
  Route cheap = BgpRoute("10.0.0.0/8");
  cheap.protocol = ir::Protocol::kOspf;
  cheap.admin_distance = 110;
  cheap.metric = 10;
  Route costly = cheap;
  costly.metric = 30;
  EXPECT_TRUE(Preferred(cheap, costly));
}

TEST(PreferredTest, DeterministicTieBreak) {
  Route a = BgpRoute("10.0.0.0/8");
  a.learned_from = "alpha";
  Route b = BgpRoute("10.0.0.0/8");
  b.learned_from = "beta";
  EXPECT_TRUE(Preferred(a, b) != Preferred(b, a) || a == b);
}

}  // namespace
}  // namespace campion::sim
