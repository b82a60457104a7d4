#include "core/config_diff.h"

#include <gtest/gtest.h>

#include "tests/testdata.h"

namespace campion::core {
namespace {

class ConfigDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cisco_ = testing::ParseCiscoOrDie(testing::kFig1Cisco);
    juniper_ = testing::ParseJuniperOrDie(testing::kFig1Juniper);
  }
  ir::RouterConfig cisco_;
  ir::RouterConfig juniper_;
};

// Regression: the BDD encoding of a discontiguous wildcard is per-bit, so
// "0.0.255.0" (free third octet) must NOT collapse to the "0.0.255.255"
// prefix approximation — they differ on every packet whose fourth octet
// moves. And two identical discontiguous lines must stay equivalent.
TEST(AclWildcardSemanticsTest, DiscontiguousWildcardIsNotAPrefix) {
  ir::RouterConfig exact = testing::ParseCiscoOrDie(
      "hostname r1\n"
      "ip access-list extended DW\n"
      " permit ip 10.1.0.5 0.0.255.0 any\n"
      " deny ip any any\n");
  ir::RouterConfig widened = testing::ParseCiscoOrDie(
      "hostname r2\n"
      "ip access-list extended DW\n"
      " permit ip 10.1.0.0 0.0.255.255 any\n"
      " deny ip any any\n");
  EXPECT_FALSE(DiffAclPair(exact, widened, "DW").empty());
  EXPECT_TRUE(DiffAclPair(exact, exact, "DW").empty());
}

TEST_F(ConfigDiffTest, OptionsDisableChecks) {
  DiffOptions only_structural;
  only_structural.check_route_maps = false;
  only_structural.check_acls = false;
  DiffReport report = ConfigDiff(cisco_, juniper_, only_structural);
  EXPECT_EQ(report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 0);
  EXPECT_GE(report.CountOf(DifferenceEntry::Kind::kStructural), 1);

  DiffOptions only_semantic;
  only_semantic.check_static_routes = false;
  only_semantic.check_connected_routes = false;
  only_semantic.check_ospf = false;
  only_semantic.check_bgp_properties = false;
  only_semantic.check_admin_distances = false;
  DiffReport semantic_report = ConfigDiff(cisco_, juniper_, only_semantic);
  EXPECT_EQ(semantic_report.CountOf(DifferenceEntry::Kind::kStructural), 0);
  EXPECT_EQ(
      semantic_report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 2);
}

TEST_F(ConfigDiffTest, SharedPolicyPairDiffedOnce) {
  // Both neighbors of a router using the same policy pair: one diff set.
  ir::RouterConfig a = cisco_;
  ir::RouterConfig b = juniper_;
  // Add a second neighbor using the same export policy on both sides.
  ir::BgpNeighbor extra1 = a.bgp->neighbors[0];
  extra1.ip = *util::Ipv4Address::Parse("10.0.12.13");
  a.bgp->neighbors.push_back(extra1);
  ir::BgpNeighbor extra2 = b.bgp->neighbors[0];
  extra2.ip = *util::Ipv4Address::Parse("10.0.12.13");
  b.bgp->neighbors.push_back(extra2);

  DiffReport report = ConfigDiff(a, b);
  EXPECT_EQ(report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 2);
}

TEST_F(ConfigDiffTest, DanglingRouteMapReferenceWarns) {
  ir::RouterConfig broken = cisco_;
  broken.bgp->neighbors[0].export_policy = "NO-SUCH-MAP";
  DiffReport report = ConfigDiff(broken, juniper_);
  int warnings = report.CountOf(DifferenceEntry::Kind::kWarning);
  EXPECT_GE(warnings, 1);
  bool found = false;
  for (const auto& entry : report.entries) {
    if (entry.kind == DifferenceEntry::Kind::kWarning &&
        entry.rendered.find("NO-SUCH-MAP") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ConfigDiffTest, MissingPolicyComparedAgainstPassThrough) {
  // Remove the Juniper export policy: POL vs accept-everything.
  ir::RouterConfig open = juniper_;
  open.bgp->neighbors[0].export_policy = "";
  DiffReport report = ConfigDiff(cisco_, open);
  // The Cisco POL rejects NETS and COMM routes; pass-through accepts all,
  // and accepted routes get no local-pref set: several differences.
  EXPECT_GE(report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 2);
}

TEST_F(ConfigDiffTest, UnmatchedNeighborsSurface) {
  ir::RouterConfig extra = cisco_;
  ir::BgpNeighbor neighbor = extra.bgp->neighbors[0];
  neighbor.ip = *util::Ipv4Address::Parse("192.0.2.99");
  extra.bgp->neighbors.push_back(neighbor);
  DiffReport report = ConfigDiff(extra, juniper_);
  EXPECT_GE(report.CountOf(DifferenceEntry::Kind::kUnmatched), 1);
  EXPECT_FALSE(report.Equivalent());
}

TEST_F(ConfigDiffTest, RenderNumbersEntries) {
  DiffReport report = ConfigDiff(cisco_, juniper_);
  std::string rendered = report.Render();
  EXPECT_NE(rendered.find("=== [1]"), std::string::npos);
  EXPECT_NE(rendered.find("=== [2]"), std::string::npos);
}

TEST_F(ConfigDiffTest, EmptyReportRendersEquivalenceMessage) {
  DiffReport report;
  EXPECT_NE(report.Render().find("behaviorally equivalent"),
            std::string::npos);
  EXPECT_TRUE(report.Equivalent());
}

TEST_F(ConfigDiffTest, RedistributionPoliciesDiffed) {
  // Two configs whose redistribution route maps differ semantically.
  ir::RouterConfig a;
  a.hostname = "a";
  ir::RouterConfig b;
  b.hostname = "b";
  for (ir::RouterConfig* config : {&a, &b}) {
    config->ospf.emplace();
    ir::PrefixList list;
    list.name = "STATICS";
    list.entries.push_back(
        {ir::LineAction::kPermit,
         util::PrefixRange(*util::IpPrefix::Parse("10.5.0.0/16"), 16,
                           config == &a ? 32 : 24),
         {}});
    config->prefix_lists["STATICS"] = list;
    ir::RouteMap map;
    map.name = "REDIST";
    ir::RouteMapClause clause;
    clause.action = ir::ClauseAction::kPermit;
    ir::RouteMapMatch match;
    match.kind = ir::RouteMapMatch::Kind::kPrefixList;
    match.names = {"STATICS"};
    clause.matches.push_back(match);
    map.clauses.push_back(clause);
    map.default_action = ir::ClauseAction::kDeny;
    config->route_maps["REDIST"] = map;
    config->ospf->redistributions.push_back(
        {ir::Protocol::kStatic, "REDIST", {}});
  }
  DiffReport report = ConfigDiff(a, b);
  EXPECT_EQ(report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 1);
  bool found = false;
  for (const auto& entry : report.entries) {
    if (entry.title.find("redistribution of static") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace campion::core
