#include "core/semantic_diff.h"

#include <gtest/gtest.h>

namespace campion::core {
namespace {

using bdd::BddManager;
using bdd::BddRef;
using util::Community;
using util::IpPrefix;
using util::PrefixRange;

// --- route map helpers -------------------------------------------------------

ir::RouterConfig ConfigWithList(const char* name,
                                std::vector<PrefixRange> ranges) {
  ir::RouterConfig config;
  ir::PrefixList list;
  list.name = name;
  for (const auto& r : ranges) {
    list.entries.push_back({ir::LineAction::kPermit, r, {}});
  }
  config.prefix_lists[name] = std::move(list);
  return config;
}

ir::RouteMapClause Clause(ir::ClauseAction action,
                          std::vector<std::string> prefix_lists,
                          std::vector<ir::RouteMapSet> sets = {}) {
  ir::RouteMapClause clause;
  clause.action = action;
  if (!prefix_lists.empty()) {
    ir::RouteMapMatch match;
    match.kind = ir::RouteMapMatch::Kind::kPrefixList;
    match.names = std::move(prefix_lists);
    clause.matches.push_back(std::move(match));
  }
  clause.sets = std::move(sets);
  return clause;
}

ir::RouteMapSet LocalPref(std::uint32_t value) {
  ir::RouteMapSet set;
  set.kind = ir::RouteMapSet::Kind::kLocalPreference;
  set.value = value;
  return set;
}

class RouteMapClassesTest : public ::testing::Test {
 protected:
  RouteMapClassesTest()
      : config_(ConfigWithList(
            "NETS", {PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32)})),
        layout_(mgr_, {}) {}

  BddManager mgr_;
  ir::RouterConfig config_;
  encode::RouteAdvLayout layout_;
};

TEST_F(RouteMapClassesTest, ClassesPartitionTheValidSpace) {
  ir::RouteMap map;
  map.name = "M";
  map.clauses.push_back(Clause(ir::ClauseAction::kDeny, {"NETS"}));
  map.clauses.push_back(Clause(ir::ClauseAction::kPermit, {}));
  map.default_action = ir::ClauseAction::kDeny;

  encode::PolicyEncoder encoder(layout_, config_);
  auto classes = BuildRouteMapClasses(layout_, encoder, map);
  ASSERT_EQ(classes.size(), 2u);  // Clause 2 swallows the rest: no default.

  // Disjoint and covering Valid().
  BddRef unioned = mgr_.False();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    for (std::size_t j = i + 1; j < classes.size(); ++j) {
      EXPECT_FALSE(
          mgr_.Intersects(classes[i].predicate, classes[j].predicate));
    }
    unioned = mgr_.Or(unioned, classes[i].predicate);
  }
  EXPECT_EQ(unioned, layout_.Valid());
}

TEST_F(RouteMapClassesTest, DefaultClassAppearsWhenReachable) {
  ir::RouteMap map;
  map.name = "M";
  map.clauses.push_back(Clause(ir::ClauseAction::kDeny, {"NETS"}));
  map.default_action = ir::ClauseAction::kPermit;

  encode::PolicyEncoder encoder(layout_, config_);
  auto classes = BuildRouteMapClasses(layout_, encoder, map);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_FALSE(classes[0].is_default);
  EXPECT_FALSE(classes[0].action.accept);
  EXPECT_TRUE(classes[1].is_default);
  EXPECT_TRUE(classes[1].action.accept);
  EXPECT_NE(classes[1].text.find("default accept"), std::string::npos);
}

TEST_F(RouteMapClassesTest, FallThroughAccumulatesSets) {
  // Term 1 sets local-pref and falls through; term 2 accepts.
  ir::RouteMap map;
  map.name = "M";
  map.clauses.push_back(
      Clause(ir::ClauseAction::kFallThrough, {"NETS"}, {LocalPref(200)}));
  map.clauses.push_back(Clause(ir::ClauseAction::kPermit, {}));
  map.default_action = ir::ClauseAction::kDeny;

  encode::PolicyEncoder encoder(layout_, config_);
  auto classes = BuildRouteMapClasses(layout_, encoder, map);
  ASSERT_EQ(classes.size(), 2u);
  // One class accepts with lp=200 (went through term 1), one without.
  bool with_lp = false;
  bool without_lp = false;
  for (const auto& cls : classes) {
    ASSERT_TRUE(cls.action.accept);
    if (cls.action.local_pref == 200u) with_lp = true;
    if (!cls.action.local_pref.has_value()) without_lp = true;
  }
  EXPECT_TRUE(with_lp);
  EXPECT_TRUE(without_lp);
}

TEST_F(RouteMapClassesTest, FallThroughIntoDefaultKeepsSets) {
  ir::RouteMap map;
  map.name = "M";
  map.clauses.push_back(
      Clause(ir::ClauseAction::kFallThrough, {"NETS"}, {LocalPref(70)}));
  map.default_action = ir::ClauseAction::kPermit;

  encode::PolicyEncoder encoder(layout_, config_);
  auto classes = BuildRouteMapClasses(layout_, encoder, map);
  ASSERT_EQ(classes.size(), 2u);
  bool found = false;
  for (const auto& cls : classes) {
    if (cls.action.accept && cls.action.local_pref == 70u) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(RouteMapClassesTest, UnreachableClauseProducesNoClass) {
  ir::RouteMap map;
  map.name = "M";
  map.clauses.push_back(Clause(ir::ClauseAction::kDeny, {"NETS"}));
  map.clauses.push_back(Clause(ir::ClauseAction::kPermit, {"NETS"}));  // Dead.
  map.default_action = ir::ClauseAction::kDeny;

  encode::PolicyEncoder encoder(layout_, config_);
  auto classes = BuildRouteMapClasses(layout_, encoder, map);
  // Dead clause contributes nothing; remaining space is the default.
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_TRUE(classes[1].is_default);
}

// --- SemanticDiffRouteMaps ----------------------------------------------------

TEST(SemanticDiffRouteMapsTest, IdenticalMapsHaveNoDifferences) {
  ir::RouterConfig config = ConfigWithList(
      "NETS", {PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32)});
  ir::RouteMap map;
  map.name = "M";
  map.clauses.push_back(Clause(ir::ClauseAction::kDeny, {"NETS"}));
  map.clauses.push_back(Clause(ir::ClauseAction::kPermit, {}));

  BddManager mgr;
  encode::RouteAdvLayout layout(mgr, {});
  auto diffs = SemanticDiffRouteMaps(layout, config, map, config, map);
  EXPECT_TRUE(diffs.empty());
}

TEST(SemanticDiffRouteMapsTest, StructurallyDifferentButEquivalent) {
  // Map A denies NETS then permits all; map B permits NOT-NETS... expressed
  // as: deny NETS, permit rest — split over two equivalent list layouts.
  ir::RouterConfig config1 = ConfigWithList(
      "NETS", {PrefixRange(*IpPrefix::Parse("10.8.0.0/15"), 16, 32)});
  ir::RouterConfig config2 = ConfigWithList(
      "NETS", {PrefixRange(*IpPrefix::Parse("10.8.0.0/16"), 16, 32),
               PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32)});
  ir::RouteMap map;
  map.name = "M";
  map.clauses.push_back(Clause(ir::ClauseAction::kDeny, {"NETS"}));
  map.clauses.push_back(Clause(ir::ClauseAction::kPermit, {}));

  BddManager mgr;
  encode::RouteAdvLayout layout(mgr, {});
  auto diffs = SemanticDiffRouteMaps(layout, config1, map, config2, map);
  EXPECT_TRUE(diffs.empty()) << "equivalent lists flagged as different";
}

TEST(SemanticDiffRouteMapsTest, AttributeDifferenceOnAcceptedRoutes) {
  ir::RouterConfig config = ConfigWithList(
      "NETS", {PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32)});
  ir::RouteMap map1;
  map1.name = "M";
  map1.clauses.push_back(
      Clause(ir::ClauseAction::kPermit, {"NETS"}, {LocalPref(200)}));
  ir::RouteMap map2 = map1;
  map2.clauses[0].sets[0].value = 150;

  BddManager mgr;
  encode::RouteAdvLayout layout(mgr, {});
  auto diffs = SemanticDiffRouteMaps(layout, config, map1, config, map2);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_TRUE(diffs[0].action1.accept);
  EXPECT_TRUE(diffs[0].action2.accept);
  EXPECT_EQ(diffs[0].action1.local_pref, 200u);
  EXPECT_EQ(diffs[0].action2.local_pref, 150u);
}

TEST(SemanticDiffRouteMapsTest, DifferenceSetsAreDisjointAndCorrect) {
  // The union of difference input sets must be exactly the set where the
  // two maps disagree on accept/reject or attributes.
  ir::RouterConfig config1 = ConfigWithList(
      "L", {PrefixRange(*IpPrefix::Parse("10.0.0.0/8"), 8, 32)});
  ir::RouterConfig config2 = ConfigWithList(
      "L", {PrefixRange(*IpPrefix::Parse("10.0.0.0/8"), 8, 24)});
  ir::RouteMap map;
  map.name = "M";
  map.clauses.push_back(Clause(ir::ClauseAction::kPermit, {"L"}));
  map.default_action = ir::ClauseAction::kDeny;

  BddManager mgr;
  encode::RouteAdvLayout layout(mgr, {});
  auto diffs = SemanticDiffRouteMaps(layout, config1, map, config2, map);
  ASSERT_EQ(diffs.size(), 1u);
  // The disagreement space is lengths 25..32 under 10/8.
  BddRef expected = mgr.Diff(
      layout.MatchPrefixRange(
          PrefixRange(*IpPrefix::Parse("10.0.0.0/8"), 8, 32)),
      layout.MatchPrefixRange(
          PrefixRange(*IpPrefix::Parse("10.0.0.0/8"), 8, 24)));
  EXPECT_EQ(diffs[0].input_set, expected);
}

// --- ACLs ----------------------------------------------------------------------

ir::AclLine Line(ir::LineAction action, const char* dst_prefix,
                 std::optional<std::uint8_t> protocol = std::nullopt) {
  ir::AclLine line;
  line.action = action;
  line.protocol = protocol;
  line.dst = util::IpWildcard(*IpPrefix::Parse(dst_prefix));
  return line;
}

std::vector<BddRef> LineMatches(encode::PacketLayout& layout,
                                const ir::Acl& acl) {
  std::vector<BddRef> matches;
  for (const auto& line : acl.lines) matches.push_back(layout.MatchLine(line));
  return matches;
}

std::vector<AclPathClass> FullSpaceClasses(encode::PacketLayout& layout,
                                           const ir::Acl& acl) {
  return BuildAclClasses(layout.manager(), acl, LineMatches(layout, acl),
                         layout.manager().True());
}

TEST(AclClassesTest, ImplicitDenyClassIsLast) {
  ir::Acl acl;
  acl.name = "A";
  acl.lines.push_back(Line(ir::LineAction::kPermit, "10.0.0.0/8"));
  BddManager mgr;
  encode::PacketLayout layout(mgr);
  auto classes = FullSpaceClasses(layout, acl);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_FALSE(classes[0].is_default);
  EXPECT_TRUE(classes[1].is_default);
  EXPECT_EQ(classes[1].action, ir::LineAction::kDeny);
}

TEST(AclClassesTest, ShadowedLineProducesNoClass) {
  ir::Acl acl;
  acl.name = "A";
  acl.lines.push_back(Line(ir::LineAction::kDeny, "10.0.0.0/8"));
  acl.lines.push_back(Line(ir::LineAction::kPermit, "10.1.0.0/16"));  // Dead.
  BddManager mgr;
  encode::PacketLayout layout(mgr);
  auto classes = FullSpaceClasses(layout, acl);
  ASSERT_EQ(classes.size(), 2u);  // The deny line and the implicit deny.
}

TEST(AclClassesTest, ScopeLimitsTheWalk) {
  ir::Acl acl;
  acl.name = "A";
  acl.lines.push_back(Line(ir::LineAction::kPermit, "10.1.0.0/16"));
  acl.lines.push_back(Line(ir::LineAction::kDeny, "10.2.0.0/16"));
  acl.lines.push_back(Line(ir::LineAction::kPermit, "10.0.0.0/8"));
  BddManager mgr;
  encode::PacketLayout layout(mgr);
  std::vector<BddRef> matches = LineMatches(layout, acl);
  BddRef scope = layout.MatchDstPrefix(*IpPrefix::Parse("10.2.0.0/16"));
  auto classes = BuildAclClasses(mgr, acl, matches, scope);
  ASSERT_EQ(classes.size(), 1u);  // No later line, no implicit deny.
  EXPECT_EQ(classes[0].predicate, scope);
  EXPECT_EQ(classes[0].action, ir::LineAction::kDeny);
  EXPECT_TRUE(BuildAclClasses(mgr, acl, matches, mgr.False()).empty());
}

TEST(AclLineTextTest, NamesPortsIcmpTypeAndEstablished) {
  ir::AclLine web = Line(ir::LineAction::kPermit, "10.0.0.0/8", ir::kProtoTcp);
  web.dst_ports = {{80, 80}};
  ir::AclLine tls = web;
  tls.dst_ports = {{443, 443}};
  EXPECT_NE(AclLineText(web), AclLineText(tls));

  ir::AclLine full = web;
  full.src_ports = {{1024, 65535}};
  full.dst_ports = {{22, 22}, {8080, 8081}};
  full.established = true;
  EXPECT_EQ(AclLineText(full),
            "permit tcp " + full.src.ToString() + " " + full.dst.ToString() +
                " src-port 1024-65535 dst-port 22,8080-8081 established");

  ir::AclLine echo = Line(ir::LineAction::kDeny, "10.0.0.0/8", ir::kProtoIcmp);
  echo.icmp_type = 8;
  EXPECT_EQ(AclLineText(echo), "deny icmp " + echo.src.ToString() + " " +
                                   echo.dst.ToString() + " icmp-type 8");
}

TEST(AclLineTextTest, SourceSpanWins) {
  ir::AclLine line = Line(ir::LineAction::kPermit, "10.0.0.0/8", ir::kProtoTcp);
  line.dst_ports = {{80, 80}};
  line.span.text = "permit tcp any 10.0.0.0 0.255.255.255 eq www";
  EXPECT_EQ(AclLineText(line), line.span.text);
}

TEST(SemanticDiffAclsTest, IdenticalAclsEquivalent) {
  ir::Acl acl;
  acl.name = "A";
  acl.lines.push_back(Line(ir::LineAction::kPermit, "10.0.0.0/8",
                           ir::kProtoTcp));
  acl.lines.push_back(Line(ir::LineAction::kDeny, "0.0.0.0/0"));
  BddManager mgr;
  encode::PacketLayout layout(mgr);
  EXPECT_TRUE(SemanticDiffAcls(layout, acl, acl).empty());
}

TEST(SemanticDiffAclsTest, ReorderedDisjointLinesEquivalent) {
  ir::Acl acl1;
  acl1.name = "A";
  acl1.lines.push_back(Line(ir::LineAction::kPermit, "10.1.0.0/16"));
  acl1.lines.push_back(Line(ir::LineAction::kDeny, "10.2.0.0/16"));
  ir::Acl acl2;
  acl2.name = "A";
  acl2.lines.push_back(Line(ir::LineAction::kDeny, "10.2.0.0/16"));
  acl2.lines.push_back(Line(ir::LineAction::kPermit, "10.1.0.0/16"));
  BddManager mgr;
  encode::PacketLayout layout(mgr);
  EXPECT_TRUE(SemanticDiffAcls(layout, acl1, acl2).empty());
}

TEST(SemanticDiffAclsTest, ActionFlipIsOneDifference) {
  ir::Acl acl1;
  acl1.name = "A";
  acl1.lines.push_back(Line(ir::LineAction::kPermit, "10.1.0.0/16"));
  ir::Acl acl2 = acl1;
  acl2.lines[0].action = ir::LineAction::kDeny;
  BddManager mgr;
  encode::PacketLayout layout(mgr);
  auto diffs = SemanticDiffAcls(layout, acl1, acl2);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].action1, ir::LineAction::kPermit);
  EXPECT_EQ(diffs[0].action2, ir::LineAction::kDeny);
  EXPECT_EQ(diffs[0].input_set,
            layout.MatchLine(acl1.lines[0]));
}

TEST(SemanticDiffAclsTest, OverlappingReorderIsDifference) {
  // Overlapping permit/deny swapped: the overlap behaves differently.
  ir::Acl acl1;
  acl1.name = "A";
  acl1.lines.push_back(Line(ir::LineAction::kPermit, "10.0.0.0/8"));
  acl1.lines.push_back(Line(ir::LineAction::kDeny, "10.1.0.0/16"));  // Dead.
  ir::Acl acl2;
  acl2.name = "A";
  acl2.lines.push_back(Line(ir::LineAction::kDeny, "10.1.0.0/16"));
  acl2.lines.push_back(Line(ir::LineAction::kPermit, "10.0.0.0/8"));
  BddManager mgr;
  encode::PacketLayout layout(mgr);
  auto diffs = SemanticDiffAcls(layout, acl1, acl2);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].input_set,
            layout.MatchDstPrefix(*IpPrefix::Parse("10.1.0.0/16")));
}

TEST(SemanticDiffAclsTest, DifferencesAreSymmetric) {
  ir::Acl acl1;
  acl1.name = "A";
  acl1.lines.push_back(Line(ir::LineAction::kPermit, "10.1.0.0/16"));
  acl1.lines.push_back(Line(ir::LineAction::kPermit, "10.2.0.0/16"));
  ir::Acl acl2;
  acl2.name = "A";
  acl2.lines.push_back(Line(ir::LineAction::kPermit, "10.1.0.0/16"));
  BddManager mgr;
  encode::PacketLayout layout(mgr);
  auto forward = SemanticDiffAcls(layout, acl1, acl2);
  auto backward = SemanticDiffAcls(layout, acl2, acl1);
  ASSERT_EQ(forward.size(), 1u);
  ASSERT_EQ(backward.size(), 1u);
  EXPECT_EQ(forward[0].input_set, backward[0].input_set);
  EXPECT_EQ(forward[0].action1, backward[0].action2);
}

}  // namespace
}  // namespace campion::core
