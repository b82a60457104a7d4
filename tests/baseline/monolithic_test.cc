#include "baseline/monolithic.h"

#include <gtest/gtest.h>

#include <set>

#include "tests/testdata.h"

namespace campion::baseline {
namespace {

using util::Ipv4Address;
using util::IpPrefix;

class MonolithicFig1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    cisco_ = testing::ParseCiscoOrDie(testing::kFig1Cisco);
    juniper_ = testing::ParseJuniperOrDie(testing::kFig1Juniper);
  }
  ir::RouterConfig cisco_;
  ir::RouterConfig juniper_;
};

TEST_F(MonolithicFig1Test, DetectsNonEquivalence) {
  MonolithicRouteMapChecker checker(cisco_, *cisco_.FindRouteMap("POL"),
                                    juniper_, *juniper_.FindRouteMap("POL"));
  EXPECT_FALSE(checker.Equivalent());
}

TEST_F(MonolithicFig1Test, IdenticalMapsAreEquivalent) {
  MonolithicRouteMapChecker checker(cisco_, *cisco_.FindRouteMap("POL"),
                                    cisco_, *cisco_.FindRouteMap("POL"));
  EXPECT_TRUE(checker.Equivalent());
  EXPECT_FALSE(checker.Next().has_value());
}

TEST_F(MonolithicFig1Test, CounterexampleIsRealDifference) {
  MonolithicRouteMapChecker checker(cisco_, *cisco_.FindRouteMap("POL"),
                                    juniper_, *juniper_.FindRouteMap("POL"));
  auto counterexample = checker.Next();
  ASSERT_TRUE(counterexample.has_value());
  // The two routers must actually disagree on it.
  EXPECT_NE(counterexample->accepted1, counterexample->accepted2);
}

TEST_F(MonolithicFig1Test, CounterexamplesAreDistinct) {
  MonolithicRouteMapChecker checker(cisco_, *cisco_.FindRouteMap("POL"),
                                    juniper_, *juniper_.FindRouteMap("POL"));
  std::set<std::string> seen;
  for (int i = 0; i < 10; ++i) {
    auto counterexample = checker.Next();
    ASSERT_TRUE(counterexample.has_value()) << "exhausted after " << i;
    std::string key = counterexample->advertisement.ToString();
    EXPECT_TRUE(seen.insert(key).second) << "repeated: " << key;
  }
}

TEST_F(MonolithicFig1Test, DeterministicAcrossRuns) {
  auto run = [&](CounterexampleOrder order) {
    MonolithicRouteMapChecker checker(cisco_, *cisco_.FindRouteMap("POL"),
                                      juniper_, *juniper_.FindRouteMap("POL"),
                                      order);
    std::vector<std::string> out;
    for (int i = 0; i < 5; ++i) {
      auto c = checker.Next();
      if (!c) break;
      out.push_back(c->advertisement.ToString());
    }
    return out;
  };
  EXPECT_EQ(run(CounterexampleOrder::kFirstPath),
            run(CounterexampleOrder::kFirstPath));
  EXPECT_EQ(run(CounterexampleOrder::kLexMin),
            run(CounterexampleOrder::kLexMin));
}

TEST_F(MonolithicFig1Test, LexMinYieldsLexicographicallySmallest) {
  MonolithicRouteMapChecker checker(cisco_, *cisco_.FindRouteMap("POL"),
                                    juniper_, *juniper_.FindRouteMap("POL"),
                                    CounterexampleOrder::kLexMin);
  auto first = checker.Next();
  ASSERT_TRUE(first.has_value());
  auto second = checker.Next();
  ASSERT_TRUE(second.has_value());
  // The least difference is a community-only route at prefix 0.0.0.0/0
  // (Difference 2 covers the all-prefix space).
  EXPECT_EQ(first->advertisement.prefix, IpPrefix(Ipv4Address(0), 0));
}

TEST_F(MonolithicFig1Test, OutputStringHasNoLocalization) {
  MonolithicRouteMapChecker checker(cisco_, *cisco_.FindRouteMap("POL"),
                                    juniper_, *juniper_.FindRouteMap("POL"));
  auto counterexample = checker.Next();
  ASSERT_TRUE(counterexample.has_value());
  std::string text = counterexample->ToString("cisco", "juniper");
  // A single concrete route, forwarding verdicts, and nothing else — no
  // Included/Excluded ranges, no config text.
  EXPECT_NE(text.find("Route received"), std::string::npos);
  EXPECT_NE(text.find("Forwarding"), std::string::npos);
  EXPECT_EQ(text.find("Included"), std::string::npos);
  EXPECT_EQ(text.find("route-map"), std::string::npos);
}

TEST(MonolithicAclTest, DetectsAndExhaustsDifferences) {
  ir::Acl acl1;
  acl1.name = "A";
  ir::AclLine line;
  line.action = ir::LineAction::kPermit;
  line.protocol = ir::kProtoIcmp;  // Pin every field so the difference
  line.src = util::IpWildcard(*Ipv4Address::Parse("10.0.0.1"));
  line.dst = util::IpWildcard(*Ipv4Address::Parse("10.0.0.2"));
  line.icmp_type = 8;
  acl1.lines.push_back(line);
  ir::Acl acl2;  // Empty: denies everything.
  acl2.name = "A";

  MonolithicAclChecker checker(acl1, acl2);
  EXPECT_FALSE(checker.Equivalent());
  // The difference space is ICMP src->dst with type 8: src/dst/proto/icmp
  // pinned, ports free -> finitely many concrete packets; each Next()
  // consumes at least one.
  auto first = checker.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->permitted1);
  EXPECT_FALSE(first->permitted2);
  EXPECT_EQ(first->packet.src_ip, *Ipv4Address::Parse("10.0.0.1"));
  EXPECT_EQ(first->packet.protocol, ir::kProtoIcmp);
}

TEST(MonolithicRouteMapTest, MetricOnlyDifferenceHasDisagreeingVerdicts) {
  // The maps differ only on routes whose metric is not 10, so every
  // counterexample's exact predicate must pin the metric: without it, an
  // advertisement covers metric 10 too and both sides seem to accept it.
  const ir::RouterConfig config = testing::ParseCiscoOrDie(
      "route-map M permit 10\n"
      " match metric 10\n"
      "route-map ALL permit 10\n");
  const ir::RouteMap& metric_only = *config.FindRouteMap("M");
  const ir::RouteMap& permit_all = *config.FindRouteMap("ALL");
  for (CounterexampleOrder order :
       {CounterexampleOrder::kFirstPath, CounterexampleOrder::kLexMin}) {
    for (bool metric_first : {true, false}) {
      MonolithicRouteMapChecker checker(
          config, metric_first ? metric_only : permit_all, config,
          metric_first ? permit_all : metric_only, order);
      ASSERT_FALSE(checker.Equivalent());
      for (int i = 0; i < 20; ++i) {
        auto counterexample = checker.Next();
        ASSERT_TRUE(counterexample.has_value()) << i;
        EXPECT_NE(counterexample->accepted1, counterexample->accepted2)
            << i << ": " << counterexample->advertisement.ToString();
        EXPECT_NE(counterexample->advertisement.metric, 10u)
            << counterexample->advertisement.ToString();
      }
    }
  }
}

TEST(MonolithicAclTest, EstablishedOnlyDifferenceHasDisagreeingVerdicts) {
  // The ACLs differ only on non-established TCP, so every counterexample's
  // exact predicate must pin the established bit: without it, a packet
  // covers both values and both sides seem to permit it.
  ir::AclLine line;
  line.action = ir::LineAction::kPermit;
  line.protocol = ir::kProtoTcp;
  ir::Acl acl1;
  acl1.name = "A";
  acl1.lines.push_back(line);
  acl1.lines.back().established = true;
  ir::Acl acl2;
  acl2.name = "A";
  acl2.lines.push_back(line);
  for (CounterexampleOrder order :
       {CounterexampleOrder::kFirstPath, CounterexampleOrder::kLexMin}) {
    for (bool established_first : {true, false}) {
      MonolithicAclChecker checker(established_first ? acl1 : acl2,
                                   established_first ? acl2 : acl1, order);
      ASSERT_FALSE(checker.Equivalent());
      for (int i = 0; i < 50; ++i) {
        auto counterexample = checker.Next();
        ASSERT_TRUE(counterexample.has_value()) << i;
        EXPECT_NE(counterexample->permitted1, counterexample->permitted2)
            << i << ": " << counterexample->packet.ToString();
        EXPECT_FALSE(counterexample->packet.established)
            << counterexample->packet.ToString();
      }
    }
  }
}

TEST(MonolithicAclTest, EquivalentAclsYieldNothing) {
  ir::Acl acl;
  acl.name = "A";
  ir::AclLine line;
  line.action = ir::LineAction::kPermit;
  line.dst = util::IpWildcard(*IpPrefix::Parse("10.0.0.0/8"));
  acl.lines.push_back(line);
  MonolithicAclChecker checker(acl, acl);
  EXPECT_TRUE(checker.Equivalent());
  EXPECT_FALSE(checker.Next().has_value());
}

TEST(MonolithicStaticTest, FindsMissingRouteAddress) {
  auto cisco = testing::ParseCiscoOrDie(testing::kFig1Cisco);
  auto juniper = testing::ParseJuniperOrDie(testing::kFig1Juniper);
  auto counterexample = MonolithicStaticRouteCheck(cisco, juniper);
  ASSERT_TRUE(counterexample.has_value());
  EXPECT_EQ(counterexample->dst_ip, *Ipv4Address::Parse("10.1.1.2"));
  EXPECT_TRUE(counterexample->forwards1);
  EXPECT_FALSE(counterexample->forwards2);
  // Table 5's shape: an address and verdicts, no prefix/AD/text.
  std::string text = counterexample->ToString("cisco", "juniper");
  EXPECT_NE(text.find("10.1.1.2"), std::string::npos);
  EXPECT_EQ(text.find("255.255.255.254"), std::string::npos);
}

TEST(MonolithicStaticTest, EquivalentWhenCovered) {
  ir::RouterConfig a, b;
  ir::StaticRoute route;
  route.prefix = *IpPrefix::Parse("10.1.0.0/16");
  route.next_hop = *Ipv4Address::Parse("10.0.0.1");
  a.static_routes.push_back(route);
  b.static_routes.push_back(route);
  EXPECT_FALSE(MonolithicStaticRouteCheck(a, b).has_value());
}

TEST(MonolithicStaticTest, MonolithicMissesAttributeDifferences) {
  // The limitation the paper highlights: a next-hop difference does not
  // change reachability, so the monolithic forwarding check cannot see it
  // while StructuralDiff does.
  ir::RouterConfig a, b;
  ir::StaticRoute route;
  route.prefix = *IpPrefix::Parse("10.1.0.0/16");
  route.next_hop = *Ipv4Address::Parse("10.0.0.1");
  a.static_routes.push_back(route);
  route.next_hop = *Ipv4Address::Parse("10.0.0.99");
  b.static_routes.push_back(route);
  EXPECT_FALSE(MonolithicStaticRouteCheck(a, b).has_value());
}

}  // namespace
}  // namespace campion::baseline
