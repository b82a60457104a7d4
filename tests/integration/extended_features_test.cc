// Tests for the feature extensions beyond the Figure 1 subset: AS-path
// list differencing (opaque-regex semantics), bit-precise MED matching,
// and TCP-established ACL matching — each checked end-to-end through the
// parsers and SemanticDiff.

#include <gtest/gtest.h>

#include "cisco/cisco_parser.h"
#include "cisco/cisco_unparser.h"
#include "core/config_diff.h"
#include "core/semantic_diff.h"
#include "juniper/juniper_parser.h"
#include "juniper/juniper_unparser.h"

namespace campion {
namespace {

ir::RouterConfig ParseCisco(const std::string& text) {
  return cisco::ParseCiscoConfig(text, "t.cfg").config;
}

ir::RouterConfig ParseJuniper(const std::string& text) {
  return juniper::ParseJuniperConfig(text, "t.conf").config;
}

// --- AS-path lists ----------------------------------------------------------

TEST(AsPathDiffTest, CiscoParsesAsPathLists) {
  auto config = ParseCisco(
      "ip as-path access-list 10 permit ^65000_\n"
      "ip as-path access-list 10 deny .*\n"
      "route-map RM permit 10\n"
      " match as-path 10\n");
  const ir::AsPathList* list = config.FindAsPathList("10");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->entries.size(), 2u);
  EXPECT_EQ(list->entries[0].regex, "^65000_");
  EXPECT_EQ(list->entries[1].action, ir::LineAction::kDeny);
  const ir::RouteMap* map = config.FindRouteMap("RM");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->clauses[0].matches[0].kind,
            ir::RouteMapMatch::Kind::kAsPathList);
}

TEST(AsPathDiffTest, JuniperParsesAsPath) {
  auto config = ParseJuniper(R"(
policy-options {
    as-path FROM-PEER "^65000 .*";
    policy-statement POL {
        term t {
            from {
                as-path FROM-PEER;
            }
            then accept;
        }
    }
}
)");
  const ir::AsPathList* list = config.FindAsPathList("FROM-PEER");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->entries[0].regex, "^65000 .*");
}

TEST(AsPathDiffTest, EqualRegexesAreEquivalent) {
  auto make = [](const char* regex) {
    return ParseCisco(std::string("ip as-path access-list 1 permit ") +
                      regex +
                      "\n"
                      "route-map RM permit 10\n"
                      " match as-path 1\n");
  };
  auto a = make("^65000_");
  auto b = make("^65000_");
  auto diffs = core::DiffRouteMapPair(a, "RM", b, "RM");
  EXPECT_TRUE(diffs.empty());
}

TEST(AsPathDiffTest, DifferentRegexesAreDifference) {
  auto make = [](const char* regex) {
    return ParseCisco(std::string("ip as-path access-list 1 permit ") +
                      regex +
                      "\n"
                      "route-map RM permit 10\n"
                      " match as-path 1\n");
  };
  auto a = make("^65000_");
  auto b = make("^65001_");
  auto diffs = core::DiffRouteMapPair(a, "RM", b, "RM");
  // Opaque-atom semantics: differing regexes produce (at least) one
  // potential difference — routes matching one atom but not the other.
  EXPECT_FALSE(diffs.empty());
}

TEST(AsPathDiffTest, CrossVendorEqualRegexesAlign) {
  auto cisco = ParseCisco(
      "ip as-path access-list 1 permit ^65000_\n"
      "route-map POL permit 10\n"
      " match as-path 1\n");
  auto juniper = ParseJuniper(R"(
policy-options {
    as-path P "^65000_";
    policy-statement POL {
        term t {
            from {
                as-path P;
            }
            then accept;
        }
        term end {
            then reject;
        }
    }
}
)");
  auto diffs = core::DiffRouteMapPair(cisco, "POL", juniper, "POL");
  EXPECT_TRUE(diffs.empty());
}

// --- MED / metric -------------------------------------------------------------

TEST(MetricDiffTest, MetricMatchIsBitPrecise) {
  auto make = [](int value) {
    return ParseCisco(
        "route-map RM deny 10\n"
        " match metric " +
        std::to_string(value) +
        "\n"
        "route-map RM permit 20\n");
  };
  auto a = make(50);
  auto same = make(50);
  EXPECT_TRUE(core::DiffRouteMapPair(a, "RM", same, "RM").empty());

  auto b = make(60);
  auto diffs = core::DiffRouteMapPair(a, "RM", b, "RM");
  // Routes with metric 50 or 60 are treated differently.
  ASSERT_EQ(diffs.size(), 2u);
}

TEST(MetricDiffTest, ExampleShowsMetric) {
  auto a = ParseCisco(
      "route-map RM deny 10\n"
      " match metric 50\n"
      "route-map RM permit 20\n");
  auto b = ParseCisco("route-map RM permit 10\n");
  bdd::BddManager mgr;
  encode::RouteAdvLayout layout(mgr, {});
  auto diffs = core::SemanticDiffRouteMaps(layout, a, *a.FindRouteMap("RM"),
                                           b, *b.FindRouteMap("RM"));
  ASSERT_EQ(diffs.size(), 1u);
  auto cube = mgr.AnySat(diffs[0].input_set);
  ASSERT_TRUE(cube.has_value());
  EXPECT_EQ(layout.Decode(*cube).metric, 50u);
}

// --- established ---------------------------------------------------------------

TEST(EstablishedTest, CiscoEstablishedKeyword) {
  auto config = ParseCisco(
      "ip access-list extended F\n"
      " permit tcp any any established\n");
  const ir::Acl* acl = config.FindAcl("F");
  ASSERT_NE(acl, nullptr);
  EXPECT_TRUE(acl->lines[0].established);
}

TEST(EstablishedTest, JuniperTcpEstablished) {
  auto config = ParseJuniper(R"(
firewall {
    family inet {
        filter F {
            term t {
                from {
                    protocol tcp;
                    tcp-established;
                }
                then accept;
            }
        }
    }
}
)");
  const ir::Acl* acl = config.FindAcl("F");
  ASSERT_NE(acl, nullptr);
  EXPECT_TRUE(acl->lines[0].established);
}

TEST(EstablishedTest, EstablishedMismatchIsDifference) {
  auto with = ParseCisco(
      "ip access-list extended F\n"
      " permit tcp any any established\n");
  auto without = ParseCisco(
      "ip access-list extended F\n"
      " permit tcp any any\n");
  auto diffs = core::DiffAclPair(with, without, "F");
  ASSERT_EQ(diffs.size(), 1u);
  // The difference space: TCP packets that are NOT established.
  ASSERT_TRUE(diffs[0].example.has_value());
  EXPECT_EQ(diffs[0].example->find("established"), std::string::npos);
}

TEST(EstablishedTest, EqualEstablishedLinesAreEquivalent) {
  auto a = ParseCisco(
      "ip access-list extended F\n"
      " permit tcp any any established\n"
      " deny ip any any\n");
  EXPECT_TRUE(core::DiffAclPair(a, a, "F").empty());
}

TEST(EstablishedTest, RoundTripsBothVendors) {
  auto config = ParseCisco(
      "ip access-list extended F\n"
      " permit tcp any any established\n");
  std::string cisco_text = cisco::UnparseCiscoConfig(config);
  EXPECT_NE(cisco_text.find("established"), std::string::npos);
  auto back = ParseCisco(cisco_text);
  EXPECT_TRUE(core::DiffAclPair(config, back, "F").empty());

  config.vendor = ir::Vendor::kJuniper;
  std::string juniper_text = juniper::UnparseJuniperConfig(config);
  EXPECT_NE(juniper_text.find("tcp-established"), std::string::npos);
  auto jback = ParseJuniper(juniper_text);
  EXPECT_TRUE(core::DiffAclPair(config, jback, "F").empty());
}

TEST(AsPathDiffTest, RoundTripsBothVendors) {
  auto config = ParseCisco(
      "ip as-path access-list 1 permit ^65000_\n"
      "route-map POL permit 10\n"
      " match as-path 1\n");
  auto cisco_back = ParseCisco(cisco::UnparseCiscoConfig(config));
  EXPECT_TRUE(
      core::DiffRouteMapPair(config, "POL", cisco_back, "POL").empty());

  config.vendor = ir::Vendor::kJuniper;
  auto juniper_back = ParseJuniper(juniper::UnparseJuniperConfig(config));
  EXPECT_TRUE(
      core::DiffRouteMapPair(config, "POL", juniper_back, "POL").empty());
}

}  // namespace
}  // namespace campion

// Appended: peer-group inheritance tests.
#include "core/structural_diff.h"

namespace campion {
namespace {

TEST(PeerGroupTest, MembersInheritGroupAttributes) {
  auto config = cisco::ParseCiscoConfig(
      "router bgp 65000\n"
      " neighbor SPINES peer-group\n"
      " neighbor SPINES remote-as 65001\n"
      " neighbor SPINES route-map IMP in\n"
      " neighbor SPINES send-community\n"
      " neighbor 10.0.0.2 peer-group SPINES\n"
      " neighbor 10.0.0.6 peer-group SPINES\n"
      " neighbor 10.0.0.6 route-map SPECIAL in\n",
      "t.cfg").config;
  ASSERT_TRUE(config.bgp.has_value());
  ASSERT_EQ(config.bgp->neighbors.size(), 2u);
  const ir::BgpNeighbor* n1 =
      config.FindBgpNeighbor(*util::Ipv4Address::Parse("10.0.0.2"));
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->remote_as, 65001u);
  EXPECT_EQ(n1->import_policy, "IMP");
  EXPECT_TRUE(n1->send_community);
  // Per-neighbor settings override the group.
  const ir::BgpNeighbor* n2 =
      config.FindBgpNeighbor(*util::Ipv4Address::Parse("10.0.0.6"));
  ASSERT_NE(n2, nullptr);
  EXPECT_EQ(n2->import_policy, "SPECIAL");
  EXPECT_EQ(n2->remote_as, 65001u);
}

TEST(PeerGroupTest, GroupLinesAfterMembershipStillApply) {
  auto config = cisco::ParseCiscoConfig(
      "router bgp 65000\n"
      " neighbor RR peer-group\n"
      " neighbor 10.255.0.1 peer-group RR\n"
      " neighbor RR remote-as 65000\n"
      " neighbor RR route-reflector-client\n",
      "t.cfg").config;
  const ir::BgpNeighbor* n =
      config.FindBgpNeighbor(*util::Ipv4Address::Parse("10.255.0.1"));
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->remote_as, 65000u);
  EXPECT_TRUE(n->route_reflector_client);
}

TEST(PeerGroupTest, UndefinedGroupDiagnosed) {
  auto result = cisco::ParseCiscoConfig(
      "router bgp 65000\n"
      " neighbor 10.0.0.2 peer-group GHOST\n",
      "t.cfg");
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_NE(result.diagnostics.back().find("GHOST"), std::string::npos);
}

TEST(PeerGroupTest, GroupExpansionEquivalentToExplicitConfig) {
  // A config written with peer groups and the same config written
  // explicitly must be behaviorally equivalent.
  auto grouped = cisco::ParseCiscoConfig(
      "router bgp 65000\n"
      " neighbor PEERS peer-group\n"
      " neighbor PEERS remote-as 65001\n"
      " neighbor PEERS send-community\n"
      " neighbor 10.0.0.2 peer-group PEERS\n",
      "a.cfg").config;
  auto explicit_config = cisco::ParseCiscoConfig(
      "router bgp 65000\n"
      " neighbor 10.0.0.2 remote-as 65001\n"
      " neighbor 10.0.0.2 send-community\n",
      "b.cfg").config;
  auto diffs = core::DiffBgpProperties(grouped, explicit_config);
  EXPECT_TRUE(diffs.empty());
}

}  // namespace
}  // namespace campion

namespace campion {
namespace {

TEST(NextHopSelfTest, ParsesOnBothVendors) {
  auto cisco = cisco::ParseCiscoConfig(
      "route-map RM permit 10\n"
      " set ip next-hop self\n",
      "t.cfg").config;
  const ir::RouteMap* cmap = cisco.FindRouteMap("RM");
  ASSERT_NE(cmap, nullptr);
  ASSERT_EQ(cmap->clauses[0].sets.size(), 1u);
  EXPECT_EQ(cmap->clauses[0].sets[0].kind,
            ir::RouteMapSet::Kind::kNextHopSelf);

  auto juniper = juniper::ParseJuniperConfig(R"(
policy-options {
    policy-statement RM {
        term t {
            then {
                next-hop self;
                accept;
            }
        }
    }
}
)",
                                             "t.conf").config;
  const ir::RouteMap* jmap = juniper.FindRouteMap("RM");
  ASSERT_NE(jmap, nullptr);
  EXPECT_EQ(jmap->clauses[0].sets[0].kind,
            ir::RouteMapSet::Kind::kNextHopSelf);
}

TEST(NextHopSelfTest, CrossVendorAlignsAndDiffers) {
  auto with_self = cisco::ParseCiscoConfig(
      "route-map RM permit 10\n"
      " set ip next-hop self\n",
      "a.cfg").config;
  auto without = cisco::ParseCiscoConfig(
      "route-map RM permit 10\n",
      "b.cfg").config;
  // next-hop self vs nothing is an attribute difference on accepts.
  auto diffs = core::DiffRouteMapPair(with_self, "RM", without, "RM");
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].action1.find("SET NEXT HOP SELF"), std::string::npos);

  // Cross-vendor: Cisco `set ip next-hop self` == JunOS `next-hop self`.
  with_self.vendor = ir::Vendor::kJuniper;
  auto reparsed = juniper::ParseJuniperConfig(
      juniper::UnparseJuniperConfig(with_self), "t.conf").config;
  EXPECT_TRUE(core::DiffRouteMapPair(with_self, "RM", reparsed, "RM").empty());
}

}  // namespace
}  // namespace campion

namespace campion {
namespace {

// The paper's fifth scenario-1 BGP bug used an IOS variant Campion did not
// fully support; Campion still detected the error and produced useful
// localization (input space + actions), with only the text inexact. The
// same degradation path here: unsupported lines are diagnosed and skipped,
// and the remaining clause structure still yields a localized difference.
TEST(PartialSupportTest, UnsupportedMatchStillLocalizes) {
  auto supported = cisco::ParseCiscoConfig(
      "ip prefix-list NETS permit 10.9.0.0/16 le 32\n"
      "route-map POL deny 10\n"
      " match ip address prefix-list NETS\n"
      "route-map POL permit 20\n",
      "a.cfg");
  // The same policy written with an additional unsupported match command.
  auto partial = cisco::ParseCiscoConfig(
      "ip prefix-list NETS permit 10.9.0.0/16 le 24\n"
      "route-map POL deny 10\n"
      " match ip address prefix-list NETS\n"
      " match extcommunity SOME-UNSUPPORTED-THING\n"
      "route-map POL permit 20\n",
      "b.cfg");
  // The unsupported line is diagnosed, not fatal.
  ASSERT_EQ(partial.diagnostics.size(), 1u);
  EXPECT_NE(partial.diagnostics[0].find("extcommunity"), std::string::npos);

  // And the prefix-window difference is still found and localized.
  auto diffs = core::DiffRouteMapPair(supported.config, "POL",
                                      partial.config, "POL");
  ASSERT_FALSE(diffs.empty());
  // HeaderLocalize expresses the lost space in the configs' own ranges:
  // included (10.9/16 : 16-32) minus excluded (10.9/16 : 16-24).
  bool found_window = false;
  for (const auto& diff : diffs) {
    bool includes = false;
    bool excludes = false;
    for (const auto& range : diff.included) {
      if (range == util::PrefixRange(
                       *util::IpPrefix::Parse("10.9.0.0/16"), 16, 32)) {
        includes = true;
      }
    }
    for (const auto& range : diff.excluded) {
      if (range == util::PrefixRange(
                       *util::IpPrefix::Parse("10.9.0.0/16"), 16, 24)) {
        excludes = true;
      }
    }
    if (includes && excludes) found_window = true;
  }
  EXPECT_TRUE(found_window)
      << "the window lost by `le 24` should be localized";
}

}  // namespace
}  // namespace campion
