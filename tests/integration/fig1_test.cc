// End-to-end reproduction of the paper's §2 example: parsing the Figure 1
// Cisco and Juniper configurations and checking that Campion reports
// exactly the two differences of Table 2 with the right header and text
// localization, plus the static-route structural difference of Table 4.

#include <gtest/gtest.h>

#include "core/config_diff.h"
#include "core/structural_diff.h"
#include "tests/testdata.h"
#include "util/prefix_range.h"

namespace campion {
namespace {

using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

class Fig1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cisco_result = cisco::ParseCiscoConfig(testing::kFig1Cisco, "c.cfg");
    auto juniper_result =
        juniper::ParseJuniperConfig(testing::kFig1Juniper, "j.conf");
    ASSERT_TRUE(cisco_result.diagnostics.empty())
        << cisco_result.diagnostics.front();
    ASSERT_TRUE(juniper_result.diagnostics.empty())
        << juniper_result.diagnostics.front();
    cisco_ = std::move(cisco_result.config);
    juniper_ = std::move(juniper_result.config);
  }

  ir::RouterConfig cisco_;
  ir::RouterConfig juniper_;
};

TEST_F(Fig1Test, ParsersProduceExpectedComponents) {
  EXPECT_EQ(cisco_.hostname, "cisco_router");
  EXPECT_EQ(juniper_.hostname, "juniper_router");
  ASSERT_TRUE(cisco_.FindRouteMap("POL") != nullptr);
  ASSERT_TRUE(juniper_.FindRouteMap("POL") != nullptr);
  EXPECT_EQ(cisco_.FindRouteMap("POL")->clauses.size(), 3u);
  EXPECT_EQ(juniper_.FindRouteMap("POL")->clauses.size(), 3u);

  // Cisco NETS has 16-32 windows; Juniper NETS matches exactly.
  const ir::PrefixList* cisco_nets = cisco_.FindPrefixList("NETS");
  const ir::PrefixList* juniper_nets = juniper_.FindPrefixList("NETS");
  ASSERT_NE(cisco_nets, nullptr);
  ASSERT_NE(juniper_nets, nullptr);
  EXPECT_EQ(cisco_nets->entries[0].range,
            PrefixRange(IpPrefix(Ipv4Address(10, 9, 0, 0), 16), 16, 32));
  EXPECT_EQ(juniper_nets->entries[0].range,
            PrefixRange(IpPrefix(Ipv4Address(10, 9, 0, 0), 16), 16, 16));

  // Cisco COMM: two OR entries. Juniper COMM: one AND entry of both.
  const ir::CommunityList* cisco_comm = cisco_.FindCommunityList("COMM");
  const ir::CommunityList* juniper_comm = juniper_.FindCommunityList("COMM");
  ASSERT_NE(cisco_comm, nullptr);
  ASSERT_NE(juniper_comm, nullptr);
  EXPECT_EQ(cisco_comm->entries.size(), 2u);
  EXPECT_EQ(cisco_comm->entries[0].all_of.size(), 1u);
  EXPECT_EQ(juniper_comm->entries.size(), 1u);
  EXPECT_EQ(juniper_comm->entries[0].all_of.size(), 2u);
}

TEST_F(Fig1Test, SemanticDiffFindsExactlyTwoDifferences) {
  auto diffs = core::DiffRouteMapPair(cisco_, "POL", juniper_, "POL");
  ASSERT_EQ(diffs.size(), 2u);
}

TEST_F(Fig1Test, Difference1LocalizesPrefixRanges) {
  auto diffs = core::DiffRouteMapPair(cisco_, "POL", juniper_, "POL");
  ASSERT_EQ(diffs.size(), 2u);

  // Table 2(a): included = the two 16-32 windows, excluded = the exact /16s.
  // Identify it by its reject-vs-accept action pair on the NETS space.
  const core::PresentedDifference* d1 = nullptr;
  for (const auto& d : diffs) {
    if (d.included.size() == 2) d1 = &d;
  }
  ASSERT_NE(d1, nullptr) << "no difference with two included ranges";
  PrefixRange nets1(IpPrefix(Ipv4Address(10, 9, 0, 0), 16), 16, 32);
  PrefixRange nets2(IpPrefix(Ipv4Address(10, 100, 0, 0), 16), 16, 32);
  EXPECT_TRUE(std::find(d1->included.begin(), d1->included.end(), nets1) !=
              d1->included.end());
  EXPECT_TRUE(std::find(d1->included.begin(), d1->included.end(), nets2) !=
              d1->included.end());
  PrefixRange exact1(IpPrefix(Ipv4Address(10, 9, 0, 0), 16), 16, 16);
  PrefixRange exact2(IpPrefix(Ipv4Address(10, 100, 0, 0), 16), 16, 16);
  EXPECT_TRUE(std::find(d1->excluded.begin(), d1->excluded.end(), exact1) !=
              d1->excluded.end());
  EXPECT_TRUE(std::find(d1->excluded.begin(), d1->excluded.end(), exact2) !=
              d1->excluded.end());

  // Action localization: Cisco rejects, Juniper sets local-pref 30 and
  // accepts.
  EXPECT_EQ(d1->action1, "REJECT");
  EXPECT_NE(d1->action2.find("SET LOCAL PREF 30"), std::string::npos);
  EXPECT_NE(d1->action2.find("ACCEPT"), std::string::npos);

  // Text localization: the Cisco deny 10 clause and the Juniper rule3 term.
  EXPECT_NE(d1->text1.find("route-map POL deny 10"), std::string::npos);
  EXPECT_NE(d1->text1.find("match ip address NETS"), std::string::npos);
  EXPECT_NE(d1->text2.find("rule3"), std::string::npos);
}

TEST_F(Fig1Test, Difference2LocalizesCommunityDifference) {
  auto diffs = core::DiffRouteMapPair(cisco_, "POL", juniper_, "POL");
  ASSERT_EQ(diffs.size(), 2u);

  // Table 2(b): included = the whole space, excluded = the NETS windows,
  // with a community example (a route carrying one of 10:10/10:11 but not
  // both).
  const core::PresentedDifference* d2 = nullptr;
  for (const auto& d : diffs) {
    if (d.included.size() == 1 &&
        d.included[0] == PrefixRange::Universe()) {
      d2 = &d;
    }
  }
  ASSERT_NE(d2, nullptr) << "no difference covering the whole prefix space";
  PrefixRange nets1(IpPrefix(Ipv4Address(10, 9, 0, 0), 16), 16, 32);
  PrefixRange nets2(IpPrefix(Ipv4Address(10, 100, 0, 0), 16), 16, 32);
  EXPECT_TRUE(std::find(d2->excluded.begin(), d2->excluded.end(), nets1) !=
              d2->excluded.end());
  EXPECT_TRUE(std::find(d2->excluded.begin(), d2->excluded.end(), nets2) !=
              d2->excluded.end());

  ASSERT_TRUE(d2->example.has_value());
  // Exhaustive community localization (our extension of the paper's
  // single-example output): the difference affects routes carrying exactly
  // one of the two communities, and both conditions are listed.
  EXPECT_NE(d2->example->find("not 10:10, 10:11"), std::string::npos)
      << *d2->example;
  EXPECT_NE(d2->example->find("10:10, not 10:11"), std::string::npos)
      << *d2->example;

  EXPECT_EQ(d2->action1, "REJECT");
  EXPECT_NE(d2->text1.find("route-map POL deny 20"), std::string::npos);
  EXPECT_NE(d2->text2.find("rule3"), std::string::npos);
}

TEST_F(Fig1Test, StaticRouteStructuralDiffMatchesTable4) {
  auto diffs = core::DiffStaticRoutes(cisco_, juniper_);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].component, "Static Route 10.1.1.2/31");
  EXPECT_EQ(diffs[0].field, "presence");
  EXPECT_EQ(diffs[0].value1, "configured");
  EXPECT_EQ(diffs[0].value2, "(absent)");
  EXPECT_NE(diffs[0].span1.text.find("ip route 10.1.1.2 255.255.255.254"),
            std::string::npos);
}

TEST_F(Fig1Test, FullConfigDiffReportsBothSemanticAndStructural) {
  core::DiffReport report = core::ConfigDiff(cisco_, juniper_);
  EXPECT_EQ(report.CountOf(core::DifferenceEntry::Kind::kRouteMapSemantic),
            2);
  EXPECT_GE(report.CountOf(core::DifferenceEntry::Kind::kStructural), 1);
  EXPECT_FALSE(report.Equivalent());
  // The rendered report contains the Table 2 header rows.
  std::string rendered = report.Render();
  EXPECT_NE(rendered.find("Included Prefixes"), std::string::npos);
  EXPECT_NE(rendered.find("Excluded Prefixes"), std::string::npos);
}

TEST_F(Fig1Test, IdenticalConfigsAreEquivalent) {
  core::DiffReport report = core::ConfigDiff(cisco_, cisco_);
  for (const auto& entry : report.entries) {
    EXPECT_EQ(entry.kind, core::DifferenceEntry::Kind::kWarning)
        << entry.title << "\n"
        << entry.rendered;
  }
  auto diffs = core::DiffRouteMapPair(cisco_, "POL", cisco_, "POL");
  EXPECT_TRUE(diffs.empty());
}

}  // namespace
}  // namespace campion
