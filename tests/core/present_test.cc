#include "core/present.h"

#include <gtest/gtest.h>

#include "core/config_diff.h"
#include "core/semantic_diff.h"
#include "tests/testdata.h"

namespace campion::core {
namespace {

using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

class PresentRouteMapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cisco_ = testing::ParseCiscoOrDie(testing::kFig1Cisco);
    juniper_ = testing::ParseJuniperOrDie(testing::kFig1Juniper);
  }
  ir::RouterConfig cisco_;
  ir::RouterConfig juniper_;
};

TEST_F(PresentRouteMapTest, TableContainsAllRows) {
  auto diffs = DiffRouteMapPair(cisco_, "POL", juniper_, "POL");
  ASSERT_EQ(diffs.size(), 2u);
  for (const auto& diff : diffs) {
    EXPECT_NE(diff.table.find("Included Prefixes"), std::string::npos);
    EXPECT_NE(diff.table.find("Excluded Prefixes"), std::string::npos);
    EXPECT_NE(diff.table.find("Policy Name"), std::string::npos);
    EXPECT_NE(diff.table.find("Action"), std::string::npos);
    EXPECT_NE(diff.table.find("Text"), std::string::npos);
    EXPECT_NE(diff.table.find("cisco_router"), std::string::npos);
    EXPECT_NE(diff.table.find("juniper_router"), std::string::npos);
  }
}

TEST_F(PresentRouteMapTest, CommunityRowOnlyWhenRequired) {
  auto diffs = DiffRouteMapPair(cisco_, "POL", juniper_, "POL");
  ASSERT_EQ(diffs.size(), 2u);
  int with_community = 0;
  for (const auto& diff : diffs) {
    if (diff.example.has_value()) {
      ++with_community;
      EXPECT_NE(diff.table.find("Community"), std::string::npos);
    } else {
      EXPECT_EQ(diff.table.find("Community"), std::string::npos);
    }
  }
  // Exactly the community difference (Table 2b) shows the row.
  EXPECT_EQ(with_community, 1);
}

TEST_F(PresentRouteMapTest, StructuredFieldsMatchTable) {
  auto diffs = DiffRouteMapPair(cisco_, "POL", juniper_, "POL");
  for (const auto& diff : diffs) {
    for (const auto& range : diff.included) {
      EXPECT_NE(diff.table.find(range.ToString()), std::string::npos);
    }
    for (const auto& range : diff.excluded) {
      EXPECT_NE(diff.table.find(range.ToString()), std::string::npos);
    }
  }
}

TEST(PresentAclTest, TableShowsPacketSpacesAndExample) {
  ir::RouterConfig c1, c2;
  c1.hostname = "gw-1";
  c2.hostname = "gw-2";
  ir::Acl acl1;
  acl1.name = "F";
  ir::AclLine line;
  line.action = ir::LineAction::kDeny;
  line.protocol = ir::kProtoIcmp;
  line.src = util::IpWildcard(*IpPrefix::Parse("9.140.0.0/23"));
  acl1.lines.push_back(line);
  ir::AclLine rest;
  rest.action = ir::LineAction::kPermit;
  acl1.lines.push_back(rest);
  ir::Acl acl2;
  acl2.name = "F";
  acl2.lines.push_back(rest);
  c1.acls["F"] = acl1;
  c2.acls["F"] = acl2;

  auto diffs = DiffAclPair(c1, c2, "F");
  ASSERT_EQ(diffs.size(), 1u);
  const PresentedDifference& diff = diffs[0];
  EXPECT_NE(diff.table.find("Included Packets"), std::string::npos);
  EXPECT_NE(diff.table.find("srcIP: 9.140.0.0/23"), std::string::npos);
  ASSERT_TRUE(diff.example.has_value());
  EXPECT_NE(diff.example->find("icmp"), std::string::npos);
  EXPECT_EQ(diff.action1, "REJECT");
  EXPECT_EQ(diff.action2, "ACCEPT");
}

TEST(PresentStructuralTest, Table4Shape) {
  ir::RouterConfig c1, c2;
  c1.hostname = "r1";
  c2.hostname = "r2";
  StructuralDifference diff;
  diff.component = "Static Route 10.1.1.2/31";
  diff.field = "presence";
  diff.value1 = "configured";
  diff.value2 = "(absent)";
  diff.span1 = {"r1.cfg", 7, 7, "ip route 10.1.1.2 255.255.255.254 10.2.2.2"};
  PresentedDifference presented = PresentStructuralDifference(diff, c1, c2);
  EXPECT_NE(presented.table.find("Static Route 10.1.1.2/31"),
            std::string::npos);
  EXPECT_NE(presented.table.find("ip route 10.1.1.2"), std::string::npos);
  EXPECT_NE(presented.table.find("(none)"), std::string::npos);
  EXPECT_NE(presented.title.find("presence"), std::string::npos);
}

TEST(AclRangeExtractionTest, DstAndSrcRanges) {
  ir::Acl acl;
  acl.name = "F";
  ir::AclLine line;
  line.src = util::IpWildcard(*IpPrefix::Parse("10.1.0.0/16"));
  line.dst = util::IpWildcard(*IpPrefix::Parse("10.2.0.0/24"));
  acl.lines.push_back(line);
  // A non-prefix wildcard is skipped.
  ir::AclLine odd;
  odd.src = util::IpWildcard(Ipv4Address(1, 2, 3, 4), 0x00000100u);
  acl.lines.push_back(odd);

  auto dst = AclDstRanges(acl);
  auto src = AclSrcRanges(acl);
  // Line 2's "any" dst (prefix /0) is included; its src is not.
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst[0], PrefixRange(*IpPrefix::Parse("10.2.0.0/24"), 32, 32));
  ASSERT_EQ(src.size(), 1u);
  EXPECT_EQ(src[0], PrefixRange(*IpPrefix::Parse("10.1.0.0/16"), 32, 32));
}

}  // namespace
}  // namespace campion::core
