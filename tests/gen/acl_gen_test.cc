#include "gen/acl_gen.h"

#include <gtest/gtest.h>

#include "bdd/bdd.h"
#include "core/semantic_diff.h"
#include "encode/packet.h"

namespace campion::gen {
namespace {

TEST(AclGenTest, GeneratesRequestedRuleCount) {
  AclGenOptions options;
  options.rules = 120;
  options.differences = 0;
  auto pair = GenerateAclPair(options);
  EXPECT_EQ(pair.acl1.lines.size(), 120u);
  EXPECT_EQ(pair.acl2.lines.size(), 120u);
  EXPECT_TRUE(pair.injected.empty());
}

TEST(AclGenTest, ZeroDifferencesMeansEquivalent) {
  AclGenOptions options;
  options.rules = 150;
  options.differences = 0;
  auto pair = GenerateAclPair(options);
  bdd::BddManager mgr;
  encode::PacketLayout layout(mgr);
  EXPECT_TRUE(core::SemanticDiffAcls(layout, pair.acl1, pair.acl2).empty());
}

TEST(AclGenTest, DeterministicForSeed) {
  AclGenOptions options;
  options.rules = 80;
  options.differences = 5;
  options.seed = 123;
  auto a = GenerateAclPair(options);
  auto b = GenerateAclPair(options);
  ASSERT_EQ(a.acl1.lines.size(), b.acl1.lines.size());
  for (std::size_t i = 0; i < a.acl1.lines.size(); ++i) {
    EXPECT_EQ(a.acl1.lines[i].src, b.acl1.lines[i].src);
    EXPECT_EQ(a.acl1.lines[i].dst, b.acl1.lines[i].dst);
    EXPECT_EQ(a.acl1.lines[i].action, b.acl1.lines[i].action);
  }
  EXPECT_EQ(a.injected, b.injected);
}

TEST(AclGenTest, DifferentSeedsDiffer) {
  AclGenOptions options;
  options.rules = 80;
  options.differences = 0;
  options.seed = 1;
  auto a = GenerateAclPair(options);
  options.seed = 2;
  auto b = GenerateAclPair(options);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.acl1.lines.size(); ++i) {
    if (!(a.acl1.lines[i].src == b.acl1.lines[i].src)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(AclGenTest, InjectedDifferencesAreDetectable) {
  AclGenOptions options;
  options.rules = 100;
  options.differences = 10;
  options.seed = 7;
  auto pair = GenerateAclPair(options);
  EXPECT_EQ(pair.injected.size(), 10u);
  bdd::BddManager mgr;
  encode::PacketLayout layout(mgr);
  auto diffs = core::SemanticDiffAcls(layout, pair.acl1, pair.acl2);
  EXPECT_FALSE(diffs.empty());
}

TEST(AclGenTest, WrapBindsAclToInterface) {
  AclGenOptions options;
  options.rules = 10;
  options.differences = 0;
  auto pair = GenerateAclPair(options);
  auto cisco = WrapAclInConfig(pair.acl1, "gw-1", ir::Vendor::kCisco);
  EXPECT_EQ(cisco.hostname, "gw-1");
  EXPECT_EQ(cisco.vendor, ir::Vendor::kCisco);
  ASSERT_NE(cisco.FindAcl(pair.acl1.name), nullptr);
  ASSERT_EQ(cisco.interfaces.size(), 1u);
  EXPECT_EQ(cisco.interfaces[0].in_acl, pair.acl1.name);
}

TEST(AclGenTest, GeneratedLinesHavePrefixShapedAddresses) {
  AclGenOptions options;
  options.rules = 50;
  options.differences = 0;
  auto pair = GenerateAclPair(options);
  for (const auto& line : pair.acl1.lines) {
    EXPECT_TRUE(line.src.AsIpPrefix().has_value());
    EXPECT_TRUE(line.dst.AsIpPrefix().has_value());
  }
}

}  // namespace
}  // namespace campion::gen
