#include "encode/route_adv.h"

#include <gtest/gtest.h>

namespace campion::encode {
namespace {

using bdd::BddManager;
using bdd::BddRef;
using util::Community;
using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

class RouteAdvTest : public ::testing::Test {
 protected:
  RouteAdvTest()
      : layout_(mgr_, {Community(10, 10), Community(10, 11)}) {}

  // Membership of a concrete prefix in a symbolic set.
  bool Contains(BddRef set, const IpPrefix& p) {
    return mgr_.Intersects(set, layout_.MatchExactPrefix(p));
  }

  BddManager mgr_;
  RouteAdvLayout layout_;
};

TEST_F(RouteAdvTest, ExactPrefixMembership) {
  BddRef set = layout_.MatchExactPrefix(*IpPrefix::Parse("10.9.0.0/16"));
  EXPECT_TRUE(Contains(set, *IpPrefix::Parse("10.9.0.0/16")));
  EXPECT_FALSE(Contains(set, *IpPrefix::Parse("10.9.1.0/24")));
  EXPECT_FALSE(Contains(set, *IpPrefix::Parse("10.8.0.0/16")));
}

TEST_F(RouteAdvTest, PrefixRangeWindowMembership) {
  BddRef set = layout_.MatchPrefixRange(
      PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32));
  EXPECT_TRUE(Contains(set, *IpPrefix::Parse("10.9.0.0/16")));
  EXPECT_TRUE(Contains(set, *IpPrefix::Parse("10.9.1.0/24")));
  EXPECT_TRUE(Contains(set, *IpPrefix::Parse("10.9.1.1/32")));
  EXPECT_FALSE(Contains(set, *IpPrefix::Parse("10.8.0.0/15")));
  EXPECT_FALSE(Contains(set, *IpPrefix::Parse("10.100.0.0/16")));
}

TEST_F(RouteAdvTest, SymbolicContainmentMatchesRangeContainment) {
  // Symbolic subset agrees with PrefixRange::ContainsRange on samples.
  struct Sample {
    PrefixRange a, b;
  };
  std::vector<Sample> samples = {
      {PrefixRange(*IpPrefix::Parse("10.0.0.0/8"), 8, 32),
       PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32)},
      {PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32),
       PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 16)},
      {PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 24),
       PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 20, 32)},
      {PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32),
       PrefixRange(*IpPrefix::Parse("10.100.0.0/16"), 16, 32)},
  };
  for (const auto& [a, b] : samples) {
    BddRef sa = layout_.MatchPrefixRange(a);
    BddRef sb = layout_.MatchPrefixRange(b);
    EXPECT_EQ(mgr_.Subset(sb, sa), a.ContainsRange(b))
        << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(mgr_.Intersects(sa, sb), a.Intersect(b).has_value())
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST_F(RouteAdvTest, EmptyRangeIsFalse) {
  EXPECT_EQ(layout_.MatchPrefixRange(
                PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 4, 8)),
            mgr_.False());
}

TEST_F(RouteAdvTest, CommunityVariables) {
  BddRef has10 = layout_.HasCommunity(Community(10, 10));
  BddRef has11 = layout_.HasCommunity(Community(10, 11));
  EXPECT_NE(has10, has11);
  EXPECT_NE(has10, mgr_.False());
  // A community outside the universe matches nothing.
  EXPECT_EQ(layout_.HasCommunity(Community(99, 99)), mgr_.False());
}

TEST_F(RouteAdvTest, NoCommunitiesExcludesAll) {
  BddRef none = layout_.NoCommunities();
  EXPECT_FALSE(
      mgr_.Intersects(none, layout_.HasCommunity(Community(10, 10))));
  EXPECT_FALSE(
      mgr_.Intersects(none, layout_.HasCommunity(Community(10, 11))));
  EXPECT_NE(none, mgr_.False());
}

TEST_F(RouteAdvTest, ProtocolsAreMutuallyExclusive) {
  for (auto p : {ir::Protocol::kConnected, ir::Protocol::kStatic,
                 ir::Protocol::kOspf, ir::Protocol::kBgp}) {
    for (auto q : {ir::Protocol::kConnected, ir::Protocol::kStatic,
                   ir::Protocol::kOspf, ir::Protocol::kBgp}) {
      EXPECT_EQ(mgr_.Intersects(layout_.ProtocolIs(p), layout_.ProtocolIs(q)),
                p == q);
    }
  }
}

TEST_F(RouteAdvTest, TagEquality) {
  BddRef t100 = layout_.TagEquals(100);
  BddRef t200 = layout_.TagEquals(200);
  EXPECT_FALSE(mgr_.Intersects(t100, t200));
  EXPECT_NE(t100, mgr_.False());
}

TEST_F(RouteAdvTest, DecodeRoundTrip) {
  BddRef set = mgr_.And(
      layout_.MatchExactPrefix(*IpPrefix::Parse("10.9.1.0/24")),
      mgr_.And(layout_.HasCommunity(Community(10, 10)),
               mgr_.Not(layout_.HasCommunity(Community(10, 11)))));
  set = mgr_.And(set, layout_.TagEquals(77));
  set = mgr_.And(set, layout_.ProtocolIs(ir::Protocol::kStatic));
  auto cube = mgr_.AnySat(set);
  ASSERT_TRUE(cube.has_value());
  RouteAdvExample example = layout_.Decode(*cube);
  EXPECT_EQ(example.prefix, *IpPrefix::Parse("10.9.1.0/24"));
  EXPECT_EQ(example.communities,
            std::vector<Community>{Community(10, 10)});
  EXPECT_EQ(example.tag, 77u);
  EXPECT_EQ(example.protocol, ir::Protocol::kStatic);
}

TEST_F(RouteAdvTest, ProjectionOntoPrefixVars) {
  BddRef set = mgr_.And(
      layout_.MatchPrefixRange(
          PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32)),
      layout_.HasCommunity(Community(10, 10)));
  BddRef projected = mgr_.Exists(set, layout_.NonPrefixVarMask());
  // The projection is exactly the prefix range predicate.
  EXPECT_EQ(projected, layout_.MatchPrefixRange(PrefixRange(
                           *IpPrefix::Parse("10.9.0.0/16"), 16, 32)));
}

TEST_F(RouteAdvTest, UninterpretedPredicatesAreStable) {
  BddRef a = layout_.UninterpretedPredicate("metric==5");
  BddRef b = layout_.UninterpretedPredicate("metric==5");
  BddRef c = layout_.UninterpretedPredicate("metric==6");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST_F(RouteAdvTest, ValidBoundsLength) {
  // Everything below the Valid() predicate decodes to length <= 32.
  for (int i = 0; i < 10; ++i) {
    auto cube = mgr_.AnySat(layout_.Valid());
    ASSERT_TRUE(cube.has_value());
    EXPECT_LE(layout_.Decode(*cube).prefix.length(), 32);
  }
}

TEST_F(RouteAdvTest, ExampleToStringMentionsFields) {
  RouteAdvExample example;
  example.prefix = *IpPrefix::Parse("10.9.1.0/24");
  example.communities = {Community(10, 10)};
  example.tag = 5;
  std::string text = example.ToString();
  EXPECT_NE(text.find("10.9.1.0/24"), std::string::npos);
  EXPECT_NE(text.find("10:10"), std::string::npos);
  EXPECT_NE(text.find("tag: 5"), std::string::npos);
}

}  // namespace
}  // namespace campion::encode
