#include "encode/policy_encoder.h"

#include <gtest/gtest.h>

namespace campion::encode {
namespace {

using bdd::BddManager;
using bdd::BddRef;
using util::Community;
using util::IpPrefix;
using util::PrefixRange;

class PolicyEncoderTest : public ::testing::Test {
 protected:
  PolicyEncoderTest() : layout_(mgr_, {Community(10, 10), Community(10, 11)}) {
    // NETS: two permit windows, like Figure 1(a).
    ir::PrefixList nets;
    nets.name = "NETS";
    nets.entries.push_back(
        {ir::LineAction::kPermit,
         PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32), {}});
    nets.entries.push_back(
        {ir::LineAction::kPermit,
         PrefixRange(*IpPrefix::Parse("10.100.0.0/16"), 16, 32), {}});
    config_.prefix_lists["NETS"] = nets;

    // COMM: OR of two single-community entries (Cisco semantics).
    ir::CommunityList comm;
    comm.name = "COMM";
    comm.entries.push_back(
        {ir::LineAction::kPermit, {Community(10, 10)}, {}});
    comm.entries.push_back(
        {ir::LineAction::kPermit, {Community(10, 11)}, {}});
    config_.community_lists["COMM"] = comm;

    // BOTH: one AND entry (Juniper semantics).
    ir::CommunityList both;
    both.name = "BOTH";
    both.entries.push_back(
        {ir::LineAction::kPermit,
         {Community(10, 10), Community(10, 11)}, {}});
    config_.community_lists["BOTH"] = both;
  }

  bool ContainsPrefix(BddRef set, const char* prefix) {
    return mgr_.Intersects(set,
                           layout_.MatchExactPrefix(*IpPrefix::Parse(prefix)));
  }

  BddManager mgr_;
  RouteAdvLayout layout_;
  ir::RouterConfig config_;
};

TEST_F(PolicyEncoderTest, PrefixListFirstMatchWins) {
  ir::PrefixList list;
  list.name = "L";
  list.entries.push_back(
      {ir::LineAction::kDeny,
       PrefixRange(*IpPrefix::Parse("10.9.1.0/24"), 24, 32), {}});
  list.entries.push_back(
      {ir::LineAction::kPermit,
       PrefixRange(*IpPrefix::Parse("10.9.0.0/16"), 16, 32), {}});
  PolicyEncoder encoder(layout_, config_);
  BddRef permits = encoder.PrefixListPermits(list);
  // 10.9.1.0/24 hits the deny first; 10.9.2.0/24 falls to the permit.
  EXPECT_FALSE(ContainsPrefix(permits, "10.9.1.0/24"));
  EXPECT_FALSE(ContainsPrefix(permits, "10.9.1.128/25"));
  EXPECT_TRUE(ContainsPrefix(permits, "10.9.2.0/24"));
  EXPECT_TRUE(ContainsPrefix(permits, "10.9.0.0/16"));
}

TEST_F(PolicyEncoderTest, PrefixListImplicitDeny) {
  PolicyEncoder encoder(layout_, config_);
  BddRef permits =
      encoder.PrefixListPermits(config_.prefix_lists["NETS"]);
  EXPECT_FALSE(ContainsPrefix(permits, "192.168.0.0/16"));
  EXPECT_FALSE(ContainsPrefix(permits, "10.9.0.0/8"));  // Too short.
}

TEST_F(PolicyEncoderTest, CommunityListOrSemantics) {
  PolicyEncoder encoder(layout_, config_);
  BddRef permits =
      encoder.CommunityListPermits(config_.community_lists["COMM"]);
  BddRef only10 = mgr_.And(layout_.HasCommunity(Community(10, 10)),
                           mgr_.Not(layout_.HasCommunity(Community(10, 11))));
  BddRef only11 = mgr_.And(layout_.HasCommunity(Community(10, 11)),
                           mgr_.Not(layout_.HasCommunity(Community(10, 10))));
  EXPECT_TRUE(mgr_.Subset(only10, permits));
  EXPECT_TRUE(mgr_.Subset(only11, permits));
  EXPECT_FALSE(mgr_.Intersects(layout_.NoCommunities(), permits));
}

TEST_F(PolicyEncoderTest, CommunityListAndSemantics) {
  PolicyEncoder encoder(layout_, config_);
  BddRef permits =
      encoder.CommunityListPermits(config_.community_lists["BOTH"]);
  BddRef only10 = mgr_.And(layout_.HasCommunity(Community(10, 10)),
                           mgr_.Not(layout_.HasCommunity(Community(10, 11))));
  BddRef both = mgr_.And(layout_.HasCommunity(Community(10, 10)),
                         layout_.HasCommunity(Community(10, 11)));
  EXPECT_FALSE(mgr_.Intersects(only10, permits));
  EXPECT_TRUE(mgr_.Subset(both, permits));
}

TEST_F(PolicyEncoderTest, CommunityListDenyEntryShadows) {
  ir::CommunityList list;
  list.name = "L";
  list.entries.push_back({ir::LineAction::kDeny, {Community(10, 10)}, {}});
  list.entries.push_back({ir::LineAction::kPermit, {}, {}});  // Match all.
  PolicyEncoder encoder(layout_, config_);
  BddRef permits = encoder.CommunityListPermits(list);
  EXPECT_FALSE(
      mgr_.Intersects(layout_.HasCommunity(Community(10, 10)), permits));
  EXPECT_TRUE(mgr_.Intersects(layout_.NoCommunities(), permits));
}

TEST_F(PolicyEncoderTest, MatchDisjunctionAcrossNames) {
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kCommunityList;
  match.names = {"COMM", "BOTH"};
  PolicyEncoder encoder(layout_, config_);
  BddRef matched = encoder.MatchToBdd(match);
  // Union: anything matching either list.
  EXPECT_TRUE(mgr_.Intersects(layout_.HasCommunity(Community(10, 10)),
                              matched));
}

TEST_F(PolicyEncoderTest, UndefinedListMatchesNothingAndWarns) {
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kPrefixList;
  match.names = {"NO-SUCH-LIST"};
  PolicyEncoder encoder(layout_, config_);
  EXPECT_EQ(encoder.MatchToBdd(match), mgr_.False());
  ASSERT_EQ(encoder.warnings().size(), 1u);
  EXPECT_NE(encoder.warnings()[0].find("NO-SUCH-LIST"), std::string::npos);
}

TEST_F(PolicyEncoderTest, ClauseGuardIsConjunction) {
  ir::RouteMapClause clause;
  ir::RouteMapMatch prefix_match;
  prefix_match.kind = ir::RouteMapMatch::Kind::kPrefixList;
  prefix_match.names = {"NETS"};
  ir::RouteMapMatch community_match;
  community_match.kind = ir::RouteMapMatch::Kind::kCommunityList;
  community_match.names = {"COMM"};
  clause.matches = {prefix_match, community_match};
  PolicyEncoder encoder(layout_, config_);
  BddRef guard = encoder.ClauseGuard(clause);
  // Matching prefix but no community fails the guard.
  BddRef in_nets_no_comm =
      mgr_.And(layout_.MatchExactPrefix(*IpPrefix::Parse("10.9.1.0/24")),
               layout_.NoCommunities());
  EXPECT_FALSE(mgr_.Intersects(guard, in_nets_no_comm));
  BddRef in_nets_comm =
      mgr_.And(layout_.MatchExactPrefix(*IpPrefix::Parse("10.9.1.0/24")),
               layout_.HasCommunity(Community(10, 10)));
  EXPECT_TRUE(mgr_.Intersects(guard, in_nets_comm));
}

TEST_F(PolicyEncoderTest, EmptyClauseGuardMatchesEverything) {
  ir::RouteMapClause clause;
  PolicyEncoder encoder(layout_, config_);
  EXPECT_EQ(encoder.ClauseGuard(clause), mgr_.True());
}

TEST_F(PolicyEncoderTest, ProtocolAndTagMatches) {
  PolicyEncoder encoder(layout_, config_);
  ir::RouteMapMatch protocol_match;
  protocol_match.kind = ir::RouteMapMatch::Kind::kProtocol;
  protocol_match.protocol = ir::Protocol::kStatic;
  EXPECT_EQ(encoder.MatchToBdd(protocol_match),
            layout_.ProtocolIs(ir::Protocol::kStatic));

  ir::RouteMapMatch tag_match;
  tag_match.kind = ir::RouteMapMatch::Kind::kTag;
  tag_match.value = 1234;
  EXPECT_EQ(encoder.MatchToBdd(tag_match), layout_.TagEquals(1234));
}

}  // namespace
}  // namespace campion::encode
