// Tests for the exact field-interval extraction (SymbolicField::Intervals)
// and its use in ACL port/protocol localization.

#include <gtest/gtest.h>

#include <random>

#include "core/config_diff.h"
#include "encode/packet.h"
#include "encode/symbolic_field.h"

namespace campion::encode {
namespace {

using bdd::BddManager;
using bdd::BddRef;
using Interval = SymbolicField::Interval;

class FieldIntervalsTest : public ::testing::Test {
 protected:
  FieldIntervalsTest() : mgr_(8), field_(0, 8) {}
  BddManager mgr_;
  SymbolicField field_;
};

TEST_F(FieldIntervalsTest, EmptyAndFull) {
  EXPECT_TRUE(field_.Intervals(mgr_, mgr_.False()).empty());
  auto full = field_.Intervals(mgr_, mgr_.True());
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0], (Interval{0, 255}));
}

TEST_F(FieldIntervalsTest, SingleValue) {
  auto one = field_.Intervals(mgr_, field_.EqualsConst(mgr_, 42));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (Interval{42, 42}));
}

TEST_F(FieldIntervalsTest, Range) {
  auto range = field_.Intervals(mgr_, field_.InRange(mgr_, 17, 200));
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0], (Interval{17, 200}));
}

TEST_F(FieldIntervalsTest, UnionMergesAdjacent) {
  BddRef set = mgr_.Or(field_.InRange(mgr_, 10, 19),
                       field_.InRange(mgr_, 20, 30));
  auto merged = field_.Intervals(mgr_, set);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], (Interval{10, 30}));
}

TEST_F(FieldIntervalsTest, DisjointRangesStaySplit) {
  BddRef set = mgr_.Or(field_.EqualsConst(mgr_, 5),
                       field_.InRange(mgr_, 100, 120));
  auto intervals = field_.Intervals(mgr_, set);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0], (Interval{5, 5}));
  EXPECT_EQ(intervals[1], (Interval{100, 120}));
}

TEST_F(FieldIntervalsTest, ComplementOfValue) {
  auto holes = field_.Intervals(mgr_, mgr_.Not(field_.EqualsConst(mgr_, 0)));
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_EQ(holes[0], (Interval{1, 255}));
  auto middle =
      field_.Intervals(mgr_, mgr_.Not(field_.EqualsConst(mgr_, 77)));
  ASSERT_EQ(middle.size(), 2u);
  EXPECT_EQ(middle[0], (Interval{0, 76}));
  EXPECT_EQ(middle[1], (Interval{78, 255}));
}

TEST_F(FieldIntervalsTest, RandomSetsRoundTrip) {
  std::mt19937_64 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> member(256, false);
    BddRef set = mgr_.False();
    for (int i = 0; i < 5; ++i) {
      std::uint32_t low = rng() % 256;
      std::uint32_t high = low + rng() % (256 - low);
      set = mgr_.Or(set, field_.InRange(mgr_, low, high));
      for (std::uint32_t v = low; v <= high; ++v) member[v] = true;
    }
    auto intervals = field_.Intervals(mgr_, set);
    std::vector<bool> rebuilt(256, false);
    for (const auto& interval : intervals) {
      // Intervals must be sorted, disjoint, non-adjacent.
      for (std::uint32_t v = static_cast<std::uint32_t>(interval.low.lo());
           v <= static_cast<std::uint32_t>(interval.high.lo()); ++v) {
        EXPECT_FALSE(rebuilt[v]);
        rebuilt[v] = true;
      }
    }
    EXPECT_EQ(rebuilt, member) << "trial " << trial;
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GT(intervals[i].low, intervals[i - 1].high + 1);
    }
  }
}

// Regression: AppendInterval tested adjacency as `back.high + 1 == low`.
// With back.high at the maximum field value the increment wraps to 0, so a
// later append starting at 0 spuriously merged and corrupted the sorted
// list. The fixed form (`back.high == low - 1` guarded by low != 0) must
// keep the two intervals apart.
TEST(AppendIntervalTest, NoWraparoundMergeAtMaxFieldValue) {
  std::vector<Interval> intervals;
  SymbolicField::AppendInterval(intervals, util::U128(5), util::U128::Max());
  SymbolicField::AppendInterval(intervals, util::U128(), util::U128(3));
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0], (Interval{util::U128(5), util::U128::Max()}));
  EXPECT_EQ(intervals[1], (Interval{util::U128(), util::U128(3)}));
}

TEST(AppendIntervalTest, StillMergesGenuinelyAdjacent) {
  std::vector<Interval> intervals;
  SymbolicField::AppendInterval(intervals, util::U128(), util::U128(9));
  SymbolicField::AppendInterval(intervals, util::U128(10), util::U128(20));
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0], (Interval{util::U128(), util::U128(20)}));
}

// A full-width 128-bit field whose set is True must come back as the single
// interval [0, 2^128 - 1]; pre-fix, block arithmetic at the top of the walk
// wrapped and split or corrupted it.
TEST(FieldIntervals128Test, FullRangeIsOneInterval) {
  BddManager mgr(128);
  SymbolicField field(0, 128);
  auto full = field.Intervals(mgr, mgr.True());
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].low, util::U128());
  EXPECT_EQ(full[0].high, util::U128::Max());
}

// Randomized 128-bit oracle: Intervals(InRange(a, b)) must reproduce
// exactly [a, b] for arbitrary 128-bit bounds.
TEST(FieldIntervals128Test, RandomRangesRoundTrip) {
  BddManager mgr(128);
  SymbolicField field(0, 128);
  std::mt19937_64 rng(128);
  for (int trial = 0; trial < 25; ++trial) {
    util::U128 a(rng(), rng());
    util::U128 b(rng(), rng());
    if (b < a) std::swap(a, b);
    auto intervals = field.Intervals(mgr, field.InRange(mgr, a, b));
    ASSERT_EQ(intervals.size(), 1u) << "trial " << trial;
    EXPECT_EQ(intervals[0], (Interval{a, b})) << "trial " << trial;
  }
}

// Regression: a predicate over a variable *beyond* the field previously
// fell through to the depth-driven descent, which emitted one single-value
// interval per field value — 2^32 appends for a 32-bit field (an effective
// hang). The out-of-field check now runs on the node's variable before the
// descent, so the whole block is emitted in one step.
TEST(FieldIntervalsOutOfFieldTest, VariableBeyondFieldEmitsWholeBlock) {
  BddManager mgr(33);
  SymbolicField field(0, 32);
  auto intervals = field.Intervals(mgr, mgr.VarTrue(32));
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0], (Interval{util::U128(), util::U128::Ones(32)}));
}

TEST(FieldIntervalsOutOfFieldTest, MixedInAndOutOfFieldVariables) {
  BddManager mgr(34);
  SymbolicField field(0, 32);
  // (field == 7) OR (an out-of-field variable): projected onto the field,
  // everything is reachable, but the walk must not enumerate values.
  BddRef set = mgr.Or(field.EqualsConst(mgr, 7), mgr.VarTrue(33));
  auto intervals = field.Intervals(mgr, set);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0], (Interval{util::U128(), util::U128::Ones(32)}));
}

TEST(PacketPortLocalizationTest, AffectedDstPorts) {
  BddManager mgr;
  PacketLayout layout(mgr);
  BddRef set = mgr.Or(layout.DstPortIn({80, 80}),
                      layout.DstPortIn({443, 443}));
  set = mgr.And(set, layout.ProtocolIs(ir::kProtoTcp));
  auto ports = layout.AffectedDstPorts(set);
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(ports[0], (ir::PortRange{80, 80}));
  EXPECT_EQ(ports[1], (ir::PortRange{443, 443}));
  auto protocols = layout.AffectedProtocols(set);
  ASSERT_EQ(protocols.size(), 1u);
  EXPECT_EQ(protocols[0].low, ir::kProtoTcp);
}

TEST(PacketPortLocalizationTest, PresentedAclDifferenceShowsPorts) {
  ir::RouterConfig c1, c2;
  c1.hostname = "a";
  c2.hostname = "b";
  ir::Acl acl1;
  acl1.name = "F";
  ir::AclLine line;
  line.action = ir::LineAction::kPermit;
  line.protocol = ir::kProtoTcp;
  line.dst_ports.push_back({8080, 8088});
  acl1.lines.push_back(line);
  ir::Acl acl2;
  acl2.name = "F";  // Empty: denies everything.
  c1.acls["F"] = acl1;
  c2.acls["F"] = acl2;

  auto diffs = core::DiffAclPair(c1, c2, "F");
  ASSERT_EQ(diffs.size(), 1u);
  ASSERT_EQ(diffs[0].dst_ports.size(), 1u);
  EXPECT_EQ(diffs[0].dst_ports[0], (ir::PortRange{8080, 8088}));
  ASSERT_EQ(diffs[0].protocols.size(), 1u);
  EXPECT_EQ(diffs[0].protocols[0].low, ir::kProtoTcp);
  EXPECT_NE(diffs[0].table.find("Dst Ports"), std::string::npos);
  EXPECT_NE(diffs[0].table.find("8080-8088"), std::string::npos);
  EXPECT_NE(diffs[0].table.find("Protocols"), std::string::npos);
  EXPECT_NE(diffs[0].table.find("tcp"), std::string::npos);
}

TEST(PacketPortLocalizationTest, UnconstrainedFieldsOmitted) {
  ir::RouterConfig c1, c2;
  c1.hostname = "a";
  c2.hostname = "b";
  ir::Acl acl1;
  acl1.name = "F";
  ir::AclLine line;  // Matches every packet.
  line.action = ir::LineAction::kPermit;
  acl1.lines.push_back(line);
  ir::Acl acl2;
  acl2.name = "F";
  c1.acls["F"] = acl1;
  c2.acls["F"] = acl2;

  auto diffs = core::DiffAclPair(c1, c2, "F");
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_TRUE(diffs[0].dst_ports.empty());
  EXPECT_TRUE(diffs[0].protocols.empty());
  EXPECT_EQ(diffs[0].table.find("Dst Ports"), std::string::npos);
}

}  // namespace
}  // namespace campion::encode
