#include "util/prefix_range.h"

#include <gtest/gtest.h>

namespace campion::util {
namespace {

PrefixRange Range(const char* prefix, int low, int high) {
  return PrefixRange(*IpPrefix::Parse(prefix), low, high);
}

TEST(PrefixRangeTest, UniverseContainsEverything) {
  PrefixRange u = PrefixRange::Universe();
  EXPECT_TRUE(u.Contains(*IpPrefix::Parse("0.0.0.0/0")));
  EXPECT_TRUE(u.Contains(*IpPrefix::Parse("10.9.1.0/24")));
  EXPECT_TRUE(u.Contains(*IpPrefix::Parse("255.255.255.255/32")));
}

TEST(PrefixRangeTest, MembershipPaperExamples) {
  // From §3.2: 1.2.3.0/24 is a member of (1.2.0.0/16, 16-32).
  EXPECT_TRUE(
      Range("1.2.0.0/16", 16, 32).Contains(*IpPrefix::Parse("1.2.3.0/24")));
  // (1.0.0.0/8, 24-24) is the set of prefixes of length 24 starting with 1.
  PrefixRange slash24s = Range("1.0.0.0/8", 24, 24);
  EXPECT_TRUE(slash24s.Contains(*IpPrefix::Parse("1.2.3.0/24")));
  EXPECT_FALSE(slash24s.Contains(*IpPrefix::Parse("1.2.0.0/16")));
  EXPECT_FALSE(slash24s.Contains(*IpPrefix::Parse("2.2.3.0/24")));
}

TEST(PrefixRangeTest, ExactRangeMatchesOnlyItself) {
  PrefixRange exact(*IpPrefix::Parse("10.9.0.0/16"));
  EXPECT_TRUE(exact.Contains(*IpPrefix::Parse("10.9.0.0/16")));
  EXPECT_FALSE(exact.Contains(*IpPrefix::Parse("10.9.1.0/24")));
  EXPECT_FALSE(exact.Contains(*IpPrefix::Parse("10.8.0.0/15")));
}

TEST(PrefixRangeTest, LengthWindowBoundaries) {
  PrefixRange r = Range("10.0.0.0/8", 16, 24);
  EXPECT_FALSE(r.Contains(*IpPrefix::Parse("10.1.0.0/15")));
  EXPECT_TRUE(r.Contains(*IpPrefix::Parse("10.1.0.0/16")));
  EXPECT_TRUE(r.Contains(*IpPrefix::Parse("10.1.2.0/24")));
  EXPECT_FALSE(r.Contains(*IpPrefix::Parse("10.1.2.0/25")));
}

TEST(PrefixRangeTest, EmptyWindow) {
  EXPECT_TRUE(Range("10.0.0.0/8", 20, 16).IsEmpty());
  // Window entirely below the base length is infeasible.
  EXPECT_TRUE(Range("10.9.0.0/16", 4, 10).IsEmpty());
  EXPECT_FALSE(Range("10.9.0.0/16", 4, 16).IsEmpty());
}

TEST(PrefixRangeTest, ContainsRangeSameBase) {
  EXPECT_TRUE(Range("10.0.0.0/8", 8, 32).ContainsRange(Range("10.0.0.0/8", 16, 24)));
  EXPECT_FALSE(Range("10.0.0.0/8", 16, 24).ContainsRange(Range("10.0.0.0/8", 8, 32)));
  EXPECT_TRUE(Range("10.0.0.0/8", 16, 24).ContainsRange(Range("10.0.0.0/8", 16, 24)));
}

TEST(PrefixRangeTest, ContainsRangeNestedBase) {
  EXPECT_TRUE(
      Range("10.0.0.0/8", 8, 32).ContainsRange(Range("10.9.0.0/16", 16, 32)));
  // A longer base never contains a shorter one (free bits escape).
  EXPECT_FALSE(
      Range("10.9.0.0/16", 16, 32).ContainsRange(Range("10.0.0.0/8", 16, 32)));
}

TEST(PrefixRangeTest, ContainsRangeDisjointBases) {
  EXPECT_FALSE(
      Range("10.9.0.0/16", 16, 32).ContainsRange(Range("10.100.0.0/16", 16, 32)));
}

TEST(PrefixRangeTest, ContainsRangeWindowEscapes) {
  // Same base but the contained window reaches below: not contained.
  EXPECT_FALSE(
      Range("10.0.0.0/8", 16, 32).ContainsRange(Range("10.0.0.0/8", 10, 20)));
}

TEST(PrefixRangeTest, EmptyRangeContainedInEverything) {
  PrefixRange empty = Range("10.9.0.0/16", 4, 8);
  ASSERT_TRUE(empty.IsEmpty());
  EXPECT_TRUE(Range("99.0.0.0/8", 8, 8).ContainsRange(empty));
  EXPECT_FALSE(empty.ContainsRange(Range("99.0.0.0/8", 8, 8)));
}

TEST(PrefixRangeTest, IntersectSameBase) {
  auto meet = Range("10.0.0.0/8", 8, 20).Intersect(Range("10.0.0.0/8", 16, 32));
  ASSERT_TRUE(meet.has_value());
  EXPECT_EQ(*meet, Range("10.0.0.0/8", 16, 20));
}

TEST(PrefixRangeTest, IntersectNestedBaseTakesLonger) {
  auto meet =
      Range("10.0.0.0/8", 8, 32).Intersect(Range("10.9.0.0/16", 16, 24));
  ASSERT_TRUE(meet.has_value());
  EXPECT_EQ(meet->prefix(), *IpPrefix::Parse("10.9.0.0/16"));
  EXPECT_EQ(meet->low(), 16);
  EXPECT_EQ(meet->high(), 24);
}

TEST(PrefixRangeTest, IntersectDisjointBases) {
  EXPECT_FALSE(
      Range("10.9.0.0/16", 16, 32).Intersect(Range("10.100.0.0/16", 16, 32)));
}

TEST(PrefixRangeTest, IntersectEmptyWindow) {
  EXPECT_FALSE(
      Range("10.0.0.0/8", 8, 12).Intersect(Range("10.0.0.0/8", 16, 32)));
}

TEST(PrefixRangeTest, IntersectIsCommutative) {
  auto a = Range("10.0.0.0/8", 10, 28);
  auto b = Range("10.64.0.0/10", 12, 32);
  auto ab = a.Intersect(b);
  auto ba = b.Intersect(a);
  ASSERT_TRUE(ab.has_value());
  ASSERT_TRUE(ba.has_value());
  EXPECT_EQ(*ab, *ba);
}

TEST(PrefixRangeTest, ToStringMatchesPaperFormat) {
  EXPECT_EQ(Range("10.9.0.0/16", 16, 32).ToString(), "10.9.0.0/16 : 16-32");
}

TEST(PrefixRangeTest, IntersectionMembershipIsConjunction) {
  // Property: p in (a ^ b) iff p in a and p in b, over a sample of prefixes.
  auto a = Range("10.0.0.0/8", 12, 24);
  auto b = Range("10.16.0.0/12", 14, 30);
  auto meet = a.Intersect(b);
  ASSERT_TRUE(meet.has_value());
  for (std::uint32_t addr : {0x0A100000u, 0x0A180000u, 0x0A000000u,
                             0x0B000000u, 0x0A1F0000u}) {
    for (int len : {8, 12, 13, 14, 20, 24, 25, 30, 32}) {
      IpPrefix p(Ipv4Address(addr), len);
      EXPECT_EQ(meet->Contains(p), a.Contains(p) && b.Contains(p))
          << p.ToString();
    }
  }
}

TEST(PrefixRangeTermTest, ToStringWithExcludes) {
  PrefixRangeTerm term{Range("10.0.0.0/8", 8, 32),
                       {Range("10.9.0.0/16", 16, 32)}};
  EXPECT_EQ(term.ToString(),
            "10.0.0.0/8 : 8-32  minus  10.9.0.0/16 : 16-32");
}

}  // namespace
}  // namespace campion::util
