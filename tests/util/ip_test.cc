#include "util/ip.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

namespace campion::util {
namespace {

TEST(Ipv4AddressTest, ParseValid) {
  auto addr = Ipv4Address::Parse("10.9.0.1");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->bits(), 0x0A090001u);
  EXPECT_EQ(addr->ToString(), "10.9.0.1");
}

TEST(Ipv4AddressTest, ParseBoundaries) {
  EXPECT_EQ(Ipv4Address::Parse("0.0.0.0")->bits(), 0u);
  EXPECT_EQ(Ipv4Address::Parse("255.255.255.255")->bits(), 0xFFFFFFFFu);
}

TEST(Ipv4AddressTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.9.0").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.9.0.1.2").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.9.0.256").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.9.0.-1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.9..1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.9.0.1 ").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d").has_value());
}

TEST(Ipv4AddressTest, ConstructorFromOctets) {
  Ipv4Address addr(192, 168, 1, 200);
  EXPECT_EQ(addr.ToString(), "192.168.1.200");
}

TEST(Ipv4AddressTest, BitIndexing) {
  Ipv4Address addr(0x80000001u);
  EXPECT_TRUE(addr.Bit(0));
  EXPECT_FALSE(addr.Bit(1));
  EXPECT_FALSE(addr.Bit(30));
  EXPECT_TRUE(addr.Bit(31));
}

TEST(Ipv4AddressTest, Ordering) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_LT(Ipv4Address(9, 255, 255, 255), Ipv4Address(10, 0, 0, 0));
}

TEST(MaskTest, MaskBits) {
  EXPECT_EQ(MaskBits(0, 32), U128());
  EXPECT_EQ(MaskBits(8, 32), U128(0xFF000000u));
  EXPECT_EQ(MaskBits(24, 32), U128(0xFFFFFF00u));
  EXPECT_EQ(MaskBits(31, 32), U128(0xFFFFFFFEu));
  EXPECT_EQ(MaskBits(32, 32), U128(0xFFFFFFFFu));
  EXPECT_EQ(MaskBits(0, 128), U128());
  EXPECT_EQ(MaskBits(48, 128), U128(0xFFFFFFFFFFFF0000ull, 0));
  EXPECT_EQ(MaskBits(65, 128), U128(~0ull, 0x8000000000000000ull));
  EXPECT_EQ(MaskBits(128, 128), U128::Ones(128));
}

TEST(MaskTest, MaskToLengthRoundTrip) {
  for (int width : {32, 128}) {
    for (int len = 0; len <= width; ++len) {
      auto back = MaskToLength(MaskBits(len, width), width);
      ASSERT_TRUE(back.has_value()) << width << "/" << len;
      EXPECT_EQ(*back, len);
    }
  }
}

TEST(MaskTest, MaskToLengthRejectsNonContiguous) {
  EXPECT_FALSE(MaskToLength(U128(0xFF00FF00u), 32).has_value());
  EXPECT_FALSE(MaskToLength(U128(0x00000001u), 32).has_value());
  EXPECT_FALSE(MaskToLength(U128(0xFFFFFF01u), 32).has_value());
  // 128-bit masks: a hole in either half, a stray low bit, and a mask
  // wider than its field.
  EXPECT_FALSE(
      MaskToLength(U128(0xFFFF0000FFFF0000ull, 0), 128).has_value());
  EXPECT_FALSE(MaskToLength(U128(~0ull, 0x00FF000000000000ull), 128)
                   .has_value());
  EXPECT_FALSE(MaskToLength(U128(0x8000000000000000ull, 1), 128).has_value());
  EXPECT_FALSE(MaskToLength(U128::Ones(33), 32).has_value());
}

TEST(PrefixTest, HostBitsAreZeroed) {
  IpPrefix p(Ipv4Address(10, 9, 200, 77), 16);
  EXPECT_EQ(p.address().ToString(), "10.9.0.0");
  EXPECT_EQ(p.ToString(), "10.9.0.0/16");
}

TEST(PrefixTest, ParseValid) {
  auto p = IpPrefix::Parse("10.100.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->family(), AddressFamily::kIpv4);
  EXPECT_EQ(p->length(), 16);
  EXPECT_EQ(p->address(), IpAddress(Ipv4Address(10, 100, 0, 0)));
}

TEST(PrefixTest, ParseCanonicalizes) {
  auto p = IpPrefix::Parse("10.100.3.7/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ToString(), "10.100.0.0/16");
}

TEST(PrefixTest, ParseRejectsMalformed) {
  EXPECT_FALSE(IpPrefix::Parse("10.100.0.0").has_value());
  EXPECT_FALSE(IpPrefix::Parse("10.100.0.0/33").has_value());
  EXPECT_FALSE(IpPrefix::Parse("10.100.0.0/").has_value());
  EXPECT_FALSE(IpPrefix::Parse("10.100.0.0/16x").has_value());
  EXPECT_FALSE(IpPrefix::Parse("/16").has_value());
  EXPECT_FALSE(IpPrefix::Parse("10.100.0.256/16").has_value());
  EXPECT_FALSE(IpPrefix::Parse("10.100.0/16").has_value());
  EXPECT_FALSE(IpPrefix::Parse("10.100.0.0/-1").has_value());
  EXPECT_FALSE(IpPrefix::Parse("10.100.0.0/16/16").has_value());
}

TEST(PrefixTest, ContainsAddress) {
  // An address is contained as its host prefix.
  IpPrefix p(Ipv4Address(10, 9, 0, 0), 16);
  EXPECT_TRUE(p.Contains(IpPrefix(Ipv4Address(10, 9, 1, 2), 32)));
  EXPECT_TRUE(p.Contains(IpPrefix(Ipv4Address(10, 9, 255, 255), 32)));
  EXPECT_FALSE(p.Contains(IpPrefix(Ipv4Address(10, 10, 0, 0), 32)));
}

TEST(PrefixTest, ContainsPrefix) {
  IpPrefix wide(Ipv4Address(10, 0, 0, 0), 8);
  IpPrefix narrow(Ipv4Address(10, 9, 1, 0), 24);
  EXPECT_TRUE(wide.Contains(narrow));
  EXPECT_FALSE(narrow.Contains(wide));
  EXPECT_TRUE(wide.Contains(wide));
}

TEST(PrefixTest, ZeroLengthContainsEverything) {
  IpPrefix all(Ipv4Address(0), 0);
  EXPECT_TRUE(all.Contains(IpPrefix(Ipv4Address(255, 255, 255, 255), 32)));
  EXPECT_TRUE(all.Contains(IpPrefix(Ipv4Address(1, 2, 3, 4), 32)));
}

// Structural-diff reports list static routes, interfaces and BGP networks
// in set order, so an all-IPv4 set of IpPrefix must order by address, then
// length, the order reports have always had.
TEST(PrefixTest, Ipv4SetOrdersByAddressThenLength) {
  std::set<IpPrefix> set{
      IpPrefix(Ipv4Address(10, 9, 0, 0), 24),
      IpPrefix(Ipv4Address(10, 0, 0, 0), 8),
      IpPrefix(Ipv4Address(9, 255, 0, 0), 16),
      IpPrefix(Ipv4Address(10, 0, 0, 0), 16),
      IpPrefix(Ipv4Address(0, 0, 0, 0), 0),
      IpPrefix(Ipv4Address(10, 9, 0, 0), 16),
  };
  std::vector<std::string> order;
  for (const IpPrefix& p : set) order.push_back(p.ToString());
  EXPECT_EQ(order, (std::vector<std::string>{
                       "0.0.0.0/0", "9.255.0.0/16", "10.0.0.0/8",
                       "10.0.0.0/16", "10.9.0.0/16", "10.9.0.0/24"}));
}

TEST(IpWildcardTest, PrefixWildcardMatches) {
  IpWildcard w(IpPrefix(Ipv4Address(10, 9, 0, 0), 16));
  EXPECT_EQ(w.wildcard_bits(), 0x0000FFFFu);
  EXPECT_TRUE(w.Matches(Ipv4Address(10, 9, 42, 1)));
  EXPECT_FALSE(w.Matches(Ipv4Address(10, 8, 42, 1)));
}

TEST(IpWildcardTest, HostWildcard) {
  IpWildcard w(Ipv4Address(10, 1, 2, 3));
  EXPECT_TRUE(w.Matches(Ipv4Address(10, 1, 2, 3)));
  EXPECT_FALSE(w.Matches(Ipv4Address(10, 1, 2, 4)));
}

TEST(IpWildcardTest, AnyMatchesEverything) {
  EXPECT_TRUE(IpWildcard::Any().Matches(Ipv4Address(0)));
  EXPECT_TRUE(IpWildcard::Any().Matches(Ipv4Address(255, 255, 255, 255)));
  EXPECT_TRUE(IpWildcard::Any().IsAny());
}

TEST(IpWildcardTest, ContiguousWildcardIsPrefixShaped) {
  // 9.140.0.0 with wildcard 0.0.1.255 is exactly the prefix 9.140.0.0/23.
  IpWildcard w(Ipv4Address(9, 140, 0, 0), 0x000001FFu);
  EXPECT_TRUE(w.Matches(Ipv4Address(9, 140, 0, 7)));
  EXPECT_TRUE(w.Matches(Ipv4Address(9, 140, 1, 200)));
  EXPECT_FALSE(w.Matches(Ipv4Address(9, 140, 2, 0)));
  auto p = w.AsIpPrefix();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ToString(), "9.140.0.0/23");
}

TEST(IpWildcardTest, NonContiguousWildcard) {
  // Don't-care hole in the third octet only: matches 9.140.0.9 and
  // 9.140.1.9 but no other last octet.
  IpWildcard w(Ipv4Address(9, 140, 0, 9), 0x00000100u);
  EXPECT_TRUE(w.Matches(Ipv4Address(9, 140, 0, 9)));
  EXPECT_TRUE(w.Matches(Ipv4Address(9, 140, 1, 9)));
  EXPECT_FALSE(w.Matches(Ipv4Address(9, 140, 0, 8)));
  EXPECT_FALSE(w.AsIpPrefix().has_value());
}

TEST(IpWildcardTest, AsPrefixRoundTrip) {
  IpPrefix p(Ipv4Address(172, 16, 0, 0), 12);
  auto back = IpWildcard(p).AsIpPrefix();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
}

TEST(IpWildcardTest, ToStringFormat) {
  IpWildcard w(Ipv4Address(9, 140, 0, 0), 0x000001FFu);
  EXPECT_EQ(w.ToString(), "9.140.0.0 0.0.1.255");
}

// Regression: dotted-quad octets and prefix lengths with leading zeros
// ("010" reads as octal to historic tools) must be rejected, matching
// inet_pton. ParseDecimal previously accepted them as decimal, so
// "010.0.0.1" silently parsed as 10.0.0.1.
TEST(Ipv4AddressTest, ParseRejectsLeadingZeros) {
  EXPECT_FALSE(Ipv4Address::Parse("010.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.01.0.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.0.0.00").has_value());
  EXPECT_FALSE(IpPrefix::Parse("10.0.0.0/08").has_value());
  EXPECT_TRUE(Ipv4Address::Parse("0.0.0.0").has_value());  // Bare zero is fine.
  EXPECT_TRUE(IpPrefix::Parse("0.0.0.0/0").has_value());
}

TEST(Ipv6AddressTest, ParseBasicForms) {
  auto a = Ipv6Address::Parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->bits(), U128(0x20010db800000000ull, 1));

  EXPECT_EQ(Ipv6Address::Parse("::")->bits(), U128());
  EXPECT_EQ(Ipv6Address::Parse("::1")->bits(), U128(0, 1));
  EXPECT_EQ(Ipv6Address::Parse("ff02::")->bits(),
            U128(0xff02000000000000ull, 0));
  // All eight groups, no compression.
  EXPECT_EQ(Ipv6Address::Parse("1:2:3:4:5:6:7:8")->bits(),
            U128(0x0001000200030004ull, 0x0005000600070008ull));
  // Embedded dotted-quad in the last two groups.
  EXPECT_EQ(Ipv6Address::Parse("::ffff:10.0.0.1")->bits(),
            U128(0, 0xffff0a000001ull));
}

TEST(Ipv6AddressTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv6Address::Parse("").has_value());
  EXPECT_FALSE(Ipv6Address::Parse(":").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("1::2::3").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("12345::").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("g::").has_value());
  EXPECT_FALSE(Ipv6Address::Parse("2001:db8::1 ").has_value());
}

TEST(Ipv6AddressTest, ToStringRfc5952Canonical) {
  // Lowercase, longest zero run compressed, leftmost on ties, no
  // compression of a single zero group.
  EXPECT_EQ(Ipv6Address().ToString(), "::");
  EXPECT_EQ(Ipv6Address(U128(0, 1)).ToString(), "::1");
  EXPECT_EQ(Ipv6Address::Parse("2001:DB8::1")->ToString(), "2001:db8::1");
  EXPECT_EQ(Ipv6Address::Parse("2001:db8:0:1:1:1:1:1")->ToString(),
            "2001:db8:0:1:1:1:1:1");
  EXPECT_EQ(Ipv6Address::Parse("2001:0:0:1:0:0:0:1")->ToString(),
            "2001:0:0:1::1");
  EXPECT_EQ(Ipv6Address::Parse("1:0:0:2:0:0:3:4")->ToString(),
            "1::2:0:0:3:4");
}

// Randomized RFC 5952 round-trip oracle: for any 128-bit value, ToString
// must re-parse to the same bits (canonical text is lossless).
TEST(Ipv6AddressTest, RandomizedRoundTrip) {
  std::mt19937_64 rng(5952);
  for (int trial = 0; trial < 2000; ++trial) {
    // Bias toward sparse group patterns so zero-run compression runs often.
    std::uint64_t hi = rng(), lo = rng();
    switch (rng() % 4) {
      case 0: break;                     // Full entropy.
      case 1: hi &= rng(); lo &= rng(); [[fallthrough]];
      case 2: hi &= rng(); lo &= rng(); break;
      default: {                         // A few nonzero groups only.
        hi = lo = 0;
        for (int g = 0; g < 3; ++g) {
          int slot = static_cast<int>(rng() % 8);
          std::uint64_t group = rng() & 0xffff;
          if (slot < 4) hi |= group << (48 - 16 * slot);
          else lo |= group << (48 - 16 * (slot - 4));
        }
        break;
      }
    }
    Ipv6Address addr(U128(hi, lo));
    auto back = Ipv6Address::Parse(addr.ToString());
    ASSERT_TRUE(back.has_value()) << addr.ToString();
    EXPECT_EQ(back->bits(), addr.bits()) << addr.ToString();
  }
}

TEST(IpPrefixTest, ParseAndCanonicalizeIpv6) {
  auto p = IpPrefix::Parse("2001:db8::/32");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->family(), AddressFamily::kIpv6);
  EXPECT_EQ(p->length(), 32);
  EXPECT_EQ(p->ToString(), "2001:db8::/32");
  // Host bits are zeroed.
  EXPECT_EQ(*IpPrefix::Parse("2001:db8::ff/32"), *p);
  EXPECT_EQ(IpPrefix(*Ipv6Address::Parse("2001:db8::ff"), 32), *p);
  EXPECT_TRUE(IpPrefix::Parse("::/0").has_value());
  EXPECT_TRUE(IpPrefix::Parse("2001:db8::1/128").has_value());
  EXPECT_FALSE(IpPrefix::Parse("2001:db8::/129").has_value());
  EXPECT_FALSE(IpPrefix::Parse("2001:db8::").has_value());
  EXPECT_FALSE(IpPrefix::Parse("2001:db8::/32 ").has_value());
  EXPECT_FALSE(IpPrefix::Parse("2001:db8::/032").has_value());
  EXPECT_FALSE(IpPrefix::Parse("2001:db8:::/32").has_value());
  EXPECT_FALSE(IpPrefix::Parse("2001:dg8::/32").has_value());
}

TEST(IpPrefixTest, ParseEitherFamily) {
  auto v4 = IpPrefix::Parse("10.0.0.0/8");
  ASSERT_TRUE(v4.has_value());
  EXPECT_EQ(v4->family(), AddressFamily::kIpv4);
  EXPECT_EQ(v4->ToString(), "10.0.0.0/8");

  auto v6 = IpPrefix::Parse("2001:db8::/32");
  ASSERT_TRUE(v6.has_value());
  EXPECT_EQ(v6->family(), AddressFamily::kIpv6);
  EXPECT_EQ(v6->ToString(), "2001:db8::/32");

  // Containment never crosses families even when the bit patterns align.
  EXPECT_FALSE(v4->Contains(*v6));
  EXPECT_FALSE(v6->Contains(*v4));
}

TEST(IpWildcardTest, Ipv6PrefixShapedWildcard) {
  IpWildcard w(*IpPrefix::Parse("2001:db8::/32"));
  EXPECT_EQ(w.family(), AddressFamily::kIpv6);
  EXPECT_TRUE(w.Matches(*Ipv6Address::Parse("2001:db8::1")));
  EXPECT_FALSE(w.Matches(*Ipv6Address::Parse("2001:db9::1")));
  // A v4 address never matches a v6 wildcard.
  EXPECT_FALSE(w.Matches(Ipv4Address(10, 0, 0, 1)));
  auto back = w.AsIpPrefix();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ToString(), "2001:db8::/32");
  EXPECT_EQ(w.wildcard_wide(), U128(0xFFFFFFFFull, ~0ull));
}

TEST(IpWildcardTest, AnyOfEachFamily) {
  EXPECT_TRUE(IpWildcard::AnyOf(AddressFamily::kIpv4).IsAny());
  EXPECT_TRUE(IpWildcard::AnyOf(AddressFamily::kIpv6).IsAny());
  EXPECT_EQ(IpWildcard::AnyOf(AddressFamily::kIpv4).family(),
            AddressFamily::kIpv4);
  EXPECT_EQ(IpWildcard::AnyOf(AddressFamily::kIpv6).family(),
            AddressFamily::kIpv6);
}

}  // namespace
}  // namespace campion::util
