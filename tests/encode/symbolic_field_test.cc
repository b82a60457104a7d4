#include "encode/symbolic_field.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "encode/route_adv.h"
#include "util/prefix_range.h"

namespace campion::encode {
namespace {

using bdd::BddManager;
using bdd::BddRef;
using util::AddressFamily;
using util::IpPrefix;
using util::PrefixRange;
using util::U128;

class SymbolicFieldTest : public ::testing::Test {
 protected:
  SymbolicFieldTest() : mgr_(8), field_(0, 8) {}

  // Evaluates f on the assignment where the field carries `value`.
  bool Eval(BddRef f, std::uint32_t value) {
    BddRef point = field_.EqualsConst(mgr_, value);
    return mgr_.Intersects(point, f);
  }

  BddManager mgr_;
  SymbolicField field_;
};

TEST_F(SymbolicFieldTest, EqualsConst) {
  BddRef f = field_.EqualsConst(mgr_, 42);
  for (std::uint32_t v = 0; v < 256; ++v) {
    EXPECT_EQ(Eval(f, v), v == 42) << v;
  }
}

TEST_F(SymbolicFieldTest, LeqExhaustive) {
  for (std::uint32_t bound : {0u, 1u, 7u, 128u, 254u, 255u}) {
    BddRef f = field_.Leq(mgr_, bound);
    for (std::uint32_t v = 0; v < 256; ++v) {
      EXPECT_EQ(Eval(f, v), v <= bound) << "bound=" << bound << " v=" << v;
    }
  }
}

TEST_F(SymbolicFieldTest, GeqExhaustive) {
  for (std::uint32_t bound : {0u, 1u, 100u, 255u}) {
    BddRef f = field_.Geq(mgr_, bound);
    for (std::uint32_t v = 0; v < 256; ++v) {
      EXPECT_EQ(Eval(f, v), v >= bound) << "bound=" << bound << " v=" << v;
    }
  }
}

TEST_F(SymbolicFieldTest, InRangeExhaustive) {
  BddRef f = field_.InRange(mgr_, 16, 32);
  for (std::uint32_t v = 0; v < 256; ++v) {
    EXPECT_EQ(Eval(f, v), v >= 16 && v <= 32) << v;
  }
}

TEST_F(SymbolicFieldTest, InRangeEmptyWhenInverted) {
  EXPECT_EQ(field_.InRange(mgr_, 32, 16), mgr_.False());
}

TEST_F(SymbolicFieldTest, InRangeFullWidth) {
  EXPECT_EQ(field_.InRange(mgr_, 0, 255), mgr_.True());
}

TEST_F(SymbolicFieldTest, MatchPrefixBits) {
  // Top 4 bits equal to 0b1010 (value 0xA0 left-aligned).
  BddRef f = field_.MatchPrefixBits(mgr_, 0xA0, 4);
  for (std::uint32_t v = 0; v < 256; ++v) {
    EXPECT_EQ(Eval(f, v), (v >> 4) == 0xA) << v;
  }
}

TEST_F(SymbolicFieldTest, MatchPrefixBitsZeroLengthIsTrue) {
  EXPECT_EQ(field_.MatchPrefixBits(mgr_, 0xFF, 0), mgr_.True());
}

TEST_F(SymbolicFieldTest, MatchMaskedWildcard) {
  // Care only about bits 0 and 7 (MSB and LSB): value 0x81.
  BddRef f = field_.MatchMasked(mgr_, 0x81, 0x81);
  for (std::uint32_t v = 0; v < 256; ++v) {
    EXPECT_EQ(Eval(f, v), (v & 0x81) == 0x81) << v;
  }
}

TEST_F(SymbolicFieldTest, DecodeReadsCube) {
  BddRef f = field_.EqualsConst(mgr_, 0xC3);
  auto cube = mgr_.AnySat(f);
  ASSERT_TRUE(cube.has_value());
  EXPECT_EQ(field_.Decode(*cube), 0xC3u);
}

TEST_F(SymbolicFieldTest, DecodeDontCaresAsZero) {
  bdd::Cube cube(8, -1);
  cube[0] = 1;  // MSB set, everything else don't-care.
  EXPECT_EQ(field_.Decode(cube), 0x80u);
}

TEST(SymbolicFieldOffsetTest, FieldsAtNonZeroOffset) {
  BddManager mgr(20);
  SymbolicField a(4, 8);
  SymbolicField b(12, 8);
  BddRef f = mgr.And(a.EqualsConst(mgr, 7), b.EqualsConst(mgr, 200));
  auto cube = mgr.AnySat(f);
  ASSERT_TRUE(cube.has_value());
  EXPECT_EQ(a.Decode(*cube), 7u);
  EXPECT_EQ(b.Decode(*cube), 200u);
}

// --- Oracle: the Ite/And formulations the Branch-chain builders replaced ---
//
// These are the pre-Branch bodies of MatchPrefixBits, MatchMasked, Leq, Geq,
// InRange and RouteAdvLayout::MatchPrefixRange, kept only here. The builders
// must return the identical BddRef in the same manager: canonicity makes
// equal functions equal references, so any divergence is a wrong function.

bool OracleBit(const SymbolicField& f, U128 value, int i) {
  return value.Bit(f.width() - 1 - i);
}

BddRef OracleMatchPrefixBits(BddManager& mgr, const SymbolicField& f,
                             U128 value, int nbits) {
  BddRef result = mgr.True();
  for (int i = nbits - 1; i >= 0; --i) {
    BddRef bit = OracleBit(f, value, i) ? mgr.VarTrue(f.VarAt(i))
                                        : mgr.VarFalse(f.VarAt(i));
    result = mgr.And(bit, result);
  }
  return result;
}

BddRef OracleMatchMasked(BddManager& mgr, const SymbolicField& f, U128 value,
                         U128 care) {
  BddRef result = mgr.True();
  for (int i = f.width() - 1; i >= 0; --i) {
    if (!OracleBit(f, care, i)) continue;
    BddRef bit = OracleBit(f, value, i) ? mgr.VarTrue(f.VarAt(i))
                                        : mgr.VarFalse(f.VarAt(i));
    result = mgr.And(bit, result);
  }
  return result;
}

BddRef OracleLeq(BddManager& mgr, const SymbolicField& f, U128 value) {
  BddRef result = mgr.True();
  for (int i = f.width() - 1; i >= 0; --i) {
    BddRef bit = mgr.VarTrue(f.VarAt(i));
    result = OracleBit(f, value, i) ? mgr.Ite(bit, result, mgr.True())
                                    : mgr.Ite(bit, mgr.False(), result);
  }
  return result;
}

BddRef OracleGeq(BddManager& mgr, const SymbolicField& f, U128 value) {
  BddRef result = mgr.True();
  for (int i = f.width() - 1; i >= 0; --i) {
    BddRef bit = mgr.VarTrue(f.VarAt(i));
    result = OracleBit(f, value, i) ? mgr.Ite(bit, result, mgr.False())
                                    : mgr.Ite(bit, mgr.True(), result);
  }
  return result;
}

// The old RouteAdvLayout::MatchPrefixRange over a layout built first in its
// manager: address bits from variable 0, the length field right after.
BddRef OracleMatchPrefixRange(BddManager& mgr, AddressFamily family,
                              const PrefixRange& range) {
  const int addr_width = util::AddressWidth(family);
  SymbolicField addr(0, addr_width);
  SymbolicField length(addr_width, family == AddressFamily::kIpv4 ? 6 : 8);
  if (range.family() != family || range.IsEmpty()) return mgr.False();
  int base_len = range.prefix().length();
  int low = std::max(range.low(), base_len);
  int high = std::min(range.high(), util::MaxPrefixLength(family));
  BddRef addr_ok =
      OracleMatchPrefixBits(mgr, addr, range.prefix().address().bits(),
                            base_len);
  BddRef len_ok = low > high
                      ? mgr.False()
                      : mgr.And(OracleGeq(mgr, length, U128(low)),
                                OracleLeq(mgr, length, U128(high)));
  return mgr.And(addr_ok, len_ok);
}

U128 RandomU128(std::mt19937_64& rng) {
  const std::uint64_t hi = rng();
  return U128(hi, rng());
}

// A field value of the given width: 0, all-ones, or random.
U128 PickValue(std::mt19937_64& rng, int width) {
  switch (rng() % 4) {
    case 0: return U128();
    case 1: return U128::Ones(width);
    default: return RandomU128(rng) & U128::Ones(width);
  }
}

TEST(SymbolicFieldOracleTest, BranchChainsMatchIteFormulations) {
  constexpr int kWidths[] = {1, 6, 8, 16, 32, 128};
  constexpr bdd::Var kOffsets[] = {0, 3, 40};
  std::mt19937_64 rng(20211);
  int cases = 0;
  for (int seed = 0; seed < 2400; ++seed) {
    const int width = kWidths[seed % 6];
    const bdd::Var offset = kOffsets[(seed / 6) % 3];
    // A second field right after this one, so `below` continuations and
    // predicates that do not start at variable 0 are both exercised.
    BddManager mgr(offset + width + 8);
    SymbolicField field(offset, width);
    SymbolicField next(offset + width, 8);
    const U128 value = PickValue(rng, width);
    // nbits sweeps 0..width: every value for narrow fields, the ends plus
    // random interior points for wide ones.
    const int nbits = seed % 5 == 0   ? 0
                      : seed % 5 == 1 ? width
                                      : static_cast<int>(rng() % (width + 1));
    const U128 care = PickValue(rng, width);
    const U128 bound = PickValue(rng, 8);

    // Alternate which side builds first so neither relies on the other's
    // nodes already being interned.
    const bool oracle_first = seed % 2 == 0;
    auto both = [&](auto&& built, auto&& oracle) {
      BddRef o = 0, b = 0;
      if (oracle_first) {
        o = oracle();
        b = built();
      } else {
        b = built();
        o = oracle();
      }
      return std::pair{b, o};
    };

    auto [p, po] = both(
        [&] { return field.MatchPrefixBits(mgr, value, nbits); },
        [&] { return OracleMatchPrefixBits(mgr, field, value, nbits); });
    EXPECT_EQ(p, po) << "MatchPrefixBits width=" << width << " nbits="
                     << nbits << " value=" << value.ToString();
    // The `below` continuation is the And onto a later field's predicate.
    BddRef below = OracleLeq(mgr, next, bound);
    auto [c, co] = both(
        [&] { return field.MatchPrefixBits(mgr, value, nbits, below); },
        [&] {
          return mgr.And(OracleMatchPrefixBits(mgr, field, value, nbits),
                         below);
        });
    EXPECT_EQ(c, co) << "MatchPrefixBits+below width=" << width;
    EXPECT_EQ(field.MatchPrefixBits(mgr, value, nbits, mgr.False()),
              mgr.False());
    auto [e, eo] = both(
        [&] { return field.EqualsConst(mgr, value); },
        [&] { return OracleMatchPrefixBits(mgr, field, value, width); });
    EXPECT_EQ(e, eo) << "EqualsConst width=" << width;
    auto [m, mo] = both(
        [&] { return field.MatchMasked(mgr, value, care); },
        [&] { return OracleMatchMasked(mgr, field, value, care); });
    EXPECT_EQ(m, mo) << "MatchMasked width=" << width;
    auto [mb, mbo] = both(
        [&] { return field.MatchMasked(mgr, value, care, below); },
        [&] {
          return mgr.And(OracleMatchMasked(mgr, field, value, care), below);
        });
    EXPECT_EQ(mb, mbo) << "MatchMasked+below width=" << width;
    auto [eb, ebo] = both(
        [&] { return field.EqualsConst(mgr, value, below); },
        [&] {
          return mgr.And(OracleMatchPrefixBits(mgr, field, value, width),
                         below);
        });
    EXPECT_EQ(eb, ebo) << "EqualsConst+below width=" << width;
    auto [l, lo] = both([&] { return field.Leq(mgr, value); },
                        [&] { return OracleLeq(mgr, field, value); });
    EXPECT_EQ(l, lo) << "Leq width=" << width;
    auto [g, go] = both([&] { return field.Geq(mgr, value); },
                        [&] { return OracleGeq(mgr, field, value); });
    EXPECT_EQ(g, go) << "Geq width=" << width;
    ASSERT_TRUE(mgr.CheckInvariants()) << "seed=" << seed;
    ++cases;
  }
  EXPECT_GE(cases, 2000);
}

TEST(SymbolicFieldOracleTest, MatchPrefixRangeMatchesIteFormulation) {
  std::mt19937_64 rng(3202);
  auto range = [](AddressFamily family, U128 bits, int len, int low,
                  int high) {
    return PrefixRange(IpPrefix(family, bits, len), low, high);
  };
  const U128 v4_ones = U128::Ones(32);
  const U128 v6_ones = U128::Max();
  int cases = 0;
  for (AddressFamily family : {AddressFamily::kIpv4, AddressFamily::kIpv6}) {
    const int max = util::MaxPrefixLength(family);
    const AddressFamily other = family == AddressFamily::kIpv4
                                    ? AddressFamily::kIpv6
                                    : AddressFamily::kIpv4;
    const U128 ones = family == AddressFamily::kIpv4 ? v4_ones : v6_ones;
    std::vector<PrefixRange> ranges = {
        range(family, U128(), 0, 0, max),        // /0 le max: everything.
        range(family, U128(), 0, 0, 0),          // Only the default route.
        range(family, ones, max, max, max),      // /32 le 32, /128 le 128.
        range(family, U128(), max, max, max),
        range(family, ones, 8, 30, 20),          // Empty: low > high.
        range(family, ones, 16, max + 1, max + 9),  // Empty: past max.
        range(family, ones, 12, 4, 12),          // Low below the base.
        range(family, U128(), 0, 0, 200),        // High past max.
        range(other, U128(), 0, 0, 32),          // The other family.
        range(other, v4_ones, 24, 24, 32),
    };
    for (int i = 0; i < 1200; ++i) {
      const U128 bits = RandomU128(rng) & ones;
      const int len = static_cast<int>(rng() % (max + 1));
      const int low = static_cast<int>(rng() % (max + 3));
      const int high = static_cast<int>(rng() % (max + 3));
      ranges.push_back(range(i % 10 == 0 ? other : family, bits, len, low,
                             high));
    }
    // One manager per family, shared by every range, as a localizer's is.
    BddManager mgr;
    RouteAdvLayout layout(mgr, {util::Community(10, 10)}, family);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      BddRef built = 0, oracle = 0;
      if (i % 2 == 0) {
        built = layout.MatchPrefixRange(ranges[i]);
        oracle = OracleMatchPrefixRange(mgr, family, ranges[i]);
      } else {
        oracle = OracleMatchPrefixRange(mgr, family, ranges[i]);
        built = layout.MatchPrefixRange(ranges[i]);
      }
      EXPECT_EQ(built, oracle) << ranges[i].ToString();
      ++cases;
    }
    EXPECT_TRUE(mgr.CheckInvariants());
    // Spot checks on the named ranges.
    EXPECT_EQ(layout.MatchPrefixRange(ranges[4]), mgr.False());
    EXPECT_EQ(layout.MatchPrefixRange(ranges[5]), mgr.False());
    EXPECT_EQ(layout.MatchPrefixRange(ranges[8]), mgr.False());
  }
  EXPECT_GE(cases, 2000);
}

// The old InRange, And(Geq, Leq) over the Ite formulations, and the old
// port-list disjunction: an Or of one InRange per interval.
BddRef OracleInRange(BddManager& mgr, const SymbolicField& f, U128 low,
                     U128 high) {
  if (low > high) return mgr.False();
  return mgr.And(OracleGeq(mgr, f, low), OracleLeq(mgr, f, high));
}

BddRef OracleInRanges(BddManager& mgr, const SymbolicField& f,
                      const std::vector<SymbolicField::Interval>& ranges) {
  BddRef result = mgr.False();
  for (const auto& r : ranges) {
    result = mgr.Or(result, OracleInRange(mgr, f, r.low, r.high));
  }
  return result;
}

TEST(SymbolicFieldOracleTest, InRangeExhaustiveOnEightBits) {
  // Every [low, high] pair of an 8-bit field, inverted ones included: alone
  // through InRange, and over a `below` on the next field through InRanges.
  BddManager mgr(16);
  SymbolicField field(0, 8);
  SymbolicField next(8, 8);
  const BddRef below = OracleLeq(mgr, next, U128(77));
  for (std::uint32_t low = 0; low < 256; ++low) {
    for (std::uint32_t high = 0; high < 256; ++high) {
      const BddRef oracle = OracleInRange(mgr, field, low, high);
      ASSERT_EQ(field.InRange(mgr, low, high), oracle)
          << "low=" << low << " high=" << high;
      ASSERT_EQ(field.InRanges(mgr, {{low, high}}, below),
                mgr.And(oracle, below))
          << "below low=" << low << " high=" << high;
    }
  }
  EXPECT_TRUE(mgr.CheckInvariants());
}

TEST(SymbolicFieldOracleTest, InRangesMatchesOrOfIteRanges) {
  constexpr int kWidths[] = {8, 16, 128};
  std::mt19937_64 rng(4404);
  int cases = 0;
  for (int seed = 0; seed < 2100; ++seed) {
    const int width = kWidths[seed % 3];
    const bdd::Var offset = seed % 2 == 0 ? 0 : 5;
    BddManager mgr(offset + width + 8);
    SymbolicField field(offset, width);
    SymbolicField next(offset + width, 8);
    const U128 max = U128::Ones(width);
    // Up to five intervals, unsorted: random (so sometimes inverted),
    // touching the field's ends, adjacent to or overlapping the previous
    // one, single values and the whole field.
    std::vector<SymbolicField::Interval> ranges;
    const int count = static_cast<int>(rng() % 6);
    for (int k = 0; k < count; ++k) {
      const U128 a = PickValue(rng, width);
      const U128 b = PickValue(rng, width);
      const SymbolicField::Interval prev =
          ranges.empty() ? SymbolicField::Interval{a, b} : ranges.back();
      switch (rng() % 7) {
        case 0: ranges.push_back({a, b}); break;
        case 1: ranges.push_back({U128(), a}); break;
        case 2: ranges.push_back({a, max}); break;
        case 3:  // Adjacent: starts right after the previous high.
          if (prev.high < max) {
            const U128 low = prev.high + U128(1);
            ranges.push_back({low, std::max(low, b)});
          }
          break;
        case 4:  // Overlapping the previous interval's top.
          ranges.push_back({prev.high, std::max(prev.high, b)});
          break;
        case 5: ranges.push_back({a, a}); break;
        default: ranges.push_back({U128(), max}); break;
      }
    }
    std::shuffle(ranges.begin(), ranges.end(), rng);
    BddRef below = bdd::kTrue;
    switch (seed % 4) {
      case 1: below = OracleLeq(mgr, next, PickValue(rng, 8)); break;
      case 2: below = OracleGeq(mgr, next, PickValue(rng, 8)); break;
      case 3:
        below = mgr.Xor(mgr.VarTrue(next.VarAt(0)),
                        mgr.VarTrue(next.VarAt(7)));
        break;
      default: break;
    }
    BddRef built = 0, oracle = 0;
    if (seed % 2 == 0) {
      built = field.InRanges(mgr, ranges, below);
      oracle = mgr.And(OracleInRanges(mgr, field, ranges), below);
    } else {
      oracle = mgr.And(OracleInRanges(mgr, field, ranges), below);
      built = field.InRanges(mgr, ranges, below);
    }
    std::string text;
    for (const auto& r : ranges) {
      text += " [" + r.low.ToString() + "," + r.high.ToString() + "]";
    }
    EXPECT_EQ(built, oracle) << "width=" << width << " ranges:" << text;
    if (ranges.size() == 1) {
      EXPECT_EQ(field.InRange(mgr, ranges[0].low, ranges[0].high),
                OracleInRanges(mgr, field, ranges))
          << "InRange width=" << width << " ranges:" << text;
    }
    ASSERT_TRUE(mgr.CheckInvariants()) << "seed=" << seed;
    ++cases;
  }
  EXPECT_GE(cases, 2000);
}

}  // namespace
}  // namespace campion::encode
