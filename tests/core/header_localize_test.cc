#include "core/header_localize.h"

#include <gtest/gtest.h>

#include <random>

#include "encode/route_adv.h"

namespace campion::core {
namespace {

using bdd::BddManager;
using bdd::BddRef;
using util::Ipv4Address;
using util::Prefix;
using util::PrefixRange;

PrefixRange Range(const char* prefix, int low, int high) {
  return PrefixRange(*Prefix::Parse(prefix), low, high);
}

class HeaderLocalizeTest : public ::testing::Test {
 protected:
  HeaderLocalizeTest() : layout_(mgr_, {}) {}

  RangeToBdd ToBdd() {
    return [this](const PrefixRange& r) { return layout_.MatchPrefixRange(r); };
  }

  // Reconstructs the BDD of a HeaderLocalize result, to verify that the
  // produced representation denotes exactly the input set.
  BddRef Reconstruct(const HeaderLocalizeResult& result) {
    BddRef out = mgr_.False();
    for (const auto& term : result.terms) {
      BddRef t = layout_.MatchPrefixRange(term.include);
      for (const auto& x : term.exclude) {
        t = mgr_.Diff(t, layout_.MatchPrefixRange(x));
      }
      out = mgr_.Or(out, t);
    }
    return out;
  }

  BddManager mgr_;
  encode::RouteAdvLayout layout_;
};

TEST_F(HeaderLocalizeTest, EmptySetYieldsNoTerms) {
  auto result = HeaderLocalize(mgr_, mgr_.False(),
                               {Range("10.9.0.0/16", 16, 32)}, ToBdd());
  EXPECT_TRUE(result.terms.empty());
}

TEST_F(HeaderLocalizeTest, WholeUniverse) {
  BddRef all = layout_.MatchPrefixRange(PrefixRange::Universe());
  auto result =
      HeaderLocalize(mgr_, all, {Range("10.9.0.0/16", 16, 32)}, ToBdd());
  ASSERT_EQ(result.terms.size(), 1u);
  EXPECT_EQ(result.terms[0].include, PrefixRange::Universe());
  EXPECT_TRUE(result.terms[0].exclude.empty());
}

TEST_F(HeaderLocalizeTest, SingleRange) {
  PrefixRange r = Range("10.9.0.0/16", 16, 32);
  auto result = HeaderLocalize(mgr_, layout_.MatchPrefixRange(r), {r}, ToBdd());
  ASSERT_EQ(result.terms.size(), 1u);
  EXPECT_EQ(result.terms[0].include, r);
  EXPECT_TRUE(result.terms[0].exclude.empty());
}

TEST_F(HeaderLocalizeTest, RangeMinusSubrangeAsInTable2a) {
  // S = (10.9/16, 16-32) minus (10.9/16, 16-16): the Figure 1 Difference 1.
  PrefixRange window = Range("10.9.0.0/16", 16, 32);
  PrefixRange exact = Range("10.9.0.0/16", 16, 16);
  BddRef s = mgr_.Diff(layout_.MatchPrefixRange(window),
                       layout_.MatchPrefixRange(exact));
  auto result = HeaderLocalize(mgr_, s, {window, exact}, ToBdd());
  ASSERT_EQ(result.terms.size(), 1u);
  EXPECT_EQ(result.terms[0].include, window);
  EXPECT_EQ(result.terms[0].exclude, std::vector<PrefixRange>{exact});
}

TEST_F(HeaderLocalizeTest, ComplementAsUniverseMinusRanges) {
  // S = NOT (two windows): Table 2(b)'s shape.
  PrefixRange w1 = Range("10.9.0.0/16", 16, 32);
  PrefixRange w2 = Range("10.100.0.0/16", 16, 32);
  BddRef s = mgr_.Diff(
      layout_.MatchPrefixRange(PrefixRange::Universe()),
      mgr_.Or(layout_.MatchPrefixRange(w1), layout_.MatchPrefixRange(w2)));
  auto result = HeaderLocalize(mgr_, s, {w1, w2}, ToBdd());
  ASSERT_EQ(result.terms.size(), 1u);
  EXPECT_EQ(result.terms[0].include, PrefixRange::Universe());
  EXPECT_EQ(result.terms[0].exclude.size(), 2u);
  EXPECT_EQ(Reconstruct(result), s);
}

TEST_F(HeaderLocalizeTest, NestedDifferenceIsFlattened) {
  // S = C - (F - G) must come back as {C - F, G} (the paper's example).
  PrefixRange c = Range("10.0.0.0/8", 24, 32);
  PrefixRange f = Range("10.32.0.0/11", 24, 32);
  PrefixRange g = Range("10.32.0.0/11", 28, 32);
  BddRef s = mgr_.Diff(layout_.MatchPrefixRange(c),
                       mgr_.Diff(layout_.MatchPrefixRange(f),
                                 layout_.MatchPrefixRange(g)));
  auto result = HeaderLocalize(mgr_, s, {c, f, g}, ToBdd());
  ASSERT_EQ(result.terms.size(), 2u);
  // One term is C - F, the other is G with no excludes.
  bool found_c_minus_f = false;
  bool found_g = false;
  for (const auto& term : result.terms) {
    if (term.include == c &&
        term.exclude == std::vector<PrefixRange>{f}) {
      found_c_minus_f = true;
    }
    if (term.include == g && term.exclude.empty()) found_g = true;
  }
  EXPECT_TRUE(found_c_minus_f);
  EXPECT_TRUE(found_g);
  EXPECT_EQ(Reconstruct(result), s);
}

TEST_F(HeaderLocalizeTest, UnionOfDisjointRanges) {
  PrefixRange w1 = Range("10.9.0.0/16", 16, 32);
  PrefixRange w2 = Range("10.100.0.0/16", 16, 32);
  BddRef s =
      mgr_.Or(layout_.MatchPrefixRange(w1), layout_.MatchPrefixRange(w2));
  auto result = HeaderLocalize(mgr_, s, {w1, w2}, ToBdd());
  EXPECT_EQ(result.terms.size(), 2u);
  EXPECT_EQ(Reconstruct(result), s);
  auto included = result.IncludedRanges();
  EXPECT_EQ(included.size(), 2u);
  EXPECT_TRUE(result.ExcludedRanges().empty());
}

TEST_F(HeaderLocalizeTest, MinimalityPrefersSingleRangeOverUnion) {
  // S equals one big range that also equals the union of two halves; the
  // representation should use the single containing range.
  PrefixRange whole = Range("10.0.0.0/8", 9, 9);
  PrefixRange half1 = Range("10.0.0.0/9", 9, 9);
  PrefixRange half2 = Range("10.128.0.0/9", 9, 9);
  BddRef s = layout_.MatchPrefixRange(whole);
  auto result = HeaderLocalize(mgr_, s, {whole, half1, half2}, ToBdd());
  ASSERT_EQ(result.terms.size(), 1u);
  EXPECT_EQ(result.terms[0].include, whole);
}

// Property test: random boolean combinations of a random range pool are
// always reconstructed exactly.
class HeaderLocalizeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HeaderLocalizeRandomTest, ReconstructsExactly) {
  BddManager mgr;
  encode::RouteAdvLayout layout(mgr, {});
  std::mt19937_64 rng(GetParam());

  std::vector<PrefixRange> pool;
  for (int i = 0; i < 6; ++i) {
    std::uint32_t base = (10u << 24) | ((rng() % 4) << 20);
    int length = 8 + static_cast<int>(rng() % 3) * 4;
    int low = length + static_cast<int>(rng() % 4);
    int high = low + static_cast<int>(rng() % (33 - low));
    pool.push_back(
        PrefixRange(Prefix(Ipv4Address(base), length), low, high));
  }
  auto to_bdd = [&](const PrefixRange& r) {
    return layout.MatchPrefixRange(r);
  };

  // A random expression over the pool: unions, intersections, differences.
  BddRef s = to_bdd(pool[0]);
  for (int step = 0; step < 8; ++step) {
    BddRef operand = to_bdd(pool[rng() % pool.size()]);
    switch (rng() % 3) {
      case 0: s = mgr.Or(s, operand); break;
      case 1: s = mgr.And(s, operand); break;
      default: s = mgr.Diff(s, operand); break;
    }
  }

  auto result = HeaderLocalize(mgr, s, pool, to_bdd);
  BddRef rebuilt = mgr.False();
  for (const auto& term : result.terms) {
    BddRef t = to_bdd(term.include);
    for (const auto& x : term.exclude) t = mgr.Diff(t, to_bdd(x));
    rebuilt = mgr.Or(rebuilt, t);
  }
  BddRef clipped = mgr.And(s, to_bdd(PrefixRange::Universe()));
  EXPECT_EQ(rebuilt, clipped) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeaderLocalizeRandomTest,
                         ::testing::Range(1, 31));

// One localizer reused across many sets on one manager (as a pair task
// reuses it across its differences) must answer exactly like a fresh
// HeaderLocalize per set: the memoized remainders do not depend on S.
TEST(HeaderLocalizerTest, ReuseMatchesFreshLocalization) {
  BddManager mgr;
  encode::RouteAdvLayout layout(mgr, {});
  std::mt19937_64 rng(7);
  std::vector<PrefixRange> pool;
  for (int i = 0; i < 12; ++i) {
    std::uint32_t base =
        (10u << 24) | ((rng() % 4) << 20) | ((rng() % 4) << 16);
    int length = 8 + static_cast<int>(rng() % 3) * 4;
    int low = length + static_cast<int>(rng() % 4);
    int high = low + static_cast<int>(rng() % (33 - low));
    pool.push_back(PrefixRange(Prefix(Ipv4Address(base), length), low, high));
  }
  auto to_bdd = [&](const PrefixRange& r) {
    return layout.MatchPrefixRange(r);
  };
  PrefixRangeDag dag(pool);
  HeaderLocalizer localizer(mgr, dag, to_bdd);

  for (int trial = 0; trial < 60; ++trial) {
    BddRef s = to_bdd(pool[rng() % pool.size()]);
    for (int step = 0; step < 6; ++step) {
      BddRef operand = to_bdd(pool[rng() % pool.size()]);
      switch (rng() % 3) {
        case 0: s = mgr.Or(s, operand); break;
        case 1: s = mgr.And(s, operand); break;
        default: s = mgr.Diff(s, operand); break;
      }
    }
    for (BddRef set : {s, mgr.Not(s)}) {
      HeaderLocalizeResult reused = localizer.Localize(set);
      HeaderLocalizeResult fresh = HeaderLocalize(mgr, set, pool, to_bdd);
      EXPECT_EQ(reused.terms, fresh.terms)
          << "trial " << trial << "\nreused:\n" << reused.ToString()
          << "\nfresh:\n" << fresh.ToString();
    }
  }
}

}  // namespace
}  // namespace campion::core
