#include "core/header_localize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/present.h"
#include "encode/packet.h"
#include "encode/route_adv.h"
#include "frontend/loader.h"

namespace campion::core {
namespace {

using bdd::BddManager;
using bdd::BddRef;
using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

PrefixRange Range(const char* prefix, int low, int high) {
  return PrefixRange(*IpPrefix::Parse(prefix), low, high);
}

class HeaderLocalizeTest : public ::testing::Test {
 protected:
  HeaderLocalizeTest() : layout_(mgr_, {}) {}

  encode::PrefixEncoding Encoding() const { return layout_.prefix_encoding(); }

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
                               {Range("10.9.0.0/16", 16, 32)}, Encoding());
  EXPECT_TRUE(result.terms.empty());
}

TEST_F(HeaderLocalizeTest, WholeUniverse) {
  BddRef all = layout_.MatchPrefixRange(PrefixRange::Universe());
  auto result =
      HeaderLocalize(mgr_, all, {Range("10.9.0.0/16", 16, 32)}, Encoding());
  ASSERT_EQ(result.terms.size(), 1u);
  EXPECT_EQ(result.terms[0].include, PrefixRange::Universe());
  EXPECT_TRUE(result.terms[0].exclude.empty());
}

TEST_F(HeaderLocalizeTest, SingleRange) {
  PrefixRange r = Range("10.9.0.0/16", 16, 32);
  auto result =
      HeaderLocalize(mgr_, layout_.MatchPrefixRange(r), {r}, Encoding());
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
  auto result = HeaderLocalize(mgr_, s, {window, exact}, Encoding());
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
  auto result = HeaderLocalize(mgr_, s, {w1, w2}, Encoding());
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
  auto result = HeaderLocalize(mgr_, s, {c, f, g}, Encoding());
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
  auto result = HeaderLocalize(mgr_, s, {w1, w2}, Encoding());
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
  auto result = HeaderLocalize(mgr_, s, {whole, half1, half2}, Encoding());
  ASSERT_EQ(result.terms.size(), 1u);
  EXPECT_EQ(result.terms[0].include, whole);
}

// Property test: random boolean combinations of a random range pool are
// always reconstructed exactly, in both address families.
struct RandomCase {
  util::AddressFamily family;
  int seed;
};

// Prints the seed alone, so test names read ".../<seed>".
void PrintTo(const RandomCase& c, std::ostream* os) { *os << c.seed; }

std::vector<RandomCase> Seeds(util::AddressFamily family) {
  std::vector<RandomCase> cases;
  for (int seed = 1; seed <= 30; ++seed) cases.push_back({family, seed});
  return cases;
}

// One pool range: a /8, /12 or /16 under 10.0.0.0/8 (IPv4), or a /32,
// /48 or /64 under 2001:db8::/32 (IPv6), with a random length window.
PrefixRange RandomPoolRange(util::AddressFamily family, std::mt19937_64& rng) {
  if (family == util::AddressFamily::kIpv4) {
    std::uint32_t base = (10u << 24) | ((rng() % 4) << 20);
    int length = 8 + static_cast<int>(rng() % 3) * 4;
    int low = length + static_cast<int>(rng() % 4);
    int high = low + static_cast<int>(rng() % (33 - low));
    return PrefixRange(IpPrefix(Ipv4Address(base), length), low, high);
  }
  util::U128 base(0x20010db800000000ull | ((rng() % 4) << 28), 0);
  int length = 32 + static_cast<int>(rng() % 3) * 16;
  int low = length + static_cast<int>(rng() % 4);
  int high = low + static_cast<int>(rng() % (129 - low));
  return PrefixRange(util::IpPrefix(family, base, length), low, high);
}

class HeaderLocalizeRandomTest : public ::testing::TestWithParam<RandomCase> {
};

TEST_P(HeaderLocalizeRandomTest, ReconstructsExactly) {
  const util::AddressFamily family = GetParam().family;
  BddManager mgr;
  encode::RouteAdvLayout layout(mgr, {}, family);
  std::mt19937_64 rng(GetParam().seed);

  std::vector<PrefixRange> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(RandomPoolRange(family, rng));

  // A random expression over the pool: unions, intersections, differences.
  BddRef s = layout.MatchPrefixRange(pool[0]);
  for (int step = 0; step < 8; ++step) {
    BddRef operand = layout.MatchPrefixRange(pool[rng() % pool.size()]);
    switch (rng() % 3) {
      case 0: s = mgr.Or(s, operand); break;
      case 1: s = mgr.And(s, operand); break;
      default: s = mgr.Diff(s, operand); break;
    }
  }

  const PrefixRange universe = PrefixRange::UniverseOf(family);
  auto result =
      HeaderLocalize(mgr, s, pool, layout.prefix_encoding(), universe);
  BddRef rebuilt = mgr.False();
  for (const auto& term : result.terms) {
    BddRef t = layout.MatchPrefixRange(term.include);
    for (const auto& x : term.exclude) {
      t = mgr.Diff(t, layout.MatchPrefixRange(x));
    }
    rebuilt = mgr.Or(rebuilt, t);
  }
  BddRef clipped = mgr.And(s, layout.MatchPrefixRange(universe));
  EXPECT_EQ(rebuilt, clipped) << "seed " << GetParam().seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HeaderLocalizeRandomTest,
    ::testing::ValuesIn(Seeds(util::AddressFamily::kIpv4)));
INSTANTIATE_TEST_SUITE_P(
    Ipv6Seeds, HeaderLocalizeRandomTest,
    ::testing::ValuesIn(Seeds(util::AddressFamily::kIpv6)));

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
    pool.push_back(PrefixRange(IpPrefix(Ipv4Address(base), length), low, high));
  }
  PrefixRangeDag dag(pool);
  HeaderLocalizer localizer(mgr, dag, layout.prefix_encoding());

  for (int trial = 0; trial < 60; ++trial) {
    BddRef s = layout.MatchPrefixRange(pool[rng() % pool.size()]);
    for (int step = 0; step < 6; ++step) {
      BddRef operand = layout.MatchPrefixRange(pool[rng() % pool.size()]);
      switch (rng() % 3) {
        case 0: s = mgr.Or(s, operand); break;
        case 1: s = mgr.And(s, operand); break;
        default: s = mgr.Diff(s, operand); break;
      }
    }
    for (BddRef set : {s, mgr.Not(s)}) {
      HeaderLocalizeResult reused = localizer.Localize(set);
      HeaderLocalizeResult fresh =
          HeaderLocalize(mgr, set, pool, layout.prefix_encoding());
      EXPECT_EQ(reused.terms, fresh.terms)
          << "trial " << trial << "\nreused:\n" << reused.ToString()
          << "\nfresh:\n" << fresh.ToString();
    }
  }
}

// The remainder of every internal node, built as a prefix trie, must be the
// very BDD the one-Diff-per-child loop it replaced builds. The loop is kept
// here verbatim as the oracle.
struct OracleCase {
  util::AddressFamily family;
  bool length_field;  // Route advertisements; else ACL host addresses.
  int seed;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << (c.family == util::AddressFamily::kIpv4 ? "ipv4_" : "ipv6_")
      << (c.length_field ? "route_" : "host_") << c.seed;
}

std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  for (auto family : {util::AddressFamily::kIpv4, util::AddressFamily::kIpv6}) {
    for (bool length_field : {true, false}) {
      for (int seed = 1; seed <= 10; ++seed) {
        cases.push_back({family, length_field, seed});
      }
    }
  }
  return cases;
}

BddRef LoopRemainder(BddManager& mgr, const std::vector<BddRef>& node_bdds,
                     const PrefixRangeDag& dag, std::size_t node) {
  BddRef rem = node_bdds[node];
  for (std::size_t child : dag.children(node)) {
    rem = mgr.Diff(rem, node_bdds[child]);
  }
  return rem;
}

// 60 nested prefixes: the top bits stay fixed, a few bits at fixed strides
// below vary, so ranges share bases, nest, and meet at every depth. Without
// a length field they are host-address ranges (window /width-width).
std::vector<PrefixRange> NestedPool(util::AddressFamily family,
                                    bool length_field, std::mt19937_64& rng) {
  const int width = util::AddressWidth(family);
  const util::U128 top = family == util::AddressFamily::kIpv4
                             ? util::U128(10u << 24)
                             : util::U128(0x20010db800000000ull, 0);
  const int fixed = family == util::AddressFamily::kIpv4 ? 8 : 32;
  std::vector<PrefixRange> pool;
  for (int i = 0; i < 60; ++i) {
    util::U128 bits = top;
    for (int at = fixed; at < width; at += (width - fixed) / 6) {
      bits = bits | (util::U128(rng() % 2) << (width - 1 - at));
    }
    const int length = fixed + 1 + static_cast<int>(rng() % (width - fixed));
    const util::IpPrefix prefix(family, bits, length);
    if (!length_field) {
      pool.emplace_back(prefix, width, width);
      continue;
    }
    const int low = length + static_cast<int>(rng() % (width + 1 - length));
    const int high = low + static_cast<int>(rng() % (width + 1 - low));
    pool.emplace_back(prefix, low, high);
  }
  return pool;
}

// The root of NestedPool's DAG: every advertisement, or every host address.
PrefixRange NestedUniverse(util::AddressFamily family, bool length_field) {
  const int width = util::AddressWidth(family);
  return length_field ? PrefixRange::UniverseOf(family)
                      : PrefixRange(util::IpPrefix(family, util::U128(), 0),
                                    width, width);
}

class RemainderOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(RemainderOracleTest, TrieMatchesDiffLoop) {
  const OracleCase& param = GetParam();
  std::mt19937_64 rng(param.seed);
  PrefixRangeDag dag(NestedPool(param.family, param.length_field, rng),
                     NestedUniverse(param.family, param.length_field));

  BddManager mgr;
  encode::RouteAdvLayout routes(mgr, {}, param.family);
  encode::PacketLayout packets(mgr, param.family);
  const encode::PrefixEncoding encoding = param.length_field
                                              ? routes.prefix_encoding()
                                              : packets.DstPrefixEncoding();
  std::vector<BddRef> node_bdds;
  for (const PrefixRange& label : dag.labels()) {
    node_bdds.push_back(encoding.MatchRange(mgr, label));
  }
  HeaderLocalizer localizer(mgr, dag, encoding);
  std::size_t internal = 0;
  for (std::size_t node = 0; node < dag.size(); ++node) {
    if (dag.IsLeaf(node)) continue;
    ++internal;
    EXPECT_EQ(localizer.Remainder(node),
              LoopRemainder(mgr, node_bdds, dag, node))
        << dag.label(node).ToString();
  }
  EXPECT_GT(internal, 1u);
  EXPECT_GT(dag.children(dag.root()).size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Oracle, RemainderOracleTest,
                         ::testing::ValuesIn(OracleCases()));

// GetMatch as it stood when every DAG node had its own BDD, kept verbatim
// as the oracle of the cofactor tests that replaced it: each node's range
// is encoded in full and tested against S, and remainders are the
// one-Diff-per-child loop.
class NodeBddLocalizer {
 public:
  NodeBddLocalizer(BddManager& mgr, const PrefixRangeDag& dag,
                   const encode::PrefixEncoding& encoding)
      : mgr_(mgr), dag_(dag) {
    for (const PrefixRange& label : dag.labels()) {
      node_bdds_.push_back(encoding.MatchRange(mgr, label));
    }
  }

  std::vector<util::PrefixRangeTerm> Localize(BddRef set) {
    BddRef clipped = mgr_.And(set, node_bdds_[dag_.root()]);
    std::vector<util::PrefixRangeTerm> terms;
    if (clipped != bdd::kFalse) {
      for (const auto& term : GetMatch(clipped, dag_.root())) {
        FlattenInto(term, terms);
      }
    }
    return terms;
  }

 private:
  struct MatchTerm {
    util::PrefixRange range;
    std::vector<MatchTerm> subtracted;
  };

  std::vector<MatchTerm> GetMatch(BddRef set, std::size_t node) {
    BddRef node_bdd = node_bdds_[node];
    // Short-circuits (these also keep the output minimal): a node disjoint
    // from S contributes nothing; a node fully inside S is itself a term.
    if (!mgr_.Intersects(node_bdd, set)) return {};
    if (mgr_.Subset(node_bdd, set)) return {{dag_.label(node), {}}};

    if (dag_.IsLeaf(node)) {
      // By construction (S built from the DAG's ranges) a leaf is contained
      // in S or disjoint from it; both cases were handled above. If S used
      // a range we were not given, fall back to reporting the overlap.
      return {{dag_.label(node), {}}};
    }

    if (mgr_.Subset(LoopRemainder(mgr_, node_bdds_, dag_, node), set)) {
      // R's remainder is in S: include R, minus the child parts not in S.
      MatchTerm term{dag_.label(node), {}};
      for (std::size_t child : dag_.children(node)) {
        auto nonmatches = GetMatch(mgr_.Not(set), child);
        term.subtracted.insert(term.subtracted.end(), nonmatches.begin(),
                               nonmatches.end());
      }
      return {std::move(term)};
    }
    // Otherwise recurse and union the children's results.
    std::vector<MatchTerm> result;
    for (std::size_t child : dag_.children(node)) {
      auto sub = GetMatch(set, child);
      result.insert(result.end(), sub.begin(), sub.end());
    }
    return result;
  }

  static void FlattenInto(const MatchTerm& term,
                          std::vector<util::PrefixRangeTerm>& out) {
    util::PrefixRangeTerm flat{term.range, {}};
    for (const auto& sub : term.subtracted) {
      flat.exclude.push_back(sub.range);
    }
    std::sort(flat.exclude.begin(), flat.exclude.end());
    out.push_back(std::move(flat));
    for (const auto& sub : term.subtracted) {
      for (const auto& nested : sub.subtracted) {
        FlattenInto(nested, out);
      }
    }
  }

  BddManager& mgr_;
  const PrefixRangeDag& dag_;
  std::vector<BddRef> node_bdds_;
};

// Which prefix encoding a localizer oracle case runs on: route
// advertisements (address and length fields), or a PacketLayout host
// address field. The two packet fields sit at different variable offsets.
enum class OracleField { kRoute, kDst, kSrc };

struct LocalizerOracleCase {
  util::AddressFamily family;
  OracleField field;
  int seed;
};

void PrintTo(const LocalizerOracleCase& c, std::ostream* os) {
  static constexpr const char* kFields[] = {"route_", "dst_", "src_"};
  *os << (c.family == util::AddressFamily::kIpv4 ? "ipv4_" : "ipv6_")
      << kFields[static_cast<int>(c.field)] << c.seed;
}

std::vector<LocalizerOracleCase> LocalizerOracleCases() {
  std::vector<LocalizerOracleCase> cases;
  for (auto family : {util::AddressFamily::kIpv4, util::AddressFamily::kIpv6}) {
    for (auto field : {OracleField::kRoute, OracleField::kDst,
                       OracleField::kSrc}) {
      for (int seed = 1; seed <= 6; ++seed) {
        cases.push_back({family, field, seed});
      }
    }
  }
  return cases;
}

class HeaderLocalizerOracleTest
    : public ::testing::TestWithParam<LocalizerOracleCase> {};

// Localize's terms must equal the node-BDD GetMatch's, term for term, on
// random unions, intersections and differences of the DAG's own ranges and
// their complements.
TEST_P(HeaderLocalizerOracleTest, CofactorTestsMatchNodeBdds) {
  const LocalizerOracleCase& param = GetParam();
  const bool length_field = param.field == OracleField::kRoute;
  std::mt19937_64 rng(param.seed);
  PrefixRangeDag dag(NestedPool(param.family, length_field, rng),
                     NestedUniverse(param.family, length_field));

  BddManager mgr;
  encode::RouteAdvLayout routes(mgr, {}, param.family);
  encode::PacketLayout packets(mgr, param.family);
  const encode::PrefixEncoding encoding =
      param.field == OracleField::kRoute ? routes.prefix_encoding()
      : param.field == OracleField::kDst ? packets.DstPrefixEncoding()
                                         : packets.SrcPrefixEncoding();
  HeaderLocalizer localizer(mgr, dag, encoding);
  NodeBddLocalizer oracle(mgr, dag, encoding);

  auto random_range = [&] {
    return encoding.MatchRange(mgr, dag.label(rng() % dag.size()));
  };
  std::size_t nonempty = 0;
  for (int trial = 0; trial < 40; ++trial) {
    BddRef s = random_range();
    for (int step = 0; step < 5; ++step) {
      BddRef operand = random_range();
      if (rng() % 4 == 0) operand = mgr.Not(operand);
      switch (rng() % 3) {
        case 0: s = mgr.Or(s, operand); break;
        case 1: s = mgr.And(s, operand); break;
        default: s = mgr.Diff(s, operand); break;
      }
    }
    for (BddRef set : {s, mgr.Not(s)}) {
      const auto expected = oracle.Localize(set);
      const HeaderLocalizeResult actual = localizer.Localize(set);
      EXPECT_EQ(actual.terms, expected)
          << "trial " << trial << "\nactual:\n" << actual.ToString();
      if (!expected.empty()) ++nonempty;
    }
  }
  EXPECT_GT(nonempty, 40u);
}

INSTANTIATE_TEST_SUITE_P(Oracle, HeaderLocalizerOracleTest,
                         ::testing::ValuesIn(LocalizerOracleCases()));

// Localize reads every variable above a node's base length as an address
// bit, so a set still branching on a variable above the address field (not
// projected onto it) is refused rather than misread.
TEST(HeaderLocalizerTest, UnprojectedSetThrows) {
  BddManager mgr;
  encode::PacketLayout packets(mgr, util::AddressFamily::kIpv4);
  const encode::PrefixEncoding dst = packets.DstPrefixEncoding();
  const encode::PrefixEncoding src = packets.SrcPrefixEncoding();
  ASSERT_LT(src.address.first_var(), dst.address.first_var());
  const PrefixRange range = Range("10.0.0.0/8", 32, 32);
  PrefixRangeDag dag({range}, Range("0.0.0.0/0", 32, 32));
  HeaderLocalizer localizer(mgr, dag, dst);

  const BddRef projected = dst.MatchRange(mgr, range);
  const BddRef unprojected =
      mgr.And(src.MatchRange(mgr, range), projected);
  EXPECT_THROW(localizer.Localize(unprojected), std::logic_error);
  const HeaderLocalizeResult result = localizer.Localize(projected);
  ASSERT_EQ(result.terms.size(), 1u);
  EXPECT_EQ(result.terms[0].include, range);
}

// Building a localizer encodes the root's range and one length window per
// distinct clamped window, never a node's range: over the university core
// pair's route DAG it grows the arena by at most (distinct windows) ×
// (length-field width) nodes. An encoding per node grows it by every
// node's prefix chain.
TEST(HeaderLocalizerTest, ConstructionGrowsArenaByWindowsOnly) {
  auto load = [](const char* name) {
    return frontend::LoadConfigFile(
               std::string(CAMPION_SOURCE_DIR "/examples/configs/") + name)
        .config;
  };
  const ir::RouterConfig cisco = load("university_core_cisco.cfg");
  const ir::RouterConfig juniper = load("university_core_juniper.conf");
  const PrefixRangeDag dag = BuildLocalizeDag(
      RouteMapRanges(cisco, juniper, util::AddressFamily::kIpv4),
      PrefixRange::Universe());
  std::set<std::pair<int, int>> windows;
  for (const PrefixRange& label : dag.labels()) {
    windows.insert({label.EffectiveLow(), label.EffectiveHigh()});
  }

  BddManager mgr;
  encode::RouteAdvLayout layout(mgr, {});
  const encode::PrefixEncoding encoding = layout.prefix_encoding();
  const std::size_t bound =
      windows.size() * static_cast<std::size_t>(encoding.length->width());
  ASSERT_LT(bound, dag.size());

  const std::size_t before = mgr.ArenaSize();
  HeaderLocalizer localizer(mgr, dag, encoding);
  EXPECT_LE(mgr.ArenaSize() - before, bound)
      << dag.size() << " DAG nodes, " << windows.size() << " windows";
}

}  // namespace
}  // namespace campion::core
