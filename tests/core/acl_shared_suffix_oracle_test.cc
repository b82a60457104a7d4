// SemanticDiffAcls folds the trailing lines two ACLs share once, and the
// second ACL folds only its own head on top of the first's set at that
// boundary. The reference below is the fold it replaced, kept verbatim:
// each ACL matched and folded on its own. On the same manager both must
// give the same permit sets and the same differences, BDD for BDD, with
// the same texts in the same order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "cisco/cisco_parser.h"
#include "cisco/cisco_unparser.h"
#include "core/semantic_diff.h"
#include "encode/packet.h"
#include "gen/acl_gen.h"
#include "juniper/juniper_parser.h"
#include "juniper/juniper_unparser.h"

namespace campion::core {
namespace {

// One ACL matched and folded bottom-up on its own, as SemanticDiffAcls did
// before the shared suffix.
class ReferenceEncoding {
 public:
  ReferenceEncoding(const encode::PacketLayout& layout, const ir::Acl& acl)
      : mgr_(layout.manager()), acl_(acl) {
    matches_.reserve(acl.lines.size());
    for (const auto& line : acl.lines) {
      matches_.push_back(layout.MatchLine(line));
    }
    // Bottom-up: a packet line i matches takes line i's action; any other
    // packet takes whatever the lines below decide.
    for (std::size_t i = acl.lines.size(); i-- > 0;) {
      permit_set_ = acl.lines[i].action == ir::LineAction::kPermit
                        ? mgr_.Or(matches_[i], permit_set_)
                        : mgr_.Diff(permit_set_, matches_[i]);
    }
  }

  bdd::BddRef permit_set() const { return permit_set_; }

  std::vector<AclPathClass> Classes(bdd::BddRef scope) {
    return BuildAclClasses(mgr_, acl_, matches_, scope);
  }

 private:
  bdd::BddManager& mgr_;
  const ir::Acl& acl_;
  std::vector<bdd::BddRef> matches_;
  bdd::BddRef permit_set_ = bdd::kFalse;
};

std::vector<AclDifference> ReferenceDiff(encode::PacketLayout& layout,
                                         const ir::Acl& acl1,
                                         const ir::Acl& acl2) {
  bdd::BddManager& mgr = layout.manager();
  ReferenceEncoding encoding1(layout, acl1);
  ReferenceEncoding encoding2(layout, acl2);
  bdd::BddRef disagreement =
      mgr.Xor(encoding1.permit_set(), encoding2.permit_set());
  std::vector<AclPathClass> classes1 = encoding1.Classes(disagreement);
  std::vector<AclPathClass> classes2 = encoding2.Classes(disagreement);
  if (disagreement == bdd::kFalse) return {};
  std::vector<AclDifference> differences;
  for (const AclPathClass& c1 : classes1) {
    for (const AclPathClass& c2 : classes2) {
      if (c1.action == c2.action) continue;
      bdd::BddRef overlap = mgr.And(c1.predicate, c2.predicate);
      if (overlap == bdd::kFalse) continue;
      differences.push_back({overlap, c1.action, c2.action, c1.text, c2.text});
    }
  }
  return differences;
}

// Checks both folds of (acl1, acl2) on one manager and returns the shared
// suffix length the change folded once.
std::size_t ExpectSameAsReference(const ir::Acl& acl1, const ir::Acl& acl2,
                                  util::AddressFamily family,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  bdd::BddManager mgr;
  encode::PacketLayout layout(mgr, family);
  AclPermitSets actual_sets = FoldAclPermitSets(layout, acl1, acl2);
  std::vector<AclDifference> actual = SemanticDiffAcls(layout, acl1, acl2);
  ReferenceEncoding reference1(layout, acl1);
  ReferenceEncoding reference2(layout, acl2);
  EXPECT_EQ(actual_sets.acl1, reference1.permit_set());
  EXPECT_EQ(actual_sets.acl2, reference2.permit_set());
  std::vector<AclDifference> expected = ReferenceDiff(layout, acl1, acl2);
  EXPECT_EQ(actual.size(), expected.size());
  if (actual.size() != expected.size()) return actual_sets.shared_lines;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].input_set, expected[i].input_set) << "difference " << i;
    EXPECT_EQ(actual[i].action1, expected[i].action1) << "difference " << i;
    EXPECT_EQ(actual[i].action2, expected[i].action2) << "difference " << i;
    EXPECT_EQ(actual[i].text1, expected[i].text1) << "difference " << i;
    EXPECT_EQ(actual[i].text2, expected[i].text2) << "difference " << i;
  }
  return actual_sets.shared_lines;
}

gen::AclGenOptions Options(std::uint64_t seed, int rules, int differences,
                           util::AddressFamily family) {
  gen::AclGenOptions options;
  options.seed = seed;
  options.rules = rules;
  options.differences = differences;
  options.family = family;
  return options;
}

// Seeded generated pairs, v4 and v6, with 0–8 injected differences.
TEST(AclSharedSuffixOracleTest, GeneratedPairsMatchIndependentFolds) {
  std::size_t shared_total = 0;
  for (int index = 0; index < 54; ++index) {
    util::AddressFamily family = index % 2 == 0 ? util::AddressFamily::kIpv4
                                                : util::AddressFamily::kIpv6;
    gen::AclGenOptions options =
        Options(9100 + static_cast<std::uint64_t>(index),
                10 + (index * 29) % 150, index % 9, family);
    gen::GeneratedAclPair pair = gen::GenerateAclPair(options);
    shared_total += ExpectSameAsReference(
        pair.acl1, pair.acl2, family, "seed " + std::to_string(options.seed));
  }
  EXPECT_GT(shared_total, 0u);  // The corpus exercises the shared fold.
}

TEST(AclSharedSuffixOracleTest, IdenticalPairSharesEveryLine) {
  for (auto family : {util::AddressFamily::kIpv4, util::AddressFamily::kIpv6}) {
    ir::Acl acl = gen::GenerateAclPair(Options(5, 80, 0, family)).acl1;
    EXPECT_EQ(ExpectSameAsReference(acl, acl, family, "identical"),
              acl.lines.size());
  }
}

// The same ACL unparsed as Cisco and as JunOS and parsed back: every line's
// span differs, and every line is still shared.
TEST(AclSharedSuffixOracleTest, SpanOnlyDifferencesShareEveryLine) {
  for (auto family : {util::AddressFamily::kIpv4, util::AddressFamily::kIpv6}) {
    gen::GeneratedAclPair pair =
        gen::GenerateAclPair(Options(17, 60, 3, family));
    auto cisco = cisco::ParseCiscoConfig(
        cisco::UnparseCiscoConfig(
            gen::WrapAclInConfig(pair.acl1, "r1", ir::Vendor::kCisco)),
        "r1.cfg");
    auto junos = juniper::ParseJuniperConfig(
        juniper::UnparseJuniperConfig(
            gen::WrapAclInConfig(pair.acl1, "r2", ir::Vendor::kJuniper)),
        "r2.conf");
    const ir::Acl* from_cisco = cisco.config.FindAcl(pair.acl1.name);
    const ir::Acl* from_junos = junos.config.FindAcl(pair.acl1.name);
    ASSERT_NE(from_cisco, nullptr);
    ASSERT_NE(from_junos, nullptr);
    ASSERT_FALSE(from_cisco->lines.empty());
    EXPECT_NE(from_cisco->lines.back().span, from_junos->lines.back().span);
    EXPECT_EQ(ExpectSameAsReference(*from_cisco, *from_junos, family,
                                    "cisco vs junos"),
              from_cisco->lines.size());
    // Against the other generated copy, only the lines below its last
    // difference are shared.
    ExpectSameAsReference(*from_junos, pair.acl2, family, "junos vs copy");
  }
}

TEST(AclSharedSuffixOracleTest, DifferingLastLineSharesNothing) {
  ir::Acl acl1 =
      gen::GenerateAclPair(Options(23, 40, 0, util::AddressFamily::kIpv4))
          .acl1;
  ir::Acl acl2 = acl1;
  ir::AclLine& last = acl2.lines.back();
  last.action = last.action == ir::LineAction::kPermit
                    ? ir::LineAction::kDeny
                    : ir::LineAction::kPermit;
  EXPECT_EQ(ExpectSameAsReference(acl1, acl2, util::AddressFamily::kIpv4,
                                  "last line flipped"),
            0u);
  // A last line that differs only in `established` is not shared either.
  ir::Acl acl3 = acl1;
  acl3.lines.back().established = !acl3.lines.back().established;
  EXPECT_EQ(ExpectSameAsReference(acl1, acl3, util::AddressFamily::kIpv4,
                                  "last line established"),
            0u);
}

TEST(AclSharedSuffixOracleTest, ProperSuffixIsSharedWhole) {
  for (auto family : {util::AddressFamily::kIpv4, util::AddressFamily::kIpv6}) {
    ir::Acl whole = gen::GenerateAclPair(Options(31, 50, 0, family)).acl1;
    ir::Acl tail = whole;
    tail.lines.erase(tail.lines.begin(), tail.lines.begin() + 12);
    EXPECT_EQ(ExpectSameAsReference(whole, tail, family, "whole vs tail"),
              tail.lines.size());
    EXPECT_EQ(ExpectSameAsReference(tail, whole, family, "tail vs whole"),
              tail.lines.size());
  }
}

TEST(AclSharedSuffixOracleTest, EmptySides) {
  ir::Acl acl =
      gen::GenerateAclPair(Options(37, 30, 0, util::AddressFamily::kIpv4))
          .acl1;
  ir::Acl empty;
  empty.name = acl.name;
  EXPECT_EQ(ExpectSameAsReference(acl, empty, util::AddressFamily::kIpv4,
                                  "second empty"),
            0u);
  EXPECT_EQ(ExpectSameAsReference(empty, acl, util::AddressFamily::kIpv4,
                                  "first empty"),
            0u);
  EXPECT_EQ(ExpectSameAsReference(empty, empty, util::AddressFamily::kIpv4,
                                  "both empty"),
            0u);
}

}  // namespace
}  // namespace campion::core
