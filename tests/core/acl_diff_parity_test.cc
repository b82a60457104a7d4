// SemanticDiffAcls against the algorithm it replaced. The reference below
// builds every ACL's classes over the whole packet space, ORs the permit
// classes into permit sets, and compares only the classes that touch the
// sets' disagreement. SemanticDiffAcls folds the permit sets first and
// builds classes inside the disagreement alone; on the same manager the two
// must report the same differences, BDD for BDD, in the same order.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "core/config_diff.h"
#include "core/semantic_diff.h"
#include "encode/packet.h"
#include "gen/acl_gen.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::core {
namespace {

struct ReferenceResult {
  std::vector<AclDifference> differences;
  std::size_t classes = 0;  // Classes built for both ACLs.
};

std::vector<AclPathClass> ReferenceClasses(encode::PacketLayout& layout,
                                           const ir::Acl& acl) {
  bdd::BddManager& mgr = layout.manager();
  std::vector<AclPathClass> classes;
  bdd::BddRef remaining = mgr.True();
  for (const auto& line : acl.lines) {
    bdd::BddRef here = mgr.And(remaining, layout.MatchLine(line));
    if (here != bdd::kFalse) {
      classes.push_back({here, line.action, AclLineText(line), false});
    }
    remaining = mgr.Diff(remaining, here);
  }
  if (remaining != bdd::kFalse) {
    classes.push_back({remaining, ir::LineAction::kDeny,
                       "<implicit deny at end of ACL>", true});
  }
  return classes;
}

ReferenceResult ReferenceDiff(encode::PacketLayout& layout,
                              const ir::Acl& acl1, const ir::Acl& acl2) {
  bdd::BddManager& mgr = layout.manager();
  std::vector<AclPathClass> classes1 = ReferenceClasses(layout, acl1);
  std::vector<AclPathClass> classes2 = ReferenceClasses(layout, acl2);
  ReferenceResult result;
  result.classes = classes1.size() + classes2.size();

  auto permit_set = [&](const std::vector<AclPathClass>& classes) {
    bdd::BddRef permitted = mgr.False();
    for (const auto& cls : classes) {
      if (cls.action == ir::LineAction::kPermit) {
        permitted = mgr.Or(permitted, cls.predicate);
      }
    }
    return permitted;
  };
  bdd::BddRef disagreement =
      mgr.Xor(permit_set(classes1), permit_set(classes2));
  if (disagreement == bdd::kFalse) return result;

  auto touched = [&](const std::vector<AclPathClass>& classes) {
    std::vector<const AclPathClass*> relevant;
    for (const auto& cls : classes) {
      if (mgr.Intersects(cls.predicate, disagreement)) {
        relevant.push_back(&cls);
      }
    }
    return relevant;
  };
  for (const AclPathClass* c1 : touched(classes1)) {
    for (const AclPathClass* c2 : touched(classes2)) {
      if (c1->action == c2->action) continue;
      bdd::BddRef overlap = mgr.And(c1->predicate, c2->predicate);
      if (overlap == bdd::kFalse) continue;
      result.differences.push_back(
          {overlap, c1->action, c2->action, c1->text, c2->text});
    }
  }
  return result;
}

// Pair `index` of the oracle's corpus: every third pair IPv6, 20–319 rules,
// 0–8 injected differences.
gen::AclGenOptions CorpusPair(int index) {
  gen::AclGenOptions options;
  options.seed = 7000 + static_cast<std::uint64_t>(index);
  options.rules = 20 + (index * 37) % 300;
  options.differences = index % 9;
  options.family = index % 3 == 0 ? util::AddressFamily::kIpv6
                                  : util::AddressFamily::kIpv4;
  return options;
}

// Returns the number of differences compared.
std::size_t ExpectSameDifferences(const gen::AclGenOptions& options) {
  gen::GeneratedAclPair pair = gen::GenerateAclPair(options);
  bdd::BddManager mgr;
  encode::PacketLayout layout(mgr, options.family);
  std::vector<AclDifference> actual =
      SemanticDiffAcls(layout, pair.acl1, pair.acl2);
  std::vector<AclDifference> expected =
      ReferenceDiff(layout, pair.acl1, pair.acl2).differences;
  std::string label = "seed " + std::to_string(options.seed) + ", " +
                      std::to_string(options.rules) + " rules";
  EXPECT_EQ(actual.size(), expected.size()) << label;
  if (actual.size() != expected.size()) return 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].input_set, expected[i].input_set)
        << label << ", difference " << i;
    EXPECT_EQ(actual[i].action1, expected[i].action1) << label;
    EXPECT_EQ(actual[i].action2, expected[i].action2) << label;
    EXPECT_EQ(actual[i].text1, expected[i].text1) << label;
    EXPECT_EQ(actual[i].text2, expected[i].text2) << label;
  }
  return actual.size();
}

// 300 pairs in 10 shards, so ctest runs them in parallel.
constexpr int kShards = 10;
constexpr int kPairsPerShard = 30;

class AclDiffParityTest : public ::testing::TestWithParam<int> {};

TEST_P(AclDiffParityTest, MatchesFullSpaceClassWalk) {
  std::size_t compared = 0;
  for (int k = 0; k < kPairsPerShard; ++k) {
    int index = GetParam() * kPairsPerShard + k;
    compared += ExpectSameDifferences(CorpusPair(index));
  }
  RecordProperty("differences", static_cast<int>(compared));
  EXPECT_GT(compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, AclDiffParityTest,
                         ::testing::Range(0, kShards));

double MetricValue(const obs::MetricsSink& sink, const std::string& name) {
  for (const auto& [key, value] : sink.Snapshot()) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "metric " << name << " not recorded";
  return -1;
}

void CollectSpans(const obs::Span& span, const std::string& name,
                  std::vector<const obs::Span*>* out) {
  if (span.name == name) out->push_back(&span);
  for (const auto& child : span.children) CollectSpans(child, name, out);
}

double SpanAttr(const obs::Span& span, const std::string& key) {
  for (const auto& [name, value] : span.attrs) {
    if (name == key) return value;
  }
  ADD_FAILURE() << "span " << span.name << " has no attr " << key;
  return -1;
}

TEST(AclClassCountTest, EquivalentPairBuildsNoClass) {
  // The two ACLs differ only in the order of disjoint lines, so their
  // permit sets are equal.
  ir::Acl acl;
  acl.name = "EDGE_IN";
  for (const char* prefix : {"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"}) {
    ir::AclLine line;
    line.action = acl.lines.size() == 1 ? ir::LineAction::kDeny
                                        : ir::LineAction::kPermit;
    line.dst = util::IpWildcard(*util::IpPrefix::Parse(prefix));
    acl.lines.push_back(line);
  }
  ir::Acl reordered = acl;
  std::reverse(reordered.lines.begin(), reordered.lines.end());
  ir::RouterConfig config1 = gen::WrapAclInConfig(acl, "r1", ir::Vendor::kCisco);
  ir::RouterConfig config2 =
      gen::WrapAclInConfig(reordered, "r2", ir::Vendor::kCisco);

  obs::MetricsSink sink;
  obs::MetricsScope metrics_scope(sink);
  DiffOptions options;
  options.num_threads = 1;
  obs::ResetThreadTrace();
  obs::SetEnabled(true);
  DiffReport report = ConfigDiff(config1, config2, options);
  obs::SetEnabled(false);
  std::vector<obs::Span> roots = obs::TakeThreadSpans();

  EXPECT_EQ(report.CountOf(DifferenceEntry::Kind::kAclSemantic), 0);
  EXPECT_EQ(MetricValue(sink, "encode.acl_classes"), 0);
  std::vector<const obs::Span*> pairs, encodes, intersects;
  for (const obs::Span& root : roots) {
    CollectSpans(root, "acl_pair", &pairs);
    CollectSpans(root, "encode", &encodes);
    CollectSpans(root, "class_intersect", &intersects);
  }
  EXPECT_TRUE(intersects.empty());
  ASSERT_EQ(pairs.size(), 1u);
  ASSERT_EQ(encodes.size(), 2u);
  for (const obs::Span* span : encodes) {
    EXPECT_EQ(span->detail, "EDGE_IN");
    EXPECT_EQ(SpanAttr(*span, "classes"), 0);
    EXPECT_EQ(SpanAttr(*span, "lines"), 3);
  }
  // Both encode spans are children of the pair span, in order, and do not
  // overlap.
  ASSERT_EQ(pairs[0]->children.size(), 2u);
  const obs::Span& first = pairs[0]->children[0];
  const obs::Span& second = pairs[0]->children[1];
  EXPECT_EQ(first.name, "encode");
  EXPECT_EQ(second.name, "encode");
  EXPECT_LE(first.start_ns + first.duration_ns, second.start_ns);
  EXPECT_LE(second.start_ns + second.duration_ns,
            pairs[0]->start_ns + pairs[0]->duration_ns);
}

TEST(AclClassCountTest, DifferingPairBuildsFewerClassesThanFullSpaceWalk) {
  gen::AclGenOptions options;
  options.seed = 11;
  options.rules = 200;
  options.differences = 4;
  gen::GeneratedAclPair pair = gen::GenerateAclPair(options);

  bdd::BddManager mgr;
  encode::PacketLayout layout(mgr);
  obs::MetricsSink sink;
  std::vector<AclDifference> differences;
  {
    obs::MetricsScope scope(sink);
    obs::SetEnabled(true);
    differences = SemanticDiffAcls(layout, pair.acl1, pair.acl2);
    obs::SetEnabled(false);
  }
  obs::ResetThreadTrace();
  ReferenceResult reference = ReferenceDiff(layout, pair.acl1, pair.acl2);

  ASSERT_FALSE(differences.empty());
  double classes = MetricValue(sink, "encode.acl_classes");
  EXPECT_GT(classes, 0);
  EXPECT_LT(classes, static_cast<double>(reference.classes));
}

}  // namespace
}  // namespace campion::core
