// Cross-validation of Campion's symbolic analysis against the concrete
// route evaluator: on randomly generated route-map pairs,
//
//   1. if SemanticDiff reports NO differences, the two maps must agree on
//      every sampled concrete route (soundness of "equivalent");
//   2. every difference SemanticDiff reports must contain a concrete
//      witness on which the maps actually disagree (no false differences
//      at the component level);
//   3. whenever the concrete evaluators disagree on a sampled route, that
//      route must lie inside some reported difference set (completeness).
//
// This ties together the BDD encoding (src/encode), the path-class
// construction (src/core) and the concrete semantics (src/sim) — three
// independent implementations of the same route-map meaning.

#include <gtest/gtest.h>

#include "bdd/bdd.h"
#include "core/semantic_diff.h"
#include "encode/route_adv.h"
#include "gen/route_map_gen.h"
#include "sim/route.h"

namespace campion {
namespace {

// The observable behavior of a route map on a concrete route.
struct Verdict {
  bool accepted = false;
  std::uint32_t local_pref = 0;
  std::uint32_t metric = 0;
  std::set<util::Community> communities;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

Verdict Evaluate(const ir::RouterConfig& config, const std::string& map_name,
                 const gen::RandomRoute& input) {
  sim::Route route;
  route.prefix = input.prefix;
  route.communities.insert(input.communities.begin(),
                           input.communities.end());
  route.tag = input.tag;
  route.metric = input.metric;
  route.protocol = ir::Protocol::kBgp;
  route.local_pref = 100;
  auto result =
      sim::EvalRouteMap(config, *config.FindRouteMap(map_name), route);
  Verdict verdict;
  if (!result) return verdict;
  verdict.accepted = true;
  verdict.local_pref = result->local_pref;
  verdict.metric = result->metric;
  verdict.communities = result->communities;
  return verdict;
}

// The exact symbolic predicate of a concrete route.
bdd::BddRef ConcretePredicate(encode::RouteAdvLayout& layout,
                              const gen::RandomRoute& route) {
  bdd::BddManager& mgr = layout.manager();
  bdd::BddRef f = layout.MatchExactPrefix(route.prefix);
  for (const auto& community : layout.communities()) {
    bool carried = false;
    for (const auto& c : route.communities) {
      if (c == community) carried = true;
    }
    bdd::BddRef has = layout.HasCommunity(community);
    f = mgr.And(f, carried ? has : mgr.Not(has));
  }
  f = mgr.And(f, layout.TagEquals(route.tag));
  f = mgr.And(f, layout.MetricEquals(route.metric));
  f = mgr.And(f, layout.ProtocolIs(ir::Protocol::kBgp));
  return f;
}

class CrossValidationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossValidationTest, SymbolicAndConcreteSemanticsAgree) {
  gen::RouteMapGenOptions options;
  options.seed = GetParam();
  options.clauses = 8;
  // Half the seeds get injected differences, half stay equivalent.
  options.differences = GetParam() % 2 == 0 ? 2 : 0;
  gen::GeneratedRouteMapPair pair = gen::GenerateRouteMapPair(options);

  bdd::BddManager mgr;
  std::vector<util::Community> communities = pair.config1.AllCommunities();
  auto more = pair.config2.AllCommunities();
  communities.insert(communities.end(), more.begin(), more.end());
  encode::RouteAdvLayout layout(mgr, std::move(communities));

  auto diffs = core::SemanticDiffRouteMaps(
      layout, pair.config1, *pair.config1.FindRouteMap(pair.map_name),
      pair.config2, *pair.config2.FindRouteMap(pair.map_name));

  // (2) every reported difference has a concrete witness that disagrees.
  for (const auto& diff : diffs) {
    auto cube = mgr.AnySat(diff.input_set);
    ASSERT_TRUE(cube.has_value());
    encode::RouteAdvExample example = layout.Decode(*cube);
    gen::RandomRoute witness;
    witness.prefix = example.prefix;
    witness.communities = example.communities;
    witness.tag = example.tag;
    witness.metric = example.metric;
    Verdict v1 = Evaluate(pair.config1, pair.map_name, witness);
    Verdict v2 = Evaluate(pair.config2, pair.map_name, witness);
    EXPECT_NE(v1, v2) << "reported difference has no concrete witness: "
                      << example.ToString() << "\nactions: "
                      << diff.action1.ToString() << " vs "
                      << diff.action2.ToString();
  }

  // (1) + (3): sample concrete routes; disagreement <=> inside some
  // reported difference set.
  bdd::BddRef union_of_diffs = mgr.False();
  for (const auto& diff : diffs) {
    union_of_diffs = mgr.Or(union_of_diffs, diff.input_set);
  }
  for (const auto& route :
       gen::SampleRoutes(pair, 60, GetParam() * 7919 + 1)) {
    Verdict v1 = Evaluate(pair.config1, pair.map_name, route);
    Verdict v2 = Evaluate(pair.config2, pair.map_name, route);
    bool symbolically_different =
        mgr.Intersects(ConcretePredicate(layout, route), union_of_diffs);
    EXPECT_EQ(v1 != v2, symbolically_different)
        << "prefix " << route.prefix.ToString() << " tag " << route.tag
        << " metric " << route.metric << " communities "
        << route.communities.size() << (v1 != v2 ? " (concrete differs)"
                                                 : " (concrete agrees)");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidationTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace campion
