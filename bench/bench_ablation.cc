// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//  1. SemanticDiff's disagreement-set pruning: classes built only inside
//     permit1 XOR permit2, vs classes over the whole packet space with
//     every class pair compared (both produce the same differences; the
//     asymptotics differ).
//  2. HeaderLocalize's GetMatch minimality: the number of output terms vs
//     a naive "list every touched leaf/remainder region" representation.
//  3. Route-map diff cost as the clause count grows (SemanticDiff's class
//     construction dominates once fall-through terms fork states).

#include "bench/bench_util.h"
#include "core/header_localize.h"
#include "core/semantic_diff.h"
#include "gen/acl_gen.h"
#include "gen/route_map_gen.h"

namespace {

void BM_AclDiffPruned(benchmark::State& state) {
  campion::gen::AclGenOptions options;
  options.rules = static_cast<int>(state.range(0));
  options.differences = 10;
  options.seed = 11;
  auto pair = campion::gen::GenerateAclPair(options);
  for (auto _ : state) {
    campion::bdd::BddManager mgr;
    campion::encode::PacketLayout layout(mgr);
    auto diffs =
        campion::core::SemanticDiffAcls(layout, pair.acl1, pair.acl2);
    benchmark::DoNotOptimize(diffs);
  }
}
BENCHMARK(BM_AclDiffPruned)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

// The unpruned variant: each ACL's classes over the whole packet space,
// then every class pair with different actions intersected.
std::vector<campion::core::AclDifference> UnprunedAclDiff(
    campion::encode::PacketLayout& layout, const campion::ir::Acl& acl1,
    const campion::ir::Acl& acl2) {
  campion::bdd::BddManager& mgr = layout.manager();
  auto classes = [&](const campion::ir::Acl& acl) {
    std::vector<campion::bdd::BddRef> matches;
    matches.reserve(acl.lines.size());
    for (const auto& line : acl.lines) {
      matches.push_back(layout.MatchLine(line));
    }
    return campion::core::BuildAclClasses(mgr, acl, matches, mgr.True());
  };
  const auto classes1 = classes(acl1);
  const auto classes2 = classes(acl2);
  std::vector<campion::core::AclDifference> differences;
  for (const auto& c1 : classes1) {
    for (const auto& c2 : classes2) {
      if (c1.action == c2.action) continue;
      campion::bdd::BddRef overlap = mgr.And(c1.predicate, c2.predicate);
      if (overlap == campion::bdd::kFalse) continue;
      differences.push_back({overlap, c1.action, c2.action, c1.text, c2.text});
    }
  }
  return differences;
}

void BM_AclDiffUnpruned(benchmark::State& state) {
  campion::gen::AclGenOptions options;
  options.rules = static_cast<int>(state.range(0));
  options.differences = 10;
  options.seed = 11;
  auto pair = campion::gen::GenerateAclPair(options);
  for (auto _ : state) {
    campion::bdd::BddManager mgr;
    campion::encode::PacketLayout layout(mgr);
    auto diffs = UnprunedAclDiff(layout, pair.acl1, pair.acl2);
    benchmark::DoNotOptimize(diffs);
  }
}
BENCHMARK(BM_AclDiffUnpruned)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_RouteMapDiffClauses(benchmark::State& state) {
  campion::gen::RouteMapGenOptions options;
  options.clauses = static_cast<int>(state.range(0));
  options.differences = 2;
  options.seed = 5;
  auto pair = campion::gen::GenerateRouteMapPair(options);
  for (auto _ : state) {
    campion::bdd::BddManager mgr;
    std::vector<campion::util::Community> communities =
        pair.config1.AllCommunities();
    auto more = pair.config2.AllCommunities();
    communities.insert(communities.end(), more.begin(), more.end());
    campion::encode::RouteAdvLayout layout(mgr, std::move(communities));
    auto diffs = campion::core::SemanticDiffRouteMaps(
        layout, pair.config1, *pair.config1.FindRouteMap(pair.map_name),
        pair.config2, *pair.config2.FindRouteMap(pair.map_name));
    benchmark::DoNotOptimize(diffs);
  }
}
BENCHMARK(BM_RouteMapDiffClauses)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void PrintMinimalityComparison() {
  using campion::util::Ipv4Address;
  using campion::util::IpPrefix;
  using campion::util::PrefixRange;
  campion::bdd::BddManager mgr;
  campion::encode::RouteAdvLayout layout(mgr, {});

  // A set built from 16 nested /16 windows; GetMatch should represent it
  // with one term per contiguous region instead of one per leaf.
  std::vector<PrefixRange> pool;
  for (int i = 0; i < 16; ++i) {
    pool.emplace_back(
        IpPrefix(Ipv4Address(10, static_cast<std::uint8_t>(i), 0, 0), 16), 16,
        32);
    pool.emplace_back(
        IpPrefix(Ipv4Address(10, static_cast<std::uint8_t>(i), 0, 0), 16), 16,
        16);
  }
  campion::bdd::BddRef s = mgr.False();
  for (int i = 0; i < 16; ++i) {
    // window minus exact: the Table 2(a) shape, repeated.
    s = mgr.Or(s, mgr.Diff(layout.MatchPrefixRange(pool[2 * i]),
                           layout.MatchPrefixRange(pool[2 * i + 1])));
  }
  auto localized = campion::core::HeaderLocalize(mgr, s, pool,
                                                 layout.prefix_encoding());
  // Naive representation size: every (range, in/out) leaf region.
  std::size_t naive_terms = 0;
  for (const auto& range : pool) {
    if (mgr.Intersects(layout.MatchPrefixRange(range), s)) ++naive_terms;
  }
  std::cout << "HeaderLocalize minimality on 16 window-minus-exact sets:\n"
            << "  GetMatch terms: " << localized.terms.size()
            << " (one per window, each with one exclusion)\n"
            << "  touched ranges (naive lower bound): " << naive_terms
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv, "Ablations: pruning, minimality, clause scaling",
      PrintMinimalityComparison);
}
