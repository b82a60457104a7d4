// Regenerates Figure 3: the ddNF prefix-range DAG and the GetMatch result
// {B - D, C - F, G} on the paper's seven-range example, then times the two
// layers of HeaderLocalize as the number of configuration ranges grows (up
// to ~1,650, the largest university comparison): building the DAG, done
// once per comparison, and GetMatch on a prebuilt DAG, done once per
// presented difference.

#include "bench/bench_util.h"
#include "core/ddnf.h"
#include "core/header_localize.h"
#include "encode/route_adv.h"

namespace {

using campion::util::Ipv4Address;
using campion::util::Prefix;
using campion::util::PrefixRange;

// The Figure 3 shape: A contains B and C; B contains D and E; C contains E
// and F; F contains G. S is chosen so GetMatch returns {B-D, C-F, G}.
struct Fig3 {
  PrefixRange a{Prefix(Ipv4Address(10, 0, 0, 0), 8), 8, 32};
  PrefixRange b{Prefix(Ipv4Address(10, 16, 0, 0), 12), 12, 32};
  PrefixRange c{Prefix(Ipv4Address(10, 0, 0, 0), 8), 24, 32};
  PrefixRange d{Prefix(Ipv4Address(10, 16, 0, 0), 12), 14, 20};
  PrefixRange e{Prefix(Ipv4Address(10, 16, 0, 0), 12), 24, 32};
  PrefixRange f{Prefix(Ipv4Address(10, 32, 0, 0), 11), 24, 32};
  PrefixRange g{Prefix(Ipv4Address(10, 32, 0, 0), 11), 28, 32};
};

void PrintFig3() {
  Fig3 ranges;
  campion::bdd::BddManager mgr;
  campion::encode::RouteAdvLayout layout(mgr, {});
  auto to_bdd = [&](const PrefixRange& r) {
    return layout.MatchPrefixRange(r);
  };

  // S = (B - D) u (C - F) u G.
  campion::bdd::BddRef s = mgr.Or(
      mgr.Or(mgr.Diff(to_bdd(ranges.b), to_bdd(ranges.d)),
             mgr.Diff(to_bdd(ranges.c), to_bdd(ranges.f))),
      to_bdd(ranges.g));

  auto result = campion::core::HeaderLocalize(
      mgr, s,
      {ranges.a, ranges.b, ranges.c, ranges.d, ranges.e, ranges.f, ranges.g},
      to_bdd);
  std::cout << "S = (B - D) u (C - F) u G over the Figure 3 DAG\n";
  std::cout << "GetMatch representation (paper: {B - D, C - F, G}):\n";
  for (const auto& term : result.terms) {
    std::cout << "  " << term.ToString() << "\n";
  }
}

// `count` distinct ranges: 250 /16 bases, each with nested windows.
std::vector<PrefixRange> RangePool(int count) {
  std::vector<PrefixRange> ranges;
  for (int i = 0; i < count; ++i) {
    ranges.emplace_back(
        Prefix(Ipv4Address(10, static_cast<std::uint8_t>(i % 250), 0, 0),
               16),
        16, 16 + (i % 17));
  }
  return ranges;
}

void BM_PrefixRangeDagBuild(benchmark::State& state) {
  std::vector<PrefixRange> ranges =
      RangePool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    campion::core::PrefixRangeDag dag(ranges);
    benchmark::DoNotOptimize(dag);
  }
}

void BM_GetMatchPrebuiltDag(benchmark::State& state) {
  std::vector<PrefixRange> ranges =
      RangePool(static_cast<int>(state.range(0)));
  campion::bdd::BddManager mgr;
  campion::encode::RouteAdvLayout layout(mgr, {});
  auto to_bdd = [&](const PrefixRange& r) {
    return layout.MatchPrefixRange(r);
  };
  campion::core::PrefixRangeDag dag(ranges);
  campion::core::HeaderLocalizer localizer(mgr, dag, to_bdd);
  // S: the union of every third range.
  campion::bdd::BddRef s = mgr.False();
  for (std::size_t i = 0; i < ranges.size(); i += 3) {
    s = mgr.Or(s, to_bdd(ranges[i]));
  }
  for (auto _ : state) {
    auto result = localizer.Localize(s);
    benchmark::DoNotOptimize(result);
  }
}

BENCHMARK(BM_PrefixRangeDagBuild)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(1650)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GetMatchPrebuiltDag)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(1650)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv, "Figure 3: ddNF DAG and GetMatch", PrintFig3);
}
