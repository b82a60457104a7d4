// Regenerates Figure 3: the ddNF prefix-range DAG and the GetMatch result
// {B - D, C - F, G} on the paper's seven-range example, then times the
// layers of HeaderLocalize as the number of configuration ranges grows (up
// to ~1,650, the largest university comparison): building the DAG, done
// once per comparison; building a localizer and every internal node's
// remainder, done once per pair; and GetMatch on a prebuilt DAG, done once
// per presented difference.

#include "bench/bench_util.h"
#include "core/ddnf.h"
#include "core/header_localize.h"
#include "encode/route_adv.h"

namespace {

using campion::util::Ipv4Address;
using campion::util::IpPrefix;
using campion::util::PrefixRange;

// The Figure 3 shape: A contains B and C; B contains D and E; C contains E
// and F; F contains G. S is chosen so GetMatch returns {B-D, C-F, G}.
struct Fig3 {
  PrefixRange a{IpPrefix(Ipv4Address(10, 0, 0, 0), 8), 8, 32};
  PrefixRange b{IpPrefix(Ipv4Address(10, 16, 0, 0), 12), 12, 32};
  PrefixRange c{IpPrefix(Ipv4Address(10, 0, 0, 0), 8), 24, 32};
  PrefixRange d{IpPrefix(Ipv4Address(10, 16, 0, 0), 12), 14, 20};
  PrefixRange e{IpPrefix(Ipv4Address(10, 16, 0, 0), 12), 24, 32};
  PrefixRange f{IpPrefix(Ipv4Address(10, 32, 0, 0), 11), 24, 32};
  PrefixRange g{IpPrefix(Ipv4Address(10, 32, 0, 0), 11), 28, 32};
};

void PrintFig3() {
  Fig3 ranges;
  campion::bdd::BddManager mgr;
  campion::encode::RouteAdvLayout layout(mgr, {});

  // S = (B - D) u (C - F) u G.
  campion::bdd::BddRef s =
      mgr.Or(mgr.Or(mgr.Diff(layout.MatchPrefixRange(ranges.b),
                             layout.MatchPrefixRange(ranges.d)),
                    mgr.Diff(layout.MatchPrefixRange(ranges.c),
                             layout.MatchPrefixRange(ranges.f))),
             layout.MatchPrefixRange(ranges.g));

  auto result = campion::core::HeaderLocalize(
      mgr, s,
      {ranges.a, ranges.b, ranges.c, ranges.d, ranges.e, ranges.f, ranges.g},
      layout.prefix_encoding());
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
        IpPrefix(Ipv4Address(10, static_cast<std::uint8_t>(i % 250), 0, 0),
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
  campion::core::PrefixRangeDag dag(ranges);
  campion::core::HeaderLocalizer localizer(mgr, dag,
                                           layout.prefix_encoding());
  // S: the union of every third range.
  campion::bdd::BddRef s = mgr.False();
  for (std::size_t i = 0; i < ranges.size(); i += 3) {
    s = mgr.Or(s, layout.MatchPrefixRange(ranges[i]));
  }
  for (auto _ : state) {
    auto result = localizer.Localize(s);
    benchmark::DoNotOptimize(result);
  }
}

// A pair's one-time localizer cost: encoding every DAG node and building
// every internal node's remainder, on a fresh manager as in a pair task.
void BM_LocalizerConstruction(benchmark::State& state) {
  std::vector<PrefixRange> ranges =
      RangePool(static_cast<int>(state.range(0)));
  campion::core::PrefixRangeDag dag(ranges);
  for (auto _ : state) {
    campion::bdd::BddManager mgr;
    campion::encode::RouteAdvLayout layout(mgr, {});
    campion::core::HeaderLocalizer localizer(mgr, dag,
                                             layout.prefix_encoding());
    for (std::size_t node = 0; node < dag.size(); ++node) {
      if (!dag.IsLeaf(node)) {
        benchmark::DoNotOptimize(localizer.Remainder(node));
      }
    }
  }
}

BENCHMARK(BM_PrefixRangeDagBuild)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(1650)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LocalizerConstruction)
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
