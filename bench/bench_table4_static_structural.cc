// Regenerates Table 4: Campion's structural check of static routes — the
// full route tuple (prefix, next hop, admin distance) and the exact
// configuration line, for every differing route.

#include "bench/bench_util.h"
#include "core/config_diff.h"
#include "core/structural_diff.h"
#include "tests/testdata.h"

namespace {

void PrintTable4() {
  auto cisco = campion::testing::ParseCiscoOrDie(campion::testing::kFig1Cisco);
  auto juniper =
      campion::testing::ParseJuniperOrDie(campion::testing::kFig1Juniper);
  auto diffs = campion::core::DiffStaticRoutes(cisco, juniper);
  std::cout << diffs.size() << " static route difference(s) (paper: 1)\n\n";
  for (const auto& diff : diffs) {
    auto presented =
        campion::core::PresentStructuralDifference(diff, cisco, juniper);
    std::cout << presented.table << "\n";
  }
}

void BM_StructuralDiffStaticRoutes(benchmark::State& state) {
  auto cisco = campion::testing::ParseCiscoOrDie(campion::testing::kFig1Cisco);
  auto juniper =
      campion::testing::ParseJuniperOrDie(campion::testing::kFig1Juniper);
  for (auto _ : state) {
    auto diffs = campion::core::DiffStaticRoutes(cisco, juniper);
    benchmark::DoNotOptimize(diffs);
  }
}
BENCHMARK(BM_StructuralDiffStaticRoutes);

// Structural checks scale linearly; sweep the number of static routes.
void BM_StructuralDiffScale(benchmark::State& state) {
  campion::ir::RouterConfig config1;
  campion::ir::RouterConfig config2;
  // Assigned from std::string: a `const char*` assignment here trips a GCC 12
  // -O3 -Wmaybe-uninitialized false positive.
  config1.hostname = std::string("r1");
  config2.hostname = std::string("r2");
  const int routes = static_cast<int>(state.range(0));
  for (int i = 0; i < routes; ++i) {
    campion::ir::StaticRoute route;
    route.prefix = campion::util::IpPrefix(
        campion::util::Ipv4Address(10, static_cast<std::uint8_t>(i / 256),
                                   static_cast<std::uint8_t>(i % 256), 0),
        24);
    route.next_hop = campion::util::Ipv4Address(10, 0, 0, 1);
    config1.static_routes.push_back(route);
    if (i % 100 == 7) route.next_hop = campion::util::Ipv4Address(10, 0, 0, 2);
    config2.static_routes.push_back(route);
  }
  for (auto _ : state) {
    auto diffs = campion::core::DiffStaticRoutes(config1, config2);
    benchmark::DoNotOptimize(diffs);
  }
}
BENCHMARK(BM_StructuralDiffScale)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv, "Table 4: static route structural differences",
      PrintTable4);
}
