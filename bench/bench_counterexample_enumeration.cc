// Regenerates the §2.1 counterexample-enumeration experiment: how many
// one-at-a-time counterexamples does the Minesweeper-style baseline need
// before the operator has seen (a) both difference classes of Figure 1 and
// (b) every prefix range relevant to Difference 1? The paper measured 7
// samples for (b), and 27 to see a Difference-1 violation at all after
// weakening the Cisco config from `le 32` to `le 31`. Our deterministic
// model order stands in for Z3's, so the exact counts differ; the *shape*
// — one complete Campion report vs. many baseline samples — is the result.

#include <algorithm>
#include <string>

#include "baseline/monolithic.h"
#include "bench/bench_util.h"
#include "core/semantic_diff.h"
#include "encode/policy_encoder.h"
#include "tests/testdata.h"

namespace {

using campion::bdd::BddManager;
using campion::bdd::BddRef;

struct Enumeration {
  int samples_until_both_classes = -1;
  int samples_until_all_d1_ranges = -1;
  int samples_until_first_d1 = -1;
  int total_samples = 0;
};

// How each returned model is excluded from later queries:
//   kConcrete — block exactly the concrete route advertisement (every
//               encoding of it), like a blocking clause over all atoms;
//               successive models then differ minimally and enumeration
//               crawls (the pathological end of "fragile").
//   kPathCube — block the whole satisfying path cube (don't-cares left
//               free), like a blocking clause over the atoms the solver
//               actually decided; this is the closer analogue of the
//               paper's Z3 behavior and yields small finite counts.
enum class BlockMode { kConcrete, kPathCube };

// Runs the baseline enumeration against ground-truth difference classes
// computed by Campion in the same symbolic space.
Enumeration Enumerate(const campion::ir::RouterConfig& cisco,
                      const campion::ir::RouterConfig& juniper,
                      campion::baseline::CounterexampleOrder order,
                      BlockMode block_mode, int max_samples) {
  BddManager mgr;
  std::vector<campion::util::Community> communities = cisco.AllCommunities();
  auto more = juniper.AllCommunities();
  communities.insert(communities.end(), more.begin(), more.end());
  campion::encode::RouteAdvLayout layout(mgr, std::move(communities));

  auto diffs = campion::core::SemanticDiffRouteMaps(
      layout, cisco, *cisco.FindRouteMap("POL"), juniper,
      *juniper.FindRouteMap("POL"));
  // Ground truth: the two difference classes (Table 2a = the one not
  // covering the whole space; Table 2b = the one that does).
  BddRef d1 = campion::bdd::kFalse;
  BddRef d2 = campion::bdd::kFalse;
  for (const auto& diff : diffs) {
    // Difference 1 mentions the NETS prefix list in its Cisco text.
    if (diff.text1.find("deny 10") != std::string::npos) {
      d1 = mgr.Or(d1, diff.input_set);
    } else {
      d2 = mgr.Or(d2, diff.input_set);
    }
  }
  // The prefix ranges relevant to Difference 1: its two NETS windows.
  std::vector<BddRef> d1_ranges;
  for (const auto& prefix :
       {campion::util::IpPrefix(campion::util::Ipv4Address(10, 9, 0, 0), 16),
        campion::util::IpPrefix(campion::util::Ipv4Address(10, 100, 0, 0),
                                16)}) {
    d1_ranges.push_back(layout.MatchPrefixRange(
        campion::util::PrefixRange(prefix, 16, 32)));
  }

  BddRef remaining = mgr.Or(d1, d2);
  std::vector<bool> range_seen(d1_ranges.size(), false);
  bool class1_seen = false;
  bool class2_seen = false;

  Enumeration result;
  for (int sample = 1; sample <= max_samples; ++sample) {
    auto cube = order == campion::baseline::CounterexampleOrder::kLexMin
                    ? mgr.MinSat(remaining)
                    : mgr.AnySat(remaining);
    if (!cube) break;
    result.total_samples = sample;
    campion::encode::RouteAdvExample example = layout.Decode(*cube);

    BddRef concrete;
    if (block_mode == BlockMode::kConcrete) {
      // Block every encoding of this concrete advertisement.
      concrete = layout.MatchExactPrefix(example.prefix);
      for (const auto& community : layout.communities()) {
        bool carried = std::find(example.communities.begin(),
                                 example.communities.end(),
                                 community) != example.communities.end();
        BddRef has = layout.HasCommunity(community);
        concrete = mgr.And(concrete, carried ? has : mgr.Not(has));
      }
      concrete = mgr.And(concrete, layout.TagEquals(example.tag));
      concrete = mgr.And(concrete, layout.ProtocolIs(example.protocol));
    } else {
      // Block the satisfying path cube (decided variables only).
      concrete = mgr.True();
      for (std::size_t v = 0; v < cube->size(); ++v) {
        if ((*cube)[v] == 1) {
          concrete = mgr.And(concrete, mgr.VarTrue(static_cast<campion::bdd::Var>(v)));
        } else if ((*cube)[v] == 0 &&
                   order == campion::baseline::CounterexampleOrder::kLexMin) {
          // MinSat cubes are total; keep only the variables the BDD path
          // actually constrained by re-deriving them from AnySat.
          continue;
        } else if ((*cube)[v] == 0) {
          concrete = mgr.And(concrete,
                             mgr.VarFalse(static_cast<campion::bdd::Var>(v)));
        }
      }
    }

    if (mgr.Intersects(concrete, d1)) {
      class1_seen = true;
      if (result.samples_until_first_d1 < 0) {
        result.samples_until_first_d1 = sample;
      }
      for (std::size_t r = 0; r < d1_ranges.size(); ++r) {
        if (mgr.Intersects(concrete, d1_ranges[r])) range_seen[r] = true;
      }
    }
    if (mgr.Intersects(concrete, d2)) class2_seen = true;

    if (class1_seen && class2_seen &&
        result.samples_until_both_classes < 0) {
      result.samples_until_both_classes = sample;
    }
    bool all_ranges = true;
    for (bool seen : range_seen) all_ranges = all_ranges && seen;
    if (all_ranges && result.samples_until_all_d1_ranges < 0) {
      result.samples_until_all_d1_ranges = sample;
    }
    if (result.samples_until_both_classes > 0 &&
        result.samples_until_all_d1_ranges > 0) {
      break;
    }
    remaining = mgr.Diff(remaining, concrete);
  }
  return result;
}

std::string Show(int count) {
  return count < 0 ? "not reached" : std::to_string(count);
}

void PrintExperiment() {
  auto cisco = campion::testing::ParseCiscoOrDie(campion::testing::kFig1Cisco);
  auto juniper =
      campion::testing::ParseJuniperOrDie(campion::testing::kFig1Juniper);

  // The mutated variant: `le 32` -> `le 31` on the second NETS entry.
  std::string mutated_text = campion::testing::kFig1Cisco;
  auto pos = mutated_text.find("10.100.0.0/16 le 32");
  mutated_text.replace(pos, std::string("10.100.0.0/16 le 32").size(),
                       "10.100.0.0/16 le 31");
  auto mutated = campion::testing::ParseCiscoOrDie(mutated_text);

  struct Config {
    campion::baseline::CounterexampleOrder order;
    BlockMode block;
    const char* name;
  };
  const Config configs[] = {
      {campion::baseline::CounterexampleOrder::kFirstPath,
       BlockMode::kPathCube,
       "first-path models, path-cube blocking (Z3-like)"},
      {campion::baseline::CounterexampleOrder::kFirstPath,
       BlockMode::kConcrete,
       "first-path models, concrete blocking (pathological)"},
      {campion::baseline::CounterexampleOrder::kLexMin, BlockMode::kConcrete,
       "lexicographic models, concrete blocking (pathological)"},
  };
  const int kMax = 500;
  for (const Config& config : configs) {
    std::cout << "\n--- " << config.name << " (cap " << kMax
              << " samples) ---\n";
    Enumeration base =
        Enumerate(cisco, juniper, config.order, config.block, kMax);
    std::cout << "original configs:\n"
              << "  samples until both difference classes seen: "
              << Show(base.samples_until_both_classes) << "\n"
              << "  samples until first Difference-1 violation: "
              << Show(base.samples_until_first_d1) << "\n"
              << "  samples until every Difference-1 prefix range seen: "
              << Show(base.samples_until_all_d1_ranges)
              << "  (paper: 7 with Z3)\n";
    Enumeration weak =
        Enumerate(mutated, juniper, config.order, config.block, kMax);
    std::cout << "after le 32 -> le 31 mutation:\n"
              << "  samples until first Difference-1 violation: "
              << Show(weak.samples_until_first_d1)
              << "  (paper: 27 with Z3)\n";
  }
  std::cout << "\nCampion needs exactly 1 run: both classes are reported "
               "completely, with all ranges (Table 2).\n";
}

void BM_EnumerateTenCounterexamples(benchmark::State& state) {
  auto cisco = campion::testing::ParseCiscoOrDie(campion::testing::kFig1Cisco);
  auto juniper =
      campion::testing::ParseJuniperOrDie(campion::testing::kFig1Juniper);
  for (auto _ : state) {
    campion::baseline::MonolithicRouteMapChecker checker(
        cisco, *cisco.FindRouteMap("POL"), juniper,
        *juniper.FindRouteMap("POL"));
    for (int i = 0; i < 10; ++i) {
      auto counterexample = checker.Next();
      if (!counterexample) break;
      benchmark::DoNotOptimize(counterexample);
    }
  }
}
BENCHMARK(BM_EnumerateTenCounterexamples)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv,
      "S2.1 experiment: counterexamples needed vs Campion's complete output",
      PrintExperiment);
}
