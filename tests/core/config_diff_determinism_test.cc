// The parallel diff pipeline must be invisible in the output: ConfigDiff
// fans per-pair semantic tasks across a worker pool but merges results in
// pair-declaration order, so any thread count renders a byte-identical
// report. These tests pin that guarantee over the src/gen scenario suite.

#include "core/config_diff.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/json_report.h"
#include "gen/route_map_gen.h"
#include "gen/scenarios.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::core {
namespace {

DiffOptions WithThreads(unsigned num_threads) {
  DiffOptions options;
  options.num_threads = num_threads;
  return options;
}

// Renders text and JSON with the given thread count.
std::string RenderAll(const ir::RouterConfig& config1,
                      const ir::RouterConfig& config2, unsigned num_threads) {
  DiffReport report = ConfigDiff(config1, config2, WithThreads(num_threads));
  return report.Render() + "\n---\n" +
         ReportToJson(report, config1.hostname, config2.hostname);
}

void ExpectDeterministic(const gen::RouterPair& pair) {
  std::string serial = RenderAll(pair.config1, pair.config2, 1);
  std::string parallel = RenderAll(pair.config1, pair.config2, 8);
  EXPECT_EQ(serial, parallel) << "pair: " << pair.label;
}

TEST(ConfigDiffDeterminismTest, UniversityPairsByteIdentical) {
  gen::UniversityScenario scenario = gen::BuildUniversityScenario();
  ExpectDeterministic(scenario.core);
  ExpectDeterministic(scenario.border);
}

TEST(ConfigDiffDeterminismTest, DataCenterScenarioByteIdentical) {
  gen::DataCenterScenario scenario = gen::BuildDataCenterScenario();
  for (const auto& pair : scenario.redundant_pairs) {
    ExpectDeterministic(pair);
  }
  for (const auto& pair : scenario.gateway_pairs) {
    ExpectDeterministic(pair);
  }
  // The 30 replacement pairs are individually small; a prefix keeps the
  // test fast while still covering the replacement shape.
  for (std::size_t i = 0; i < scenario.replacements.size() && i < 6; ++i) {
    ExpectDeterministic(scenario.replacements[i]);
  }
}

TEST(ConfigDiffDeterminismTest, ZeroMeansHardwareConcurrency) {
  // num_threads=0 resolves to the hardware thread count and must also
  // match the serial rendering.
  gen::UniversityScenario scenario = gen::BuildUniversityScenario();
  std::string serial =
      RenderAll(scenario.core.config1, scenario.core.config2, 1);
  std::string pooled =
      RenderAll(scenario.core.config1, scenario.core.config2, 0);
  EXPECT_EQ(serial, pooled);
}

TEST(ConfigDiffDeterminismTest, TracingAndMemoryAccountingAreInvisible) {
  // With observability on, every pair additionally records its BDD kernel
  // counters and the pipeline samples process RSS; none of that may
  // leak into the report, at any thread count.
  gen::UniversityScenario scenario = gen::BuildUniversityScenario();
  std::string plain =
      RenderAll(scenario.core.config1, scenario.core.config2, 1);
  obs::SetEnabled(true);
  std::string traced_serial =
      RenderAll(scenario.core.config1, scenario.core.config2, 1);
  std::string traced_parallel =
      RenderAll(scenario.core.config1, scenario.core.config2, 8);
  obs::SetEnabled(false);
  obs::ResetThreadTrace();
  obs::ProcessMetrics().Reset();
  EXPECT_EQ(plain, traced_serial);
  EXPECT_EQ(plain, traced_parallel);
}

TEST(ConfigDiffDeterminismTest, RepeatedParallelRunsAgree) {
  // Thread scheduling varies run to run; the report must not.
  gen::UniversityScenario scenario = gen::BuildUniversityScenario();
  std::string first =
      RenderAll(scenario.border.config1, scenario.border.config2, 8);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(first,
              RenderAll(scenario.border.config1, scenario.border.config2, 8));
  }
}

// The route-map generator emits the map and its lists but no BGP session;
// ConfigDiff only diffs maps that a paired neighbor references, so wire
// the generated map up as an import policy on both sides.
void AttachMapToNeighbor(ir::RouterConfig* config, const std::string& map) {
  ir::BgpProcess bgp;
  bgp.asn = 65000;
  ir::BgpNeighbor neighbor;
  neighbor.ip = util::Ipv4Address(10, 0, 0, 1);
  neighbor.remote_as = 65001;
  neighbor.import_policy = map;
  bgp.neighbors.push_back(neighbor);
  config->bgp = bgp;
}

// Collects (span name + detail, bdd_nodes attr) for every per-pair span in
// the trace tree, in tree order. The tree is deterministic across thread
// counts, so the flattened list is directly comparable.
void CollectPairNodes(const obs::Span& span,
                      std::vector<std::pair<std::string, double>>* out) {
  if (span.name == "route_map_pair" || span.name == "acl_pair") {
    for (const auto& [key, value] : span.attrs) {
      if (key == "bdd_nodes") {
        out->push_back({span.name + " " + span.detail, value});
      }
    }
  }
  for (const auto& child : span.children) CollectPairNodes(child, out);
}

// Every pair encodes from scratch into its thread's manager, reset for it,
// so the per-pair arena sizes must be identical run to run and at any
// thread count — the BDD workload is deterministic, and this pin is what
// makes two traces comparable pair by pair.
TEST(ConfigDiffDeterminismTest, PairArenaSizesDeterministic) {
  gen::RouteMapGenOptions options;
  options.seed = 9;
  options.clauses = 8;
  options.differences = 2;
  auto pair = gen::GenerateRouteMapPair(options);
  AttachMapToNeighbor(&pair.config1, pair.map_name);
  AttachMapToNeighbor(&pair.config2, pair.map_name);

  auto run = [&](unsigned threads) {
    obs::ResetThreadTrace();
    obs::SetEnabled(true);
    ConfigDiff(pair.config1, pair.config2, WithThreads(threads));
    obs::SetEnabled(false);
    std::vector<std::pair<std::string, double>> nodes;
    for (const obs::Span& span : obs::TakeThreadSpans()) {
      CollectPairNodes(span, &nodes);
    }
    return nodes;
  };

  auto serial = run(1);
  ASSERT_FALSE(serial.empty());
  for (const auto& [key, value] : serial) EXPECT_GT(value, 0.0) << key;
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(1), serial);  // Run-to-run, not just across thread counts.
}

// Threads keep one BDD manager across pair tasks, so a pair's kernel
// metrics must not show what its thread ran before: the border pair reads
// the same on a new thread, on the calling thread right after the larger
// core pair, and fanned out over warm pool threads.
TEST(ConfigDiffDeterminismTest, KernelCountersIgnoreThreadHistory) {
  gen::UniversityScenario scenario = gen::BuildUniversityScenario();
  auto bdd_metrics = [&](const gen::RouterPair& pair, unsigned threads) {
    obs::MetricsSink sink;
    {
      obs::MetricsScope scope(sink);
      obs::SetEnabled(true);
      ConfigDiff(pair.config1, pair.config2, WithThreads(threads));
      obs::SetEnabled(false);
    }
    obs::ResetThreadTrace();
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [name, value] : sink.Snapshot()) {
      if (name.rfind("bdd.", 0) == 0) out.push_back({name, value});
    }
    return out;
  };
  std::vector<std::pair<std::string, double>> cold;
  std::thread([&] { cold = bdd_metrics(scenario.border, 1); }).join();
  ASSERT_FALSE(cold.empty());
  bdd_metrics(scenario.core, 1);
  EXPECT_EQ(bdd_metrics(scenario.border, 1), cold);
  bdd_metrics(scenario.core, 8);
  EXPECT_EQ(bdd_metrics(scenario.border, 8), cold);
}

}  // namespace
}  // namespace campion::core
