// Validates real `campion --trace_out` output against the schema documented
// in docs/trace_format.md: runs the built CLI on the Fig.1 pair, parses the
// emitted JSON with util::ParseJson, and checks the document shape, the
// span vocabulary, the kernel metrics, and structural determinism across
// `--threads` values (on Fig.1 and the committed dual-stack and university
// core example pairs).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tests/testdata.h"
#include "util/json.h"

#if !defined(CAMPION_CLI_PATH) || !defined(CAMPION_SOURCE_DIR)
#error "CAMPION_CLI_PATH and CAMPION_SOURCE_DIR must be defined by the build"
#endif

namespace campion {
namespace {

using util::JsonValue;

// ---------------------------------------------------------------------------
// Test fixture: writes the Fig.1 pair once and runs the CLI per test.

int RunCommand(const std::string& command) {
  int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class TraceSchemaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process scratch dir: parallel ctest runs each case in its own
    // process, and a shared path would race on the config files.
    dir_ = std::filesystem::temp_directory_path() /
           ("campion-trace-schema-" + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
    std::ofstream(dir_ / "cisco.cfg") << testing::kFig1Cisco;
    std::ofstream(dir_ / "juniper.conf") << testing::kFig1Juniper;
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static std::string Path(const std::string& name) {
    return (dir_ / name).string();
  }

  // Runs the CLI with --trace_out on a pair (by default Fig.1) and returns
  // the parsed trace document.
  static JsonValue TraceFor(const std::string& extra_flags,
                            const std::string& trace_name,
                            const std::string& config1 = Path("cisco.cfg"),
                            const std::string& config2 = Path("juniper.conf")) {
    std::string trace_path = Path(trace_name);
    std::string command = std::string(CAMPION_CLI_PATH) + " " + extra_flags +
                          " --trace_out=" + trace_path + " " + config1 + " " +
                          config2 + " > /dev/null 2>&1";
    EXPECT_EQ(RunCommand(command), 2);  // Both pairs have differences.
    std::ifstream file(trace_path);
    std::stringstream buffer;
    buffer << file.rdbuf();
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(util::ParseJson(buffer.str(), doc, &error))
        << "trace is not valid JSON: " << trace_path << ": " << error;
    return doc;
  }

  static std::filesystem::path dir_;
};

std::filesystem::path TraceSchemaTest::dir_;

// Recursively checks one span object against the documented schema and
// collects the names seen.
void ValidateSpan(const JsonValue& span, std::set<std::string>& names) {
  ASSERT_EQ(span.type, JsonValue::Type::kObject);
  const JsonValue* name = span.Find("name");
  ASSERT_NE(name, nullptr);
  ASSERT_EQ(name->type, JsonValue::Type::kString);
  EXPECT_FALSE(name->string.empty());
  names.insert(name->string);

  const JsonValue* start = span.Find("start_ns");
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->type, JsonValue::Type::kNumber);
  EXPECT_GE(start->number, 0.0);
  const JsonValue* duration = span.Find("duration_ns");
  ASSERT_NE(duration, nullptr);
  EXPECT_EQ(duration->type, JsonValue::Type::kNumber);
  EXPECT_GE(duration->number, 0.0);

  // detail and attrs are optional; when present they must have the right
  // shape (string, and object of numbers, respectively).
  if (const JsonValue* detail = span.Find("detail")) {
    EXPECT_EQ(detail->type, JsonValue::Type::kString);
  }
  if (const JsonValue* attrs = span.Find("attrs")) {
    ASSERT_EQ(attrs->type, JsonValue::Type::kObject);
    for (const auto& [key, value] : attrs->object) {
      EXPECT_FALSE(key.empty());
      EXPECT_EQ(value.type, JsonValue::Type::kNumber);
    }
  }

  const JsonValue* children = span.Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->type, JsonValue::Type::kArray);
  for (const JsonValue& child : children->array) ValidateSpan(child, names);
}

TEST_F(TraceSchemaTest, DocumentMatchesDocumentedSchema) {
  JsonValue doc = TraceFor("", "trace.json");
  ASSERT_EQ(doc.type, JsonValue::Type::kObject);

  const JsonValue* version = doc.Find("campion_trace_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->number, 1.0);

  const JsonValue* spans = doc.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->type, JsonValue::Type::kArray);
  ASSERT_FALSE(spans->array.empty());

  std::set<std::string> names;
  for (const JsonValue& span : spans->array) ValidateSpan(span, names);
  // The documented pipeline phases all appear for the Fig.1 pair.
  for (const char* required :
       {"parse", "config_diff", "match_policies", "localize_dag",
        "route_map_pair", "encode", "class_intersect", "localize_encode",
        "header_localize", "structural"}) {
    EXPECT_TRUE(names.count(required)) << "missing span name: " << required;
  }

  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->type, JsonValue::Type::kObject);
  std::map<std::string, double> flat;
  for (const auto& [key, value] : metrics->object) {
    ASSERT_EQ(value.type, JsonValue::Type::kNumber) << key;
    flat[key] = value.number;
  }
  EXPECT_EQ(flat["parse.files"], 2.0);
  EXPECT_GT(flat["parse.lines"], 0.0);
  EXPECT_GT(flat["bdd.cache_lookups"], 0.0);
  EXPECT_GT(flat["bdd.unique_lookups"], 0.0);
  EXPECT_GT(flat["bdd.peak_live_nodes"], 1.0);
  EXPECT_GE(flat["bdd.arena_nodes"], flat["bdd.peak_live_nodes"]);
  EXPECT_GE(flat["bdd.cache_lookups"], flat["bdd.cache_hits"]);
  EXPECT_GE(flat["bdd.unique_lookups"], flat["bdd.unique_hits"]);
  EXPECT_EQ(flat["diff.route_map_pairs"], 1.0);
  // Metric keys are emitted in sorted order (the registry snapshot).
  for (std::size_t i = 1; i < metrics->object.size(); ++i) {
    EXPECT_LT(metrics->object[i - 1].first, metrics->object[i].first);
  }
}

// Structure-only rendering of a parsed trace: name/detail/nesting, no
// timings — the part docs/trace_format.md guarantees is deterministic.
void StructureOf(const JsonValue& span, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += span.Find("name")->string;
  if (const JsonValue* detail = span.Find("detail")) {
    out += " [" + detail->string + "]";
  }
  out += "\n";
  for (const JsonValue& child : span.Find("children")->array) {
    StructureOf(child, depth + 1, out);
  }
}

// Runs on Fig.1, on the committed dual-stack example pair, whose ACL pair
// and 128-bit address fields take the pooled path at --threads=4, and on
// the university core pair, whose managers outgrow their first unique
// table. Threads reuse one manager across pairs, so a kernel figure that
// kept the shape of a reused table could differ between thread counts
// (ConfigDiffDeterminismTest.KernelCountersIgnoreThreadHistory pins that
// without depending on the schedule).
TEST_F(TraceSchemaTest, StructureIsIdenticalAcrossThreadCounts) {
  const std::string examples =
      std::string(CAMPION_SOURCE_DIR) + "/examples/configs/";
  const struct {
    std::string label, config1, config2;
    std::vector<std::string> required;  // Beyond the Fig.1 schema test's.
  } pairs[] = {
      {"fig1", Path("cisco.cfg"), Path("juniper.conf"), {}},
      {"dualstack", examples + "dualstack_edge_cisco.cfg",
       examples + "dualstack_edge_juniper.conf",
       {"acl_pair", "header_localize"}},
      {"university_core", examples + "university_core_cisco.cfg",
       examples + "university_core_juniper.conf",
       {"acl_pair", "route_map_pair"}},
  };
  // The one exception to exact counter agreement is the `mem.` RSS
  // watermarks: resident-set sizes are an OS artifact and vary run to run,
  // so docs/trace_format.md exempts them from the determinism guarantee.
  // Every `mem.` key must still be present in both traces — only its value
  // may differ.
  auto metrics_of = [](const JsonValue& doc, bool keep_mem) {
    std::map<std::string, double> flat;
    for (const auto& [key, value] : doc.Find("metrics")->object) {
      if (!keep_mem && key.rfind("mem.", 0) == 0) continue;
      flat[key] = keep_mem ? 1.0 : value.number;  // keep_mem: keys only.
    }
    return flat;
  };
  for (const auto& pair : pairs) {
    SCOPED_TRACE(pair.label);
    JsonValue serial = TraceFor("--threads=1", pair.label + "_t1.json",
                                pair.config1, pair.config2);
    JsonValue pooled = TraceFor("--threads=4", pair.label + "_t4.json",
                                pair.config1, pair.config2);
    std::string serial_structure, pooled_structure;
    std::set<std::string> names;
    for (const JsonValue& span : serial.Find("spans")->array) {
      ValidateSpan(span, names);
      StructureOf(span, 0, serial_structure);
    }
    for (const JsonValue& span : pooled.Find("spans")->array) {
      StructureOf(span, 0, pooled_structure);
    }
    EXPECT_EQ(serial_structure, pooled_structure);
    EXPECT_FALSE(serial_structure.empty());
    for (const std::string& required : pair.required) {
      EXPECT_TRUE(names.count(required)) << "missing span name: " << required;
    }

    // Counters (everything except wall-clock) also agree exactly.
    EXPECT_EQ(metrics_of(serial, false), metrics_of(pooled, false));
    EXPECT_EQ(metrics_of(serial, true), metrics_of(pooled, true));
  }
}

// ---------------------------------------------------------------------------
// Chrome Trace Event export.

// Flattens a chrome trace into (name [detail]) -> tid for the complete
// ("X") events and validates the event shapes along the way.
std::map<std::string, std::set<double>> ChromeEventLanes(
    const JsonValue& doc) {
  std::map<std::string, std::set<double>> lanes;
  const JsonValue* events = doc.Find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return lanes;
  EXPECT_EQ(events->type, JsonValue::Type::kArray);
  double last_ts = -1.0;
  for (const JsonValue& event : events->array) {
    EXPECT_EQ(event.type, JsonValue::Type::kObject);
    const JsonValue* ph = event.Find("ph");
    EXPECT_NE(ph, nullptr);
    if (ph == nullptr) continue;
    if (ph->string == "M") continue;  // Metadata: process/thread names.
    // Spans export as complete events: one "X" with ts + dur, never
    // unbalanced B/E pairs.
    EXPECT_EQ(ph->string, "X");
    const JsonValue* ts = event.Find("ts");
    const JsonValue* dur = event.Find("dur");
    const JsonValue* tid = event.Find("tid");
    EXPECT_NE(ts, nullptr);
    EXPECT_NE(dur, nullptr);
    EXPECT_NE(tid, nullptr);
    if (ts == nullptr || dur == nullptr || tid == nullptr) continue;
    EXPECT_GE(ts->number, 0.0);
    EXPECT_GE(dur->number, 0.0);
    EXPECT_EQ(event.Find("pid")->number, 1.0);
    // Events are emitted in timestamp order so viewers need no re-sort.
    EXPECT_GE(ts->number, last_ts);
    last_ts = ts->number;
    std::string key = event.Find("name")->string;
    if (const JsonValue* args = event.Find("args")) {
      if (const JsonValue* detail = args->Find("detail")) {
        key += " [" + detail->string + "]";
      }
    }
    lanes[key].insert(tid->number);
  }
  return lanes;
}

TEST_F(TraceSchemaTest, ChromeExportIsValidAndThreadCountIndependent) {
  JsonValue serial = TraceFor("--trace_format=chrome --threads=1",
                              "chrome_t1.json");
  JsonValue pooled = TraceFor("--trace_format=chrome --threads=4",
                              "chrome_t4.json");

  std::map<std::string, std::set<double>> serial_lanes =
      ChromeEventLanes(serial);
  std::map<std::string, std::set<double>> pooled_lanes =
      ChromeEventLanes(pooled);
  ASSERT_FALSE(serial_lanes.empty());

  // The (name, detail) -> tid mapping is synthetic (pair-declaration
  // order), so the lane layout is byte-identical at any thread count.
  EXPECT_EQ(serial_lanes, pooled_lanes);

  // Worker pair spans leave the main lane; their subtrees ride along.
  bool saw_worker_lane = false;
  for (const auto& [key, tids] : serial_lanes) {
    for (double tid : tids) {
      if (tid > 0.0) saw_worker_lane = true;
    }
  }
  EXPECT_TRUE(saw_worker_lane);

  // Kernel metrics ride in otherData, minus nothing: the chrome export
  // carries the same registry snapshot as the campion format.
  const JsonValue* other = serial.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_GT(other->object.size(), 0u);
  bool saw_bdd_metric = false;
  for (const auto& [key, value] : other->object) {
    if (key.rfind("bdd.", 0) == 0) saw_bdd_metric = true;
  }
  EXPECT_TRUE(saw_bdd_metric);
}

}  // namespace
}  // namespace campion
