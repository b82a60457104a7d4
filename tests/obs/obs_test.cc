// Unit tests for the observability layer (src/obs): disabled-mode no-op
// behavior, span nesting, concurrent counter updates from the worker pool,
// sink merges by recorded kind, and determinism of the merged trace when
// the same task set runs inline (threads=1) versus fanned out (threads=4).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_report.h"
#include "util/thread_pool.h"

namespace campion::obs {
namespace {

// Every test starts from a clean slate: tracing off, buffers and registry
// empty. Worker threads spawned inside a test carry their own thread-local
// buffers that die with the pool, so only the main thread needs clearing.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    ResetThreadTrace();
    ProcessMetrics().Reset();
  }
  void TearDown() override {
    SetEnabled(false);
    ResetThreadTrace();
    ProcessMetrics().Reset();
  }
};

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  ASSERT_FALSE(Enabled());
  {
    ScopedSpan outer("outer", "detail");
    outer.AddAttr("k", 1.0);
    ScopedSpan inner("inner");
    Count("some.counter", 5.0);
    MaxGauge("some.watermark", 7.0);
  }
  EXPECT_TRUE(TakeThreadSpans().empty());
  EXPECT_TRUE(ProcessMetrics().Snapshot().empty());
}

TEST_F(ObsTest, SpansNestAndCarryAttrs) {
  SetEnabled(true);
  {
    ScopedSpan outer("pipeline", "r1 vs r2");
    {
      ScopedSpan first("parse", "a.cfg");
      first.AddAttr("lines", 12.0);
    }
    { ScopedSpan second("parse", "b.cfg"); }
  }
  std::vector<Span> roots = TakeThreadSpans();
  ASSERT_EQ(roots.size(), 1u);
  const Span& outer = roots[0];
  EXPECT_EQ(outer.name, "pipeline");
  EXPECT_EQ(outer.detail, "r1 vs r2");
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0].detail, "a.cfg");
  EXPECT_EQ(outer.children[1].detail, "b.cfg");
  ASSERT_EQ(outer.children[0].attrs.size(), 1u);
  EXPECT_EQ(outer.children[0].attrs[0].first, "lines");
  EXPECT_EQ(outer.children[0].attrs[0].second, 12.0);
  // Children start inside the parent and the parent lasts at least as
  // long as the span from its start to each child's end.
  for (const Span& child : outer.children) {
    EXPECT_GE(child.start_ns, outer.start_ns);
    EXPECT_LE(child.start_ns + child.duration_ns,
              outer.start_ns + outer.duration_ns);
  }
}

TEST_F(ObsTest, SpanOpenedWhileDisabledStaysInert) {
  // Toggling tracing on mid-span must not corrupt the stack: the span only
  // records if tracing was on when it opened.
  ScopedSpan outer("outer");
  SetEnabled(true);
  { ScopedSpan inner("inner"); }
  SetEnabled(false);
  std::vector<Span> roots = TakeThreadSpans();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "inner");
}

TEST_F(ObsTest, ConcurrentCounterUpdatesFromPool) {
  SetEnabled(true);
  constexpr std::size_t kTasks = 64;
  util::RunParallel(4, kTasks, [](std::size_t i) {
    for (int j = 0; j < 100; ++j) Count("test.adds");
    MaxGauge("test.watermark", static_cast<double>(i));
  });
  auto snapshot = ProcessMetrics().Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "test.adds");
  EXPECT_EQ(snapshot[0].second, kTasks * 100.0);
  EXPECT_EQ(snapshot[1].first, "test.watermark");
  EXPECT_EQ(snapshot[1].second, kTasks - 1.0);
}

// Merge folds by the kind each metric was recorded with, never by its
// name: "mem.rss_bytes" names no peak, yet it is a watermark.
TEST_F(ObsTest, MergeSumsCountersAndKeepsWatermarkMaxima) {
  MetricsSink totals;
  for (double rss : {30.0, 50.0, 40.0}) {
    MetricsSink request;
    request.Add("parse.files", 2.0);
    request.Max("mem.rss_bytes", rss);
    totals.Merge(request);
  }
  const auto metrics = totals.Metrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].first, "mem.rss_bytes");
  EXPECT_EQ(metrics[0].second.kind, MetricKind::kWatermark);
  EXPECT_EQ(metrics[0].second.value, 50.0);
  EXPECT_EQ(metrics[1].first, "parse.files");
  EXPECT_EQ(metrics[1].second.kind, MetricKind::kCounter);
  EXPECT_EQ(metrics[1].second.value, 6.0);
  // Snapshot is the same values without the kinds.
  const auto snapshot = totals.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].second, 50.0);
  EXPECT_EQ(snapshot[1].second, 6.0);
}

// The ConfigDiff merge pattern, in miniature: each task records one span
// with children; captures are re-attached in task-declaration order.
std::vector<Span> RunMergedTasks(unsigned num_threads, std::size_t n) {
  ScopedSpan root("root");
  std::vector<std::vector<Span>> captured(n);
  util::RunParallel(num_threads, n, [&](std::size_t i) {
    TaskCapture capture;
    {
      std::string label = "t";
      label += std::to_string(i);
      ScopedSpan task("task", label);
      ScopedSpan child("work");
    }
    captured[i] = capture.Finish();
  });
  for (std::size_t i = 0; i < n; ++i) AttachSpans(std::move(captured[i]));
  return {};
}

TEST_F(ObsTest, MergedTraceIsDeterministicAcrossThreadCounts) {
  SetEnabled(true);
  RunMergedTasks(1, 8);
  std::string serial = TraceStructure(TakeThreadSpans());
  ResetThreadTrace();
  RunMergedTasks(4, 8);
  std::string pooled = TraceStructure(TakeThreadSpans());
  EXPECT_EQ(serial, pooled);
  // Sanity: the structure lists the root and all eight tasks in order.
  EXPECT_NE(serial.find("root"), std::string::npos);
  EXPECT_LT(serial.find("task [t0]"), serial.find("task [t7]"));
  EXPECT_NE(serial.find("work"), std::string::npos);
}

TEST_F(ObsTest, PhaseTotalsAggregateAcrossDepths) {
  SetEnabled(true);
  {
    ScopedSpan outer("diff");
    { ScopedSpan a("encode"); }
    { ScopedSpan b("encode"); }
  }
  { ScopedSpan lone("encode"); }
  std::vector<PhaseTotal> totals = PhaseTotals(TakeThreadSpans());
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].name, "diff");
  EXPECT_EQ(totals[0].count, 1u);
  EXPECT_EQ(totals[1].name, "encode");
  EXPECT_EQ(totals[1].count, 3u);
  // Self time excludes direct children.
  EXPECT_LE(totals[0].self_ns, totals[0].total_ns);
}

TEST_F(ObsTest, TraceJsonContainsVersionSpansAndMetrics) {
  SetEnabled(true);
  {
    ScopedSpan span("parse", "path \"quoted\".cfg");
    span.AddAttr("lines", 3.0);
  }
  Count("parse.files");
  std::string json = TraceToJson(TakeThreadSpans(),
                                 ProcessMetrics().Snapshot());
  EXPECT_NE(json.find("\"campion_trace_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"parse\""), std::string::npos);
  // Quotes in the detail are escaped.
  EXPECT_NE(json.find("path \\\"quoted\\\".cfg"), std::string::npos);
  EXPECT_NE(json.find("\"parse.files\": 1"), std::string::npos);
  // Integral attrs serialize without a decimal point.
  EXPECT_NE(json.find("\"lines\": 3"), std::string::npos);
  EXPECT_EQ(json.find("\"lines\": 3."), std::string::npos);
}

TEST_F(ObsTest, ChromeJsonMapsWorkerSpansToSyntheticLanes) {
  SetEnabled(true);
  {
    ScopedSpan root("config_diff", "r1 vs r2");
    {
      ScopedSpan pair1("route_map_pair", "A vs A");
      { ScopedSpan child("encode"); }
    }
    { ScopedSpan pair2("acl_pair", "B vs B"); }
  }
  Count("bdd.unique_lookups", 5.0);
  std::string json = TraceToChromeJson(TakeThreadSpans(),
                                       ProcessMetrics().Snapshot());
  // Complete events only, with the metadata naming the synthetic lanes.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"pair-1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"pair-2\""), std::string::npos);
  // Worker spans leave lane 0; their subtrees inherit the lane. The encode
  // child sits under the first pair, so tid 1 appears at least twice.
  EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 2"), std::string::npos);
  // Metrics ride along in otherData.
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"bdd.unique_lookups\": 5"), std::string::npos);
  // No campion version marker: this format is for chrome://tracing.
  EXPECT_EQ(json.find("campion_trace_version"), std::string::npos);
}

TEST_F(ObsTest, ChromeJsonWithNoSpansIsStillWellFormed) {
  SetEnabled(true);
  std::string json =
      TraceToChromeJson({}, ProcessMetrics().Snapshot());
  // The metadata lines must not leave a dangling comma before the close.
  EXPECT_EQ(json.find(",\n  ]"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST_F(ObsTest, StatsSummaryRendersTables) {
  SetEnabled(true);
  { ScopedSpan span("parse"); }
  Count("bdd.cache_lookups", 10.0);
  Count("bdd.cache_hits", 4.0);
  std::string stats = RenderStatsSummary(TakeThreadSpans(),
                                         ProcessMetrics().Snapshot());
  EXPECT_NE(stats.find("Phase"), std::string::npos);
  EXPECT_NE(stats.find("parse"), std::string::npos);
  EXPECT_NE(stats.find("bdd.cache_hit_rate"), std::string::npos);
  EXPECT_NE(stats.find("0.4"), std::string::npos);
}

}  // namespace
}  // namespace campion::obs
