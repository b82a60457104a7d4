// End-to-end tests of the `campion_trace_diff` regression gate: structural
// alignment of real traces across thread counts, the wall-time and memory
// gates on doctored traces, and the hard failure paths for bad inputs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "tests/testdata.h"

#ifndef CAMPION_CLI_PATH
#error "CAMPION_CLI_PATH must be defined by the build"
#endif
#ifndef CAMPION_TRACE_DIFF_PATH
#error "CAMPION_TRACE_DIFF_PATH must be defined by the build"
#endif

namespace campion {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunCommand(const std::string& command) {
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  RunResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

RunResult RunTraceDiff(const std::string& args) {
  return RunCommand(std::string(CAMPION_TRACE_DIFF_PATH) + " " + args);
}

// A minimal two-phase campion trace, parameterized on the route_map_pair
// duration and a memory watermark, for doctoring perf/memory regressions.
std::string SyntheticTrace(std::uint64_t pair_duration_ns,
                           std::uint64_t mem_peak_bytes) {
  return "{\n"
         "  \"campion_trace_version\": 1,\n"
         "  \"spans\": [\n"
         "    {\"name\": \"config_diff\", \"detail\": \"r1 vs r2\",\n"
         "     \"start_ns\": 0, \"duration_ns\": " +
         std::to_string(pair_duration_ns + 1000) +
         ",\n"
         "     \"children\": [\n"
         "       {\"name\": \"route_map_pair\", \"detail\": \"POL vs POL\",\n"
         "        \"start_ns\": 500, \"duration_ns\": " +
         std::to_string(pair_duration_ns) +
         ", \"children\": []}\n"
         "     ]}\n"
         "  ],\n"
         "  \"metrics\": {\n"
         "    \"bdd.mem_peak_bytes\": " +
         std::to_string(mem_peak_bytes) +
         ",\n"
         "    \"diff.route_map_pairs\": 1\n"
         "  }\n"
         "}\n";
}

class TraceDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = std::filesystem::temp_directory_path() /
           ("campion-trace-diff-" + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
    Write("cisco.cfg", testing::kFig1Cisco);
    Write("juniper.conf", testing::kFig1Juniper);
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static void Write(const std::string& name, const std::string& content) {
    std::ofstream file(dir_ / name);
    file << content;
  }

  static std::string Path(const std::string& name) {
    return (dir_ / name).string();
  }

  // Runs the campion CLI over the Fig.1 pair, writing a trace.
  static void MakeTrace(const std::string& extra_flags,
                        const std::string& trace_name) {
    RunResult result = RunCommand(
        std::string(CAMPION_CLI_PATH) + " " + extra_flags +
        " --quiet --trace_out=" + Path(trace_name) + " " + Path("cisco.cfg") +
        " " + Path("juniper.conf"));
    ASSERT_EQ(result.exit_code, 2) << result.output;  // Fig.1 differs.
  }

  static std::filesystem::path dir_;
};

std::filesystem::path TraceDiffTest::dir_;

TEST_F(TraceDiffTest, SameRunAtDifferentThreadCountsAlignsFully) {
  MakeTrace("--threads=1", "t1.json");
  MakeTrace("--threads=4", "t4.json");
  RunResult result = RunTraceDiff("--fail_if_unmatched " + Path("t1.json") +
                                  " " + Path("t4.json"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("(100.0%), 0 baseline-only, 0 current-only"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("route_map_pair"), std::string::npos);
  EXPECT_NE(result.output.find("(total wall)"), std::string::npos);
}

TEST_F(TraceDiffTest, DoctoredSlowTraceTripsSlowerGate) {
  Write("base.json", SyntheticTrace(1'000'000, 1 << 20));
  Write("slow.json", SyntheticTrace(3'000'000, 1 << 20));
  // Report-only mode points out the delta but exits 0.
  RunResult report =
      RunTraceDiff(Path("base.json") + " " + Path("slow.json"));
  EXPECT_EQ(report.exit_code, 0) << report.output;
  // The gate trips: 3x is way past +50%.
  RunResult gated = RunTraceDiff("--fail_if_slower_pct=50 " +
                                 Path("base.json") + " " + Path("slow.json"));
  EXPECT_EQ(gated.exit_code, 2) << gated.output;
  EXPECT_NE(gated.output.find("regression: total wall time grew"),
            std::string::npos)
      << gated.output;
  // The same pair within a generous threshold passes.
  RunResult generous =
      RunTraceDiff("--fail_if_slower_pct=500 " + Path("base.json") + " " +
                   Path("slow.json"));
  EXPECT_EQ(generous.exit_code, 0) << generous.output;
}

// A truncated or doctored baseline with zero wall time must not sail
// through the slower gate: growth from zero is infinite, so any finite
// threshold trips, with a message naming the broken baseline.
TEST_F(TraceDiffTest, ZeroWallBaselineTripsSlowerGateInsteadOfPassing) {
  Write("zero_wall.json",
        "{\"campion_trace_version\": 1, \"spans\": ["
        "{\"name\": \"config_diff\", \"detail\": \"r1 vs r2\","
        " \"start_ns\": 0, \"duration_ns\": 0, \"children\": []}],"
        " \"metrics\": {}}");
  Write("nonzero.json", SyntheticTrace(1'000'000, 1 << 20));
  // Report-only mode shows the infinite delta but still exits 0.
  RunResult report =
      RunTraceDiff(Path("zero_wall.json") + " " + Path("nonzero.json"));
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("+inf%"), std::string::npos) << report.output;
  // Even a huge threshold trips: infinite growth exceeds every limit.
  RunResult gated = RunTraceDiff("--fail_if_slower_pct=10000 " +
                                 Path("zero_wall.json") + " " +
                                 Path("nonzero.json"));
  EXPECT_EQ(gated.exit_code, 2) << gated.output;
  EXPECT_NE(gated.output.find("regression: total wall time grew"),
            std::string::npos)
      << gated.output;
  EXPECT_NE(gated.output.find("zero-wall baseline"), std::string::npos)
      << gated.output;
  // Zero against zero is 0% growth, not a regression.
  RunResult same = RunTraceDiff("--fail_if_slower_pct=50 " +
                                Path("zero_wall.json") + " " +
                                Path("zero_wall.json"));
  EXPECT_EQ(same.exit_code, 0) << same.output;
}

// Same guard for the memory gate: a memory metric appearing from a zero
// baseline is infinite growth, not 0%.
TEST_F(TraceDiffTest, MemoryMetricFromZeroBaselineTripsMemoryGate) {
  Write("mem_zero.json", SyntheticTrace(1'000'000, 0));
  Write("mem_nonzero.json", SyntheticTrace(1'000'000, 1 << 20));
  RunResult gated = RunTraceDiff(
      "--fail_if_mem_growth_pct=10000 " + Path("mem_zero.json") + " " +
      Path("mem_nonzero.json"));
  EXPECT_EQ(gated.exit_code, 2) << gated.output;
  EXPECT_NE(
      gated.output.find("regression: bdd.mem_peak_bytes grew from a zero "
                        "baseline"),
      std::string::npos)
      << gated.output;
  // Zero to zero passes.
  RunResult same = RunTraceDiff("--fail_if_mem_growth_pct=20 " +
                                Path("mem_zero.json") + " " +
                                Path("mem_zero.json"));
  EXPECT_EQ(same.exit_code, 0) << same.output;
}

TEST_F(TraceDiffTest, MemoryGrowthTripsMemoryGate) {
  Write("mem_base.json", SyntheticTrace(1'000'000, 10 << 20));
  Write("mem_grown.json", SyntheticTrace(1'000'000, 25 << 20));
  RunResult gated =
      RunTraceDiff("--fail_if_mem_growth_pct=20 " + Path("mem_base.json") +
                   " " + Path("mem_grown.json"));
  EXPECT_EQ(gated.exit_code, 2) << gated.output;
  EXPECT_NE(gated.output.find("regression: bdd.mem_peak_bytes grew"),
            std::string::npos)
      << gated.output;
  // Shrinking memory never trips.
  RunResult shrunk =
      RunTraceDiff("--fail_if_mem_growth_pct=20 " + Path("mem_grown.json") +
                   " " + Path("mem_base.json"));
  EXPECT_EQ(shrunk.exit_code, 0) << shrunk.output;
}

TEST_F(TraceDiffTest, StructuralDivergenceCountsAndOptionallyGates) {
  Write("one_pair.json", SyntheticTrace(1'000'000, 1 << 20));
  Write("two_pairs.json",
        "{\"campion_trace_version\": 1, \"spans\": ["
        "{\"name\": \"config_diff\", \"detail\": \"r1 vs r2\","
        " \"start_ns\": 0, \"duration_ns\": 2000, \"children\": ["
        "{\"name\": \"route_map_pair\", \"detail\": \"POL vs POL\","
        " \"start_ns\": 1, \"duration_ns\": 10, \"children\": []},"
        "{\"name\": \"route_map_pair\", \"detail\": \"EXTRA vs EXTRA\","
        " \"start_ns\": 20, \"duration_ns\": 10, \"children\": []}"
        "]}], \"metrics\": {}}");
  RunResult report = RunTraceDiff(Path("one_pair.json") + " " +
                                  Path("two_pairs.json"));
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("1 current-only"), std::string::npos)
      << report.output;
  RunResult gated = RunTraceDiff("--fail_if_unmatched " +
                                 Path("one_pair.json") + " " +
                                 Path("two_pairs.json"));
  EXPECT_EQ(gated.exit_code, 2) << gated.output;
  EXPECT_NE(gated.output.find("regression: unaligned spans"),
            std::string::npos)
      << gated.output;
}

TEST_F(TraceDiffTest, MissingInputFailsWithClearError) {
  Write("ok.json", SyntheticTrace(1'000'000, 1 << 20));
  RunResult result =
      RunTraceDiff(Path("does-not-exist.json") + " " + Path("ok.json"));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: cannot read trace file"),
            std::string::npos)
      << result.output;
}

TEST_F(TraceDiffTest, InvalidJsonFailsWithClearError) {
  Write("ok2.json", SyntheticTrace(1'000'000, 1 << 20));
  Write("broken.json", "{\"campion_trace_version\": 1, \"spans\": [");
  RunResult result =
      RunTraceDiff(Path("ok2.json") + " " + Path("broken.json"));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("invalid JSON"), std::string::npos)
      << result.output;
}

TEST_F(TraceDiffTest, ChromeFormatInputIsRejected) {
  MakeTrace("--trace_format=chrome", "chrome.json");
  RunResult result =
      RunTraceDiff(Path("chrome.json") + " " + Path("chrome.json"));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("not a campion-format trace"),
            std::string::npos)
      << result.output;
}

TEST_F(TraceDiffTest, UsageAndHelp) {
  EXPECT_EQ(RunTraceDiff("").exit_code, 1);
  EXPECT_EQ(RunTraceDiff("only-one.json").exit_code, 1);
  EXPECT_EQ(RunTraceDiff("--no-such-flag a b").exit_code, 1);
  EXPECT_EQ(RunTraceDiff("--fail_if_slower_pct=abc a b").exit_code, 1);
  RunResult help = RunTraceDiff("--help");
  EXPECT_EQ(help.exit_code, 0);
  for (const char* flag : {"--fail_if_slower_pct", "--fail_if_mem_growth_pct",
                           "--fail_if_unmatched", "--quiet", "--help"}) {
    EXPECT_NE(help.output.find(flag), std::string::npos)
        << "usage text missing " << flag;
  }
}

}  // namespace
}  // namespace campion
