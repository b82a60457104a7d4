// End-to-end tests of the `campion` CLI binary: exit codes, text and JSON
// output, single-component modes, and batch mode. The binary path and a
// scratch directory come from compile definitions set in CMake.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cisco/cisco_unparser.h"
#include "juniper/juniper_unparser.h"
#include "tests/testdata.h"

#ifndef CAMPION_CLI_PATH
#error "CAMPION_CLI_PATH must be defined by the build"
#endif

namespace campion {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunCliRedirected(const std::string& args,
                           const std::string& redirect) {
  std::string command =
      std::string(CAMPION_CLI_PATH) + " " + args + " " + redirect;
  FILE* pipe = popen(command.c_str(), "r");
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

// Captures stdout and stderr interleaved (the historical default).
RunResult RunCli(const std::string& args) {
  return RunCliRedirected(args, "2>&1");
}

// Captures stdout only — for checks that the report stream stays
// byte-identical while --stats writes its tables to stderr.
RunResult RunCliStdout(const std::string& args) {
  return RunCliRedirected(args, "2>/dev/null");
}

// Captures stderr only.
RunResult RunCliStderr(const std::string& args) {
  return RunCliRedirected(args, "2>&1 1>/dev/null");
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One directory per process: ctest runs each test case as its own
    // process, possibly in parallel, and a shared path would let one
    // process truncate a config file while another reads it.
    dir_ = std::filesystem::temp_directory_path() /
           ("campion-cli-test-" + std::to_string(getpid()));
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

  static std::filesystem::path dir_;
};

std::filesystem::path CliTest::dir_;

TEST_F(CliTest, EquivalentConfigsExitZero) {
  RunResult result = RunCli(Path("cisco.cfg") + " " + Path("cisco.cfg"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("behaviorally equivalent"),
            std::string::npos);
}

TEST_F(CliTest, DifferentConfigsExitTwoAndLocalize) {
  RunResult result = RunCli(Path("cisco.cfg") + " " + Path("juniper.conf"));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("Included Prefixes"), std::string::npos);
  EXPECT_NE(result.output.find("route-map POL deny 10"), std::string::npos);
  EXPECT_NE(result.output.find("Summary:"), std::string::npos);
}

TEST_F(CliTest, QuietSuppressesOutput) {
  RunResult result =
      RunCli("--quiet " + Path("cisco.cfg") + " " + Path("juniper.conf"));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST_F(CliTest, JsonOutputParsesKeyFields) {
  RunResult result = RunCli("--format=json " + Path("cisco.cfg") + " " +
                         Path("juniper.conf"));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("\"equivalent\": false"), std::string::npos);
  EXPECT_NE(result.output.find("\"kind\": \"route-map\""),
            std::string::npos);
}

TEST_F(CliTest, SingleRouteMapMode) {
  RunResult result = RunCli("--route-map=POL " + Path("cisco.cfg") + " " +
                         Path("juniper.conf"));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("2 difference(s)"), std::string::npos);
}

TEST_F(CliTest, ChecksFilter) {
  // Restricting to admin distances only: the Fig.1 pair is clean there.
  RunResult result = RunCli("--checks=admin " + Path("cisco.cfg") + " " +
                         Path("juniper.conf"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

// The address block JunOS itself prints, `source-address { 10.0.0.0/8; }`,
// reads as its entries, so this filter is the Cisco ACL's equivalent.
TEST_F(CliTest, JunosAddressBlockMatchesTheCiscoAcl) {
  Write("acl.cfg",
        "hostname r1\n"
        "ip access-list extended F\n"
        " deny ip 10.0.0.0 0.255.255.255 any\n"
        " permit ip any any\n");
  Write("acl.conf",
        "system {\n"
        "    host-name r2;\n"
        "}\n"
        "firewall {\n"
        "    family inet {\n"
        "        filter F {\n"
        "            term t {\n"
        "                from {\n"
        "                    source-address {\n"
        "                        10.0.0.0/8;\n"
        "                    }\n"
        "                }\n"
        "                then discard;\n"
        "            }\n"
        "            term rest {\n"
        "                then accept;\n"
        "            }\n"
        "        }\n"
        "    }\n"
        "}\n");
  RunResult result = RunCli(Path("acl.cfg") + " " + Path("acl.conf"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("behaviorally equivalent"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("warning"), std::string::npos)
      << result.output;
}

// A quoted "}" in a description is a word: the two interfaces differ only
// in their descriptions, which Campion does not compare.
TEST_F(CliTest, QuotedBraceInDescriptionIsNoDifference) {
  auto interfaces = [](const char* description) {
    std::string text = "interfaces { ge-0/0/1 { description \"";
    text += description;
    text += "\"; unit 0 { family inet { address 10.0.1.1/24; } } } }\n";
    return text;
  };
  Write("brace.conf", interfaces("}"));
  Write("plain.conf", interfaces("x"));
  RunResult result = RunCli(Path("brace.conf") + " " + Path("plain.conf"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("behaviorally equivalent"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("warning"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, UsageOnBadInvocation) {
  EXPECT_EQ(RunCli("").exit_code, 1);
  EXPECT_EQ(RunCli("onlyone.cfg").exit_code, 1);
  EXPECT_EQ(RunCli("--format=yaml a b").exit_code, 1);
  EXPECT_EQ(RunCli("--no-such-flag a b").exit_code, 1);
  // Real files, so only the flag can be at fault. A checks list naming no
  // check would report the differing fig1 pair as equivalent (exit 0), and
  // a misspelled vendor must not fall back to auto-detection (exit 2).
  const std::string pair = " " + Path("cisco.cfg") + " " + Path("juniper.conf");
  for (const char* flag : {"--checks=", "--checks=,", "--vendor1=cisoc"}) {
    RunResult result = RunCli(flag + pair);
    EXPECT_EQ(result.exit_code, 1) << flag << ": " << result.output;
    EXPECT_NE(result.output.find("error: "), std::string::npos) << flag;
  }
}

TEST_F(CliTest, MissingFileFails) {
  RunResult result =
      RunCli(Path("does-not-exist.cfg") + " " + Path("cisco.cfg"));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST_F(CliTest, BatchMode) {
  std::filesystem::create_directories(dir_ / "left");
  std::filesystem::create_directories(dir_ / "right");
  Write("left/pair1.cfg", testing::kFig1Cisco);
  Write("right/pair1.conf", testing::kFig1Juniper);
  Write("left/pair2.cfg", testing::kFig1Cisco);
  Write("right/pair2.cfg", testing::kFig1Cisco);
  RunResult result = RunCli("--batch " + Path("left") + " " + Path("right"));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("pair2: equivalent"), std::string::npos);
  EXPECT_NE(result.output.find("2 pair(s) compared, 1 with differences"),
            std::string::npos);
}

TEST_F(CliTest, HelpExitsZeroAndDocumentsFlags) {
  RunResult result = RunCliStdout("--help");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* flag :
       {"--format=", "--quiet", "--checks=", "--route-map=", "--acl=",
        "--threads=", "--batch", "--trace_out=", "--trace_format=", "--stats",
        "--help"}) {
    EXPECT_NE(result.output.find(flag), std::string::npos)
        << "usage text missing " << flag;
  }
  EXPECT_NE(result.output.find("exit status"), std::string::npos);
}

TEST_F(CliTest, TraceOutWritesVersionedJson) {
  std::string trace = Path("trace.json");
  RunResult result = RunCli("--trace_out=" + trace + " " + Path("cisco.cfg") +
                            " " + Path("juniper.conf"));
  EXPECT_EQ(result.exit_code, 2);
  std::ifstream file(trace);
  ASSERT_TRUE(file.good()) << "trace file not written";
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_NE(buffer.str().find("\"campion_trace_version\": 1"),
            std::string::npos);
  EXPECT_NE(buffer.str().find("\"route_map_pair\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"bdd.cache_hits\""), std::string::npos);
}

TEST_F(CliTest, ChromeTraceFormatWritesTraceEvents) {
  std::string trace = Path("chrome_trace.json");
  RunResult result = RunCli("--trace_format=chrome --trace_out=" + trace +
                            " " + Path("cisco.cfg") + " " +
                            Path("juniper.conf"));
  EXPECT_EQ(result.exit_code, 2);
  std::ifstream file(trace);
  ASSERT_TRUE(file.good()) << "chrome trace file not written";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  // The chrome format is for viewers: it carries no schema version.
  EXPECT_EQ(text.find("campion_trace_version"), std::string::npos);
}

TEST_F(CliTest, UnknownTraceFormatFails) {
  RunResult result = RunCli("--trace_format=bogus " + Path("cisco.cfg") +
                            " " + Path("juniper.conf"));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("--trace_format"), std::string::npos);
}

TEST_F(CliTest, TraceOutUnwritablePathFails) {
  RunResult result =
      RunCli("--trace_out=/nonexistent-dir/trace.json " + Path("cisco.cfg") +
             " " + Path("juniper.conf"));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST_F(CliTest, StatsGoToStderrOnly) {
  std::string pair = Path("cisco.cfg") + " " + Path("juniper.conf");
  RunResult err = RunCliStderr("--stats " + pair);
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("Phase timings"), std::string::npos);
  EXPECT_NE(err.output.find("bdd.cache_lookups"), std::string::npos);

  // The report on stdout is byte-identical with and without tracing, and
  // at any thread count — the acceptance bar for the observability layer.
  std::string plain = RunCliStdout(pair).output;
  EXPECT_EQ(RunCliStdout("--stats " + pair).output, plain);
  EXPECT_EQ(RunCliStdout("--trace_out=" + Path("t2.json") + " --stats " + pair)
                .output,
            plain);
  EXPECT_EQ(RunCliStdout("--threads=1 " + pair).output, plain);
  EXPECT_EQ(RunCliStdout("--threads=4 " + pair).output, plain);
  // Memory tracing and the chrome exporter ride the same observability
  // layer, so they must not perturb the report stream either.
  EXPECT_EQ(RunCliStdout("--trace_format=chrome --trace_out=" +
                         Path("t3.json") + " --threads=1 " + pair)
                .output,
            plain);
  EXPECT_EQ(RunCliStdout("--trace_format=chrome --trace_out=" +
                         Path("t4.json") + " --threads=4 --stats " + pair)
                .output,
            plain);
}

}  // namespace
}  // namespace campion
