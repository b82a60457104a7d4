// Golden reports: the `campion` CLI's text and JSON output on the committed
// example pairs (examples/configs) must equal the files in tests/golden/
// byte for byte, at --threads 1 and 4. The other parity tests compare
// execution modes against each other,
// so a change that shifts every mode the same way passes them; this test
// is the absolute anchor.
//
// Reports carry config paths as given on the command line (e.g.
// "fig1_cisco.cfg:19"), so the CLI runs from examples/configs with bare
// file names. After an intended report change, regenerate from there,
// e.g. for fig1 (and likewise with --format=json into fig1.json):
//   campion fig1_cisco.cfg fig1_juniper.cfg > ../../tests/golden/fig1.txt

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#ifndef CAMPION_CLI_PATH
#error "CAMPION_CLI_PATH must be defined by the build"
#endif
#ifndef CAMPION_SOURCE_DIR
#error "CAMPION_SOURCE_DIR must be defined by the build"
#endif

namespace campion {
namespace {

struct GoldenPair {
  const char* name;  // Stem of the golden files.
  const char* config1;
  const char* config2;
};

// Also what ctest shows as the test-name suffix (".../fig1").
void PrintTo(const GoldenPair& pair, std::ostream* out) { *out << pair.name; }

struct RunResult {
  int exit_code = -1;
  std::string output;
};

// Runs the CLI from examples/configs and captures stdout only.
RunResult RunCli(const std::string& args) {
  const std::string command = "cd '" CAMPION_SOURCE_DIR
                              "/examples/configs' && '" CAMPION_CLI_PATH "' " +
                              args + " 2>/dev/null";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string ReadGolden(const std::string& file) {
  std::ifstream in(std::string(CAMPION_SOURCE_DIR) + "/tests/golden/" + file,
                   std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class GoldenReportTest : public ::testing::TestWithParam<GoldenPair> {
 protected:
  // Every execution mode must reproduce the golden file exactly.
  void ExpectMatchesGolden(const std::string& format_flag,
                           const std::string& golden_file) {
    const GoldenPair& pair = GetParam();
    const std::string golden = ReadGolden(golden_file);
    ASSERT_FALSE(golden.empty()) << "missing tests/golden/" << golden_file;
    for (const char* threads : {"1", "4"}) {
      const RunResult run = RunCli(format_flag + " --threads=" + threads +
                                   " " + pair.config1 + " " + pair.config2);
      EXPECT_EQ(run.exit_code, 2) << "differences expected";
      EXPECT_EQ(run.output, golden)
          << golden_file << " at --threads=" << threads;
    }
  }
};

TEST_P(GoldenReportTest, TextReportMatchesGolden) {
  ExpectMatchesGolden("--format=text", std::string(GetParam().name) + ".txt");
}

TEST_P(GoldenReportTest, JsonReportMatchesGolden) {
  ExpectMatchesGolden("--format=json", std::string(GetParam().name) + ".json");
}

INSTANTIATE_TEST_SUITE_P(
    Examples, GoldenReportTest,
    ::testing::Values(
        GoldenPair{"university_core", "university_core_cisco.cfg",
                   "university_core_juniper.conf"},
        GoldenPair{"university_border", "university_border_cisco.cfg",
                   "university_border_juniper.conf"},
        GoldenPair{"fig1", "fig1_cisco.cfg", "fig1_juniper.cfg"},
        GoldenPair{"dualstack_edge", "dualstack_edge_cisco.cfg",
                   "dualstack_edge_juniper.conf"}));

}  // namespace
}  // namespace campion
