#include "frontend/loader.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/testdata.h"

#ifndef CAMPION_SOURCE_DIR
#error "CAMPION_SOURCE_DIR must be defined by the build"
#endif

namespace campion::frontend {
namespace {

// DetectVendor as it was before the single-pass scan: one whole-text find
// per marker. The new scan must give the same verdict on every text.
ir::Vendor FindPerMarkerDetectVendor(const std::string& text) {
  auto contains = [&](const std::string& token) {
    return text.find(token) != std::string::npos;
  };
  int juniper_score = 0;
  for (const char* marker :
       {"policy-options", "routing-options", "host-name", "policy-statement",
        "family inet", "prefix-length-range"}) {
    if (contains(marker)) ++juniper_score;
  }
  if (contains("{") && contains(";")) ++juniper_score;
  int cisco_score = 0;
  for (const char* marker :
       {"hostname ", "ip route ", "router bgp", "router ospf",
        "route-map ", "ip prefix-list", "access-list", "ip community-list"}) {
    if (contains(marker)) ++cisco_score;
  }
  if (juniper_score == 0 && cisco_score == 0) return ir::Vendor::kUnknown;
  return juniper_score > cisco_score ? ir::Vendor::kJuniper
                                     : ir::Vendor::kCisco;
}

TEST(DetectVendorTest, DetectsCisco) {
  EXPECT_EQ(DetectVendor(testing::kFig1Cisco), ir::Vendor::kCisco);
  EXPECT_EQ(DetectVendor("hostname foo\nip route 0.0.0.0 0.0.0.0 Null0\n"),
            ir::Vendor::kCisco);
}

TEST(DetectVendorTest, DetectsJuniper) {
  EXPECT_EQ(DetectVendor(testing::kFig1Juniper), ir::Vendor::kJuniper);
  EXPECT_EQ(DetectVendor("system {\n    host-name foo;\n}\n"),
            ir::Vendor::kJuniper);
}

TEST(DetectVendorTest, UnknownForEmptyOrGarbage) {
  EXPECT_EQ(DetectVendor(""), ir::Vendor::kUnknown);
  EXPECT_EQ(DetectVendor("once upon a time"), ir::Vendor::kUnknown);
}

TEST(DetectVendorTest, SinglePassMatchesFindPerMarkerOnEveryMarkerSubset) {
  const char* markers[] = {
      "policy-options", "routing-options", "host-name", "policy-statement",
      "family inet", "prefix-length-range", "{", ";",
      "hostname ", "ip route ", "router bgp", "router ospf",
      "route-map ", "ip prefix-list", "access-list", "ip community-list"};
  static_assert(std::size(markers) == 16);
  for (std::uint32_t subset = 0; subset < (1u << 16); ++subset) {
    // Separated, and run together so that markers overlap or form new ones
    // across their boundaries ("router bgp" + "policy-options" ...).
    std::string separated = "x";
    std::string joined;
    for (int marker = 0; marker < 16; ++marker) {
      if ((subset >> marker & 1) == 0) continue;
      separated += markers[marker];
      separated += "\n";
      joined += markers[marker];
    }
    ASSERT_EQ(DetectVendor(separated), FindPerMarkerDetectVendor(separated))
        << subset;
    ASSERT_EQ(DetectVendor(joined), FindPerMarkerDetectVendor(joined))
        << subset;
    // A marker cut short by the end of the text does not count.
    if (!joined.empty()) {
      joined.pop_back();
      ASSERT_EQ(DetectVendor(joined), FindPerMarkerDetectVendor(joined))
          << subset;
    }
  }
}

// The stride scan samples only some windows of the text, so a marker must
// be found wherever it starts: each marker at every start offset in filler
// (beyond any stride plus the marker's length), then ending the text, then
// cut one byte short by its end. A one-byte pair marker comes with its
// partner, so that finding it decides the verdict.
TEST(DetectVendorTest, StrideFindsEveryMarkerAtEveryOffset) {
  const std::string markers[] = {
      "policy-options", "routing-options", "host-name", "policy-statement",
      "family inet", "prefix-length-range", "{", ";",
      "hostname ", "ip route ", "router bgp", "router ospf",
      "route-map ", "ip prefix-list", "access-list", "ip community-list"};
  for (const std::string& marker : markers) {
    const std::string partner =
        marker == "{" ? ";" : marker == ";" ? "{" : "";
    for (std::size_t offset = 0; offset <= 16 + marker.size(); ++offset) {
      const std::string head = partner + std::string(offset, 'x');
      for (const std::string& text :
           {head + marker + std::string(17, 'x'), head + marker,
            head + marker.substr(0, marker.size() - 1)}) {
        ASSERT_EQ(DetectVendor(text), FindPerMarkerDetectVendor(text))
            << '"' << text << '"';
      }
    }
  }
}

TEST(DetectVendorTest, SinglePassMatchesFindPerMarkerOnExampleConfigs) {
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           CAMPION_SOURCE_DIR "/examples/configs")) {
    std::ifstream file(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string text = buffer.str();
    EXPECT_EQ(DetectVendor(text), FindPerMarkerDetectVendor(text))
        << entry.path();
    EXPECT_NE(DetectVendor(text), ir::Vendor::kUnknown) << entry.path();
    ++files;
  }
  EXPECT_GE(files, 8);
}

TEST(LoadConfigTest, AutoDetectParsesBoth) {
  LoadResult cisco = LoadConfig(testing::kFig1Cisco, "c.cfg");
  EXPECT_EQ(cisco.config.vendor, ir::Vendor::kCisco);
  EXPECT_EQ(cisco.config.hostname, "cisco_router");
  LoadResult juniper = LoadConfig(testing::kFig1Juniper, "j.conf");
  EXPECT_EQ(juniper.config.vendor, ir::Vendor::kJuniper);
  EXPECT_EQ(juniper.config.hostname, "juniper_router");
}

TEST(LoadConfigTest, ExplicitVendorOverridesDetection) {
  // Force Cisco parsing on Juniper text: parses with diagnostics rather
  // than throwing.
  LoadResult result =
      LoadConfig(testing::kFig1Juniper, "j.conf", ir::Vendor::kCisco);
  EXPECT_EQ(result.config.vendor, ir::Vendor::kCisco);
  EXPECT_FALSE(result.diagnostics.empty());
}

// The JunOS tokenizer used to stop a word at NUL (strchr matches the
// terminator) without consuming it, appending empty tokens until memory ran
// out. NUL is now an ordinary word byte in both vendors, as it always was
// for the IOS word splitter.
TEST(LoadConfigTest, NulByteIsAWordByte) {
  const std::string nul_name("a\0b", 3);
  LoadResult juniper =
      LoadConfig("system { host-name " + nul_name + "; }\n", "nul.conf");
  EXPECT_EQ(juniper.config.vendor, ir::Vendor::kJuniper);
  EXPECT_EQ(juniper.config.hostname, nul_name);
  EXPECT_TRUE(juniper.diagnostics.empty());
  LoadResult bare = LoadConfig(std::string("{ ;\0", 4), "nul.conf");
  EXPECT_EQ(bare.config.vendor, ir::Vendor::kJuniper);
  EXPECT_EQ(bare.diagnostics.size(), 0u);
  LoadResult cisco = LoadConfig("hostname " + nul_name + "\n", "nul.cfg");
  EXPECT_EQ(cisco.config.vendor, ir::Vendor::kCisco);
  EXPECT_EQ(cisco.config.hostname, nul_name);
}

// The JunOS tree builder keeps its own stack of open blocks: nesting as
// deep as the text allows returns instead of overflowing the thread's
// stack. Blocks left open at the end of the text end with it.
TEST(LoadConfigTest, DeepNestingReturns) {
  const std::string system = "system { host-name deep; }\n";
  LoadResult braces =
      LoadConfig(system + std::string(1'000'000, '{'), "braces.conf");
  EXPECT_EQ(braces.config.hostname, "deep");
  EXPECT_TRUE(braces.diagnostics.empty());

  constexpr int kDepth = 100'000;
  std::string nested = system;
  for (int i = 0; i < kDepth; ++i) nested += "a {\n";
  nested += "b;\n";
  for (int i = 0; i < kDepth; ++i) nested += "}\n";
  LoadResult blocks = LoadConfig(nested, "nested.conf");
  EXPECT_EQ(blocks.config.hostname, "deep");
  EXPECT_TRUE(blocks.diagnostics.empty());
}

TEST(LoadConfigTest, ThrowsWhenUndetectable) {
  EXPECT_THROW(LoadConfig("gibberish", "x"), std::runtime_error);
}

TEST(LoadConfigFileTest, ThrowsOnMissingFile) {
  EXPECT_THROW(LoadConfigFile("/no/such/file.cfg"), std::runtime_error);
}

TEST(LoadConfigFileTest, LoadsExampleConfigs) {
  LoadResult result =
      LoadConfigFile(CAMPION_SOURCE_DIR "/examples/configs/fig1_cisco.cfg");
  EXPECT_EQ(result.config.hostname, "cisco_router");
}

// Both sides parse at once, yet read as if they ran in series: results and
// `parse` spans in argument order, metrics in the caller's sink.
TEST(LoadBothTest, ResultsSpansAndMetricsInArgumentOrder) {
  for (unsigned threads : {1u, 4u}) {
    obs::MetricsSink sink;
    obs::ResetThreadTrace();
    std::pair<LoadResult, LoadResult> loaded;
    {
      obs::MetricsScope scope(sink);
      obs::SetEnabled(true);
      loaded = LoadBoth(
          threads, [] { return LoadConfig(testing::kFig1Cisco, "c.cfg"); },
          [] { return LoadConfig(testing::kFig1Juniper, "j.conf"); });
      obs::SetEnabled(false);
    }
    EXPECT_EQ(loaded.first.config.hostname, "cisco_router");
    EXPECT_EQ(loaded.second.config.hostname, "juniper_router");
    std::vector<obs::Span> spans = obs::TakeThreadSpans();
    ASSERT_EQ(spans.size(), 2u) << threads;
    EXPECT_EQ(spans[0].name, "parse");
    EXPECT_EQ(spans[0].detail, "c.cfg");
    EXPECT_EQ(spans[1].detail, "j.conf");
    double files = 0;
    for (const auto& [name, value] : sink.Snapshot()) {
      if (name == "parse.files") files = value;
    }
    EXPECT_EQ(files, 2.0) << threads;
  }
}

// When both sides fail, the error reported is config1's, however the two
// parses were scheduled.
TEST(LoadBothTest, FirstLoadsErrorWinsWhenBothFail) {
  for (int run = 0; run < 20; ++run) {
    try {
      LoadBoth(
          4, [] { return LoadConfig("gibberish", "config1"); },
          [] { return LoadConfig("gibberish", "config2"); });
      ADD_FAILURE() << "no error";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()),
                "config1: cannot detect configuration format");
    }
  }
  EXPECT_THROW(LoadBoth(
                   4, [] { return LoadConfig(testing::kFig1Cisco, "c.cfg"); },
                   [] { return LoadConfig("gibberish", "config2"); }),
               std::runtime_error);
}

}  // namespace
}  // namespace campion::frontend
