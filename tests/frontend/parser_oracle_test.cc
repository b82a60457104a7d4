// Old-versus-new oracle for the parsers on the shared zero-copy lexer.
//
// tests/frontend/legacy_*_parser.cc keep the parsers as they were before
// the lexer: a copied line per istringstream for IOS, a copied token per
// JunOS word. On every input below, both vendors' new parsers must return
// the same RouterConfig as the old ones (operator==, spans included) and
// the same diagnostics in the same order.
//
// The corpus is every example config, generated routers, ACL pairs (v4 and
// v6) and route-map pairs unparsed for both vendors, and seeded byte-flip,
// truncation, line-splice, CRLF and tab mutations of those texts. Each text
// is parsed as both vendors. Mutations never insert a NUL byte: the old
// JunOS tokenizer loops forever on one (see loader_test for the new
// parser's behavior there).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cisco/cisco_parser.h"
#include "cisco/cisco_unparser.h"
#include "gen/acl_gen.h"
#include "gen/route_map_gen.h"
#include "gen/router_gen.h"
#include "juniper/juniper_parser.h"
#include "juniper/juniper_unparser.h"
#include "tests/frontend/legacy_parsers.h"

#ifndef CAMPION_SOURCE_DIR
#error "CAMPION_SOURCE_DIR must be defined by the build"
#endif

namespace campion {
namespace {

struct Input {
  std::string name;
  std::string text;
};

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void AddUnparsed(const std::string& name, const ir::RouterConfig& config,
                 std::vector<Input>& corpus) {
  corpus.push_back({name + ".cisco", cisco::UnparseCiscoConfig(config)});
  corpus.push_back({name + ".juniper", juniper::UnparseJuniperConfig(config)});
}

std::vector<Input> BaseCorpus() {
  std::vector<Input> corpus;
  std::vector<std::filesystem::path> examples;
  for (const auto& entry : std::filesystem::directory_iterator(
           CAMPION_SOURCE_DIR "/examples/configs")) {
    examples.push_back(entry.path());
  }
  std::sort(examples.begin(), examples.end());
  for (const auto& path : examples) {
    corpus.push_back({path.filename().string(), ReadFile(path)});
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::string suffix = ".";
    suffix += std::to_string(seed);
    gen::RouterGenOptions router;
    router.seed = seed;
    AddUnparsed("router" + suffix, gen::GenerateRouterConfig(router), corpus);
    for (util::AddressFamily family :
         {util::AddressFamily::kIpv4, util::AddressFamily::kIpv6}) {
      gen::AclGenOptions acl;
      acl.rules = 40;
      acl.differences = 4;
      acl.seed = seed;
      acl.family = family;
      const gen::GeneratedAclPair pair = gen::GenerateAclPair(acl);
      const std::string name =
          (family == util::AddressFamily::kIpv4 ? "acl4" : "acl6") + suffix;
      for (ir::Vendor vendor : {ir::Vendor::kCisco, ir::Vendor::kJuniper}) {
        AddUnparsed(name + "a",
                    gen::WrapAclInConfig(pair.acl1, "left", vendor), corpus);
        AddUnparsed(name + "b",
                    gen::WrapAclInConfig(pair.acl2, "right", vendor), corpus);
      }
    }
    gen::RouteMapGenOptions route_map;
    route_map.seed = seed;
    route_map.differences = 3;
    const gen::GeneratedRouteMapPair pair =
        gen::GenerateRouteMapPair(route_map);
    AddUnparsed("route_map" + suffix + "a", pair.config1, corpus);
    AddUnparsed("route_map" + suffix + "b", pair.config2, corpus);
  }
  return corpus;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start + 1));
    start = end + 1;
  }
  return lines;
}

// Seeded mutations of `base`. Inserted bytes are drawn from 1..255 and
// spliced lines from the corpus, so no mutation introduces a NUL.
std::vector<Input> Mutations(const Input& base, const std::vector<Input>& pool,
                             std::mt19937_64& rng) {
  std::vector<Input> out;
  const std::string& text = base.text;
  if (text.empty()) return out;
  auto pick = [&](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  for (int variant = 0; variant < 3; ++variant) {
    std::string tag = "#";
    tag += std::to_string(variant);

    std::string flipped = text;
    for (int flip = 0; flip < 1 + variant * 4; ++flip) {
      flipped[pick(flipped.size())] = static_cast<char>(1 + pick(255));
    }
    out.push_back({base.name + ":flip" + tag, flipped});

    out.push_back(
        {base.name + ":truncate" + tag, text.substr(0, pick(text.size()))});

    // Up to 8 lines of a random corpus text, inserted at a line boundary.
    std::vector<std::string> lines = Lines(text);
    const std::vector<std::string> donor = Lines(pool[pick(pool.size())].text);
    if (!donor.empty()) {
      const std::size_t from = pick(donor.size());
      const std::size_t count =
          1 + pick(std::min<std::size_t>(8, donor.size() - from));
      const auto at = static_cast<std::ptrdiff_t>(pick(lines.size() + 1));
      lines.insert(lines.begin() + at,
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.begin() + static_cast<std::ptrdiff_t>(from + count));
    }
    std::string spliced;
    for (const std::string& line : lines) spliced += line;
    out.push_back({base.name + ":splice" + tag, spliced});

    // CRLF on every line (variant 0) or on a random share of them.
    std::string crlf;
    for (char c : text) {
      if (c == '\n' && (variant == 0 || pick(2) == 0)) crlf += '\r';
      crlf += c;
    }
    out.push_back({base.name + ":crlf" + tag, crlf});

    // Tabs for some spaces, and stray tabs, \v and \f at line starts.
    std::string tabbed;
    for (char c : text) {
      if (c == ' ' && pick(3) == 0) {
        tabbed += '\t';
        continue;
      }
      tabbed += c;
      if (c == '\n' && pick(4) == 0) tabbed += "\t\v\f"[variant];
    }
    out.push_back({base.name + ":tab" + tag, tabbed});
  }
  return out;
}

template <typename Result>
void ExpectSame(const Result& expected, const Result& actual,
                const std::string& what) {
  const ir::RouterConfig& a = expected.config;
  const ir::RouterConfig& b = actual.config;
  EXPECT_EQ(a.hostname, b.hostname) << what;
  EXPECT_TRUE(a.interfaces == b.interfaces) << what << ": interfaces";
  EXPECT_TRUE(a.static_routes == b.static_routes) << what << ": static";
  EXPECT_TRUE(a.prefix_lists == b.prefix_lists) << what << ": prefix-lists";
  EXPECT_TRUE(a.community_lists == b.community_lists)
      << what << ": community-lists";
  EXPECT_TRUE(a.as_path_lists == b.as_path_lists) << what << ": as-paths";
  EXPECT_TRUE(a.route_maps == b.route_maps) << what << ": route-maps";
  EXPECT_TRUE(a.acls == b.acls) << what << ": acls";
  EXPECT_TRUE(a.ospf == b.ospf) << what << ": ospf";
  EXPECT_TRUE(a.bgp == b.bgp) << what << ": bgp";
  EXPECT_TRUE(a == b) << what;
  EXPECT_EQ(expected.diagnostics, actual.diagnostics) << what;
}

void ExpectSameParses(const Input& input) {
  ExpectSame(legacy_cisco::ParseCiscoConfig(input.text, input.name),
             cisco::ParseCiscoConfig(input.text, input.name),
             input.name + " as Cisco");
  ExpectSame(legacy_juniper::ParseJuniperConfig(input.text, input.name),
             juniper::ParseJuniperConfig(input.text, input.name),
             input.name + " as JunOS");
}

TEST(ParserOracleTest, CorpusParsesAsBefore) {
  const std::vector<Input> corpus = BaseCorpus();
  ASSERT_GE(corpus.size(), 8u + 3 * (2 + 16 + 4));
  for (const Input& input : corpus) ExpectSameParses(input);
}

TEST(ParserOracleTest, MutatedCorpusParsesAsBefore) {
  const std::vector<Input> corpus = BaseCorpus();
  std::mt19937_64 rng(20211);
  std::size_t mutated = 0;
  for (const Input& base : corpus) {
    for (const Input& input : Mutations(base, corpus, rng)) {
      ExpectSameParses(input);
      ++mutated;
    }
  }
  EXPECT_GE(mutated, corpus.size() * 15);
}

TEST(ParserOracleTest, EdgeTextsParseAsBefore) {
  // Line-splitting and word-splitting corners, one per input.
  for (const char* text :
       {"", "\n", "\r\n", "\r", "\n\n\n", "a", "a\r", "a\r\r\n", "\r\na\n",
        "hostname x\n", " hostname x", "\thostname x", "\vhostname x",
        "hostname\vx\fy", "hostname \r x\r\n", "!\n interface e0\n",
        "interface e0\n\n shutdown\n", "system {\n\n\n  host-name a;\n}\n",
        "\n\nsystem { host-name a; }", "system { host-name \"a b\n c\"; }",
        "system { host-name \"unterminated\n", "a /* b\n c */ d;",
        "a /* unterminated\n", "system { } }\n x \"open\n", "x#y\n z;",
        "{ } ; [ ] \"{\" \"}\" ;",
        "a/*b*/c;", "interfaces { e0 { unit 0 { family inet { address "
        "10.0.0.1/24; } } } }", "route-map M permit 10\n match metric\n",
        "access-list 10 permit any\naccess-list 101 permit tcp any any eq"}) {
    ExpectSameParses({"edge", text});
  }
}

}  // namespace
}  // namespace campion
