#include "encode/encoding_template.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bdd/bdd.h"
#include "core/config_diff.h"
#include "encode/packet.h"
#include "encode/policy_encoder.h"
#include "encode/route_adv.h"
#include "gen/acl_gen.h"
#include "gen/route_map_gen.h"
#include "ir/config.h"
#include "obs/trace.h"
#include "util/ip.h"

namespace campion::encode {
namespace {

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

// SeedFrom is the load-bearing primitive: template refs are only reusable
// in a pair manager because the seeded arena keeps every node at its
// original index with its original parity.
TEST(SeedFromTest, SeededRefsDenoteSameFunctions) {
  bdd::BddManager a(8);
  bdd::BddRef f = a.And(a.VarTrue(0), a.VarTrue(3));
  bdd::BddRef g = a.Or(f, a.VarFalse(5));
  bdd::BddRef h = a.Xor(g, a.VarTrue(7));

  bdd::BddManager b;
  b.SeedFrom(a);
  EXPECT_TRUE(b.CheckInvariants());
  EXPECT_EQ(b.num_vars(), a.num_vars());
  EXPECT_EQ(b.ArenaSize(), a.ArenaSize());

  // Re-deriving the same functions re-interns to the identical refs.
  EXPECT_EQ(b.And(b.VarTrue(0), b.VarTrue(3)), f);
  EXPECT_EQ(b.Or(f, b.VarFalse(5)), g);
  EXPECT_EQ(b.Xor(g, b.VarTrue(7)), h);

  // New work on top of the snapshot keeps the structure sound and leaves
  // the donor untouched.
  bdd::BddRef extra = b.And(h, b.VarTrue(1));
  EXPECT_NE(extra, bdd::kFalse);
  EXPECT_TRUE(b.CheckInvariants());
  EXPECT_TRUE(a.CheckInvariants());
  EXPECT_GE(b.ArenaSize(), a.ArenaSize());
}

// A template lookup must hand back exactly the ref a seeded pair manager
// would reach by encoding the object from scratch — that equality is what
// lets BuildAclClasses / PolicyEncoder substitute lookups for encodings
// without changing any downstream BDD.
TEST(EncodingTemplateTest, RouteLookupsMatchFreshEncodingsInSeededManager) {
  gen::RouteMapGenOptions options;
  options.seed = 7;
  options.clauses = 8;
  options.differences = 2;
  auto pair = gen::GenerateRouteMapPair(options);
  EncodingTemplate tmpl(pair.config1, pair.config2);
  ASSERT_TRUE(tmpl.has_route_side());
  ASSERT_GT(tmpl.unique_prefix_lists(), 0u);

  for (const ir::RouterConfig* config : {&pair.config1, &pair.config2}) {
    bdd::BddManager mgr;
    mgr.SeedFrom(tmpl.route_manager());
    RouteAdvLayout layout(mgr, tmpl.route_layout());
    PolicyEncoder fresh(layout, *config);  // No template: encodes anew.
    for (const auto& [name, list] : config->prefix_lists) {
      auto templated = tmpl.PrefixListPermits(list);
      ASSERT_TRUE(templated.has_value()) << "prefix list " << name;
      EXPECT_EQ(fresh.PrefixListPermits(list), *templated)
          << "prefix list " << name;
    }
    for (const auto& [name, list] : config->community_lists) {
      auto templated = tmpl.CommunityListPermits(list);
      ASSERT_TRUE(templated.has_value()) << "community list " << name;
      EXPECT_EQ(fresh.CommunityListPermits(list), *templated)
          << "community list " << name;
    }
    EXPECT_TRUE(mgr.CheckInvariants());
  }
}

TEST(EncodingTemplateTest, AclLineLookupsMatchFreshEncodings) {
  gen::AclGenOptions options;
  options.rules = 60;
  options.seed = 11;
  options.differences = 4;
  auto pair = gen::GenerateAclPair(options);
  auto config1 = gen::WrapAclInConfig(pair.acl1, "r1", ir::Vendor::kCisco);
  auto config2 = gen::WrapAclInConfig(pair.acl2, "r2", ir::Vendor::kCisco);
  EncodingTemplate tmpl(config1, config2);
  ASSERT_TRUE(tmpl.has_packet_side());
  ASSERT_GT(tmpl.unique_acl_lines(), 0u);

  bdd::BddManager mgr;
  mgr.SeedFrom(tmpl.packet_manager());
  PacketLayout layout(mgr, tmpl.packet_layout());
  for (const ir::Acl* acl : {&pair.acl1, &pair.acl2}) {
    for (const auto& line : acl->lines) {
      auto templated = tmpl.AclLineMatch(line);
      ASSERT_TRUE(templated.has_value());
      EXPECT_EQ(layout.MatchLine(line), *templated);
    }
  }
  EXPECT_TRUE(mgr.CheckInvariants());
}

// The headline guarantee: the template is purely a performance lever.
// Randomized pairs with injected differences must render byte-identically
// with the template on or off, serial or parallel.
TEST(EncodingTemplateTest, RouteMapReportsByteIdenticalOnOff) {
  for (std::uint64_t seed : {1, 2, 3}) {
    gen::RouteMapGenOptions options;
    options.seed = seed;
    options.clauses = 6;
    options.differences = 2;
    auto pair = gen::GenerateRouteMapPair(options);
    AttachMapToNeighbor(&pair.config1, pair.map_name);
    AttachMapToNeighbor(&pair.config2, pair.map_name);

    auto render = [&](bool with_template, unsigned threads) {
      core::DiffOptions diff_options;
      diff_options.use_encoding_template = with_template;
      diff_options.num_threads = threads;
      return core::ConfigDiff(pair.config1, pair.config2, diff_options)
          .Render();
    };
    std::string base = render(false, 1);
    EXPECT_FALSE(base.empty()) << "seed " << seed;
    EXPECT_EQ(render(true, 1), base) << "seed " << seed;
    EXPECT_EQ(render(false, 4), base) << "seed " << seed;
    EXPECT_EQ(render(true, 4), base) << "seed " << seed;
  }
}

TEST(EncodingTemplateTest, AclReportsByteIdenticalOnOff) {
  for (std::uint64_t seed : {5, 6}) {
    gen::AclGenOptions options;
    options.rules = 40;
    options.seed = seed;
    options.differences = 3;
    auto pair = gen::GenerateAclPair(options);
    auto config1 = gen::WrapAclInConfig(pair.acl1, "r1", ir::Vendor::kCisco);
    auto config2 = gen::WrapAclInConfig(pair.acl2, "r2", ir::Vendor::kCisco);

    auto render = [&](bool with_template, unsigned threads) {
      core::DiffOptions diff_options;
      diff_options.use_encoding_template = with_template;
      diff_options.num_threads = threads;
      return core::ConfigDiff(config1, config2, diff_options).Render();
    };
    std::string base = render(false, 1);
    EXPECT_FALSE(base.empty()) << "seed " << seed;
    EXPECT_EQ(render(true, 1), base) << "seed " << seed;
    EXPECT_EQ(render(false, 4), base) << "seed " << seed;
    EXPECT_EQ(render(true, 4), base) << "seed " << seed;
  }
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

// With the template off every pair encodes from scratch, and the per-pair
// arena sizes must be identical run to run and at any thread count — the
// BDD workload is deterministic, and this pin is what makes a template-on
// trace comparable against a template-off baseline pair by pair.
TEST(EncodingTemplateTest, PairArenaSizesDeterministicWithTemplateOff) {
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
    core::DiffOptions diff_options;
    diff_options.use_encoding_template = false;
    diff_options.num_threads = threads;
    core::ConfigDiff(pair.config1, pair.config2, diff_options);
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

}  // namespace
}  // namespace campion::encode
