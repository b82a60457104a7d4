#pragma once

// Random route-map workload generation: seeded, near-equivalent policy
// pairs with optional injected differences, in the style of the ACL
// generator. Used by the scaling benchmarks and by the cross-validation
// property tests (symbolic SemanticDiff vs concrete route evaluation).

#include <cstdint>
#include <string>
#include <vector>

#include "ir/config.h"

namespace campion::gen {

struct RouteMapGenOptions {
  int clauses = 10;
  int prefix_lists = 4;       // Pool of named prefix lists.
  int entries_per_list = 4;
  int communities = 6;        // Pool of community constants.
  std::uint64_t seed = 1;
  int differences = 0;        // Mutations injected into the second copy.
  std::string map_name = "POLICY";
};

struct GeneratedRouteMapPair {
  // Each config carries its lists plus the route map under `map_name`.
  ir::RouterConfig config1;
  ir::RouterConfig config2;
  std::string map_name;
  std::vector<std::string> injected;
};

GeneratedRouteMapPair GenerateRouteMapPair(const RouteMapGenOptions& options);

// A random concrete route advertisement drawn from the same constant pools
// the generator uses (so samples exercise the interesting boundaries).
// Returns prefix/communities/tag/metric in an ir-independent form.
struct RandomRoute {
  util::IpPrefix prefix;
  std::vector<util::Community> communities;
  std::uint32_t tag = 0;
  std::uint32_t metric = 0;
};

std::vector<RandomRoute> SampleRoutes(const GeneratedRouteMapPair& pair,
                                      int count, std::uint64_t seed);

}  // namespace campion::gen
