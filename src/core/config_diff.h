#pragma once

// ConfigDiff (§3): the top-level driver. Pairs the two configurations'
// components with MatchPolicies, runs SemanticDiff on every route-map and
// ACL pair and StructuralDiff on everything else, and renders each
// difference with Present. This is the function behind Campion's
// command-line output.

#include <string>
#include <vector>

#include "core/match_policies.h"
#include "core/present.h"
#include "ir/config.h"

namespace campion::core {

struct DifferenceEntry {
  enum class Kind {
    kRouteMapSemantic,
    kAclSemantic,
    kStructural,
    kUnmatched,  // A component exists on one side only.
    kWarning,    // E.g. an undefined list referenced by a route map.
  };
  Kind kind = Kind::kRouteMapSemantic;
  std::string title;
  std::string rendered;  // Full table or message text.
  PresentedDifference detail;  // Structured fields (semantic/structural).
};

struct DiffOptions {
  bool check_route_maps = true;
  bool check_acls = true;
  bool check_static_routes = true;
  bool check_connected_routes = true;
  bool check_ospf = true;
  bool check_bgp_properties = true;
  bool check_admin_distances = true;
  // Most per-pair semantic diffs one ConfigDiff runs at once, on the
  // calling thread and the shared pool (util::RunParallel): 0 = hardware
  // concurrency, 1 = fully serial. Each policy pair runs against its
  // thread's BddManager, reset for the pair: a thread runs one pair at a
  // time (RunParallel's caller runs only its own call's indices), so every
  // pair starts from an empty manager. Results are merged back in
  // pair-declaration order, so the report is byte-identical for every
  // thread count.
  unsigned num_threads = 0;
};

// Reads a comma list of check names (route-maps, acls, static, connected,
// ospf, bgp, admin) into the check toggles of `options`, leaving its other
// fields alone: the CLI's --checks flag and the daemon's "checks" field
// share this grammar. Empty items are skipped. False, with `error` set, on
// an unknown name or a list that names no check at all — running no check
// would report any pair as equivalent.
bool ParseChecks(const std::string& list, DiffOptions* options,
                 std::string* error);

struct DiffReport {
  std::vector<DifferenceEntry> entries;

  int CountOf(DifferenceEntry::Kind kind) const;
  bool Equivalent() const;  // No differences of any kind (warnings aside).
  std::string Render() const;
};

DiffReport ConfigDiff(const ir::RouterConfig& config1,
                      const ir::RouterConfig& config2,
                      const DiffOptions& options = {});

// Diffs a single route-map pair (used directly by benchmarks and tests; an
// empty name stands for "no policy" = accept everything unmodified).
std::vector<PresentedDifference> DiffRouteMapPair(
    const ir::RouterConfig& config1, const std::string& name1,
    const ir::RouterConfig& config2, const std::string& name2);

// Diffs a single ACL pair by name.
std::vector<PresentedDifference> DiffAclPair(const ir::RouterConfig& config1,
                                             const ir::RouterConfig& config2,
                                             const std::string& name);

}  // namespace campion::core
