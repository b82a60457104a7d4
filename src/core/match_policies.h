#pragma once

// MatchPolicies (§3, §4): pairs up the corresponding components of two
// router configurations before differencing. BGP policies are matched by
// neighbor IP, ACLs by name, redistribution policies by source protocol,
// and interfaces by name or shared subnet (backup routers' interfaces
// usually have different addresses on the same subnet). Components present
// on one side only are reported so ConfigDiff can surface them.

#include <string>
#include <utility>
#include <vector>

#include "ir/config.h"
#include "util/ip.h"

namespace campion::core {

enum class PolicyDirection { kImport, kExport };

std::string ToString(PolicyDirection direction);

struct RouteMapPairing {
  util::Ipv4Address neighbor;  // The BGP neighbor both policies apply to.
  PolicyDirection direction = PolicyDirection::kImport;
  // Route map names; empty means "no policy configured" on that side (the
  // differ models it as an accept-everything map).
  std::string name1;
  std::string name2;
};

struct AclPairing {
  std::string name;  // ACLs are matched by identical name.
};

struct RedistributionPairing {
  ir::Protocol via = ir::Protocol::kOspf;   // The receiving protocol.
  ir::Protocol from = ir::Protocol::kStatic;  // The redistributed protocol.
  std::string name1;
  std::string name2;
};

struct PolicyPairing {
  std::vector<RouteMapPairing> route_maps;
  std::vector<AclPairing> acls;
  std::vector<RedistributionPairing> redistributions;
  std::vector<std::pair<std::string, std::string>> interfaces;
  // Human-readable notes for components that could not be paired (BGP
  // neighbors, ACLs, or interfaces present on one side only).
  std::vector<std::string> unmatched;
};

PolicyPairing MatchPolicies(const ir::RouterConfig& config1,
                            const ir::RouterConfig& config2);

// The same, over interface indexes the caller built for the two configs
// (ConfigDiff builds them once per comparison and shares them with
// DiffOspf).
PolicyPairing MatchPolicies(const ir::RouterConfig& config1,
                            const ir::InterfaceIndex& interfaces1,
                            const ir::RouterConfig& config2,
                            const ir::InterfaceIndex& interfaces2);

}  // namespace campion::core
