#pragma once

// StructuralDiff (§3.3): equivalence checking for configuration components
// whose structure determines their behavior — static routes, connected
// routes, OSPF link attributes, BGP properties not expressed as route maps,
// and administrative distances. When checked modularly, any structural
// mismatch in these components is a possible behavioral difference, so a
// structural comparison is exactly as precise as a semantic one while being
// cheaper and trivially localizable.
//
// Components are compared as atomic values, tuples of values, or unordered
// sets of tuples: atoms by equality, tuples field-wise, sets by set
// difference keyed on an identifying field.

#include <string>
#include <vector>

#include "ir/config.h"
#include "util/source_span.h"

namespace campion::core {

// One structural mismatch. `value1`/`value2` are rendered field values;
// "(absent)" marks an element present on only one side.
struct StructuralDifference {
  std::string component;  // e.g. "Static Route 10.1.1.2/31", "BGP Neighbor 10.0.0.2"
  std::string field;      // e.g. "next hop", "presence", "send-community"
  std::string value1;
  std::string value2;
  util::SourceSpan span1;
  util::SourceSpan span2;
};

// Static routes: keyed by destination prefix. A prefix present on one side
// only is a presence difference; a prefix on both sides is compared as the
// set of (next hop, admin distance, tag) tuples configured for it.
std::vector<StructuralDifference> DiffStaticRoutes(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2);

// Connected routes: the sets of interface subnets.
std::vector<StructuralDifference> DiffConnectedRoutes(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2);

// OSPF link attributes, compared per interface pair. `interface_pairs`
// comes from MatchPolicies (backup routers' interfaces rarely share
// addresses, so matching is heuristic); its names are looked up in the
// two configs' interface indexes. Also compares process-level attributes
// (reference bandwidth, redistribution presence).
std::vector<StructuralDifference> DiffOspf(
    const ir::RouterConfig& config1, const ir::InterfaceIndex& interfaces1,
    const ir::RouterConfig& config2, const ir::InterfaceIndex& interfaces2,
    const std::vector<std::pair<std::string, std::string>>& interface_pairs);

// BGP properties not implemented with route maps: neighbor presence,
// remote AS, route-reflector-client, send-community, next-hop-self, and
// the sets of locally originated networks.
std::vector<StructuralDifference> DiffBgpProperties(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2);

// Administrative distances per protocol.
std::vector<StructuralDifference> DiffAdminDistances(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2);

}  // namespace campion::core
