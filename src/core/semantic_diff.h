#pragma once

// SemanticDiff (§3.1): exhaustive behavioral differencing of route maps and
// ACLs via path equivalence classes.
//
// Each component is compiled into an ordered list of path classes — one
// logical predicate (BDD) per path through the component's if-then-else
// structure, paired with the normalized action taken on that path and the
// configuration text responsible. Two components differ exactly on the
// pairwise intersections of their classes whose actions disagree; each such
// intersection becomes one difference quintuple (i, a1, a2, t1, t2).

#include <cstddef>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "core/route_action.h"
#include "encode/packet.h"
#include "encode/policy_encoder.h"
#include "encode/route_adv.h"
#include "ir/config.h"
#include "ir/policy.h"

namespace campion::core {

// ---------------------------------------------------------------------------
// Route maps
// ---------------------------------------------------------------------------

// One path equivalence class of a route map (Figure 2 of the paper).
struct RouteMapPathClass {
  bdd::BddRef predicate = bdd::kFalse;
  RouteAction action;
  std::string text;        // Configuration lines along the path.
  bool is_default = false;  // The fall-off-the-end class.
};

// Partitions the advertisement space by paths through `map`. Classes are
// disjoint and cover the whole (valid) space; a final default class carries
// the route map's fall-through action. Fall-through (Juniper terms without
// a terminating action) forks the state, so the class count can exceed the
// clause count.
std::vector<RouteMapPathClass> BuildRouteMapClasses(
    encode::RouteAdvLayout& layout, encode::PolicyEncoder& encoder,
    const ir::RouteMap& map);

// One behavioral difference between two route maps.
struct RouteMapDifference {
  bdd::BddRef input_set = bdd::kFalse;  // Advertisements treated differently.
  RouteAction action1;
  RouteAction action2;
  std::string text1;
  std::string text2;
};

// All behavioral differences between two route maps, which may come from
// different routers (`config1`/`config2` resolve the named lists each map
// references). Both maps must be encoded against the same layout.
std::vector<RouteMapDifference> SemanticDiffRouteMaps(
    encode::RouteAdvLayout& layout, const ir::RouterConfig& config1,
    const ir::RouteMap& map1, const ir::RouterConfig& config2,
    const ir::RouteMap& map2);

// ---------------------------------------------------------------------------
// ACLs
// ---------------------------------------------------------------------------

struct AclPathClass {
  bdd::BddRef predicate = bdd::kFalse;
  ir::LineAction action = ir::LineAction::kDeny;
  std::string text;
  bool is_default = false;
};

// The configuration text a difference blames on `line`: its source span
// when the IR came from a parser, or else a canonical one-liner with every
// matched field (addresses, ports, ICMP type, `established`).
std::string AclLineText(const ir::AclLine& line);

// First-match path classes of `acl` inside `scope`, given each line's
// match predicate (`matches[i]` is PacketLayout::MatchLine of line i). Line
// i's class is the part of `scope` that line i matches and no earlier line
// does; lines whose class is empty get none, and the walk stops once
// `scope` is used up. A final default class (the implicit deny) holds what
// no line matches. With `scope` = True the classes partition the packet
// space; SemanticDiffAcls passes the two ACLs' disagreement instead.
std::vector<AclPathClass> BuildAclClasses(
    bdd::BddManager& mgr, const ir::Acl& acl,
    const std::vector<bdd::BddRef>& matches, bdd::BddRef scope);

struct AclDifference {
  bdd::BddRef input_set = bdd::kFalse;
  ir::LineAction action1 = ir::LineAction::kPermit;
  ir::LineAction action2 = ir::LineAction::kPermit;
  std::string text1;
  std::string text2;
};

// The permit sets SemanticDiffAcls compares. Each ACL's lines are folded
// bottom-up into one set, and the `shared_lines` trailing lines the two
// ACLs have in common (ir::SameMatch) are folded once: `acl2`'s fold
// starts from `acl1`'s set at that boundary and covers only its own head.
struct AclPermitSets {
  bdd::BddRef acl1 = bdd::kFalse;
  bdd::BddRef acl2 = bdd::kFalse;
  std::size_t shared_lines = 0;
};

AclPermitSets FoldAclPermitSets(encode::PacketLayout& layout,
                                const ir::Acl& acl1, const ir::Acl& acl2);

// All behavioral differences between two ACLs, ordered by `acl1`'s class,
// then by `acl2`'s. The two permit sets are folded first, as
// FoldAclPermitSets does, sharing the trailing lines the ACLs agree on;
// the first-match class walk runs only where the two sets disagree.
std::vector<AclDifference> SemanticDiffAcls(encode::PacketLayout& layout,
                                            const ir::Acl& acl1,
                                            const ir::Acl& acl2);

}  // namespace campion::core
