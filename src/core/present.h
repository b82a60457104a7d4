#pragma once

// Present (§3): formats differences for the user. Semantic differences get
// header localization — the Included/Excluded Prefixes rows of the paper's
// Table 2 — plus a single concrete example for route fields HeaderLocalize
// does not enumerate (communities, and protocol/ports for ACLs), then the
// Action and Text rows for text localization.

#include <optional>
#include <string>
#include <vector>

#include "core/header_localize.h"
#include "core/semantic_diff.h"
#include "core/structural_diff.h"
#include "encode/packet.h"
#include "encode/route_adv.h"
#include "ir/config.h"

namespace campion::core {

// A fully rendered difference plus its structured fields, so tests and
// downstream tooling can assert on content without re-parsing tables.
struct PresentedDifference {
  std::string title;
  std::string table;  // Rendered fixed-width table.

  std::vector<util::PrefixRange> included;
  std::vector<util::PrefixRange> excluded;
  // For ACL differences, the source-address localization.
  std::vector<util::PrefixRange> src_included;
  std::vector<util::PrefixRange> src_excluded;
  // For ACL differences, the exact affected protocols and destination
  // ports (empty when the whole space is affected — then the row is
  // omitted as uninformative).
  std::vector<ir::PortRange> protocols;
  std::vector<ir::PortRange> dst_ports;
  std::optional<std::string> example;  // Concrete example for other fields.
  std::string action1, action2;
  std::string text1, text2;
  // Source locations ("router.cfg:7-8") of the responsible text, when the
  // IR carries spans with line numbers (parsed configs do; generated IR
  // leaves these empty). Surfaced in the JSON report.
  std::string location1, location2;
};

// `localizer` runs on the layout's manager over RouteMapRanges' DAG.
PresentedDifference PresentRouteMapDifference(
    encode::RouteAdvLayout& layout, const RouteMapDifference& diff,
    const ir::RouterConfig& config1, const ir::RouterConfig& config2,
    const std::string& policy1, const std::string& policy2,
    HeaderLocalizer& localizer);

// `dst` and `src` run on the layout's manager over the DAGs of both ACLs'
// AclDstRanges and AclSrcRanges, in AclAddressUniverse.
PresentedDifference PresentAclDifference(encode::PacketLayout& layout,
                                         const AclDifference& diff,
                                         const ir::Acl& acl1,
                                         const ir::Acl& acl2,
                                         const ir::RouterConfig& config1,
                                         const ir::RouterConfig& config2,
                                         HeaderLocalizer& dst,
                                         HeaderLocalizer& src);

PresentedDifference PresentStructuralDifference(
    const StructuralDifference& diff, const ir::RouterConfig& config1,
    const ir::RouterConfig& config2);

// Every prefix-range constant of either configuration in `family`: the
// ranges route-map localization expresses differences in.
std::vector<util::PrefixRange> RouteMapRanges(const ir::RouterConfig& config1,
                                              const ir::RouterConfig& config2,
                                              util::AddressFamily family);

// The universe of ACL address localization: every host prefix (/32 for
// IPv4, /128 for IPv6).
util::PrefixRange AclAddressUniverse(util::AddressFamily family);

// The destination (or source) prefixes mentioned by an ACL, as /32-window
// prefix ranges for HeaderLocalize. Non-prefix wildcards are skipped.
std::vector<util::PrefixRange> AclDstRanges(const ir::Acl& acl);
std::vector<util::PrefixRange> AclSrcRanges(const ir::Acl& acl);

}  // namespace campion::core
