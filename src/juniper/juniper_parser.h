#pragma once

// Juniper JunOS configuration frontend. Parses the hierarchical (curly
// brace) format for the feature subset the paper exercises — policy-options
// (prefix-lists, communities, policy-statements), firewall filters,
// routing-options (static routes, AS number), protocols ospf/bgp, and
// interfaces — into the vendor-independent IR with source spans.
//
// Semantics captured faithfully because the paper's findings depend on
// them:
//   * `prefix-list` in a `from` clause matches the listed prefixes
//     *exactly* (unlike Cisco's ge/le windows) — Difference 1 of Table 2.
//   * `community C members [a b]` requires the route to carry *both*
//     communities — Difference 2 of Table 2.
//   * A term without accept/reject falls through to the next term; a
//     policy with no matching term gets JunOS's default-accept for BGP.
//   * JunOS sends communities to BGP neighbors by default (the §5.2
//     structural difference against Cisco's explicit send-community).

#include <string>
#include <vector>

#include "ir/config.h"

namespace campion::juniper {

struct ParseResult {
  ir::RouterConfig config;
  std::vector<std::string> diagnostics;
  // The text's lines, as frontend::LineIndex splits them.
  int lines = 0;
};

ParseResult ParseJuniperConfig(const std::string& text,
                               const std::string& filename = "<input>");

}  // namespace campion::juniper
