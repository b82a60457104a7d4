#pragma once

// Cisco IOS configuration frontend. Parses the IOS feature subset exercised
// by the paper — prefix lists, standard community lists, route maps,
// extended ACLs (named and numbered), static routes, interfaces, OSPF, and
// BGP — into the vendor-independent IR, recording source line spans on
// every component for text localization.
//
// Lines the parser does not understand are collected as diagnostics rather
// than failing the parse: real configurations are full of directives
// irrelevant to routing behavior.

#include <string>
#include <vector>

#include "ir/config.h"

namespace campion::cisco {

struct ParseResult {
  ir::RouterConfig config;
  // Unrecognized or malformed lines ("file:line: message").
  std::vector<std::string> diagnostics;
  // The text's lines, as frontend::LineIndex splits them.
  int lines = 0;
};

ParseResult ParseCiscoConfig(const std::string& text,
                             const std::string& filename = "<input>");

}  // namespace campion::cisco
