#pragma once

// The Cisco IOS and JunOS parsers as they stood before the shared zero-copy
// lexer (src/frontend/lexer.h): a line-copying istringstream tokenizer and a
// token-copying JunOS tokenizer. They are kept verbatim, apart from their
// namespaces and one fix made to both JunOS parsers since (a quoted string
// is a word, never punctuation), as the oracle that parser_oracle_test
// holds the lexer-based parsers to: the same RouterConfig, spans included,
// and the same diagnostics. The JunOS one loops forever on a NUL byte.

#include <string>

#include "cisco/cisco_parser.h"
#include "juniper/juniper_parser.h"

namespace campion::legacy_cisco {
cisco::ParseResult ParseCiscoConfig(const std::string& text,
                                    const std::string& filename = "<input>");
}  // namespace campion::legacy_cisco

namespace campion::legacy_juniper {
juniper::ParseResult ParseJuniperConfig(
    const std::string& text, const std::string& filename = "<input>");
}  // namespace campion::legacy_juniper
