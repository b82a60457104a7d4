#pragma once

// Structural fingerprints for incremental re-diffing (the daemon's result
// cache keys on these; see src/server/result_cache.h).
//
// The structural keys (PrefixListKey / CommunityListKey / AclLineMatchKey)
// deliberately ignore names, actions, declaration order, and source spans —
// everything the Boolean function a list or ACL line encodes to does not
// depend on. A *result* cache cannot afford any of those omissions: the
// rendered report quotes names, actions, exact `file:line` locations, and
// raw source text, so two configs that share every structural key can still
// produce different reports. ConfigCanonicalKey therefore serializes the
// COMPLETE parsed IR — the structural keys where they exist, plus
// names, actions, declaration order, every remaining semantic field
// (route-map clauses, static routes, interfaces, OSPF, BGP, admin
// distances), and every SourceSpan including its raw text.
//
// Soundness contract: parse is deterministic, and every byte of a rendered
// report (text or JSON) is a function of the two parsed RouterConfigs plus
// the diff options — so equal canonical keys imply byte-identical reports.
// The converse is intentionally not required: a config edit that leaves the
// IR and spans unchanged (e.g. trailing whitespace after the last parsed
// line) still hits, which is exactly the incremental re-diff win.
//
// The serialization is unambiguous: strings are length-prefixed, numbers
// are delimited decimals, and optionals encode presence explicitly, so no
// two distinct IRs share a key.

#include <cstdint>
#include <string>

#include "ir/config.h"
#include "ir/policy.h"

namespace campion::encode {

// Canonical structural keys: two objects with equal keys encode to the same
// Boolean function in any manager with the same layout. Keys deliberately
// ignore names and source spans (those affect reporting, not semantics) and
// the ACL line's action (the match predicate is action-independent).
std::string PrefixListKey(const ir::PrefixList& list);
std::string CommunityListKey(const ir::CommunityList& list);
std::string AclLineMatchKey(const ir::AclLine& line);

// The full canonical serialization of one parsed router configuration.
std::string ConfigCanonicalKey(const ir::RouterConfig& config);

// FNV-1a digest of ConfigCanonicalKey, for headers and debug views. The
// result cache maps on the full key string; the digest is display-only.
std::uint64_t ConfigFingerprint(const ir::RouterConfig& config);

}  // namespace campion::encode
