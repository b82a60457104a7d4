#pragma once

// The BDD fields a prefix range is encoded over. Route advertisements
// carry an address field and a prefix-length field (RouteAdvLayout); ACL
// packets carry host addresses with no length (PacketLayout's destination
// and source fields), so a range there denotes the address set of its base
// prefix. HeaderLocalize builds its windows and remainder sets from these
// fields directly, so it shares this one range encoder with the layouts.

#include <optional>

#include "bdd/bdd.h"
#include "encode/symbolic_field.h"
#include "util/prefix_range.h"

namespace campion::encode {

struct PrefixEncoding {
  SymbolicField address;
  // Absent for host-address encodings.
  std::optional<SymbolicField> length;

  // The member set of `range` (of the encoding's family): its base prefix
  // bits, then, with a length field, its length window clamped to [base
  // length, family maximum]. Address bits past the base length are left
  // unconstrained. An empty window is false.
  bdd::BddRef MatchRange(bdd::BddManager& mgr,
                         const util::PrefixRange& range) const;
  // The length-field part of MatchRange alone: `range`'s clamped window
  // (false when empty), or true for a host-address encoding.
  bdd::BddRef MatchWindow(bdd::BddManager& mgr,
                          const util::PrefixRange& range) const;
};

}  // namespace campion::encode
