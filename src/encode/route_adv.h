#pragma once

// Symbolic route advertisements.
//
// A route advertisement is encoded over a fixed BDD variable order as
// (IPv4 layout, unchanged from the original encoder):
//   [0..31]   destination prefix address bits (most significant first)
//   [32..37]  prefix length (6-bit unsigned, values 0..32)
//   [38..39]  source protocol (connected/static/ospf/bgp), for
//             redistribution policies that match on protocol
//   [40..55]  route tag (16-bit unsigned)
//   [56..71]  metric / MED (16-bit unsigned)
//   [72..]    one variable per community known to the differencing task
//             ("the route carries community c"), then any uninterpreted
//             predicate variables allocated for match kinds the encoder
//             does not model bit-precisely.
//
// The IPv6 layout widens the address field to 128 bits ([0..127]) and the
// length field to 8 bits (values 0..128); everything after shifts up.
//
// Address bits beyond the prefix length are deliberately unconstrained:
// every predicate we build constrains only bits below its base prefix
// length *and* implies a minimum length, so all encodings of the same
// concrete prefix agree on every predicate. Emptiness and subset checks are
// therefore faithful to concrete prefix sets.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "encode/prefix_encoding.h"
#include "encode/symbolic_field.h"
#include "ir/policy.h"
#include "util/community.h"
#include "util/ip.h"
#include "util/prefix_range.h"

namespace campion::encode {

// A decoded, concrete route advertisement (one point of a difference set).
struct RouteAdvExample {
  util::IpPrefix prefix;
  std::vector<util::Community> communities;
  ir::Protocol protocol = ir::Protocol::kBgp;
  std::uint32_t tag = 0;
  std::uint32_t metric = 0;

  std::string ToString() const;
};

class RouteAdvLayout {
 public:
  // `communities` is the universe of community constants for this task
  // (typically the union over both configurations being compared).
  RouteAdvLayout(bdd::BddManager& mgr,
                 std::vector<util::Community> communities,
                 util::AddressFamily family = util::AddressFamily::kIpv4);

  bdd::BddManager& manager() const { return mgr_; }
  util::AddressFamily family() const { return family_; }

  // Length field is valid (<= the family's maximum prefix length). Conjoin
  // once at the root of any enumeration so spurious lengths never appear in
  // examples.
  bdd::BddRef Valid() const { return valid_; }

  // The advertised prefix lies in the given prefix range. Ranges of the
  // other family match nothing.
  bdd::BddRef MatchPrefixRange(const util::PrefixRange& range) const;
  // The advertised prefix's address and length fields.
  PrefixEncoding prefix_encoding() const { return {addr_, length_}; }
  // The advertised prefix is exactly `p`.
  bdd::BddRef MatchExactPrefix(const util::IpPrefix& p) const;
  bdd::BddRef HasCommunity(util::Community c) const;
  // The route carries no community at all.
  bdd::BddRef NoCommunities() const;
  bdd::BddRef ProtocolIs(ir::Protocol p) const;
  bdd::BddRef TagEquals(std::uint32_t tag) const;
  bdd::BddRef MetricEquals(std::uint32_t metric) const;

  // A fresh uninterpreted predicate variable, used for match conditions we
  // do not model bit-precisely. Same (label) => same variable.
  bdd::BddRef UninterpretedPredicate(const std::string& label);

  // Variable masks for quantification.
  // True exactly on the prefix address + length variables.
  std::vector<bool> PrefixVarMask() const;
  // True on everything except the prefix address + length variables.
  std::vector<bool> NonPrefixVarMask() const;
  // True exactly on the community variables.
  std::vector<bool> CommunityVarMask() const;

  const std::vector<util::Community>& communities() const {
    return communities_;
  }

  RouteAdvExample Decode(const bdd::Cube& cube) const;

  // Renders one satisfying path cube of a community-space predicate as a
  // human-readable condition, e.g. "10:10, not 10:11" (don't-care
  // communities are omitted). Helper for the exhaustive community
  // localization extension (§4 of the paper sketches it as future work).
  std::string DescribeCommunityCube(const bdd::Cube& cube) const;

 private:
  bdd::BddManager& mgr_;
  util::AddressFamily family_ = util::AddressFamily::kIpv4;
  SymbolicField addr_;
  SymbolicField length_;
  SymbolicField protocol_;
  SymbolicField tag_;
  SymbolicField metric_;
  std::vector<util::Community> communities_;
  std::map<util::Community, bdd::Var> community_vars_;
  std::map<std::string, bdd::BddRef> uninterpreted_;
  bdd::BddRef valid_;
};

}  // namespace campion::encode
