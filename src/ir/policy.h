#pragma once

// Vendor-independent routing-policy IR: prefix lists, community lists,
// route maps, and ACLs. Both the Cisco IOS and Juniper JunOS frontends
// lower into this representation (our substitute for Batfish's
// vendor-independent model), and Campion's SemanticDiff operates on it.
//
// Semantics captured here that matter for the paper's findings:
//   * A Cisco standard community-list with several lines matches when ANY
//     line matches (OR across entries), while each line matches only if ALL
//     communities on it are present (AND within an entry). A Juniper
//     `community X members [a b]` is a single entry requiring both — the
//     exact AND-vs-OR confusion behind Difference 2 of Table 2.
//   * Prefix-list entries carry full prefix *ranges* (ge/le,
//     prefix-length-range, orlonger, upto), the source of the 16-32 vs
//     16-16 mismatch behind Difference 1 of Table 2.
//   * Route maps have an explicit per-map fall-through action, because the
//     vendors' defaults differ (Cisco route-maps implicitly deny; Juniper
//     BGP export policies default to accepting BGP routes).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/community.h"
#include "util/ip.h"
#include "util/prefix_range.h"
#include "util/source_span.h"

namespace campion::ir {

enum class LineAction { kPermit, kDeny };

enum class Protocol { kConnected, kStatic, kOspf, kBgp };

std::string ToString(LineAction action);
std::string ToString(Protocol protocol);

// ---------------------------------------------------------------------------
// Prefix lists
// ---------------------------------------------------------------------------

struct PrefixListEntry {
  LineAction action = LineAction::kPermit;
  util::PrefixRange range;
  util::SourceSpan span;

  friend bool operator==(const PrefixListEntry&, const PrefixListEntry&) =
      default;
};

struct PrefixList {
  std::string name;
  // Address family of every entry ("ip prefix-list" vs "ipv6 prefix-list";
  // both vendors keep the families in separate namespaces).
  util::AddressFamily family = util::AddressFamily::kIpv4;
  std::vector<PrefixListEntry> entries;  // First match wins; default deny.
  util::SourceSpan span;

  friend bool operator==(const PrefixList&, const PrefixList&) = default;
};

// ---------------------------------------------------------------------------
// Community lists
// ---------------------------------------------------------------------------

struct CommunityListEntry {
  LineAction action = LineAction::kPermit;
  // The entry matches a route iff the route carries EVERY community here.
  std::vector<util::Community> all_of;
  util::SourceSpan span;

  friend bool operator==(const CommunityListEntry&, const CommunityListEntry&) =
      default;
};

struct CommunityList {
  std::string name;
  std::vector<CommunityListEntry> entries;  // First match wins; default deny.
  util::SourceSpan span;

  friend bool operator==(const CommunityList&, const CommunityList&) = default;
};

// ---------------------------------------------------------------------------
// AS-path lists
// ---------------------------------------------------------------------------

// AS-path matching is regex-based on both vendors. Campion does not model
// path contents bit-precisely (the paper treats non-prefix fields with a
// single example); two as-path lists are behaviorally equal exactly when
// their normalized regex sets are equal, so each distinct set becomes one
// uninterpreted predicate in the encoding.
struct AsPathListEntry {
  LineAction action = LineAction::kPermit;
  std::string regex;
  util::SourceSpan span;

  friend bool operator==(const AsPathListEntry&, const AsPathListEntry&) =
      default;
};

struct AsPathList {
  std::string name;
  std::vector<AsPathListEntry> entries;
  util::SourceSpan span;

  // A canonical signature: equal signatures <=> behaviorally equal lists.
  std::string Signature() const;

  friend bool operator==(const AsPathList&, const AsPathList&) = default;
};

// ---------------------------------------------------------------------------
// Route maps
// ---------------------------------------------------------------------------

// One match condition inside a clause. Conditions within a clause are a
// conjunction; several names within one condition are a disjunction
// ("match ip address prefix-list A B" matches A or B).
struct RouteMapMatch {
  enum class Kind {
    kPrefixList,     // names = prefix lists
    kCommunityList,  // names = community lists
    kAsPathList,     // names = as-path lists (compared as opaque regexes)
    kTag,            // value
    kProtocol,       // protocol (used by redistribution policies)
    kMetric,         // value (MED)
  };
  Kind kind = Kind::kPrefixList;
  std::vector<std::string> names;
  std::uint32_t value = 0;
  Protocol protocol = Protocol::kBgp;
  util::SourceSpan span;

  friend bool operator==(const RouteMapMatch&, const RouteMapMatch&) = default;
};

// One attribute transformation applied by a permitting clause.
struct RouteMapSet {
  enum class Kind {
    kLocalPreference,  // value
    kMetric,           // value (MED)
    kCommunitySet,     // replace all communities with `communities`
    kCommunityAdd,     // additive
    kCommunityDelete,  // remove the listed communities
    kNextHop,          // next_hop
    kNextHopSelf,      // advertise our own session address as next hop
    kTag,              // value
  };
  Kind kind = Kind::kLocalPreference;
  std::uint32_t value = 0;
  std::vector<util::Community> communities;
  util::Ipv4Address next_hop;
  util::SourceSpan span;

  friend bool operator==(const RouteMapSet&, const RouteMapSet&) = default;
};

// What a matching clause does with the route.
enum class ClauseAction {
  kPermit,       // Apply sets, accept, stop.
  kDeny,         // Reject, stop.
  kFallThrough,  // Apply sets, continue with the next clause (Juniper term
                 // without a terminating action).
};

std::string ToString(ClauseAction action);

struct RouteMapClause {
  int sequence = 0;           // Cisco sequence number / Juniper term order.
  std::string term_name;      // Juniper term name, empty for Cisco.
  ClauseAction action = ClauseAction::kPermit;
  std::vector<RouteMapMatch> matches;  // Conjunction; empty matches all.
  std::vector<RouteMapSet> sets;
  util::SourceSpan span;

  friend bool operator==(const RouteMapClause&, const RouteMapClause&) =
      default;
};

struct RouteMap {
  std::string name;
  std::vector<RouteMapClause> clauses;
  // What happens to routes matching no clause. Set by the frontend:
  // Cisco route maps implicitly deny, Juniper BGP policies default-accept.
  ClauseAction default_action = ClauseAction::kDeny;
  util::SourceSpan span;

  friend bool operator==(const RouteMap&, const RouteMap&) = default;
};

// ---------------------------------------------------------------------------
// ACLs
// ---------------------------------------------------------------------------

struct PortRange {
  std::uint16_t low = 0;
  std::uint16_t high = 65535;
  bool IsAny() const { return low == 0 && high == 65535; }
  std::string ToString() const;
  friend auto operator<=>(const PortRange&, const PortRange&) = default;
};

struct AclLine {
  LineAction action = LineAction::kPermit;
  std::optional<std::uint8_t> protocol;  // nullopt = "ip" (any protocol)
  util::IpWildcard src = util::IpWildcard::Any();
  util::IpWildcard dst = util::IpWildcard::Any();
  std::vector<PortRange> src_ports;  // Empty = any; otherwise a disjunction.
  std::vector<PortRange> dst_ports;
  std::optional<std::uint8_t> icmp_type;
  // Match only reply traffic (TCP with ACK or RST set): Cisco
  // `established`, JunOS `tcp-established`.
  bool established = false;
  util::SourceSpan span;

  friend bool operator==(const AclLine&, const AclLine&) = default;
};

// True when `a` and `b` take the same action on the same packets because
// every field but `span` is equal. The defaulted == compares spans too, so
// it never equates a Cisco line with the JunOS line it mirrors. SemanticDiff
// folds the lines two ACLs share at the bottom once, for both: a field added
// to AclLine and left out here makes those folds silently wrong.
bool SameMatch(const AclLine& a, const AclLine& b);

struct Acl {
  std::string name;
  // Address family of the whole ACL ("ip access-list" vs "ipv6
  // access-list", JunOS "family inet" vs "family inet6" filters); every
  // line's wildcards carry the same family.
  util::AddressFamily family = util::AddressFamily::kIpv4;
  std::vector<AclLine> lines;  // First match wins; implicit deny at end.
  util::SourceSpan span;

  friend bool operator==(const Acl&, const Acl&) = default;
};

// Well-known protocol numbers used by the frontends.
inline constexpr std::uint8_t kProtoIcmp = 1;
inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;
inline constexpr std::uint8_t kProtoIcmpv6 = 58;
inline constexpr std::uint8_t kProtoOspf = 89;

std::string ProtocolNumberToString(std::uint8_t protocol);

}  // namespace campion::ir
