#pragma once

// Vendor-independent router configuration: the full per-router model that
// Campion's ConfigDiff walks. This is the rest of our Batfish substitute:
// interfaces (connected routes, OSPF link attributes, ACL bindings), static
// routes, the OSPF and BGP processes, and administrative distances.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/policy.h"
#include "util/ip.h"
#include "util/source_span.h"

namespace campion::ir {

enum class Vendor { kCisco, kJuniper, kUnknown };

std::string ToString(Vendor vendor);

// ---------------------------------------------------------------------------
// Interfaces
// ---------------------------------------------------------------------------

struct Interface {
  std::string name;
  // Interface address: the concrete IP plus its subnet length. The subnet
  // (with host bits cleared) is the connected route.
  std::optional<util::Ipv4Address> address;
  int prefix_length = 0;
  bool shutdown = false;

  // OSPF link attributes (StructuralDiff compares these per-link).
  std::optional<std::uint32_t> ospf_cost;
  std::optional<std::uint32_t> ospf_area;
  bool ospf_enabled = false;
  bool ospf_passive = false;

  // Dataplane ACL bindings by name.
  std::string in_acl;
  std::string out_acl;

  util::SourceSpan span;

  std::optional<util::IpPrefix> ConnectedSubnet() const {
    if (!address) return std::nullopt;
    return util::IpPrefix(*address, prefix_length);
  }

  friend bool operator==(const Interface&, const Interface&) = default;
};

// ---------------------------------------------------------------------------
// Static routes
// ---------------------------------------------------------------------------

struct StaticRoute {
  util::IpPrefix prefix;
  std::optional<util::Ipv4Address> next_hop;
  std::string next_hop_interface;  // Empty if next hop is an IP.
  int admin_distance = 1;
  std::optional<std::uint32_t> tag;
  util::SourceSpan span;

  friend bool operator==(const StaticRoute&, const StaticRoute&) = default;
};

// ---------------------------------------------------------------------------
// OSPF
// ---------------------------------------------------------------------------

struct Redistribution {
  Protocol from = Protocol::kStatic;
  std::string route_map;  // Empty = redistribute everything unmodified.
  util::SourceSpan span;

  friend bool operator==(const Redistribution&, const Redistribution&) =
      default;
};

struct OspfProcess {
  std::uint32_t process_id = 1;
  std::optional<util::Ipv4Address> router_id;
  std::uint32_t reference_bandwidth_mbps = 100;
  std::vector<Redistribution> redistributions;
  util::SourceSpan span;

  friend bool operator==(const OspfProcess&, const OspfProcess&) = default;
};

// ---------------------------------------------------------------------------
// BGP
// ---------------------------------------------------------------------------

struct BgpNeighbor {
  util::Ipv4Address ip;
  std::uint32_t remote_as = 0;
  std::string description;
  std::string import_policy;  // Route-map name; empty = accept unmodified.
  std::string export_policy;
  bool route_reflector_client = false;
  bool send_community = false;
  bool next_hop_self = false;
  util::SourceSpan span;

  bool IsIbgp(std::uint32_t local_as) const { return remote_as == local_as; }

  friend bool operator==(const BgpNeighbor&, const BgpNeighbor&) = default;
};

struct BgpProcess {
  std::uint32_t asn = 0;
  std::optional<util::Ipv4Address> router_id;
  std::vector<util::IpPrefix> networks;  // Locally originated prefixes.
  std::vector<BgpNeighbor> neighbors;
  std::vector<Redistribution> redistributions;
  util::SourceSpan span;

  friend bool operator==(const BgpProcess&, const BgpProcess&) = default;
};

// ---------------------------------------------------------------------------
// Administrative distances (route preference across protocols)
// ---------------------------------------------------------------------------

struct AdminDistances {
  int connected = 0;
  int static_route = 1;
  int ebgp = 20;
  int ospf = 110;
  int ibgp = 200;

  int For(Protocol p, bool ibgp_route = false) const {
    switch (p) {
      case Protocol::kConnected: return connected;
      case Protocol::kStatic: return static_route;
      case Protocol::kOspf: return ospf;
      case Protocol::kBgp: return ibgp_route ? ibgp : ebgp;
    }
    return 255;
  }

  friend bool operator==(const AdminDistances&, const AdminDistances&) =
      default;
};

// ---------------------------------------------------------------------------
// The whole router
// ---------------------------------------------------------------------------

struct RouterConfig {
  std::string hostname;
  Vendor vendor = Vendor::kUnknown;
  std::string source_file;

  std::vector<Interface> interfaces;
  std::vector<StaticRoute> static_routes;
  std::map<std::string, PrefixList> prefix_lists;
  std::map<std::string, CommunityList> community_lists;
  std::map<std::string, AsPathList> as_path_lists;
  std::map<std::string, RouteMap> route_maps;
  std::map<std::string, Acl> acls;
  std::optional<OspfProcess> ospf;
  std::optional<BgpProcess> bgp;
  AdminDistances admin_distances;

  const PrefixList* FindPrefixList(const std::string& name) const;
  const CommunityList* FindCommunityList(const std::string& name) const;
  const AsPathList* FindAsPathList(const std::string& name) const;
  const RouteMap* FindRouteMap(const std::string& name) const;
  const Acl* FindAcl(const std::string& name) const;
  const Interface* FindInterface(const std::string& name) const;
  const BgpNeighbor* FindBgpNeighbor(util::Ipv4Address ip) const;

  // All prefix ranges appearing anywhere in the configuration — the raw
  // material for HeaderLocalize (§3.2).
  std::vector<util::PrefixRange> AllPrefixRanges() const;

  // All communities mentioned anywhere — these become the community
  // variables of the symbolic route-advertisement encoding.
  std::vector<util::Community> AllCommunities() const;

  friend bool operator==(const RouterConfig&, const RouterConfig&) = default;
};

// A configuration's interfaces by name, for callers that look up many
// names: Find returns what RouterConfig::FindInterface returns (the first
// interface of that name, or nullptr) with a binary search instead of a
// scan. Build one per comparison; it holds pointers into the config, which
// must outlive it and stay unmodified.
class InterfaceIndex {
 public:
  explicit InterfaceIndex(const RouterConfig& config);

  const Interface* Find(std::string_view name) const;

 private:
  // Every interface, sorted by name and, among equal names, by position.
  std::vector<const Interface*> by_name_;
};

}  // namespace campion::ir
