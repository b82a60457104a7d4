#pragma once

// Concrete routes and concrete route-map evaluation for the stable-routing
// simulator. Campion itself never needs these (its checks are symbolic and
// protocol-free — that is the point of §3.4); the simulator exists to
// validate Theorem 3.3 empirically: two locally equivalent configurations
// must produce identical routing solutions on any topology.

#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include "ir/config.h"
#include "util/community.h"
#include "util/ip.h"

namespace campion::sim {

struct Route {
  util::IpPrefix prefix;
  ir::Protocol protocol = ir::Protocol::kConnected;
  int admin_distance = 0;
  // BGP attributes (higher local_pref preferred, then shorter AS path,
  // then lower MED).
  std::uint32_t local_pref = 100;
  int as_path_length = 0;
  std::uint32_t metric = 0;  // MED for BGP, cost for OSPF.
  std::uint32_t tag = 0;
  std::set<util::Community> communities;
  util::Ipv4Address next_hop;
  std::string learned_from;  // Router name, empty for locally originated.
  bool ibgp = false;
  // Whether the receiving session was marked route-reflector-client on the
  // receiver (drives reflection of iBGP routes).
  bool learned_from_client = false;

  friend bool operator==(const Route&, const Route&) = default;

  std::string ToString() const;
};

// True when `a` is preferred over `b` for installation in the RIB
// (assumes equal prefixes).
bool Preferred(const Route& a, const Route& b);

// Evaluates a route map on a concrete route: returns the transformed route
// if accepted, nullopt if rejected. `config` resolves named lists. Matches
// follow the same semantics as the symbolic encoder (prefix ranges,
// AND-within-entry/OR-across-entries community lists, fall-through terms).
std::optional<Route> EvalRouteMap(const ir::RouterConfig& config,
                                  const ir::RouteMap& map, Route route);

// The same, resolving the map by name; an empty name accepts unmodified.
std::optional<Route> EvalPolicy(const ir::RouterConfig& config,
                                const std::string& map_name, Route route);

}  // namespace campion::sim
