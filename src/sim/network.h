#pragma once

// The stable-routing-problem (SRP) simulator.
//
// A Network is a set of routers (vendor-independent configurations) plus
// explicit adjacencies. Solve() iterates route exchange to a fixed point:
//   * each router originates connected routes, static routes, and its BGP
//     network statements;
//   * OSPF floods routes over OSPF-enabled adjacencies, accumulating link
//     cost, with redistribution policies applied when routes enter OSPF;
//   * BGP propagates over BGP sessions, applying the sender's export policy
//     and the receiver's import policy, bumping AS-path length across eBGP
//     hops, honoring send-community, next-hop-self and route-reflector
//     semantics;
//   * every router installs the most preferred route per prefix (admin
//     distance, then protocol attributes).
//
// This is the substrate behind the Theorem 3.3 experiments: Campion-clean
// configuration pairs are swapped into the same topology and must yield the
// same routing solution.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/config.h"
#include "sim/route.h"

namespace campion::sim {

struct Adjacency {
  std::string router1;
  std::string interface1;
  std::string router2;
  std::string interface2;
};

struct BgpSession {
  std::string router1;
  util::Ipv4Address addr1;  // router1's session address (router2's neighbor).
  std::string router2;
  util::Ipv4Address addr2;
};

class Network {
 public:
  // Adds a router; its name is config.hostname.
  void AddRouter(ir::RouterConfig config);
  // Declares a physical adjacency between two interfaces (used by OSPF).
  void AddAdjacency(const std::string& router1, const std::string& iface1,
                    const std::string& router2, const std::string& iface2);
  // Declares a BGP session. addr1/addr2 must match the routers' neighbor
  // stanzas (addr1 is router1's address, i.e. what router2 calls neighbor).
  void AddBgpSession(const std::string& router1, util::Ipv4Address addr1,
                     const std::string& router2, util::Ipv4Address addr2);

  // Replaces a router's configuration, keeping the topology: the router
  // replacement scenario. The new config's hostname is forced to `name`.
  void ReplaceRouter(const std::string& name, ir::RouterConfig config);

  const ir::RouterConfig* FindRouter(const std::string& name) const;

  const std::vector<Adjacency>& adjacencies() const { return adjacencies_; }
  const std::vector<BgpSession>& bgp_sessions() const { return sessions_; }
  const std::map<std::string, ir::RouterConfig>& routers() const {
    return routers_;
  }

 private:
  std::map<std::string, ir::RouterConfig> routers_;
  std::vector<Adjacency> adjacencies_;
  std::vector<BgpSession> sessions_;
};

// The routing solution: every router's RIB (best route per prefix).
struct RoutingSolution {
  std::map<std::string, std::map<util::IpPrefix, Route>> ribs;

  // Compares two solutions' forwarding-relevant content, ignoring
  // router-local identifiers. Used to validate Theorem 3.3. Attribute
  // fields that are meaningful network-wide (prefix, protocol, local-pref,
  // communities, metric) must match; `learned_from` must match by name.
  bool SameAs(const RoutingSolution& other) const;

  std::string ToString() const;
};

// Iterates to a fixed point (or `max_iterations`, far above any real
// convergence time for the topologies the tests build).
RoutingSolution Solve(const Network& network, int max_iterations = 64);

}  // namespace campion::sim
