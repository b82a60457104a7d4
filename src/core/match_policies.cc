#include "core/match_policies.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>

namespace campion::core {

std::string ToString(PolicyDirection direction) {
  return direction == PolicyDirection::kImport ? "import" : "export";
}

namespace {

void MatchBgpNeighbors(const ir::RouterConfig& config1,
                       const ir::RouterConfig& config2,
                       PolicyPairing& pairing) {
  if (!config1.bgp || !config2.bgp) return;
  std::map<util::Ipv4Address, const ir::BgpNeighbor*> n1, n2;
  for (const auto& n : config1.bgp->neighbors) n1.emplace(n.ip, &n);
  for (const auto& n : config2.bgp->neighbors) n2.emplace(n.ip, &n);

  for (const auto& [ip, x1] : n1) {
    auto it = n2.find(ip);
    if (it == n2.end()) {
      pairing.unmatched.push_back("BGP neighbor " + ip.ToString() +
                                  " exists only in " + config1.hostname);
      continue;
    }
    const ir::BgpNeighbor* x2 = it->second;
    // Pair policies whenever either side has one (an absent policy is an
    // accept-everything map, which SemanticDiff handles uniformly).
    if (!x1->import_policy.empty() || !x2->import_policy.empty()) {
      pairing.route_maps.push_back({ip, PolicyDirection::kImport,
                                    x1->import_policy, x2->import_policy});
    }
    if (!x1->export_policy.empty() || !x2->export_policy.empty()) {
      pairing.route_maps.push_back({ip, PolicyDirection::kExport,
                                    x1->export_policy, x2->export_policy});
    }
  }
  for (const auto& [ip, x2] : n2) {
    if (!n1.contains(ip)) {
      pairing.unmatched.push_back("BGP neighbor " + ip.ToString() +
                                  " exists only in " + config2.hostname);
    }
  }
}

void MatchAcls(const ir::RouterConfig& config1,
               const ir::RouterConfig& config2, PolicyPairing& pairing) {
  for (const auto& [name, acl] : config1.acls) {
    if (auto it = config2.acls.find(name); it != config2.acls.end()) {
      if (acl.family != it->second.family) {
        pairing.unmatched.push_back(
            "ACL " + name + " is " +
            (acl.family == util::AddressFamily::kIpv4 ? "IPv4" : "IPv6") +
            " in " + config1.hostname + " but " +
            (it->second.family == util::AddressFamily::kIpv4 ? "IPv4"
                                                             : "IPv6") +
            " in " + config2.hostname + "; not compared");
        continue;
      }
      pairing.acls.push_back({name});
    } else {
      pairing.unmatched.push_back("ACL " + name + " exists only in " +
                                  config1.hostname);
    }
  }
  for (const auto& [name, acl] : config2.acls) {
    if (!config1.acls.contains(name)) {
      pairing.unmatched.push_back("ACL " + name + " exists only in " +
                                  config2.hostname);
    }
  }
}

void MatchRedistributions(const ir::RouterConfig& config1,
                          const ir::RouterConfig& config2,
                          PolicyPairing& pairing) {
  auto match_process = [&](ir::Protocol via,
                           const std::vector<ir::Redistribution>& r1,
                           const std::vector<ir::Redistribution>& r2) {
    std::map<ir::Protocol, const ir::Redistribution*> m1, m2;
    for (const auto& r : r1) m1.emplace(r.from, &r);
    for (const auto& r : r2) m2.emplace(r.from, &r);
    for (const auto& [from, x1] : m1) {
      auto it = m2.find(from);
      // Presence mismatches are reported by StructuralDiff; here we only
      // pair the policies of redistributions both sides configure.
      if (it == m2.end()) continue;
      if (!x1->route_map.empty() || !it->second->route_map.empty()) {
        pairing.redistributions.push_back(
            {via, from, x1->route_map, it->second->route_map});
      }
    }
  };
  if (config1.ospf && config2.ospf) {
    match_process(ir::Protocol::kOspf, config1.ospf->redistributions,
                  config2.ospf->redistributions);
  }
  if (config1.bgp && config2.bgp) {
    match_process(ir::Protocol::kBgp, config1.bgp->redistributions,
                  config2.bgp->redistributions);
  }
}

// Pairs interfaces by identical name, then by shared subnet: each
// remaining config1 interface, in order, takes the first config2 interface
// on its subnet whose name is neither on config1 nor taken yet (backup
// routers sit on the same subnets with different host addresses). A name
// stands for every interface that carries it, duplicates included.
void MatchInterfaces(const ir::RouterConfig& config1,
                     const ir::InterfaceIndex& interfaces1,
                     const ir::RouterConfig& config2,
                     const ir::InterfaceIndex& interfaces2,
                     PolicyPairing& pairing) {
  const std::vector<ir::Interface>& all2 = config2.interfaces;
  // Taken config2 names, marked at the first interface of each name (where
  // InterfaceIndex::Find lands).
  std::vector<bool> taken(all2.size());
  auto slot = [&](const ir::Interface& i2) {
    return static_cast<std::size_t>(interfaces2.Find(i2.name) - all2.data());
  };

  // Pass 1: identical names.
  for (const auto& i1 : config1.interfaces) {
    if (interfaces2.Find(i1.name) != nullptr) {
      pairing.interfaces.emplace_back(i1.name, i1.name);
    }
  }

  // Pass 2: shared subnet. The candidates are config2's addressed
  // interfaces whose names config1 lacks, sorted by (subnet, position), so
  // each subnet's candidates form one run in config order. `next` holds,
  // at each run's first slot, the run's first candidate not yet seen
  // taken (a taken name stays taken).
  std::vector<std::pair<util::IpPrefix, std::size_t>> candidates;
  for (std::size_t j = 0; j < all2.size(); ++j) {
    if (interfaces1.Find(all2[j].name) != nullptr) continue;
    if (auto subnet = all2[j].ConnectedSubnet()) {
      candidates.emplace_back(*subnet, j);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  std::vector<std::size_t> next(candidates.size());
  for (std::size_t k = 0; k < next.size(); ++k) next[k] = k;

  for (const auto& i1 : config1.interfaces) {
    if (interfaces2.Find(i1.name) != nullptr) continue;
    auto subnet1 = i1.ConnectedSubnet();
    if (!subnet1) continue;
    const std::size_t first =
        std::lower_bound(candidates.begin(), candidates.end(),
                         std::pair(*subnet1, std::size_t{0})) -
        candidates.begin();
    auto on_subnet = [&](std::size_t k) {
      return k < candidates.size() && candidates[k].first == *subnet1;
    };
    const ir::Interface* match = nullptr;
    if (on_subnet(first)) {
      std::size_t& k = next[first];
      while (on_subnet(k) && taken[slot(all2[candidates[k].second])]) ++k;
      if (on_subnet(k)) match = &all2[candidates[k++].second];
    }
    if (match == nullptr) {
      pairing.unmatched.push_back("interface " + i1.name +
                                  " exists only in " + config1.hostname);
      continue;
    }
    pairing.interfaces.emplace_back(i1.name, match->name);
    taken[slot(*match)] = true;
  }

  for (const auto& i2 : all2) {
    if (interfaces1.Find(i2.name) != nullptr || taken[slot(i2)]) continue;
    pairing.unmatched.push_back("interface " + i2.name + " exists only in " +
                                config2.hostname);
  }
}

}  // namespace

PolicyPairing MatchPolicies(const ir::RouterConfig& config1,
                            const ir::RouterConfig& config2) {
  return MatchPolicies(config1, ir::InterfaceIndex(config1), config2,
                       ir::InterfaceIndex(config2));
}

PolicyPairing MatchPolicies(const ir::RouterConfig& config1,
                            const ir::InterfaceIndex& interfaces1,
                            const ir::RouterConfig& config2,
                            const ir::InterfaceIndex& interfaces2) {
  PolicyPairing pairing;
  MatchBgpNeighbors(config1, config2, pairing);
  MatchAcls(config1, config2, pairing);
  MatchRedistributions(config1, config2, pairing);
  MatchInterfaces(config1, interfaces1, config2, interfaces2, pairing);
  return pairing;
}

}  // namespace campion::core
