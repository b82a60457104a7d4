#include "ir/config.h"

#include <algorithm>
#include <set>

namespace campion::ir {

std::string ToString(Vendor vendor) {
  switch (vendor) {
    case Vendor::kCisco: return "cisco";
    case Vendor::kJuniper: return "juniper";
    case Vendor::kUnknown: return "unknown";
  }
  return "unknown";
}

const PrefixList* RouterConfig::FindPrefixList(const std::string& name) const {
  auto it = prefix_lists.find(name);
  return it == prefix_lists.end() ? nullptr : &it->second;
}

const CommunityList* RouterConfig::FindCommunityList(
    const std::string& name) const {
  auto it = community_lists.find(name);
  return it == community_lists.end() ? nullptr : &it->second;
}

const AsPathList* RouterConfig::FindAsPathList(const std::string& name) const {
  auto it = as_path_lists.find(name);
  return it == as_path_lists.end() ? nullptr : &it->second;
}

const RouteMap* RouterConfig::FindRouteMap(const std::string& name) const {
  auto it = route_maps.find(name);
  return it == route_maps.end() ? nullptr : &it->second;
}

const Acl* RouterConfig::FindAcl(const std::string& name) const {
  auto it = acls.find(name);
  return it == acls.end() ? nullptr : &it->second;
}

const Interface* RouterConfig::FindInterface(const std::string& name) const {
  for (const auto& iface : interfaces) {
    if (iface.name == name) return &iface;
  }
  return nullptr;
}

InterfaceIndex::InterfaceIndex(const RouterConfig& config) {
  by_name_.reserve(config.interfaces.size());
  for (const auto& iface : config.interfaces) by_name_.push_back(&iface);
  std::stable_sort(by_name_.begin(), by_name_.end(),
                   [](const Interface* a, const Interface* b) {
                     return a->name < b->name;
                   });
}

const Interface* InterfaceIndex::Find(std::string_view name) const {
  auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [](const Interface* iface, std::string_view key) {
        return iface->name < key;
      });
  return it != by_name_.end() && (*it)->name == name ? *it : nullptr;
}

const BgpNeighbor* RouterConfig::FindBgpNeighbor(util::Ipv4Address ip) const {
  if (!bgp) return nullptr;
  for (const auto& neighbor : bgp->neighbors) {
    if (neighbor.ip == ip) return &neighbor;
  }
  return nullptr;
}

std::vector<util::PrefixRange> RouterConfig::AllPrefixRanges() const {
  std::set<util::PrefixRange> ranges;
  for (const auto& [name, list] : prefix_lists) {
    for (const auto& entry : list.entries) ranges.insert(entry.range);
  }
  for (const auto& route : static_routes) {
    ranges.insert(util::PrefixRange(route.prefix));
  }
  if (bgp) {
    for (const auto& network : bgp->networks) {
      ranges.insert(util::PrefixRange(network));
    }
  }
  return {ranges.begin(), ranges.end()};
}

std::vector<util::Community> RouterConfig::AllCommunities() const {
  std::set<util::Community> communities;
  for (const auto& [name, list] : community_lists) {
    for (const auto& entry : list.entries) {
      communities.insert(entry.all_of.begin(), entry.all_of.end());
    }
  }
  for (const auto& [name, map] : route_maps) {
    for (const auto& clause : map.clauses) {
      for (const auto& set : clause.sets) {
        communities.insert(set.communities.begin(), set.communities.end());
      }
    }
  }
  return {communities.begin(), communities.end()};
}

}  // namespace campion::ir
