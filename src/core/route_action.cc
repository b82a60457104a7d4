#include "core/route_action.h"

namespace campion::core {

RouteAction RouteAction::FromPath(bool accept,
                                  std::span<const ir::RouteMapSet> sets) {
  RouteAction action;
  action.accept = accept;
  if (!accept) return action;  // A rejected route's attributes are moot.
  for (const auto& set : sets) {
    switch (set.kind) {
      case ir::RouteMapSet::Kind::kLocalPreference:
        action.local_pref = set.value;
        break;
      case ir::RouteMapSet::Kind::kMetric:
        action.metric = set.value;
        break;
      case ir::RouteMapSet::Kind::kTag:
        action.tag = set.value;
        break;
      case ir::RouteMapSet::Kind::kNextHop:
        action.next_hop = set.next_hop;
        action.next_hop_self = false;
        break;
      case ir::RouteMapSet::Kind::kNextHopSelf:
        action.next_hop_self = true;
        action.next_hop.reset();
        break;
      case ir::RouteMapSet::Kind::kCommunitySet:
        action.communities_replaced = true;
        action.communities_added.clear();
        action.communities_removed.clear();
        action.communities_added.insert(set.communities.begin(),
                                        set.communities.end());
        break;
      case ir::RouteMapSet::Kind::kCommunityAdd:
        for (const auto& c : set.communities) {
          action.communities_added.insert(c);
          action.communities_removed.erase(c);
        }
        break;
      case ir::RouteMapSet::Kind::kCommunityDelete:
        for (const auto& c : set.communities) {
          action.communities_removed.insert(c);
          action.communities_added.erase(c);
        }
        break;
    }
  }
  return action;
}

std::string RouteAction::ToString() const {
  if (!accept) return "REJECT";
  std::string out;
  if (local_pref) {
    out += "SET LOCAL PREF " + std::to_string(*local_pref) + "\n";
  }
  if (metric) out += "SET METRIC " + std::to_string(*metric) + "\n";
  if (tag) out += "SET TAG " + std::to_string(*tag) + "\n";
  if (next_hop) out += "SET NEXT HOP " + next_hop->ToString() + "\n";
  if (next_hop_self) out += "SET NEXT HOP SELF\n";
  if (communities_replaced) {
    out += "SET COMMUNITIES";
    for (const auto& c : communities_added) {
      out += ' ';
      out += c.ToString();
    }
    out += "\n";
  } else {
    if (!communities_added.empty()) {
      out += "ADD COMMUNITIES";
      for (const auto& c : communities_added) {
      out += ' ';
      out += c.ToString();
    }
      out += "\n";
    }
    if (!communities_removed.empty()) {
      out += "REMOVE COMMUNITIES";
      for (const auto& c : communities_removed) {
        out += ' ';
        out += c.ToString();
      }
      out += "\n";
    }
  }
  out += "ACCEPT";
  return out;
}

}  // namespace campion::core
