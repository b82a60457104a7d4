#include "encode/policy_encoder.h"

#include "obs/metrics.h"

namespace campion::encode {

bdd::BddRef PolicyEncoder::PrefixListPermits(const ir::PrefixList& list) {
  bdd::BddManager& mgr = layout_.manager();
  obs::Count("encode.prefix_lists");
  obs::Count("encode.prefix_list_entries",
             static_cast<double>(list.entries.size()));
  // First match wins: walk entries in order, tracking the space not yet
  // matched by an earlier entry.
  bdd::BddRef permitted = mgr.False();
  bdd::BddRef remaining = mgr.True();
  for (const auto& entry : list.entries) {
    bdd::BddRef here = layout_.MatchPrefixRange(entry.range);
    if (entry.action == ir::LineAction::kPermit) {
      permitted = mgr.Or(permitted, mgr.And(remaining, here));
    }
    remaining = mgr.Diff(remaining, here);
  }
  return permitted;
}

bdd::BddRef PolicyEncoder::CommunityListPermits(const ir::CommunityList& list) {
  bdd::BddManager& mgr = layout_.manager();
  obs::Count("encode.community_lists");
  bdd::BddRef permitted = mgr.False();
  bdd::BddRef remaining = mgr.True();
  for (const auto& entry : list.entries) {
    // An entry matches when the route carries every community it names.
    bdd::BddRef here = mgr.True();
    for (const auto& community : entry.all_of) {
      here = mgr.And(here, layout_.HasCommunity(community));
    }
    if (entry.action == ir::LineAction::kPermit) {
      permitted = mgr.Or(permitted, mgr.And(remaining, here));
    }
    remaining = mgr.Diff(remaining, here);
  }
  return permitted;
}

bdd::BddRef PolicyEncoder::MatchToBdd(const ir::RouteMapMatch& match) {
  bdd::BddManager& mgr = layout_.manager();
  switch (match.kind) {
    case ir::RouteMapMatch::Kind::kPrefixList: {
      bdd::BddRef any = mgr.False();
      for (const auto& name : match.names) {
        const ir::PrefixList* list = config_.FindPrefixList(name);
        if (list == nullptr) {
          warnings_.push_back("undefined prefix-list: " + name);
          continue;
        }
        any = mgr.Or(any, PrefixListPermits(*list));
      }
      return any;
    }
    case ir::RouteMapMatch::Kind::kCommunityList: {
      bdd::BddRef any = mgr.False();
      for (const auto& name : match.names) {
        const ir::CommunityList* list = config_.FindCommunityList(name);
        if (list == nullptr) {
          warnings_.push_back("undefined community-list: " + name);
          continue;
        }
        any = mgr.Or(any, CommunityListPermits(*list));
      }
      return any;
    }
    case ir::RouteMapMatch::Kind::kAsPathList: {
      // AS-path regexes are compared as opaque atoms: two lists with the
      // same normalized signature get the same uninterpreted predicate, so
      // equal lists align and differing lists produce a difference with a
      // single example (the paper's treatment of non-prefix fields).
      bdd::BddRef any = mgr.False();
      for (const auto& name : match.names) {
        const ir::AsPathList* list = config_.FindAsPathList(name);
        if (list == nullptr) {
          warnings_.push_back("undefined as-path list: " + name);
          continue;
        }
        any = mgr.Or(any, layout_.UninterpretedPredicate(
                              "as-path matches: " + list->Signature()));
      }
      return any;
    }
    case ir::RouteMapMatch::Kind::kTag:
      return layout_.TagEquals(match.value);
    case ir::RouteMapMatch::Kind::kProtocol:
      return layout_.ProtocolIs(match.protocol);
    case ir::RouteMapMatch::Kind::kMetric:
      return layout_.MetricEquals(match.value);
  }
  return mgr.False();
}

bdd::BddRef PolicyEncoder::ClauseGuard(const ir::RouteMapClause& clause) {
  bdd::BddManager& mgr = layout_.manager();
  bdd::BddRef guard = mgr.True();
  for (const auto& match : clause.matches) {
    guard = mgr.And(guard, MatchToBdd(match));
  }
  return guard;
}

}  // namespace campion::encode
