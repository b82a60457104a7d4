#pragma once

// Compiles routing-policy IR into BDD predicates over the symbolic
// route-advertisement space (our analogue of Bonsai's import/export-filter
// encoding). Works relative to one router's configuration, which supplies
// the prefix-list and community-list definitions that route-map matches
// reference by name.

#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "encode/route_adv.h"
#include "ir/config.h"
#include "ir/policy.h"

namespace campion::encode {

class PolicyEncoder {
 public:
  PolicyEncoder(RouteAdvLayout& layout, const ir::RouterConfig& config)
      : layout_(layout), config_(config) {}

  // The set of advertisements a prefix list permits (first match wins;
  // implicit deny at the end).
  bdd::BddRef PrefixListPermits(const ir::PrefixList& list);
  // The set of advertisements a community list permits.
  bdd::BddRef CommunityListPermits(const ir::CommunityList& list);
  // One match condition (names are a disjunction across referenced lists).
  bdd::BddRef MatchToBdd(const ir::RouteMapMatch& match);
  // A clause guard: the conjunction of all its match conditions.
  bdd::BddRef ClauseGuard(const ir::RouteMapClause& clause);

  // References to undefined lists encountered while encoding. An undefined
  // list matches nothing (the conservative reading); each occurrence is
  // recorded here so the caller can surface it.
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  RouteAdvLayout& layout_;
  const ir::RouterConfig& config_;
  std::vector<std::string> warnings_;
};

}  // namespace campion::encode
