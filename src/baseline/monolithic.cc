#include "baseline/monolithic.h"

#include "core/semantic_diff.h"
#include "encode/policy_encoder.h"

namespace campion::baseline {
namespace {

// The monolithic transfer relation: for each path class, whether it
// accepts, plus an "action signature" so transform differences (e.g. a
// local-pref mismatch) also count — Minesweeper models the full route
// output, so two accepts with different attribute updates differ.
struct ComponentRelation {
  bdd::BddRef accepts = bdd::kFalse;
  std::vector<core::RouteMapPathClass> classes;
};

ComponentRelation BuildRelation(encode::RouteAdvLayout& layout,
                                const ir::RouterConfig& config,
                                const ir::RouteMap& map) {
  bdd::BddManager& mgr = layout.manager();
  encode::PolicyEncoder encoder(layout, config);
  ComponentRelation relation;
  relation.classes = core::BuildRouteMapClasses(layout, encoder, map);
  for (const auto& cls : relation.classes) {
    if (cls.action.accept) {
      relation.accepts = mgr.Or(relation.accepts, cls.predicate);
    }
  }
  return relation;
}

}  // namespace

MonolithicRouteMapChecker::MonolithicRouteMapChecker(
    const ir::RouterConfig& config1, const ir::RouteMap& map1,
    const ir::RouterConfig& config2, const ir::RouteMap& map2,
    CounterexampleOrder order)
    : layout_(mgr_,
              [&] {
                std::vector<util::Community> communities =
                    config1.AllCommunities();
                auto more = config2.AllCommunities();
                communities.insert(communities.end(), more.begin(),
                                   more.end());
                return communities;
              }()),
      order_(order) {
  ComponentRelation r1 = BuildRelation(layout_, config1, map1);
  ComponentRelation r2 = BuildRelation(layout_, config2, map2);
  accepts1_ = r1.accepts;
  accepts2_ = r2.accepts;

  // The difference relation: any input on which the two transfer functions
  // disagree — on accept/reject, or on the attribute transform applied.
  difference_ = mgr_.Xor(r1.accepts, r2.accepts);
  for (const auto& c1 : r1.classes) {
    for (const auto& c2 : r2.classes) {
      if (c1.action == c2.action) continue;
      if (!c1.action.accept || !c2.action.accept) continue;  // XOR covers.
      difference_ =
          mgr_.Or(difference_, mgr_.And(c1.predicate, c2.predicate));
    }
  }
  remaining_ = difference_;
}

std::optional<RouteMapCounterexample> MonolithicRouteMapChecker::Next() {
  std::optional<bdd::Cube> cube =
      order_ == CounterexampleOrder::kLexMin ? mgr_.MinSat(remaining_)
                                             : mgr_.AnySat(remaining_);
  if (!cube) return std::nullopt;
  RouteMapCounterexample counterexample;
  counterexample.advertisement = layout_.Decode(*cube);

  // Verdicts: evaluate the concrete advertisement against each relation by
  // building its exact-encoding predicate.
  bdd::BddRef concrete =
      layout_.MatchExactPrefix(counterexample.advertisement.prefix);
  for (const auto& community : layout_.communities()) {
    bool carried = false;
    for (const auto& c : counterexample.advertisement.communities) {
      if (c == community) carried = true;
    }
    bdd::BddRef has = layout_.HasCommunity(community);
    concrete = mgr_.And(concrete, carried ? has : mgr_.Not(has));
  }
  concrete = mgr_.And(concrete, layout_.TagEquals(
                                    counterexample.advertisement.tag));
  concrete = mgr_.And(concrete, layout_.MetricEquals(
                                    counterexample.advertisement.metric));
  concrete = mgr_.And(
      concrete, layout_.ProtocolIs(counterexample.advertisement.protocol));
  counterexample.accepted1 = mgr_.Intersects(concrete, accepts1_);
  counterexample.accepted2 = mgr_.Intersects(concrete, accepts2_);

  // Exclude every encoding of this concrete advertisement, like an SMT
  // blocking clause over the model's relevant variables.
  remaining_ = mgr_.Diff(remaining_, concrete);
  return counterexample;
}

std::string RouteMapCounterexample::ToString(const std::string& router1,
                                             const std::string& router2) const {
  std::string out;
  out += "Route received (" + router1 + "): " + advertisement.ToString() +
         "\n";
  out += "Route received (" + router2 + "): " + advertisement.ToString() +
         "\n";
  out += "Packet dstIp: " + advertisement.prefix.address().ToString() + "\n";
  auto verdict = [](bool accepted) {
    return accepted ? std::string("forwards (BGP)")
                    : std::string("does not forward");
  };
  out += "Forwarding: " + router1 + " " + verdict(accepted1) + ", " +
         router2 + " " + verdict(accepted2) + "\n";
  return out;
}

MonolithicAclChecker::MonolithicAclChecker(const ir::Acl& acl1,
                                           const ir::Acl& acl2,
                                           CounterexampleOrder order)
    : layout_(mgr_), order_(order) {
  auto permits = [&](const ir::Acl& acl) {
    bdd::BddRef permitted = mgr_.False();
    bdd::BddRef remaining = mgr_.True();
    for (const auto& line : acl.lines) {
      bdd::BddRef here = mgr_.And(remaining, layout_.MatchLine(line));
      if (line.action == ir::LineAction::kPermit) {
        permitted = mgr_.Or(permitted, here);
      }
      remaining = mgr_.Diff(remaining, here);
    }
    return permitted;
  };
  permits1_ = permits(acl1);
  permits2_ = permits(acl2);
  difference_ = mgr_.Xor(permits1_, permits2_);
  remaining_ = difference_;
}

std::optional<AclCounterexample> MonolithicAclChecker::Next() {
  std::optional<bdd::Cube> cube =
      order_ == CounterexampleOrder::kLexMin ? mgr_.MinSat(remaining_)
                                             : mgr_.AnySat(remaining_);
  if (!cube) return std::nullopt;
  AclCounterexample counterexample;
  counterexample.packet = layout_.Decode(*cube);

  // A packet is a total assignment; build its exact predicate.
  const encode::PacketExample& p = counterexample.packet;
  bdd::BddRef concrete = mgr_.True();
  concrete = mgr_.And(concrete,
                      layout_.MatchSrc(util::IpWildcard(p.src_ip)));
  concrete = mgr_.And(concrete,
                      layout_.MatchDst(util::IpWildcard(p.dst_ip)));
  concrete = mgr_.And(concrete, layout_.ProtocolIs(p.protocol));
  concrete = mgr_.And(concrete,
                      layout_.SrcPortIn({p.src_port, p.src_port}));
  concrete = mgr_.And(concrete,
                      layout_.DstPortIn({p.dst_port, p.dst_port}));
  concrete = mgr_.And(concrete, layout_.IcmpTypeIs(p.icmp_type));
  concrete = mgr_.And(concrete, p.established
                                    ? layout_.Established()
                                    : mgr_.Not(layout_.Established()));

  counterexample.permitted1 = mgr_.Intersects(concrete, permits1_);
  counterexample.permitted2 = mgr_.Intersects(concrete, permits2_);
  remaining_ = mgr_.Diff(remaining_, concrete);
  return counterexample;
}

std::string AclCounterexample::ToString(const std::string& router1,
                                        const std::string& router2) const {
  auto verdict = [](bool permitted) {
    return permitted ? std::string("permits") : std::string("denies");
  };
  return "Packet: " + packet.ToString() + "\nForwarding: " + router1 + " " +
         verdict(permitted1) + ", " + router2 + " " + verdict(permitted2) +
         "\n";
}

std::optional<StaticRouteCounterexample> MonolithicStaticRouteCheck(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2) {
  // Monolithic view: a packet is forwarded by a static route if some
  // configured route's prefix covers its destination. Report one address
  // covered on one side only — and nothing about which route or line.
  auto covered_by = [](const ir::RouterConfig& config,
                       util::Ipv4Address ip) {
    for (const auto& route : config.static_routes) {
      if (route.prefix.Contains(util::IpPrefix(ip, 32))) return true;
    }
    return false;
  };
  for (const auto& route : config1.static_routes) {
    util::Ipv4Address probe = route.prefix.address().V4();
    if (!covered_by(config2, probe)) {
      return StaticRouteCounterexample{probe, true, false};
    }
  }
  for (const auto& route : config2.static_routes) {
    util::Ipv4Address probe = route.prefix.address().V4();
    if (!covered_by(config1, probe)) {
      return StaticRouteCounterexample{probe, false, true};
    }
  }
  return std::nullopt;
}

std::string StaticRouteCounterexample::ToString(
    const std::string& router1, const std::string& router2) const {
  auto verdict = [](bool forwards) {
    return forwards ? std::string("forwards (static)")
                    : std::string("does not forward");
  };
  return "Packet dstIp: " + dst_ip.ToString() + "\nForwarding: " + router1 +
         " " + verdict(forwards1) + ", " + router2 + " " +
         verdict(forwards2) + "\n";
}

}  // namespace campion::baseline
