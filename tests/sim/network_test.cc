// Stable-routing-simulator tests, including the empirical Theorem 3.3
// check: Campion-equivalent configurations produce identical routing
// solutions, and Campion-reported differences either manifest or are
// provably latent (§5.3).

#include "sim/network.h"

#include <gtest/gtest.h>

#include "core/config_diff.h"
#include "tests/testdata.h"

namespace campion::sim {
namespace {

using util::Ipv4Address;
using util::IpPrefix;

// A three-router line: left -(eBGP)- middle -(eBGP)- right.
struct LineTopology {
  Network network;

  LineTopology() {
    network.AddRouter(MakeRouter("left", 65001, 0));
    network.AddRouter(MakeRouter("middle", 65002, 1));
    network.AddRouter(MakeRouter("right", 65003, 2));
    network.AddBgpSession("left", Addr(0, 1), "middle", Addr(0, 2));
    network.AddBgpSession("middle", Addr(1, 1), "right", Addr(1, 2));
  }

  static Ipv4Address Addr(int link, int side) {
    return Ipv4Address(10, 255, static_cast<std::uint8_t>(link),
                       static_cast<std::uint8_t>(side));
  }

  static ir::RouterConfig MakeRouter(const std::string& name,
                                     std::uint32_t asn, int index) {
    ir::RouterConfig config;
    config.hostname = name;
    ir::BgpProcess bgp;
    bgp.asn = asn;
    bgp.networks.push_back(
        IpPrefix(Ipv4Address(10, static_cast<std::uint8_t>(index), 0, 0), 24));
    if (index > 0) {
      ir::BgpNeighbor left;
      left.ip = Addr(index - 1, 1);
      left.remote_as = asn - 1;
      left.send_community = true;
      bgp.neighbors.push_back(left);
    }
    if (index < 2) {
      ir::BgpNeighbor right;
      right.ip = Addr(index, 2);
      right.remote_as = asn + 1;
      right.send_community = true;
      bgp.neighbors.push_back(right);
    }
    config.bgp = std::move(bgp);
    return config;
  }
};

TEST(SolveTest, BgpPropagatesAlongLine) {
  LineTopology topo;
  RoutingSolution solution = Solve(topo.network);
  // right learns left's network over two eBGP hops.
  IpPrefix left_net(Ipv4Address(10, 0, 0, 0), 24);
  ASSERT_TRUE(solution.ribs["right"].contains(left_net));
  const Route& route = solution.ribs["right"][left_net];
  EXPECT_EQ(route.protocol, ir::Protocol::kBgp);
  EXPECT_EQ(route.as_path_length, 2);
  EXPECT_EQ(route.learned_from, "middle");
}

TEST(SolveTest, FixedPointIsStable) {
  LineTopology topo;
  RoutingSolution first = Solve(topo.network);
  RoutingSolution second = Solve(topo.network);
  EXPECT_TRUE(first.SameAs(second));
}

TEST(SolveTest, ExportPolicyFilters) {
  LineTopology topo;
  // middle filters left's network toward right.
  ir::RouterConfig middle = *topo.network.FindRouter("middle");
  ir::PrefixList block;
  block.name = "BLOCK";
  block.entries.push_back(
      {ir::LineAction::kPermit,
       util::PrefixRange(IpPrefix(Ipv4Address(10, 0, 0, 0), 24)), {}});
  middle.prefix_lists["BLOCK"] = block;
  ir::RouteMap policy;
  policy.name = "EXP";
  ir::RouteMapClause deny;
  deny.action = ir::ClauseAction::kDeny;
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kPrefixList;
  match.names = {"BLOCK"};
  deny.matches.push_back(match);
  policy.clauses.push_back(deny);
  policy.default_action = ir::ClauseAction::kPermit;
  middle.route_maps["EXP"] = policy;
  middle.bgp->neighbors[1].export_policy = "EXP";
  topo.network.ReplaceRouter("middle", middle);

  RoutingSolution solution = Solve(topo.network);
  EXPECT_FALSE(
      solution.ribs["right"].contains(IpPrefix(Ipv4Address(10, 0, 0, 0), 24)));
  // Middle's own network still reaches right.
  EXPECT_TRUE(
      solution.ribs["right"].contains(IpPrefix(Ipv4Address(10, 1, 0, 0), 24)));
}

TEST(SolveTest, LocalPrefDoesNotCrossEbgp) {
  LineTopology topo;
  RoutingSolution solution = Solve(topo.network);
  IpPrefix left_net(Ipv4Address(10, 0, 0, 0), 24);
  EXPECT_EQ(solution.ribs["right"][left_net].local_pref, 100u);
}

TEST(SolveTest, SendCommunityControlsPropagation) {
  LineTopology topo;
  // left tags its network with a community on export.
  ir::RouterConfig left = *topo.network.FindRouter("left");
  ir::RouteMap tag;
  tag.name = "TAG";
  ir::RouteMapClause clause;
  clause.action = ir::ClauseAction::kPermit;
  ir::RouteMapSet set;
  set.kind = ir::RouteMapSet::Kind::kCommunityAdd;
  set.communities = {util::Community(65001, 1)};
  clause.sets.push_back(set);
  tag.clauses.push_back(clause);
  tag.default_action = ir::ClauseAction::kPermit;
  left.route_maps["TAG"] = tag;
  left.bgp->neighbors[0].export_policy = "TAG";
  topo.network.ReplaceRouter("left", left);

  RoutingSolution with_send = Solve(topo.network);
  IpPrefix left_net(Ipv4Address(10, 0, 0, 0), 24);
  EXPECT_TRUE(with_send.ribs["middle"][left_net].communities.contains(
      util::Community(65001, 1)));

  // Now disable send-community on left's session.
  ir::RouterConfig left2 = *topo.network.FindRouter("left");
  left2.bgp->neighbors[0].send_community = false;
  topo.network.ReplaceRouter("left", left2);
  RoutingSolution without_send = Solve(topo.network);
  EXPECT_TRUE(without_send.ribs["middle"][left_net].communities.empty());
}

TEST(SolveTest, StaticAndConnectedRoutesInstall) {
  Network network;
  ir::RouterConfig router;
  router.hostname = "r";
  ir::Interface iface;
  iface.name = "e1";
  iface.address = Ipv4Address(10, 0, 1, 1);
  iface.prefix_length = 24;
  router.interfaces.push_back(iface);
  ir::StaticRoute s;
  s.prefix = IpPrefix(Ipv4Address(10, 7, 0, 0), 16);
  s.next_hop = Ipv4Address(10, 0, 1, 254);
  router.static_routes.push_back(s);
  network.AddRouter(router);

  RoutingSolution solution = Solve(network);
  EXPECT_TRUE(
      solution.ribs["r"].contains(IpPrefix(Ipv4Address(10, 0, 1, 0), 24)));
  EXPECT_TRUE(
      solution.ribs["r"].contains(IpPrefix(Ipv4Address(10, 7, 0, 0), 16)));
  EXPECT_EQ(solution.ribs["r"][IpPrefix(Ipv4Address(10, 7, 0, 0), 16)].protocol,
            ir::Protocol::kStatic);
}

TEST(SolveTest, OspfFloodsWithCost) {
  Network network;
  auto make = [](const std::string& name, std::uint8_t octet,
                 std::uint32_t cost) {
    ir::RouterConfig config;
    config.hostname = name;
    ir::Interface link;
    link.name = "e0";
    link.address = Ipv4Address(10, 200, 0, octet);
    link.prefix_length = 24;
    link.ospf_enabled = true;
    link.ospf_area = 0;
    link.ospf_cost = cost;
    config.interfaces.push_back(link);
    ir::Interface lan;
    lan.name = "e1";
    lan.address = Ipv4Address(10, octet, 0, 1);
    lan.prefix_length = 24;
    lan.ospf_enabled = true;
    lan.ospf_area = 0;
    config.interfaces.push_back(lan);
    return config;
  };
  network.AddRouter(make("a", 1, 10));
  network.AddRouter(make("b", 2, 10));
  network.AddAdjacency("a", "e0", "b", "e0");

  RoutingSolution solution = Solve(network);
  IpPrefix b_lan(Ipv4Address(10, 2, 0, 0), 24);
  ASSERT_TRUE(solution.ribs["a"].contains(b_lan));
  EXPECT_EQ(solution.ribs["a"][b_lan].protocol, ir::Protocol::kOspf);
  EXPECT_EQ(solution.ribs["a"][b_lan].metric, 10u);
}

TEST(SolveTest, OspfRespectsAreasAndPassive) {
  Network network;
  auto make = [](const std::string& name, std::uint8_t octet,
                 std::uint32_t area, bool passive) {
    ir::RouterConfig config;
    config.hostname = name;
    ir::Interface link;
    link.name = "e0";
    link.address = Ipv4Address(10, 200, 0, octet);
    link.prefix_length = 24;
    link.ospf_enabled = true;
    link.ospf_area = area;
    link.ospf_passive = passive;
    config.interfaces.push_back(link);
    ir::Interface lan;
    lan.name = "e1";
    lan.address = Ipv4Address(10, octet, 0, 1);
    lan.prefix_length = 24;
    lan.ospf_enabled = true;
    lan.ospf_area = area;
    config.interfaces.push_back(lan);
    return config;
  };
  // Different areas: no exchange.
  network.AddRouter(make("a", 1, 0, false));
  network.AddRouter(make("b", 2, 1, false));
  network.AddAdjacency("a", "e0", "b", "e0");
  RoutingSolution different_areas = Solve(network);
  EXPECT_FALSE(different_areas.ribs["a"].contains(
      IpPrefix(Ipv4Address(10, 2, 0, 0), 24)));

  // Passive interface: no exchange either.
  Network network2;
  network2.AddRouter(make("a", 1, 0, true));
  network2.AddRouter(make("b", 2, 0, false));
  network2.AddAdjacency("a", "e0", "b", "e0");
  RoutingSolution passive = Solve(network2);
  EXPECT_FALSE(
      passive.ribs["a"].contains(IpPrefix(Ipv4Address(10, 2, 0, 0), 24)));
}

TEST(SolveTest, RouteReflectionRequiresClientFlag) {
  // hub with two iBGP spokes; spoke1 originates. Without reflection spoke2
  // must not learn the route; with the client flags set, it must.
  auto build = [](bool reflector) {
    Network network;
    ir::RouterConfig hub;
    hub.hostname = "hub";
    ir::BgpProcess hub_bgp;
    hub_bgp.asn = 65000;
    for (int i = 1; i <= 2; ++i) {
      ir::BgpNeighbor spoke;
      spoke.ip = Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 2);
      spoke.remote_as = 65000;
      spoke.send_community = true;
      spoke.route_reflector_client = reflector;
      hub_bgp.neighbors.push_back(spoke);
    }
    hub.bgp = std::move(hub_bgp);
    network.AddRouter(hub);

    for (int i = 1; i <= 2; ++i) {
      ir::RouterConfig spoke;
      spoke.hostname = "spoke" + std::to_string(i);
      ir::BgpProcess bgp;
      bgp.asn = 65000;
      ir::BgpNeighbor to_hub;
      to_hub.ip = Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 1);
      to_hub.remote_as = 65000;
      to_hub.send_community = true;
      bgp.neighbors.push_back(to_hub);
      if (i == 1) {
        bgp.networks.push_back(IpPrefix(Ipv4Address(10, 77, 0, 0), 16));
      }
      spoke.bgp = std::move(bgp);
      network.AddRouter(spoke);
      network.AddBgpSession(
          "hub", Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 1),
          "spoke" + std::to_string(i),
          Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 2));
    }
    return network;
  };

  RoutingSolution no_reflect = Solve(build(false));
  EXPECT_FALSE(no_reflect.ribs["spoke2"].contains(
      IpPrefix(Ipv4Address(10, 77, 0, 0), 16)));
  RoutingSolution reflect = Solve(build(true));
  EXPECT_TRUE(reflect.ribs["spoke2"].contains(
      IpPrefix(Ipv4Address(10, 77, 0, 0), 16)));
}

// --- Theorem 3.3 ------------------------------------------------------------

TEST(SoundnessTest, EquivalentConfigsSameSolutions) {
  // Swapping in an IR-identical copy leaves the solution unchanged.
  LineTopology topo;
  ir::RouterConfig variant = *topo.network.FindRouter("middle");
  RoutingSolution base = Solve(topo.network);
  topo.network.ReplaceRouter("middle", variant);
  RoutingSolution swapped = Solve(topo.network);
  EXPECT_TRUE(base.SameAs(swapped));
}

TEST(SoundnessTest, CampionCleanReplacementPreservesSolutions) {
  // Every clean replacement pair of the data-center scenario: swapping the
  // translation into the same topology preserves the solution.
  LineTopology topo;
  RoutingSolution base = Solve(topo.network);

  // Replace middle with a behaviorally identical router whose policies are
  // expressed differently (split prefix list entries).
  ir::RouterConfig middle = *topo.network.FindRouter("middle");
  ir::PrefixList allow;
  allow.name = "ALLOW";
  allow.entries.push_back(
      {ir::LineAction::kPermit,
       util::PrefixRange(IpPrefix(Ipv4Address(0, 0, 0, 0), 0), 0, 32), {}});
  middle.prefix_lists["ALLOW"] = allow;
  ir::RouteMap pass;
  pass.name = "PASS";
  ir::RouteMapClause clause;
  clause.action = ir::ClauseAction::kPermit;
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kPrefixList;
  match.names = {"ALLOW"};
  clause.matches.push_back(match);
  pass.clauses.push_back(clause);
  pass.default_action = ir::ClauseAction::kDeny;
  middle.route_maps["PASS"] = pass;
  middle.bgp->neighbors[0].export_policy = "PASS";  // Accept-all == none.

  // Campion agrees the replacement is behaviorally equivalent.
  auto diffs = core::DiffRouteMapPair(*topo.network.FindRouter("middle"), "",
                                      middle, "PASS");
  ASSERT_TRUE(diffs.empty());

  topo.network.ReplaceRouter("middle", middle);
  RoutingSolution swapped = Solve(topo.network);
  EXPECT_TRUE(base.SameAs(swapped));
}

TEST(SoundnessTest, ReportedDifferenceManifests) {
  // A local-pref difference Campion reports changes the routing solution in
  // a topology with two paths.
  Network network;
  // dst -(eBGP)- a -(iBGP)- chooser, dst -(eBGP)- b -(iBGP)- chooser:
  // chooser picks by local-pref set on a's/b's import.
  // Simplified: one router with two eBGP sessions to two origins of the
  // same prefix; import policy local-pref decides.
  ir::RouterConfig chooser;
  chooser.hostname = "chooser";
  ir::BgpProcess bgp;
  bgp.asn = 65000;
  for (int i = 1; i <= 2; ++i) {
    ir::BgpNeighbor n;
    n.ip = Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 2);
    n.remote_as = 65000u + static_cast<std::uint32_t>(i);
    n.send_community = true;
    n.import_policy = i == 1 ? "PREF-A" : "";
    bgp.neighbors.push_back(n);
  }
  chooser.bgp = std::move(bgp);
  ir::RouteMap pref;
  pref.name = "PREF-A";
  ir::RouteMapClause clause;
  clause.action = ir::ClauseAction::kPermit;
  ir::RouteMapSet set;
  set.kind = ir::RouteMapSet::Kind::kLocalPreference;
  set.value = 200;
  clause.sets.push_back(set);
  pref.clauses.push_back(clause);
  pref.default_action = ir::ClauseAction::kPermit;
  chooser.route_maps["PREF-A"] = pref;
  network.AddRouter(chooser);

  IpPrefix target(Ipv4Address(10, 50, 0, 0), 16);
  for (int i = 1; i <= 2; ++i) {
    ir::RouterConfig origin;
    origin.hostname = "origin" + std::to_string(i);
    ir::BgpProcess obgp;
    obgp.asn = 65000u + static_cast<std::uint32_t>(i);
    obgp.networks.push_back(target);
    ir::BgpNeighbor n;
    n.ip = Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 1);
    n.remote_as = 65000;
    n.send_community = true;
    obgp.neighbors.push_back(n);
    origin.bgp = std::move(obgp);
    network.AddRouter(origin);
    network.AddBgpSession(
        "chooser", Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 1),
        "origin" + std::to_string(i),
        Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 2));
  }

  RoutingSolution with_pref = Solve(network);
  ASSERT_TRUE(with_pref.ribs["chooser"].contains(target));
  EXPECT_EQ(with_pref.ribs["chooser"][target].learned_from, "origin1");

  // The "translated" chooser drops the local-pref (Campion flags this);
  // origin2's route now wins the tie-break differently.
  ir::RouterConfig translated = chooser;
  translated.route_maps["PREF-A"].clauses[0].sets.clear();
  auto diffs = core::DiffRouteMapPair(chooser, "PREF-A", translated, "PREF-A");
  ASSERT_EQ(diffs.size(), 1u);

  network.ReplaceRouter("chooser", translated);
  RoutingSolution without_pref = Solve(network);
  EXPECT_FALSE(with_pref.SameAs(without_pref));
}

TEST(SoundnessTest, LatentDifferenceDoesNotManifest) {
  // §5.3: a difference in a component the network never exercises leaves
  // the solution unchanged (but Campion still reports it).
  LineTopology topo;
  RoutingSolution base = Solve(topo.network);

  ir::RouterConfig middle = *topo.network.FindRouter("middle");
  ir::StaticRoute unused;
  unused.prefix = IpPrefix(Ipv4Address(203, 0, 113, 0), 24);
  unused.next_hop = Ipv4Address(10, 255, 0, 1);
  middle.static_routes.push_back(unused);

  // Campion reports the difference...
  auto diffs =
      core::DiffStaticRoutes(*topo.network.FindRouter("middle"), middle);
  ASSERT_EQ(diffs.size(), 1u);

  // ...but the BGP solution at the neighbors is unchanged (the static
  // route is local to middle and not redistributed).
  topo.network.ReplaceRouter("middle", middle);
  RoutingSolution swapped = Solve(topo.network);
  EXPECT_EQ(base.ribs["left"], swapped.ribs["left"]);
  EXPECT_EQ(base.ribs["right"], swapped.ribs["right"]);
}


TEST(SolveTest, OspfRedistributesStaticRoutes) {
  Network network;
  auto make = [](const std::string& name, std::uint8_t octet) {
    ir::RouterConfig config;
    config.hostname = name;
    ir::Interface link;
    link.name = "e0";
    link.address = Ipv4Address(10, 200, 0, octet);
    link.prefix_length = 24;
    link.ospf_enabled = true;
    link.ospf_area = 0;
    link.ospf_cost = 5;
    config.interfaces.push_back(link);
    return config;
  };
  ir::RouterConfig a = make("a", 1);
  // a redistributes its static route into OSPF through a policy that
  // matches protocol static and sets a tag.
  ir::StaticRoute external;
  external.prefix = IpPrefix(Ipv4Address(203, 0, 113, 0), 24);
  external.next_hop = Ipv4Address(10, 200, 0, 254);
  a.static_routes.push_back(external);
  ir::RouteMap redist;
  redist.name = "REDIST";
  ir::RouteMapClause clause;
  clause.action = ir::ClauseAction::kPermit;
  ir::RouteMapMatch match;
  match.kind = ir::RouteMapMatch::Kind::kProtocol;
  match.protocol = ir::Protocol::kStatic;
  clause.matches.push_back(match);
  ir::RouteMapSet set_tag;
  set_tag.kind = ir::RouteMapSet::Kind::kTag;
  set_tag.value = 777;
  clause.sets.push_back(set_tag);
  redist.clauses.push_back(clause);
  redist.default_action = ir::ClauseAction::kDeny;
  a.route_maps["REDIST"] = redist;
  a.ospf.emplace();
  a.ospf->redistributions.push_back({ir::Protocol::kStatic, "REDIST", {}});

  network.AddRouter(a);
  network.AddRouter(make("b", 2));
  network.AddAdjacency("a", "e0", "b", "e0");

  RoutingSolution solution = Solve(network);
  IpPrefix ext(Ipv4Address(203, 0, 113, 0), 24);
  ASSERT_TRUE(solution.ribs["b"].contains(ext));
  const Route& learned = solution.ribs["b"][ext];
  EXPECT_EQ(learned.protocol, ir::Protocol::kOspf);
  EXPECT_EQ(learned.tag, 777u);
  EXPECT_EQ(learned.metric, 5u);

  // Without the redistribution, b must not learn the external prefix.
  ir::RouterConfig no_redist = *network.FindRouter("a");
  no_redist.ospf->redistributions.clear();
  network.ReplaceRouter("a", no_redist);
  RoutingSolution without = Solve(network);
  EXPECT_FALSE(without.ribs["b"].contains(ext));
}

TEST(SolveTest, RedistributionPolicyFilters) {
  // A redistribution policy that rejects the prefix keeps it out of OSPF
  // even with the redistribution statement present.
  Network network;
  ir::RouterConfig a;
  a.hostname = "a";
  ir::Interface link;
  link.name = "e0";
  link.address = Ipv4Address(10, 200, 0, 1);
  link.prefix_length = 24;
  link.ospf_enabled = true;
  link.ospf_area = 0;
  a.interfaces.push_back(link);
  ir::StaticRoute external;
  external.prefix = IpPrefix(Ipv4Address(203, 0, 113, 0), 24);
  a.static_routes.push_back(external);
  ir::RouteMap deny_all;
  deny_all.name = "NONE";
  deny_all.default_action = ir::ClauseAction::kDeny;
  a.route_maps["NONE"] = deny_all;
  a.ospf.emplace();
  a.ospf->redistributions.push_back({ir::Protocol::kStatic, "NONE", {}});
  network.AddRouter(a);

  ir::RouterConfig b;
  b.hostname = "b";
  ir::Interface blink = link;
  blink.address = Ipv4Address(10, 200, 0, 2);
  b.interfaces.push_back(blink);
  network.AddRouter(b);
  network.AddAdjacency("a", "e0", "b", "e0");

  RoutingSolution solution = Solve(network);
  EXPECT_FALSE(
      solution.ribs["b"].contains(IpPrefix(Ipv4Address(203, 0, 113, 0), 24)));
}

}  // namespace
}  // namespace campion::sim
