#include "gen/router_gen.h"

#include <random>

#include "gen/acl_gen.h"
#include "gen/route_map_gen.h"

namespace campion::gen {
namespace {

using util::Community;
using util::Ipv4Address;
using util::IpPrefix;

class RouterGenerator {
 public:
  explicit RouterGenerator(const RouterGenOptions& options)
      : options_(options), rng_(options.seed) {}

  ir::RouterConfig Run() {
    ir::RouterConfig config;
    config.hostname = "gen-" + std::to_string(options_.seed);
    config.vendor = ir::Vendor::kUnknown;

    AddInterfaces(config);
    AddStaticRoutes(config);
    AddPolicies(config);
    AddAcls(config);
    if (options_.with_ospf) AddOspf(config);
    if (options_.with_bgp) AddBgp(config);
    return config;
  }

 private:
  std::uint32_t Uniform(std::uint32_t bound) {
    return std::uniform_int_distribution<std::uint32_t>(0, bound - 1)(rng_);
  }

  void AddInterfaces(ir::RouterConfig& config) {
    for (int i = 0; i < options_.interfaces; ++i) {
      ir::Interface iface;
      iface.name = "Ethernet" + std::to_string(i);
      iface.address =
          Ipv4Address(10, 100, static_cast<std::uint8_t>(i), 1);
      iface.prefix_length = 24 + static_cast<int>(Uniform(8));
      if (iface.prefix_length > 31) iface.prefix_length = 31;
      iface.shutdown = Uniform(10) == 0;
      config.interfaces.push_back(std::move(iface));
    }
  }

  void AddStaticRoutes(ir::RouterConfig& config) {
    for (int i = 0; i < options_.static_routes; ++i) {
      ir::StaticRoute route;
      route.prefix = IpPrefix(
          Ipv4Address(10, 250, static_cast<std::uint8_t>(Uniform(200)), 0),
          24);
      route.next_hop =
          Ipv4Address(10, 100, static_cast<std::uint8_t>(Uniform(
                                   static_cast<std::uint32_t>(
                                       options_.interfaces))),
                      254);
      route.admin_distance = Uniform(4) == 0 ? 250 : 1;
      if (Uniform(3) == 0) route.tag = 100 * (1 + Uniform(5));
      config.static_routes.push_back(std::move(route));
    }
  }

  void AddPolicies(ir::RouterConfig& config) {
    RouteMapGenOptions map_options;
    map_options.seed = rng_();
    map_options.clauses = 3 + static_cast<int>(Uniform(5));
    for (int m = 0; m < options_.route_maps; ++m) {
      map_options.map_name = "MAP-" + std::to_string(m);
      map_options.seed = rng_();
      GeneratedRouteMapPair pair = GenerateRouteMapPair(map_options);
      // Merge the generated lists and map into the config (names from the
      // generator are stable, so later maps reuse earlier lists).
      for (auto& [name, list] : pair.config1.prefix_lists) {
        config.prefix_lists[name] = list;
      }
      for (auto& [name, list] : pair.config1.community_lists) {
        config.community_lists[name] = list;
      }
      config.route_maps[map_options.map_name] =
          pair.config1.route_maps[map_options.map_name];
    }
    // One as-path list, sometimes referenced by a map clause.
    ir::AsPathList as_path;
    as_path.name = "ASP-1";
    as_path.entries.push_back(
        {ir::LineAction::kPermit,
         "^" + std::to_string(64000 + Uniform(1000)) + "_", {}});
    config.as_path_lists[as_path.name] = as_path;
    if (!config.route_maps.empty() && Uniform(2) == 0) {
      auto& map = config.route_maps.begin()->second;
      if (!map.clauses.empty()) {
        ir::RouteMapMatch match;
        match.kind = ir::RouteMapMatch::Kind::kAsPathList;
        match.names = {"ASP-1"};
        map.clauses[0].matches.push_back(std::move(match));
      }
    }
  }

  void AddAcls(ir::RouterConfig& config) {
    AclGenOptions acl_options;
    for (int a = 0; a < options_.acls; ++a) {
      acl_options.seed = rng_();
      acl_options.rules = 10 + static_cast<int>(Uniform(30));
      acl_options.differences = 0;
      acl_options.name = "ACL-" + std::to_string(a);
      GeneratedAclPair pair = GenerateAclPair(acl_options);
      config.acls[acl_options.name] = pair.acl1;
      if (a < options_.interfaces) {
        config.interfaces[static_cast<std::size_t>(a)].in_acl =
            acl_options.name;
      }
    }
  }

  void AddOspf(ir::RouterConfig& config) {
    config.ospf.emplace();
    config.ospf->process_id = 1;
    config.ospf->reference_bandwidth_mbps = Uniform(2) == 0 ? 100 : 100000;
    for (std::size_t i = 0; i < config.interfaces.size(); i += 2) {
      config.interfaces[i].ospf_enabled = true;
      config.interfaces[i].ospf_area = Uniform(2);
      if (Uniform(2) == 0) {
        config.interfaces[i].ospf_cost = 10 * (1 + Uniform(10));
      }
      config.interfaces[i].ospf_passive = Uniform(5) == 0;
    }
    if (!config.route_maps.empty() && Uniform(2) == 0) {
      config.ospf->redistributions.push_back(
          {ir::Protocol::kStatic, config.route_maps.begin()->first, {}});
    }
  }

  void AddBgp(ir::RouterConfig& config) {
    ir::BgpProcess bgp;
    bgp.asn = 64500 + Uniform(1000);
    bgp.router_id = Ipv4Address(10, 100, 0, 1);
    int networks = 1 + static_cast<int>(Uniform(3));
    for (int n = 0; n < networks; ++n) {
      bgp.networks.push_back(IpPrefix(
          Ipv4Address(10, 100, static_cast<std::uint8_t>(n), 0), 24));
    }
    int neighbors = 2 + static_cast<int>(Uniform(3));
    std::vector<std::string> map_names;
    for (const auto& [name, map] : config.route_maps) {
      map_names.push_back(name);
    }
    for (int n = 0; n < neighbors; ++n) {
      ir::BgpNeighbor neighbor;
      neighbor.ip =
          Ipv4Address(10, 200, static_cast<std::uint8_t>(n), 2);
      bool internal = Uniform(3) == 0;
      neighbor.remote_as = internal ? bgp.asn : 64000 + Uniform(500);
      // Always send communities: JunOS has no per-neighbor opt-out, so
      // send_community=false is Cisco-only (covered by the university
      // scenario, where it is precisely the reported difference).
      neighbor.send_community = true;
      // The next-hop-self *neighbor property* is Cisco-only (JunOS uses a
      // `then next-hop self` export policy); keep generated configs inside
      // the shared domain.
      neighbor.next_hop_self = false;
      neighbor.route_reflector_client = internal && Uniform(2) == 0;
      if (!map_names.empty() && Uniform(3) != 0) {
        neighbor.import_policy = map_names[Uniform(
            static_cast<std::uint32_t>(map_names.size()))];
      }
      if (!map_names.empty() && Uniform(3) != 0) {
        neighbor.export_policy = map_names[Uniform(
            static_cast<std::uint32_t>(map_names.size()))];
      }
      bgp.neighbors.push_back(std::move(neighbor));
    }
    if (!map_names.empty() && Uniform(2) == 0) {
      bgp.redistributions.push_back(
          {ir::Protocol::kConnected, map_names[0], {}});
    }
    config.bgp = std::move(bgp);
  }

  RouterGenOptions options_;
  std::mt19937_64 rng_;
};

}  // namespace

ir::RouterConfig GenerateRouterConfig(const RouterGenOptions& options) {
  return RouterGenerator(options).Run();
}

}  // namespace campion::gen
