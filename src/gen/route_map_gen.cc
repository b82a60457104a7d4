#include "gen/route_map_gen.h"

#include <random>

namespace campion::gen {
namespace {

using util::Community;
using util::Ipv4Address;
using util::IpPrefix;
using util::PrefixRange;

class RouteMapGenerator {
 public:
  explicit RouteMapGenerator(const RouteMapGenOptions& options)
      : options_(options), rng_(options.seed) {}

  GeneratedRouteMapPair Run() {
    GeneratedRouteMapPair pair;
    pair.map_name = options_.map_name;
    BuildLists(pair.config1);
    pair.config2 = pair.config1;

    ir::RouteMap map = RandomMap();
    pair.config1.route_maps[options_.map_name] = map;
    pair.config2.route_maps[options_.map_name] = map;
    InjectDifferences(pair);
    return pair;
  }

 private:
  std::uint32_t Uniform(std::uint32_t bound) {
    return std::uniform_int_distribution<std::uint32_t>(0, bound - 1)(rng_);
  }

  PrefixRange RandomRange() {
    // Tree-structured pool under 10.0.0.0/8 with varied windows.
    int length = 10 + static_cast<int>(Uniform(12));
    std::uint32_t bits = (10u << 24) | (Uniform(1u << 10) << 14);
    int low = length + static_cast<int>(Uniform(4));
    int high = low + static_cast<int>(Uniform(static_cast<std::uint32_t>(
                         33 - low)));
    return PrefixRange(IpPrefix(Ipv4Address(bits), length), low, high);
  }

  Community CommunityAt(std::uint32_t index) {
    return Community(64500, static_cast<std::uint16_t>(index));
  }

  void BuildLists(ir::RouterConfig& config) {
    for (int l = 0; l < options_.prefix_lists; ++l) {
      ir::PrefixList list;
      list.name = "PL-" + std::to_string(l);
      for (int e = 0; e < options_.entries_per_list; ++e) {
        // Permit-only: JunOS prefix-lists and route-filters carry no
        // per-entry action, so deny entries have no cross-vendor
        // equivalent; generated policies stay inside both vendors'
        // expressible domain. (Cisco deny entries are covered by the
        // parser and encoder unit tests.)
        list.entries.push_back(
            {ir::LineAction::kPermit, RandomRange(), {}});
      }
      config.prefix_lists[list.name] = std::move(list);
    }
    // A few community lists with 1-2 members (both OR and AND shapes).
    for (int c = 0; c < 3; ++c) {
      ir::CommunityList list;
      list.name = "CL-" + std::to_string(c);
      int entries = 1 + static_cast<int>(Uniform(2));
      for (int e = 0; e < entries; ++e) {
        std::vector<Community> all_of{CommunityAt(Uniform(
            static_cast<std::uint32_t>(options_.communities)))};
        if (Uniform(3) == 0) {
          all_of.push_back(CommunityAt(Uniform(
              static_cast<std::uint32_t>(options_.communities))));
        }
        list.entries.push_back(
            {ir::LineAction::kPermit, std::move(all_of), {}});
      }
      config.community_lists[list.name] = std::move(list);
    }
  }

  ir::RouteMapClause RandomClause(int sequence) {
    ir::RouteMapClause clause;
    clause.sequence = sequence;
    std::uint32_t action = Uniform(10);
    clause.action = action < 5   ? ir::ClauseAction::kPermit
                    : action < 9 ? ir::ClauseAction::kDeny
                                 : ir::ClauseAction::kFallThrough;
    // Matches: usually a prefix list, sometimes a community, rarely both.
    if (Uniform(10) != 0) {
      ir::RouteMapMatch match;
      match.kind = ir::RouteMapMatch::Kind::kPrefixList;
      match.names = {"PL-" + std::to_string(Uniform(static_cast<std::uint32_t>(
                                options_.prefix_lists)))};
      clause.matches.push_back(std::move(match));
    }
    if (Uniform(3) == 0) {
      ir::RouteMapMatch match;
      match.kind = ir::RouteMapMatch::Kind::kCommunityList;
      match.names = {"CL-" + std::to_string(Uniform(3))};
      clause.matches.push_back(std::move(match));
    }
    if (Uniform(6) == 0) {
      ir::RouteMapMatch match;
      match.kind = ir::RouteMapMatch::Kind::kTag;
      match.value = 100 * (1 + Uniform(3));
      clause.matches.push_back(std::move(match));
    }
    // Sets on permitting/fall-through clauses.
    if (clause.action != ir::ClauseAction::kDeny) {
      if (Uniform(2) == 0) {
        ir::RouteMapSet set;
        set.kind = ir::RouteMapSet::Kind::kLocalPreference;
        set.value = 50 + 10 * Uniform(20);
        clause.sets.push_back(std::move(set));
      }
      if (Uniform(3) == 0) {
        ir::RouteMapSet set;
        set.kind = Uniform(2) == 0 ? ir::RouteMapSet::Kind::kCommunityAdd
                                   : ir::RouteMapSet::Kind::kCommunitySet;
        set.communities = {CommunityAt(Uniform(
            static_cast<std::uint32_t>(options_.communities)))};
        clause.sets.push_back(std::move(set));
      }
      if (Uniform(5) == 0) {
        ir::RouteMapSet set;
        set.kind = ir::RouteMapSet::Kind::kMetric;
        set.value = Uniform(1000);
        clause.sets.push_back(std::move(set));
      }
    }
    return clause;
  }

  ir::RouteMap RandomMap() {
    ir::RouteMap map;
    map.name = options_.map_name;
    for (int c = 0; c < options_.clauses; ++c) {
      map.clauses.push_back(RandomClause(10 * (c + 1)));
    }
    map.default_action = Uniform(2) == 0 ? ir::ClauseAction::kPermit
                                         : ir::ClauseAction::kDeny;
    return map;
  }

  void InjectDifferences(GeneratedRouteMapPair& pair) {
    ir::RouteMap& map = pair.config2.route_maps[options_.map_name];
    int injected = 0;
    int guard = 0;
    while (injected < options_.differences && guard++ < 100 &&
           !map.clauses.empty()) {
      std::size_t index =
          Uniform(static_cast<std::uint32_t>(map.clauses.size()));
      ir::RouteMapClause& clause = map.clauses[index];
      std::string what = "clause " + std::to_string(clause.sequence) + ": ";
      switch (Uniform(4)) {
        case 0:
          clause.action = clause.action == ir::ClauseAction::kPermit
                              ? ir::ClauseAction::kDeny
                              : ir::ClauseAction::kPermit;
          what += "flipped action";
          break;
        case 1: {
          if (clause.sets.empty()) continue;
          clause.sets[0].value += 10;
          what += "perturbed set value";
          break;
        }
        case 2: {
          // Mutate a referenced prefix list's entry window in config2.
          if (clause.matches.empty() ||
              clause.matches[0].kind != ir::RouteMapMatch::Kind::kPrefixList) {
            continue;
          }
          auto& list =
              pair.config2.prefix_lists[clause.matches[0].names[0]];
          if (list.entries.empty()) continue;
          const PrefixRange& r = list.entries[0].range;
          list.entries[0].range =
              PrefixRange(r.prefix(), r.low(),
                          r.high() == 32 ? r.low() : 32);
          what += "changed prefix window in " + list.name;
          break;
        }
        default:
          map.clauses.erase(map.clauses.begin() +
                            static_cast<std::ptrdiff_t>(index));
          what += "deleted clause";
          break;
      }
      pair.injected.push_back(what);
      ++injected;
    }
  }

  RouteMapGenOptions options_;
  std::mt19937_64 rng_;
};

}  // namespace

GeneratedRouteMapPair GenerateRouteMapPair(const RouteMapGenOptions& options) {
  return RouteMapGenerator(options).Run();
}

std::vector<RandomRoute> SampleRoutes(const GeneratedRouteMapPair& pair,
                                      int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](std::uint32_t bound) {
    return std::uniform_int_distribution<std::uint32_t>(0, bound - 1)(rng);
  };

  // Pool of interesting prefixes: members and near-misses of every range
  // constant in either configuration, plus some random ones.
  std::vector<IpPrefix> prefixes;
  for (const ir::RouterConfig* config : {&pair.config1, &pair.config2}) {
    for (const auto& range : config->AllPrefixRanges()) {
      if (range.family() != util::AddressFamily::kIpv4) continue;
      const IpPrefix& base = range.prefix();
      const Ipv4Address address = base.address().V4();
      prefixes.push_back(base);
      if (range.low() <= 32) {
        prefixes.push_back(IpPrefix(address, range.low()));
      }
      if (range.high() <= 32) {
        prefixes.push_back(IpPrefix(address, range.high()));
      }
      if (range.high() + 1 <= 32) {
        prefixes.push_back(IpPrefix(address, range.high() + 1));
      }
      // A sibling that shares all but the last base bit.
      if (base.length() > 0) {
        std::uint32_t flipped = address.bits() ^ (1u << (32 - base.length()));
        prefixes.push_back(IpPrefix(Ipv4Address(flipped), base.length()));
      }
    }
  }
  std::vector<Community> communities;
  for (const ir::RouterConfig* config : {&pair.config1, &pair.config2}) {
    for (const auto& community : config->AllCommunities()) {
      communities.push_back(community);
    }
  }

  std::vector<RandomRoute> routes;
  routes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    RandomRoute route;
    if (!prefixes.empty() && uniform(8) != 0) {
      route.prefix =
          prefixes[uniform(static_cast<std::uint32_t>(prefixes.size()))];
    } else {
      int length = static_cast<int>(uniform(33));
      route.prefix = IpPrefix(Ipv4Address(rng() & 0xFFFFFFFFu), length);
    }
    for (const auto& community : communities) {
      if (uniform(3) == 0) route.communities.push_back(community);
    }
    route.tag = uniform(2) == 0 ? 0 : 100 * (1 + uniform(3));
    route.metric = uniform(1000);
    routes.push_back(std::move(route));
  }
  return routes;
}

}  // namespace campion::gen
