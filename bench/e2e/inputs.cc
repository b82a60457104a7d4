// Seeded workload inputs, the independent correctness oracle, and the
// serial reference reports every measured output is checked against.

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "baseline/monolithic.h"
#include "bench/e2e/e2e.h"
#include "cisco/cisco_unparser.h"
#include "core/match_policies.h"
#include "frontend/loader.h"
#include "gen/acl_gen.h"
#include "gen/router_gen.h"
#include "gen/scenarios.h"
#include "juniper/juniper_unparser.h"
#include "util/ip.h"
#include "util/u128.h"

namespace campion::bench_e2e {

namespace {

using Kind = core::DifferenceEntry::Kind;

// Distinct streams per input family, so two workloads given the same seed
// do not draw the same numbers.
constexpr std::uint64_t kUniversityStream = 0x756e6976ull;
constexpr std::uint64_t kRouterStream = 0x726f7574ull;
constexpr std::uint64_t kSessionStream = 0x73657373ull;

util::IpWildcard XorAddress(const util::IpWildcard& wildcard,
                            const util::U128& mask) {
  if (wildcard.family() == util::AddressFamily::kIpv4) {
    const auto low = static_cast<std::uint32_t>(mask.lo());
    return util::IpWildcard(util::Ipv4Address(wildcard.address().bits() ^ low),
                            wildcard.wildcard_bits());
  }
  return util::IpWildcard(util::Ipv6Address(wildcard.address_wide() ^ mask),
                          wildcard.wildcard_wide());
}

// True when `map` matches on an IPv6 prefix list, which puts its pair in
// the IPv6 advertisement space.
bool MatchesIpv6Prefixes(const ir::RouterConfig& config,
                         const ir::RouteMap& map) {
  for (const ir::RouteMapClause& clause : map.clauses) {
    for (const ir::RouteMapMatch& match : clause.matches) {
      if (match.kind != ir::RouteMapMatch::Kind::kPrefixList) continue;
      for (const std::string& name : match.names) {
        const ir::PrefixList* list = config.FindPrefixList(name);
        if (list != nullptr && list->family == util::AddressFamily::kIpv6) {
          return true;
        }
      }
    }
  }
  return false;
}

ir::Acl XorAddresses(ir::Acl acl, const util::U128& mask) {
  for (ir::AclLine& line : acl.lines) {
    line.src = XorAddress(line.src, mask);
    line.dst = XorAddress(line.dst, mask);
  }
  return acl;
}

}  // namespace

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Reference ComputeReference(const TextPair& pair) {
  Reference reference;
  try {
    const frontend::LoadResult loaded1 =
        frontend::LoadConfig(pair.text1, pair.file1);
    const frontend::LoadResult loaded2 =
        frontend::LoadConfig(pair.text2, pair.file2);
    const ir::RouterConfig& config1 = loaded1.config;
    const ir::RouterConfig& config2 = loaded2.config;

    // The oracle pairs policies exactly as ConfigDiff does (MatchPolicies,
    // each distinct route-map pair once) but decides each pair with the
    // monolithic checkers, which share no differencing code with Campion.
    // Those checkers encode IPv4 headers only, so IPv6 pairs get no verdict
    // and rest on the serial reference alone.
    const core::PolicyPairing pairing = core::MatchPolicies(config1, config2);
    std::set<std::pair<std::string, std::string>> seen;
    for (const core::RouteMapPairing& maps : pairing.route_maps) {
      if (!seen.insert({maps.name1, maps.name2}).second) continue;
      const ir::RouteMap* map1 = config1.FindRouteMap(maps.name1);
      const ir::RouteMap* map2 = config2.FindRouteMap(maps.name2);
      if (map1 == nullptr || map2 == nullptr ||
          MatchesIpv6Prefixes(config1, *map1) ||
          MatchesIpv6Prefixes(config2, *map2)) {
        continue;
      }
      const baseline::MonolithicRouteMapChecker checker(config1, *map1,
                                                        config2, *map2);
      reference.verdicts.push_back(
          {Kind::kRouteMapSemantic,
           "Route map difference: " + map1->name + " vs " + map2->name + " (",
           !checker.Equivalent()});
    }
    for (const core::AclPairing& acls : pairing.acls) {
      const ir::Acl* acl1 = config1.FindAcl(acls.name);
      const ir::Acl* acl2 = config2.FindAcl(acls.name);
      if (acl1 == nullptr || acl2 == nullptr ||
          acl1->family != util::AddressFamily::kIpv4 ||
          acl2->family != util::AddressFamily::kIpv4) {
        continue;
      }
      const baseline::MonolithicAclChecker checker(*acl1, *acl2);
      reference.verdicts.push_back(
          {Kind::kAclSemantic, "ACL difference: " + acls.name,
           !checker.Equivalent()});
    }

    core::DiffOptions serial;
    serial.num_threads = 1;
    const core::DiffReport report = core::ConfigDiff(config1, config2, serial);
    reference.rendered = report.Render();
    reference.entries = report.entries.size();
    reference.equivalent = report.Equivalent();
    const std::string disagreement =
        CheckAgainstOracle(report, reference.verdicts);
    if (!disagreement.empty()) {
      reference.error = pair.label + ": " + disagreement;
    }
  } catch (const std::exception& error) {
    reference.error = pair.label + ": " + error.what();
  }
  return reference;
}

std::string CheckAgainstOracle(const core::DiffReport& report,
                               const std::vector<PolicyVerdict>& verdicts) {
  for (const PolicyVerdict& verdict : verdicts) {
    int reported = 0;
    for (const core::DifferenceEntry& entry : report.entries) {
      if (entry.kind != verdict.kind) continue;
      // ACL titles are exact; route-map titles go on with the neighbor.
      const bool match = verdict.kind == Kind::kAclSemantic
                             ? entry.title == verdict.title
                             : entry.title.rfind(verdict.title, 0) == 0;
      if (match) ++reported;
    }
    if ((reported > 0) != verdict.differs) {
      return "'" + verdict.title + "': the oracle says " +
             (verdict.differs ? "they differ" : "they are equivalent") +
             ", the report has " + std::to_string(reported) +
             " difference(s)";
    }
  }
  return "";
}

std::vector<TextPair> UniversityPairs(std::uint64_t seed) {
  Rng rng(seed ^ kUniversityStream);
  std::vector<TextPair> pairs;
  // Four filler sizes spread over [600, 1200]; the seed moves each by at
  // most 10, so every seed gives new texts but the same amount of work.
  for (int step = 0; step < 4; ++step) {
    const int filler = 675 + 150 * step + static_cast<int>(rng.Below(21)) - 10;
    const gen::UniversityScenario scenario =
        gen::BuildUniversityScenario(filler);
    const std::string size = std::to_string(filler);
    pairs.push_back({"core@" + size, "core_cisco.cfg",
                     cisco::UnparseCiscoConfig(scenario.core.config1),
                     "core_juniper.conf",
                     juniper::UnparseJuniperConfig(scenario.core.config2)});
    pairs.push_back({"border@" + size, "border_cisco.cfg",
                     cisco::UnparseCiscoConfig(scenario.border.config1),
                     "border_juniper.conf",
                     juniper::UnparseJuniperConfig(scenario.border.config2)});
  }
  return pairs;
}

std::vector<TextPair> GeneratedRouterPairs(std::uint64_t seed) {
  Rng rng(seed ^ kRouterStream);
  std::vector<TextPair> pairs;
  for (int i = 0; i < 8; ++i) {
    // The same eight routers for every seed: their cost differs by a factor
    // of two or more, so drawing them from the seed would make the seed,
    // not the code, move the numbers. The seed renumbers every ACL address
    // instead, which changes the text but not the work.
    gen::RouterGenOptions options;
    options.seed = static_cast<std::uint64_t>(i + 1);
    options.interfaces = 96;
    options.static_routes = 128;
    options.route_maps = 48;
    options.acls = 32;
    ir::RouterConfig config = gen::GenerateRouterConfig(options);
    const std::uint64_t high = rng.Next();
    const util::U128 mask(high, rng.Next());
    for (auto& [name, acl] : config.acls) acl = XorAddresses(acl, mask);
    pairs.push_back({"router" + std::to_string(i), "router.cfg",
                     cisco::UnparseCiscoConfig(config), "router.conf",
                     juniper::UnparseJuniperConfig(config)});
  }
  return pairs;
}

std::vector<AclBase> FleetBases() {
  std::vector<AclBase> bases;
  for (int slot = 0; slot < kBatchPairs; ++slot) {
    for (int alternate = 0; alternate < 2; ++alternate) {
      const int rank = 2 * slot + alternate;  // 0 .. 15
      gen::AclGenOptions options;
      options.rules = 50 + rank * 350 / 15;
      options.seed = static_cast<std::uint64_t>(rank + 1);
      options.differences = rank % 4;  // 0: an equivalent pair.
      options.name = "FLEET_ACL";
      options.family = slot % 4 == 3 ? util::AddressFamily::kIpv6
                                     : util::AddressFamily::kIpv4;
      gen::GeneratedAclPair generated = gen::GenerateAclPair(options);
      bases.push_back({std::move(generated.acl1), std::move(generated.acl2)});
    }
  }
  return bases;
}

TextPair AclVariant(const AclBase& base, std::uint64_t variant_seed,
                    const std::string& label) {
  Rng rng(variant_seed);
  const std::uint64_t high = rng.Next();
  const util::U128 mask(high, rng.Next());
  return {label, "config1",
          cisco::UnparseCiscoConfig(gen::WrapAclInConfig(
              XorAddresses(base.acl1, mask), "fleet-a", ir::Vendor::kCisco)),
          "config2",
          juniper::UnparseJuniperConfig(gen::WrapAclInConfig(
              XorAddresses(base.acl2, mask), "fleet-b",
              ir::Vendor::kJuniper))};
}

SessionScenario BuildSessionScenario(std::uint64_t seed) {
  Rng rng(seed ^ kSessionStream);
  const int filler = 890 + static_cast<int>(rng.Below(21));
  gen::UniversityScenario scenario = gen::BuildUniversityScenario(filler);
  return {cisco::UnparseCiscoConfig(scenario.core.config1),
          std::move(scenario.core.config2)};
}

std::string EditedCandidate(const ir::RouterConfig& candidate,
                            std::uint32_t local_preference) {
  ir::RouterConfig edited = candidate;
  for (ir::RouteMapClause& clause :
       edited.route_maps.at("IMPORT-CORE").clauses) {
    for (ir::RouteMapSet& set : clause.sets) {
      if (set.kind == ir::RouteMapSet::Kind::kLocalPreference) {
        set.value = local_preference;
      }
    }
  }
  return juniper::UnparseJuniperConfig(edited);
}

}  // namespace campion::bench_e2e
