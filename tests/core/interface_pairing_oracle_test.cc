// MatchPolicies pairs interfaces through a name index and a subnet index
// built once per call. This test holds it to the quadratic pairing it
// replaced, kept below verbatim as the reference: on seeded configurations
// with duplicate names, shared and repeated subnets, and interfaces that
// have no address or are shut down, `pairing.interfaces` and
// `pairing.unmatched` must equal the reference's element for element.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/match_policies.h"

namespace campion::core {
namespace {

// The pairing as MatchPolicies computed it before the indexes: a linear
// FindInterface per name and a scan of config2 per subnet.
void ReferenceMatchInterfaces(const ir::RouterConfig& config1,
                              const ir::RouterConfig& config2,
                              PolicyPairing& pairing) {
  std::set<std::string> used2;
  // Pass 1: identical names.
  for (const auto& i1 : config1.interfaces) {
    if (config2.FindInterface(i1.name) != nullptr) {
      pairing.interfaces.emplace_back(i1.name, i1.name);
      used2.insert(i1.name);
    }
  }
  // Pass 2: shared subnet (backup routers sit on the same subnets with
  // different host addresses).
  for (const auto& i1 : config1.interfaces) {
    if (config2.FindInterface(i1.name) != nullptr) continue;
    auto subnet1 = i1.ConnectedSubnet();
    if (!subnet1) continue;
    bool matched = false;
    for (const auto& i2 : config2.interfaces) {
      if (used2.contains(i2.name)) continue;
      auto subnet2 = i2.ConnectedSubnet();
      if (subnet2 && *subnet1 == *subnet2) {
        pairing.interfaces.emplace_back(i1.name, i2.name);
        used2.insert(i2.name);
        matched = true;
        break;
      }
    }
    if (!matched) {
      pairing.unmatched.push_back("interface " + i1.name +
                                  " exists only in " + config1.hostname);
    }
  }
  for (const auto& i2 : config2.interfaces) {
    if (config1.FindInterface(i2.name) != nullptr || used2.contains(i2.name)) {
      continue;
    }
    pairing.unmatched.push_back("interface " + i2.name + " exists only in " +
                                config2.hostname);
  }
}

// A router of interfaces only (no BGP or ACLs, so every unmatched note is
// an interface's). Names come from a pool shared by both sides, so names
// repeat within and across configs; addresses come from a few subnets,
// with varying hosts and lengths.
ir::RouterConfig RandomRouter(std::mt19937& rng, const std::string& hostname,
                              const char* own_prefix) {
  auto pick = [&](int n) {
    return static_cast<int>(std::uniform_int_distribution<int>(0, n - 1)(rng));
  };
  ir::RouterConfig config;
  config.hostname = hostname;
  const int count = pick(14);
  for (int i = 0; i < count; ++i) {
    ir::Interface iface;
    // Shared names ("eth2") and side-only names ("x3" / "y3").
    iface.name = pick(2) == 0 ? "eth" + std::to_string(pick(6))
                              : own_prefix + std::to_string(pick(6));
    if (pick(6) != 0) {
      iface.address = *util::Ipv4Address::Parse("10.0." +
                                                std::to_string(pick(4)) + "." +
                                                std::to_string(1 + pick(3)));
      // Mostly /24; a /30 puts the same hosts on a different subnet.
      iface.prefix_length = pick(4) == 0 ? 30 : 24;
    }
    iface.shutdown = pick(5) == 0;
    config.interfaces.push_back(std::move(iface));
  }
  return config;
}

TEST(InterfacePairingOracleTest, IndexedPairingEqualsTheQuadraticReference) {
  std::mt19937 rng(20211);
  int subnet_pairs = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const ir::RouterConfig config1 = RandomRouter(rng, "r1", "x");
    const ir::RouterConfig config2 = RandomRouter(rng, "r2", "y");
    PolicyPairing expected;
    ReferenceMatchInterfaces(config1, config2, expected);
    const PolicyPairing actual = MatchPolicies(config1, config2);
    ASSERT_EQ(actual.interfaces, expected.interfaces) << "trial " << trial;
    ASSERT_EQ(actual.unmatched, expected.unmatched) << "trial " << trial;
    for (const auto& [name1, name2] : expected.interfaces) {
      if (name1 != name2) ++subnet_pairs;
    }
  }
  // The generator reaches the subnet pass, not just the name pass.
  EXPECT_GT(subnet_pairs, 1000);
}

// A hand-made case of each rule the generator mixes: the first unused
// subnet match wins, a taken name is taken for all its duplicates, and a
// name config1 also has never pairs by subnet.
TEST(InterfacePairingOracleTest, FirstUnusedSubnetMatchInConfigOrder) {
  auto iface = [](const char* name, const char* address, int length) {
    ir::Interface out;
    out.name = name;
    if (address != nullptr) out.address = *util::Ipv4Address::Parse(address);
    out.prefix_length = length;
    return out;
  };
  ir::RouterConfig config1;
  config1.hostname = "r1";
  config1.interfaces = {iface("a", "10.0.0.1", 24), iface("b", "10.0.0.2", 24),
                        iface("c", "10.0.0.3", 24), iface("d", nullptr, 0),
                        iface("s", "10.0.9.1", 24)};
  ir::RouterConfig config2;
  config2.hostname = "r2";
  config2.interfaces = {iface("s", "10.0.0.9", 24), iface("p", "10.0.0.7", 24),
                        iface("q", "10.0.1.7", 24), iface("p", "10.0.0.8", 24),
                        iface("r", "10.0.0.6", 24)};
  PolicyPairing expected;
  ReferenceMatchInterfaces(config1, config2, expected);
  const PolicyPairing actual = MatchPolicies(config1, config2);
  EXPECT_EQ(actual.interfaces, expected.interfaces);
  EXPECT_EQ(actual.unmatched, expected.unmatched);
  EXPECT_EQ(actual.interfaces,
            (std::vector<std::pair<std::string, std::string>>{
                {"s", "s"}, {"a", "p"}, {"b", "r"}}));
}

}  // namespace
}  // namespace campion::core
