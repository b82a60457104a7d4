// Empirical check of Theorem 3.3 (soundness): if Campion reports no
// differences between two configurations, swapping one for the other in
// any network leaves the routing solution unchanged — and conversely, the
// Figure 1 differences Campion reports do manifest in the simulator. Also
// demonstrates the §5.3 latent (false-positive) case: a reported
// difference in a component the current network never exercises leaves
// the solution unchanged until some other change activates it.

#include "bench/bench_util.h"
#include "core/config_diff.h"
#include "sim/network.h"
#include "tests/testdata.h"

namespace {

using campion::util::Ipv4Address;
using campion::util::IpPrefix;

// A two-router internet: the device under test (Fig. 1 router) exporting
// to an external peer through POL.
campion::sim::Network BuildWorld(const campion::ir::RouterConfig& dut) {
  campion::sim::Network network;
  campion::ir::RouterConfig device = dut;
  device.hostname = "dut";
  // The device originates a prefix inside the NETS window (not exact):
  // 10.9.1.0/24 — the space where the Figure 1 route maps disagree.
  device.bgp->networks.push_back(IpPrefix(Ipv4Address(10, 9, 1, 0), 24));
  device.bgp->networks.push_back(IpPrefix(Ipv4Address(172, 20, 0, 0), 16));
  network.AddRouter(std::move(device));

  campion::ir::RouterConfig peer;
  peer.hostname = "peer";
  peer.vendor = campion::ir::Vendor::kCisco;
  campion::ir::BgpProcess bgp;
  bgp.asn = 65001;
  campion::ir::BgpNeighbor neighbor;
  neighbor.ip = Ipv4Address(10, 0, 12, 1);
  neighbor.remote_as = 65000;
  neighbor.send_community = true;
  bgp.neighbors.push_back(neighbor);
  peer.bgp = std::move(bgp);
  network.AddRouter(std::move(peer));

  network.AddBgpSession("dut", Ipv4Address(10, 0, 12, 1), "peer",
                        Ipv4Address(10, 0, 12, 9));
  return network;
}

void PrintExperiment() {
  auto cisco = campion::testing::ParseCiscoOrDie(campion::testing::kFig1Cisco);
  auto juniper =
      campion::testing::ParseJuniperOrDie(campion::testing::kFig1Juniper);

  // 1. Locally equivalent configs => same routing solution.
  auto base = campion::sim::Solve(BuildWorld(cisco));
  auto same = campion::sim::Solve(BuildWorld(cisco));
  std::cout << "identical configs -> identical solutions: "
            << (base.SameAs(same) ? "yes" : "NO (bug)") << "\n";

  // 2. The Figure 1 differences manifest: the Juniper router exports
  // 10.9.1.0/24 (accepted by rule3) where the Cisco router rejects it.
  auto changed = campion::sim::Solve(BuildWorld(juniper));
  bool peer_sees_cisco =
      base.ribs["peer"].contains(IpPrefix(Ipv4Address(10, 9, 1, 0), 24));
  bool peer_sees_juniper =
      changed.ribs["peer"].contains(IpPrefix(Ipv4Address(10, 9, 1, 0), 24));
  std::cout << "peer learns 10.9.1.0/24 from the Cisco DUT: "
            << (peer_sees_cisco ? "yes" : "no")
            << "  (paper: rejected by route-map POL deny 10)\n";
  std::cout << "peer learns 10.9.1.0/24 from the Juniper DUT: "
            << (peer_sees_juniper ? "yes" : "no")
            << "  (paper: accepted by term rule3)\n";
  std::cout << "Campion-reported difference manifests in the simulator: "
            << (peer_sees_cisco != peer_sees_juniper ? "yes" : "NO (bug)")
            << "\n";

  // 3. Latent difference (§5.3): remove the static route from the Cisco
  // config — Campion reports it (Table 4), but no BGP/OSPF behavior in this
  // network depends on it, so the *BGP* solution at the peer is unchanged.
  auto no_static = cisco;
  no_static.static_routes.clear();
  auto latent = campion::sim::Solve(BuildWorld(no_static));
  std::cout << "static-route difference changes the peer's RIB: "
            << (latent.ribs["peer"] == base.ribs["peer"] ? "no (latent)"
                                                          : "yes")
            << "  (paper S5.3: reported differences can be latent)\n";
}

void BM_SolveChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  campion::sim::Network network;
  for (int i = 0; i < n; ++i) {
    campion::ir::RouterConfig router;
    router.hostname = "r" + std::to_string(i);
    campion::ir::BgpProcess bgp;
    bgp.asn = 65000u + static_cast<std::uint32_t>(i);
    if (i > 0) {
      campion::ir::BgpNeighbor left;
      left.ip = Ipv4Address(10, 255, static_cast<std::uint8_t>(i - 1), 1);
      left.remote_as = 65000u + static_cast<std::uint32_t>(i - 1);
      left.send_community = true;
      bgp.neighbors.push_back(left);
    }
    if (i + 1 < n) {
      campion::ir::BgpNeighbor right;
      right.ip = Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 2);
      right.remote_as = 65000u + static_cast<std::uint32_t>(i + 1);
      right.send_community = true;
      bgp.neighbors.push_back(right);
    }
    bgp.networks.push_back(
        IpPrefix(Ipv4Address(10, static_cast<std::uint8_t>(i), 0, 0), 24));
    router.bgp = std::move(bgp);
    network.AddRouter(std::move(router));
  }
  for (int i = 0; i + 1 < n; ++i) {
    network.AddBgpSession(
        "r" + std::to_string(i),
        Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 1),
        "r" + std::to_string(i + 1),
        Ipv4Address(10, 255, static_cast<std::uint8_t>(i), 2));
  }
  for (auto _ : state) {
    auto solution = campion::sim::Solve(network, 4 * n);
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_SolveChain)->Arg(4)->Arg(16)->Arg(48)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv,
      "Theorem 3.3: local equivalence vs routing solutions (simulator)",
      PrintExperiment);
}
