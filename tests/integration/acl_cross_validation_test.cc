// Cross-validation of the symbolic ACL analysis against a directly-written
// concrete packet evaluator, on random generated IPv4 and IPv6 ACL pairs: a
// sampled packet is treated differently by the two filters exactly when it
// lies in some difference set reported by SemanticDiffAcls, and each
// difference's witnesses take the actions it reports on each side.

#include <gtest/gtest.h>

#include <random>

#include "bdd/bdd.h"
#include "core/semantic_diff.h"
#include "encode/packet.h"
#include "gen/acl_gen.h"

namespace campion {
namespace {

// Straight-line reference semantics of an ACL on one packet: first match
// wins, implicit deny. Written independently of the symbolic encoder.
bool Permits(const ir::Acl& acl, const encode::PacketExample& packet) {
  for (const auto& line : acl.lines) {
    if (line.protocol && *line.protocol != packet.protocol) continue;
    if (!line.src.Matches(packet.src_ip)) continue;
    if (!line.dst.Matches(packet.dst_ip)) continue;
    auto port_ok = [](const std::vector<ir::PortRange>& ranges,
                      std::uint16_t port) {
      if (ranges.empty()) return true;
      for (const auto& range : ranges) {
        if (port >= range.low && port <= range.high) return true;
      }
      return false;
    };
    if (!port_ok(line.src_ports, packet.src_port)) continue;
    if (!port_ok(line.dst_ports, packet.dst_port)) continue;
    if (line.icmp_type && (packet.protocol != ir::kProtoIcmp ||
                           *line.icmp_type != packet.icmp_type)) {
      continue;
    }
    if (line.established && !packet.established) continue;
    return line.action == ir::LineAction::kPermit;
  }
  return false;
}

// Draws a packet around one line of either ACL (five packets in six) or a
// uniformly random one, so that the lines' boundaries get exercised. Around
// a line: its addresses, half the time with one bit flipped near the prefix
// boundary (the generators' prefixes are /16../28 for IPv4 and /48../60
// for IPv6); its protocol three times in four; and half the time an edge of
// its port ranges, ±1.
encode::PacketExample SamplePacket(std::mt19937_64& rng,
                                   const ir::Acl& acl1, const ir::Acl& acl2) {
  auto uniform = [&](std::uint32_t bound) {
    return std::uniform_int_distribution<std::uint32_t>(0, bound - 1)(rng);
  };
  const bool v6 = acl1.family == util::AddressFamily::kIpv6;
  const ir::Acl& from = uniform(2) == 0 ? acl1 : acl2;
  const ir::AclLine* line = nullptr;
  if (!from.lines.empty() && uniform(6) != 0) {
    line = &from.lines[uniform(static_cast<std::uint32_t>(from.lines.size()))];
  }

  auto pick_addr = [&](const util::IpWildcard* w) -> util::IpAddress {
    if (w == nullptr) {
      if (v6) return util::Ipv6Address(util::U128(rng(), rng()));
      return util::Ipv4Address(static_cast<std::uint32_t>(rng()));
    }
    util::U128 base = w->address_wide();
    if (uniform(2) == 0) {
      int bit = static_cast<int>(v6 ? 64 + uniform(32) : uniform(16));
      base = base ^ (util::U128(1) << bit);
    }
    if (v6) return util::Ipv6Address(base);
    return util::Ipv4Address(static_cast<std::uint32_t>(base.lo()));
  };
  static constexpr std::uint16_t kPorts[] = {22, 53, 80, 179, 443,
                                             1023, 1024, 8080, 65535};
  auto pick_port = [&](const std::vector<ir::PortRange>* ranges) {
    if (ranges != nullptr && !ranges->empty() && uniform(2) == 0) {
      const ir::PortRange& range =
          (*ranges)[uniform(static_cast<std::uint32_t>(ranges->size()))];
      int edge = uniform(2) == 0 ? range.low : range.high;
      return static_cast<std::uint16_t>(edge + static_cast<int>(uniform(3)) -
                                        1);
    }
    return kPorts[uniform(std::size(kPorts))];
  };

  encode::PacketExample packet;
  packet.src_ip = pick_addr(line != nullptr ? &line->src : nullptr);
  packet.dst_ip = pick_addr(line != nullptr ? &line->dst : nullptr);
  if (line != nullptr && line->protocol && uniform(4) != 0) {
    packet.protocol = *line->protocol;
  } else {
    switch (uniform(4)) {
      case 0: packet.protocol = ir::kProtoTcp; break;
      case 1: packet.protocol = ir::kProtoUdp; break;
      case 2: packet.protocol = v6 ? ir::kProtoIcmpv6 : ir::kProtoIcmp; break;
      default: packet.protocol = static_cast<std::uint8_t>(uniform(256)); break;
    }
  }
  packet.src_port = pick_port(line != nullptr ? &line->src_ports : nullptr);
  packet.dst_port = pick_port(line != nullptr ? &line->dst_ports : nullptr);
  packet.icmp_type = static_cast<std::uint8_t>(uniform(2) == 0 ? 8 : 0);
  packet.established = uniform(2) == 0;
  return packet;
}

bdd::BddRef ExactPacket(encode::PacketLayout& layout,
                        const encode::PacketExample& packet) {
  bdd::BddManager& mgr = layout.manager();
  bdd::BddRef f = mgr.True();
  f = mgr.And(f, layout.MatchSrc(util::IpWildcard(packet.src_ip)));
  f = mgr.And(f, layout.MatchDst(util::IpWildcard(packet.dst_ip)));
  f = mgr.And(f, layout.ProtocolIs(packet.protocol));
  f = mgr.And(f, layout.SrcPortIn({packet.src_port, packet.src_port}));
  f = mgr.And(f, layout.DstPortIn({packet.dst_port, packet.dst_port}));
  f = mgr.And(f, layout.IcmpTypeIs(packet.icmp_type));
  f = mgr.And(f, packet.established ? layout.Established()
                                    : mgr.Not(layout.Established()));
  return f;
}

// Each reported difference must hold on concrete packets: its witnesses
// get `action1` from the first ACL and `action2` from the second, and a
// sampled packet is treated differently exactly when some difference set
// contains it.
void CheckPair(std::uint64_t seed, util::AddressFamily family) {
  gen::AclGenOptions options;
  options.rules = 40;
  options.seed = seed;
  options.differences = seed % 2 == 0 ? 4 : 0;
  options.family = family;
  gen::GeneratedAclPair pair = gen::GenerateAclPair(options);

  bdd::BddManager mgr;
  encode::PacketLayout layout(mgr, family);
  auto diffs = core::SemanticDiffAcls(layout, pair.acl1, pair.acl2);
  bdd::BddRef union_of_diffs = mgr.False();
  for (const auto& diff : diffs) {
    union_of_diffs = mgr.Or(union_of_diffs, diff.input_set);
    for (auto cube : {mgr.AnySat(diff.input_set), mgr.MinSat(diff.input_set)}) {
      ASSERT_TRUE(cube.has_value());
      encode::PacketExample witness = layout.Decode(*cube);
      EXPECT_EQ(Permits(pair.acl1, witness),
                diff.action1 == ir::LineAction::kPermit)
          << witness.ToString() << " blamed on " << diff.text1;
      EXPECT_EQ(Permits(pair.acl2, witness),
                diff.action2 == ir::LineAction::kPermit)
          << witness.ToString() << " blamed on " << diff.text2;
    }
  }

  std::mt19937_64 rng(seed * 104729 + 3);
  for (int i = 0; i < 200; ++i) {
    encode::PacketExample packet = SamplePacket(rng, pair.acl1, pair.acl2);
    bool concrete_differs =
        Permits(pair.acl1, packet) != Permits(pair.acl2, packet);
    bool symbolic_differs =
        mgr.Intersects(ExactPacket(layout, packet), union_of_diffs);
    EXPECT_EQ(concrete_differs, symbolic_differs) << packet.ToString();
  }
}

class AclCrossValidationTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AclCrossValidationTest, SymbolicDifferencesMatchConcreteSemantics) {
  CheckPair(GetParam(), util::AddressFamily::kIpv4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AclCrossValidationTest,
                         ::testing::Range<std::uint64_t>(1, 31));

class AclCrossValidationV6Test
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AclCrossValidationV6Test, SymbolicDifferencesMatchConcreteSemantics) {
  CheckPair(GetParam(), util::AddressFamily::kIpv6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AclCrossValidationV6Test,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace campion
