#include "encode/packet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace campion::encode {
namespace {

using bdd::BddManager;
using bdd::BddRef;
using util::Ipv4Address;
using util::IpWildcard;
using util::IpPrefix;

class PacketTest : public ::testing::Test {
 protected:
  PacketTest() : layout_(mgr_) {}

  // The exact predicate of a concrete packet.
  BddRef Exact(const PacketExample& p) {
    BddRef f = mgr_.True();
    f = mgr_.And(f, layout_.MatchSrc(IpWildcard(p.src_ip)));
    f = mgr_.And(f, layout_.MatchDst(IpWildcard(p.dst_ip)));
    f = mgr_.And(f, layout_.ProtocolIs(p.protocol));
    f = mgr_.And(f, layout_.SrcPortIn({p.src_port, p.src_port}));
    f = mgr_.And(f, layout_.DstPortIn({p.dst_port, p.dst_port}));
    f = mgr_.And(f, layout_.IcmpTypeIs(p.icmp_type));
    return f;
  }

  bool Matches(const ir::AclLine& line, const PacketExample& p) {
    return mgr_.Intersects(layout_.MatchLine(line), Exact(p));
  }

  BddManager mgr_;
  PacketLayout layout_;
};

PacketExample Tcp(const char* src, const char* dst, std::uint16_t dport) {
  PacketExample p;
  p.src_ip = *Ipv4Address::Parse(src);
  p.dst_ip = *Ipv4Address::Parse(dst);
  p.protocol = ir::kProtoTcp;
  p.src_port = 32768;
  p.dst_port = dport;
  return p;
}

TEST_F(PacketTest, MatchLineFullTuple) {
  ir::AclLine line;
  line.action = ir::LineAction::kPermit;
  line.protocol = ir::kProtoTcp;
  line.src = IpWildcard(*IpPrefix::Parse("10.1.0.0/16"));
  line.dst = IpWildcard(*IpPrefix::Parse("10.2.0.0/16"));
  line.dst_ports.push_back({443, 443});

  EXPECT_TRUE(Matches(line, Tcp("10.1.5.5", "10.2.1.1", 443)));
  EXPECT_FALSE(Matches(line, Tcp("10.3.5.5", "10.2.1.1", 443)));  // src
  EXPECT_FALSE(Matches(line, Tcp("10.1.5.5", "10.9.1.1", 443)));  // dst
  EXPECT_FALSE(Matches(line, Tcp("10.1.5.5", "10.2.1.1", 80)));   // port
  PacketExample udp = Tcp("10.1.5.5", "10.2.1.1", 443);
  udp.protocol = ir::kProtoUdp;
  EXPECT_FALSE(Matches(line, udp));  // protocol
}

TEST_F(PacketTest, AnyProtocolLineMatchesAll) {
  ir::AclLine line;  // protocol nullopt = "ip", src/dst any.
  EXPECT_TRUE(Matches(line, Tcp("1.2.3.4", "5.6.7.8", 80)));
  PacketExample icmp;
  icmp.protocol = ir::kProtoIcmp;
  icmp.icmp_type = 8;
  EXPECT_TRUE(Matches(line, icmp));
}

TEST_F(PacketTest, PortDisjunction) {
  ir::AclLine line;
  line.protocol = ir::kProtoTcp;
  line.dst_ports.push_back({80, 80});
  line.dst_ports.push_back({443, 443});
  EXPECT_TRUE(Matches(line, Tcp("1.1.1.1", "2.2.2.2", 80)));
  EXPECT_TRUE(Matches(line, Tcp("1.1.1.1", "2.2.2.2", 443)));
  EXPECT_FALSE(Matches(line, Tcp("1.1.1.1", "2.2.2.2", 8080)));
}

TEST_F(PacketTest, PortRange) {
  ir::AclLine line;
  line.protocol = ir::kProtoUdp;
  line.dst_ports.push_back({1024, 65535});
  PacketExample p = Tcp("1.1.1.1", "2.2.2.2", 1024);
  p.protocol = ir::kProtoUdp;
  EXPECT_TRUE(Matches(line, p));
  p.dst_port = 1023;
  EXPECT_FALSE(Matches(line, p));
  p.dst_port = 65535;
  EXPECT_TRUE(Matches(line, p));
}

TEST_F(PacketTest, IcmpTypeMatch) {
  ir::AclLine line;
  line.protocol = ir::kProtoIcmp;
  line.icmp_type = 8;
  PacketExample echo;
  echo.protocol = ir::kProtoIcmp;
  echo.icmp_type = 8;
  EXPECT_TRUE(Matches(line, echo));
  echo.icmp_type = 0;
  EXPECT_FALSE(Matches(line, echo));
}

TEST_F(PacketTest, NonContiguousWildcardLine) {
  ir::AclLine line;
  line.src = IpWildcard(Ipv4Address(9, 140, 0, 0), 0x00000100u);
  PacketExample p;
  p.src_ip = Ipv4Address(9, 140, 1, 0);
  EXPECT_TRUE(Matches(line, p));
  p.src_ip = Ipv4Address(9, 140, 2, 0);
  EXPECT_FALSE(Matches(line, p));
}

TEST_F(PacketTest, DecodeRoundTrip) {
  PacketExample p = Tcp("10.1.5.5", "10.2.1.1", 443);
  p.src_port = 55555;
  auto cube = mgr_.AnySat(Exact(p));
  ASSERT_TRUE(cube.has_value());
  PacketExample decoded = layout_.Decode(*cube);
  EXPECT_EQ(decoded.src_ip, p.src_ip);
  EXPECT_EQ(decoded.dst_ip, p.dst_ip);
  EXPECT_EQ(decoded.protocol, p.protocol);
  EXPECT_EQ(decoded.src_port, p.src_port);
  EXPECT_EQ(decoded.dst_port, p.dst_port);
}

TEST_F(PacketTest, DstProjectionMask) {
  BddRef set =
      mgr_.And(layout_.MatchDstPrefix(*IpPrefix::Parse("10.2.0.0/16")),
               layout_.ProtocolIs(ir::kProtoTcp));
  BddRef projected = mgr_.Exists(set, layout_.NonDstIpVarMask());
  EXPECT_EQ(projected, layout_.MatchDstPrefix(*IpPrefix::Parse("10.2.0.0/16")));
}

TEST_F(PacketTest, ExampleToStringShowsPortsOnlyForTcpUdp) {
  PacketExample tcp = Tcp("1.1.1.1", "2.2.2.2", 80);
  EXPECT_NE(tcp.ToString().find("dstPort: 80"), std::string::npos);
  PacketExample icmp;
  icmp.protocol = ir::kProtoIcmp;
  icmp.icmp_type = 3;
  std::string text = icmp.ToString();
  EXPECT_EQ(text.find("dstPort"), std::string::npos);
  EXPECT_NE(text.find("icmpType: 3"), std::string::npos);
}

// --- Oracle: the And/Or MatchLine that the Branch chain replaced ---

// The old PacketLayout::MatchLine, kept only here: one predicate per field,
// conjoined with And, and a port list as an Or of And(Geq, Leq). The port
// fields sit where the layout documents them, because SrcPortIn/DstPortIn
// now go through the interval builder under test.
BddRef OracleMatchLine(BddManager& mgr, const PacketLayout& layout,
                       const ir::AclLine& line) {
  const int ip_width = util::AddressWidth(layout.family());
  const SymbolicField src_port(2 * ip_width + 8, 16);
  const SymbolicField dst_port(2 * ip_width + 24, 16);
  auto ports = [&](const SymbolicField& field,
                   const std::vector<ir::PortRange>& ranges) {
    BddRef any = mgr.False();
    for (const auto& r : ranges) {
      if (r.low > r.high) continue;  // The old InRange: false.
      any = mgr.Or(any, mgr.And(field.Geq(mgr, r.low),
                                field.Leq(mgr, r.high)));
    }
    return any;
  };
  BddRef match = mgr.True();
  if (line.protocol) match = mgr.And(match, layout.ProtocolIs(*line.protocol));
  match = mgr.And(match, layout.MatchSrc(line.src));
  match = mgr.And(match, layout.MatchDst(line.dst));
  if (!line.src_ports.empty()) {
    match = mgr.And(match, ports(src_port, line.src_ports));
  }
  if (!line.dst_ports.empty()) {
    match = mgr.And(match, ports(dst_port, line.dst_ports));
  }
  if (line.icmp_type) {
    match = mgr.And(match, layout.IcmpTypeIs(*line.icmp_type));
  }
  if (line.established) match = mgr.And(match, layout.Established());
  return match;
}

std::uint16_t RandomPort(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: return 0;
    case 1: return 65535;
    case 2: return static_cast<std::uint16_t>(rng() % 1100);
    default: return static_cast<std::uint16_t>(rng());
  }
}

// A non-empty port list in one of the shapes the parsers can produce or
// that the builder must tolerate.
std::vector<ir::PortRange> RandomPorts(std::mt19937_64& rng) {
  auto range = [&] {
    std::uint16_t a = RandomPort(rng), b = RandomPort(rng);
    if (a > b) std::swap(a, b);
    return ir::PortRange{a, b};
  };
  std::vector<ir::PortRange> ports;
  switch (rng() % 7) {
    case 0:  // One range or one port.
      ports.push_back(rng() % 2 == 0 ? range()
                                     : ir::PortRange{RandomPort(rng),
                                                     RandomPort(rng)});
      break;
    case 1:  // Several, unsorted.
      for (int k = 0, n = 2 + static_cast<int>(rng() % 4); k < n; ++k) {
        ports.push_back(range());
      }
      break;
    case 2:  // Overlapping.
      ports = {{100, 200}, {150, 300}, range()};
      break;
    case 3:  // Adjacent.
      ports = {{81, 90}, {80, 80}, {91, static_cast<std::uint16_t>(
                                            91 + rng() % 10)}};
      break;
    case 4:  // Inverted among valid ones: the inverted one matches nothing.
      ports = {range(), {443, 22}, range()};
      break;
    case 5:  // All inverted: the line matches nothing.
      ports = {{90, 80}, {65535, 1}};
      break;
    default:  // Everything, alone or with more.
      ports = {{0, 65535}};
      if (rng() % 2 == 0) ports.push_back(range());
      break;
  }
  std::shuffle(ports.begin(), ports.end(), rng);
  return ports;
}

// Two draws in a fixed order (argument evaluation order is unspecified).
util::U128 RandomBits(std::mt19937_64& rng) {
  const std::uint64_t hi = rng();
  return util::U128(hi, rng());
}

util::IpWildcard RandomWildcard(std::mt19937_64& rng,
                                util::AddressFamily family) {
  const int width = util::AddressWidth(family);
  const util::U128 ones = util::U128::Ones(width);
  const util::U128 address = RandomBits(rng) & ones;
  util::U128 wildcard;
  switch (rng() % 5) {
    case 0: wildcard = ones; break;  // any
    case 1: break;                   // host
    case 2:                          // prefix
      wildcard = util::U128::Ones(static_cast<int>(rng() % (width + 1)));
      break;
    case 3:  // non-contiguous
      wildcard = RandomBits(rng) & ones;
      break;
    default:  // a few host bits and one hole in the network part
      wildcard = util::U128::Ones(static_cast<int>(rng() % 9)) |
                 (util::U128(1) << static_cast<int>(rng() % width));
      break;
  }
  if (family == util::AddressFamily::kIpv4) {
    return IpWildcard(Ipv4Address(static_cast<std::uint32_t>(address.lo())),
                      static_cast<std::uint32_t>(wildcard.lo()));
  }
  return IpWildcard(util::Ipv6Address(address), wildcard);
}

TEST(PacketLayoutOracleTest, MatchLineChainMatchesAndFormulation) {
  std::mt19937_64 rng(2525);
  int cases = 0;
  for (util::AddressFamily family :
       {util::AddressFamily::kIpv4, util::AddressFamily::kIpv6}) {
    // One manager per family, shared by every line, as a pair's is.
    BddManager mgr;
    PacketLayout layout(mgr, family);
    for (int i = 0; i < 1200; ++i) {
      // The low five bits of i walk every combination of the optional
      // fields; the values themselves are random.
      ir::AclLine line;
      if (i & 1) {
        constexpr std::uint8_t kProtocols[] = {ir::kProtoTcp, ir::kProtoUdp,
                                               ir::kProtoIcmp, 0, 255};
        line.protocol = rng() % 2 == 0 ? kProtocols[rng() % 5]
                                       : static_cast<std::uint8_t>(rng());
      }
      line.src = RandomWildcard(rng, family);
      line.dst = RandomWildcard(rng, family);
      if (i & 2) line.src_ports = RandomPorts(rng);
      if (i & 4) line.dst_ports = RandomPorts(rng);
      if (i & 8) line.icmp_type = static_cast<std::uint8_t>(rng());
      line.established = (i & 16) != 0;

      // Canonicity makes the chain's BddRef equal the oracle's; building
      // it must not consult the Ite cache at all.
      auto build = [&] {
        const std::uint64_t lookups = mgr.Stats().cache_lookups;
        const BddRef chain = layout.MatchLine(line);
        EXPECT_EQ(mgr.Stats().cache_lookups, lookups)
            << "MatchLine made an Ite call";
        return chain;
      };
      BddRef built = 0, oracle = 0;
      if (i % 2 == 0) {
        built = build();
        oracle = OracleMatchLine(mgr, layout, line);
      } else {
        oracle = OracleMatchLine(mgr, layout, line);
        built = build();
      }
      std::string ports;
      for (const auto& r : line.src_ports) ports += " s" + r.ToString();
      for (const auto& r : line.dst_ports) ports += " d" + r.ToString();
      EXPECT_EQ(built, oracle)
          << "line " << i << " src=" << line.src.ToString()
          << " dst=" << line.dst.ToString() << ports;
      ++cases;
    }
    EXPECT_TRUE(mgr.CheckInvariants());
  }
  EXPECT_GE(cases, 2000);
}

}  // namespace
}  // namespace campion::encode
