#include "encode/packet.h"

namespace campion::encode {

namespace {
constexpr int kProtoWidth = 8;
constexpr int kPortWidth = 16;
constexpr int kIcmpWidth = 8;
}  // namespace

PacketLayout::PacketLayout(bdd::BddManager& mgr, util::AddressFamily family)
    : mgr_(mgr), family_(family) {
  const int ip_width = util::AddressWidth(family);
  bdd::Var first = mgr_.AddVars(2 * ip_width + kProtoWidth + 2 * kPortWidth +
                                kIcmpWidth + 1);
  src_ip_ = SymbolicField(first, ip_width);
  dst_ip_ = SymbolicField(first + ip_width, ip_width);
  protocol_ = SymbolicField(first + 2 * ip_width, kProtoWidth);
  src_port_ = SymbolicField(first + 2 * ip_width + kProtoWidth, kPortWidth);
  dst_port_ = SymbolicField(first + 2 * ip_width + kProtoWidth + kPortWidth,
                            kPortWidth);
  icmp_type_ = SymbolicField(
      first + 2 * ip_width + kProtoWidth + 2 * kPortWidth, kIcmpWidth);
  established_var_ =
      first + 2 * ip_width + kProtoWidth + 2 * kPortWidth + kIcmpWidth;
}

bdd::BddRef PacketLayout::MatchWildcard(const SymbolicField& field,
                                        const util::IpWildcard& w,
                                        bdd::BddRef below) const {
  const int width = field.width();
  // Left-aligned in the field: the wildcard's bits are right-aligned in
  // AddressWidth(family) == width bits, so they line up directly; care is
  // the complement of the wildcard within the field width.
  util::U128 care = util::U128::Ones(width) ^
                    (w.wildcard_wide() & util::U128::Ones(width));
  return field.MatchMasked(mgr_, w.address_wide(), care, below);
}

bdd::BddRef PacketLayout::MatchSrc(const util::IpWildcard& w) const {
  return MatchWildcard(src_ip_, w);
}

bdd::BddRef PacketLayout::MatchDst(const util::IpWildcard& w) const {
  return MatchWildcard(dst_ip_, w);
}

bdd::BddRef PacketLayout::MatchDstPrefix(const util::IpPrefix& p) const {
  return dst_ip_.MatchPrefixBits(mgr_, p.address().bits(), p.length());
}

bdd::BddRef PacketLayout::ProtocolIs(std::uint8_t protocol) const {
  return protocol_.EqualsConst(mgr_, protocol);
}

bdd::BddRef PacketLayout::SrcPortIn(const ir::PortRange& r) const {
  return src_port_.InRange(mgr_, r.low, r.high);
}

bdd::BddRef PacketLayout::DstPortIn(const ir::PortRange& r) const {
  return dst_port_.InRange(mgr_, r.low, r.high);
}

bdd::BddRef PacketLayout::IcmpTypeIs(std::uint8_t type) const {
  return icmp_type_.EqualsConst(mgr_, type);
}

bdd::BddRef PacketLayout::Established() const {
  return mgr_.VarTrue(established_var_);
}

namespace {

std::vector<SymbolicField::Interval> PortIntervals(
    const std::vector<ir::PortRange>& ports) {
  std::vector<SymbolicField::Interval> ranges;
  ranges.reserve(ports.size());
  for (const auto& r : ports) ranges.push_back({r.low, r.high});
  return ranges;
}

}  // namespace

bdd::BddRef PacketLayout::MatchLine(const ir::AclLine& line) const {
  // The fields occupy disjoint variable blocks in the order src, dst,
  // protocol, src port, dst port, icmp type, established. Building from the
  // last field up, each predicate ends in the conjunction of the fields
  // below it, which is the canonical BDD of the whole And with no Ite call.
  bdd::BddRef match = line.established ? Established() : mgr_.True();
  if (line.icmp_type) {
    match = icmp_type_.EqualsConst(mgr_, *line.icmp_type, match);
  }
  if (!line.dst_ports.empty()) {
    match = dst_port_.InRanges(mgr_, PortIntervals(line.dst_ports), match);
  }
  if (!line.src_ports.empty()) {
    match = src_port_.InRanges(mgr_, PortIntervals(line.src_ports), match);
  }
  if (line.protocol) {
    match = protocol_.EqualsConst(mgr_, *line.protocol, match);
  }
  match = MatchWildcard(dst_ip_, line.dst, match);
  return MatchWildcard(src_ip_, line.src, match);
}

std::vector<bool> PacketLayout::DstIpVarMask() const {
  std::vector<bool> mask(mgr_.num_vars(), false);
  for (int i = 0; i < dst_ip_.width(); ++i) mask[dst_ip_.VarAt(i)] = true;
  return mask;
}

std::vector<bool> PacketLayout::NonDstIpVarMask() const {
  std::vector<bool> mask = DstIpVarMask();
  mask.flip();
  return mask;
}

std::vector<bool> PacketLayout::SrcIpVarMask() const {
  std::vector<bool> mask(mgr_.num_vars(), false);
  for (int i = 0; i < src_ip_.width(); ++i) mask[src_ip_.VarAt(i)] = true;
  return mask;
}

namespace {

std::vector<ir::PortRange> FieldRanges(bdd::BddManager& mgr,
                                       const SymbolicField& field,
                                       bdd::BddRef set,
                                       std::vector<bool> keep_mask) {
  keep_mask.flip();
  bdd::BddRef projected = mgr.Exists(set, keep_mask);
  std::vector<ir::PortRange> ranges;
  for (const auto& interval : field.Intervals(mgr, projected)) {
    ranges.push_back({static_cast<std::uint16_t>(interval.low.lo()),
                      static_cast<std::uint16_t>(interval.high.lo())});
  }
  return ranges;
}

std::vector<bool> FieldMask(bdd::Var num_vars, const SymbolicField& field) {
  std::vector<bool> mask(num_vars, false);
  for (int i = 0; i < field.width(); ++i) mask[field.VarAt(i)] = true;
  return mask;
}

}  // namespace

std::vector<ir::PortRange> PacketLayout::AffectedDstPorts(
    bdd::BddRef set) const {
  return FieldRanges(mgr_, dst_port_, set,
                     FieldMask(mgr_.num_vars(), dst_port_));
}

std::vector<ir::PortRange> PacketLayout::AffectedSrcPorts(
    bdd::BddRef set) const {
  return FieldRanges(mgr_, src_port_, set,
                     FieldMask(mgr_.num_vars(), src_port_));
}

std::vector<ir::PortRange> PacketLayout::AffectedProtocols(
    bdd::BddRef set) const {
  return FieldRanges(mgr_, protocol_, set,
                     FieldMask(mgr_.num_vars(), protocol_));
}

PacketExample PacketLayout::Decode(const bdd::Cube& cube) const {
  PacketExample example;
  if (family_ == util::AddressFamily::kIpv4) {
    example.src_ip = util::Ipv4Address(
        static_cast<std::uint32_t>(src_ip_.Decode(cube).lo()));
    example.dst_ip = util::Ipv4Address(
        static_cast<std::uint32_t>(dst_ip_.Decode(cube).lo()));
  } else {
    example.src_ip = util::Ipv6Address(src_ip_.Decode(cube));
    example.dst_ip = util::Ipv6Address(dst_ip_.Decode(cube));
  }
  example.protocol = static_cast<std::uint8_t>(protocol_.Decode(cube).lo());
  example.src_port = static_cast<std::uint16_t>(src_port_.Decode(cube).lo());
  example.dst_port = static_cast<std::uint16_t>(dst_port_.Decode(cube).lo());
  example.icmp_type = static_cast<std::uint8_t>(icmp_type_.Decode(cube).lo());
  example.established = established_var_ < cube.size() &&
                        cube[established_var_] == 1;
  return example;
}

std::string PacketExample::ToString() const {
  std::string out = "srcIp: " + src_ip.ToString() +
                    ", dstIp: " + dst_ip.ToString() +
                    ", protocol: " + ir::ProtocolNumberToString(protocol);
  if (protocol == ir::kProtoTcp || protocol == ir::kProtoUdp) {
    out += ", srcPort: " + std::to_string(src_port) +
           ", dstPort: " + std::to_string(dst_port);
  }
  if (protocol == ir::kProtoTcp && established) out += ", established";
  if (protocol == ir::kProtoIcmp) {
    out += ", icmpType: " + std::to_string(icmp_type);
  }
  return out;
}

}  // namespace campion::encode
