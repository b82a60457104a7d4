#pragma once

// Symbolic packets for dataplane ACL differencing.
//
// Variable order (IPv4 layout, unchanged from the original encoder):
//   [0..31]    source IP
//   [32..63]   destination IP
//   [64..71]   IP protocol number
//   [72..87]   source port
//   [88..103]  destination port
//   [104..111] ICMP type
//   [112]      TCP "established" bit (ACK or RST set)
//
// The IPv6 layout is identical except the source and destination fields are
// 128 bits wide ([0..127] src, [128..255] dst, remaining fields shifted up
// accordingly).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "encode/prefix_encoding.h"
#include "encode/symbolic_field.h"
#include "ir/policy.h"
#include "util/ip.h"

namespace campion::encode {

struct PacketExample {
  util::IpAddress src_ip;
  util::IpAddress dst_ip;
  std::uint8_t protocol = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t icmp_type = 0;
  bool established = false;

  std::string ToString() const;
};

class PacketLayout {
 public:
  explicit PacketLayout(
      bdd::BddManager& mgr,
      util::AddressFamily family = util::AddressFamily::kIpv4);

  bdd::BddManager& manager() const { return mgr_; }
  util::AddressFamily family() const { return family_; }

  bdd::BddRef MatchSrc(const util::IpWildcard& w) const;
  bdd::BddRef MatchDst(const util::IpWildcard& w) const;
  bdd::BddRef MatchDstPrefix(const util::IpPrefix& p) const;
  // The destination and source address fields as prefix encodings (host
  // addresses, no length field), for header localization.
  PrefixEncoding DstPrefixEncoding() const { return {dst_ip_, std::nullopt}; }
  PrefixEncoding SrcPrefixEncoding() const { return {src_ip_, std::nullopt}; }
  bdd::BddRef ProtocolIs(std::uint8_t protocol) const;
  bdd::BddRef SrcPortIn(const ir::PortRange& r) const;
  bdd::BddRef DstPortIn(const ir::PortRange& r) const;
  bdd::BddRef IcmpTypeIs(std::uint8_t type) const;
  // The packet belongs to an established TCP flow (ACK or RST set).
  bdd::BddRef Established() const;

  // The full match predicate of one ACL line, built bottom-up as one chain
  // of Branch nodes: each field's predicate ends in the next field's.
  bdd::BddRef MatchLine(const ir::AclLine& line) const;

  // True exactly on the destination-IP variables (for header localization
  // of ACL differences onto destination prefixes).
  std::vector<bool> DstIpVarMask() const;
  std::vector<bool> NonDstIpVarMask() const;
  // True exactly on the source-IP variables.
  std::vector<bool> SrcIpVarMask() const;

  // Exact port/protocol localization: projects `set` onto the respective
  // field and returns the affected values as maximal intervals. Feeds the
  // "dstPort: 80, 443, 1024-65535" style rows of ACL difference reports.
  std::vector<ir::PortRange> AffectedDstPorts(bdd::BddRef set) const;
  std::vector<ir::PortRange> AffectedSrcPorts(bdd::BddRef set) const;
  std::vector<ir::PortRange> AffectedProtocols(bdd::BddRef set) const;

  PacketExample Decode(const bdd::Cube& cube) const;

 private:
  bdd::BddRef MatchWildcard(const SymbolicField& field,
                            const util::IpWildcard& w,
                            bdd::BddRef below = bdd::kTrue) const;

  bdd::BddManager& mgr_;
  util::AddressFamily family_ = util::AddressFamily::kIpv4;
  SymbolicField src_ip_;
  SymbolicField dst_ip_;
  SymbolicField protocol_;
  SymbolicField src_port_;
  SymbolicField dst_port_;
  SymbolicField icmp_type_;
  bdd::Var established_var_ = 0;
};

}  // namespace campion::encode
