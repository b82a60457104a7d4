#include "ir/policy.h"

namespace campion::ir {

std::string ToString(LineAction action) {
  return action == LineAction::kPermit ? "permit" : "deny";
}

std::string ToString(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected: return "connected";
    case Protocol::kStatic: return "static";
    case Protocol::kOspf: return "ospf";
    case Protocol::kBgp: return "bgp";
  }
  return "unknown";
}

std::string ToString(ClauseAction action) {
  switch (action) {
    case ClauseAction::kPermit: return "ACCEPT";
    case ClauseAction::kDeny: return "REJECT";
    case ClauseAction::kFallThrough: return "FALL-THROUGH";
  }
  return "unknown";
}

std::string AsPathList::Signature() const {
  // Order matters (first match wins), so the signature is the entry list
  // verbatim.
  std::string out;
  for (const auto& entry : entries) {
    out += ToString(entry.action) + " " + entry.regex + "\n";
  }
  return out;
}

bool SameMatch(const AclLine& a, const AclLine& b) {
  return a.action == b.action && a.protocol == b.protocol && a.src == b.src &&
         a.dst == b.dst && a.src_ports == b.src_ports &&
         a.dst_ports == b.dst_ports && a.icmp_type == b.icmp_type &&
         a.established == b.established;
}

std::string PortRange::ToString() const {
  if (IsAny()) return "any";
  if (low == high) return std::to_string(low);
  return std::to_string(low) + "-" + std::to_string(high);
}

std::string ProtocolNumberToString(std::uint8_t protocol) {
  switch (protocol) {
    case kProtoIcmp: return "icmp";
    case kProtoTcp: return "tcp";
    case kProtoUdp: return "udp";
    case kProtoIcmpv6: return "icmpv6";
    case kProtoOspf: return "ospf";
    default: return std::to_string(protocol);
  }
}

}  // namespace campion::ir
