#include "encode/fingerprint.h"

#include <algorithm>
#include <vector>

#include "util/hash.h"

namespace campion::encode {
namespace {

// Unambiguous primitives: length-prefixed strings, delimited decimals,
// explicit presence markers for optionals.
void Str(std::string& out, const std::string& s) {
  out += std::to_string(s.size());
  out += ':';
  out += s;
  out += ';';
}

void U32(std::string& out, std::uint32_t value) {
  out += std::to_string(value);
  out += ',';
}

// 128-bit values (IPv6 addresses) keyed limb-wise. IPv4 keys keep their
// original single-limb form so v4 keys are byte-identical to pre-dual-stack
// builds; the family-specific key prefixes ("pl6:", "al6:") keep the two
// families from ever colliding.
void U128(std::string& out, util::U128 value) {
  out += std::to_string(value.hi());
  out += ':';
  out += std::to_string(value.lo());
  out += ',';
}

void Wildcard(std::string& out, const util::IpWildcard& w) {
  if (w.family() == util::AddressFamily::kIpv4) {
    U32(out, w.address().bits());
    U32(out, w.wildcard_bits());
  } else {
    U128(out, w.address_wide());
    U128(out, w.wildcard_wide());
  }
}

void I32(std::string& out, int value) {
  out += std::to_string(value);
  out += ',';
}

void Flag(std::string& out, bool value) { out += value ? '1' : '0'; }

template <typename T>
void OptU32(std::string& out, const std::optional<T>& value) {
  if (value.has_value()) {
    out += '+';
    U32(out, static_cast<std::uint32_t>(*value));
  } else {
    out += '-';
  }
}

void Span(std::string& out, const util::SourceSpan& span) {
  Str(out, span.file);
  I32(out, span.first_line);
  I32(out, span.last_line);
  Str(out, span.text);
}

void Address(std::string& out, util::Ipv4Address addr) {
  U32(out, addr.bits());
}

void OptAddress(std::string& out,
                const std::optional<util::Ipv4Address>& addr) {
  if (addr.has_value()) {
    out += '+';
    Address(out, *addr);
  } else {
    out += '-';
  }
}

void PrefixKey(std::string& out, const util::Prefix& prefix) {
  U32(out, prefix.address().bits());
  I32(out, prefix.length());
}

void Action(std::string& out, ir::LineAction action) {
  out += action == ir::LineAction::kPermit ? 'p' : 'd';
}

void ClauseActionKey(std::string& out, ir::ClauseAction action) {
  switch (action) {
    case ir::ClauseAction::kPermit: out += 'p'; break;
    case ir::ClauseAction::kDeny: out += 'd'; break;
    case ir::ClauseAction::kFallThrough: out += 'f'; break;
  }
}

void Redistributions(std::string& out,
                     const std::vector<ir::Redistribution>& redistributions) {
  out += "redist[";
  for (const auto& r : redistributions) {
    U32(out, static_cast<std::uint32_t>(r.from));
    Str(out, r.route_map);
    Span(out, r.span);
  }
  out += ']';
}

}  // namespace

std::string PrefixListKey(const ir::PrefixList& list) {
  const bool v6 = list.family == util::AddressFamily::kIpv6;
  std::string key = v6 ? "pl6:" : "pl:";
  for (const auto& entry : list.entries) {
    Action(key, entry.action);
    if (v6) {
      U128(key, entry.range.prefix().address().bits());
    } else {
      U32(key, static_cast<std::uint32_t>(
                   entry.range.prefix().address().bits().lo()));
    }
    U32(key, static_cast<std::uint32_t>(entry.range.prefix().length()));
    U32(key, static_cast<std::uint32_t>(entry.range.low()));
    U32(key, static_cast<std::uint32_t>(entry.range.high()));
    key += ';';
  }
  return key;
}

std::string CommunityListKey(const ir::CommunityList& list) {
  std::string key = "cl:";
  for (const auto& entry : list.entries) {
    Action(key, entry.action);
    // An entry matches iff the route carries every community it names, so
    // within one entry the member order (and duplicates) cannot matter.
    std::vector<util::Community> members = entry.all_of;
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    for (util::Community c : members) U32(key, c.value());
    key += ';';
  }
  return key;
}

std::string AclLineMatchKey(const ir::AclLine& line) {
  // The line's action is excluded: the match predicate is the same for a
  // permit and a deny over the same header fields.
  const bool v6 = line.src.family() == util::AddressFamily::kIpv6 ||
                  line.dst.family() == util::AddressFamily::kIpv6;
  std::string key = v6 ? "al6:" : "al:";
  U32(key, line.protocol ? std::uint32_t{*line.protocol} + 1 : 0);
  Wildcard(key, line.src);
  Wildcard(key, line.dst);
  key += 's';
  for (const auto& r : line.src_ports) {
    U32(key, r.low);
    U32(key, r.high);
  }
  key += 'd';
  for (const auto& r : line.dst_ports) {
    U32(key, r.low);
    U32(key, r.high);
  }
  U32(key, line.icmp_type ? std::uint32_t{*line.icmp_type} + 1 : 0);
  key += line.established ? 'e' : '-';
  return key;
}

std::string ConfigCanonicalKey(const ir::RouterConfig& config) {
  std::string key;
  key.reserve(1024);
  key += "cfg1{";
  Str(key, config.hostname);
  Str(key, ir::ToString(config.vendor));
  Str(key, config.source_file);

  key += "ifaces[";
  for (const auto& iface : config.interfaces) {
    Str(key, iface.name);
    OptAddress(key, iface.address);
    I32(key, iface.prefix_length);
    Flag(key, iface.shutdown);
    OptU32(key, iface.ospf_cost);
    OptU32(key, iface.ospf_area);
    Flag(key, iface.ospf_enabled);
    Flag(key, iface.ospf_passive);
    Str(key, iface.in_acl);
    Str(key, iface.out_acl);
    Span(key, iface.span);
  }
  key += ']';

  key += "static[";
  for (const auto& route : config.static_routes) {
    PrefixKey(key, route.prefix);
    OptAddress(key, route.next_hop);
    Str(key, route.next_hop_interface);
    I32(key, route.admin_distance);
    OptU32(key, route.tag);
    Span(key, route.span);
  }
  key += ']';

  // Named policy objects: the PR 5 structural key carries the semantic
  // payload; name, declaration order (map order is the canonical order both
  // the diff and the report use), and spans carry everything it omits.
  key += "plists[";
  for (const auto& [name, list] : config.prefix_lists) {
    Str(key, name);
    Str(key, PrefixListKey(list));
    Span(key, list.span);
    for (const auto& entry : list.entries) Span(key, entry.span);
  }
  key += ']';

  key += "clists[";
  for (const auto& [name, list] : config.community_lists) {
    Str(key, name);
    Str(key, CommunityListKey(list));
    Span(key, list.span);
    for (const auto& entry : list.entries) Span(key, entry.span);
  }
  key += ']';

  key += "aspaths[";
  for (const auto& [name, list] : config.as_path_lists) {
    Str(key, name);
    Span(key, list.span);
    for (const auto& entry : list.entries) {
      Action(key, entry.action);
      Str(key, entry.regex);
      Span(key, entry.span);
    }
  }
  key += ']';

  key += "rmaps[";
  for (const auto& [name, map] : config.route_maps) {
    Str(key, name);
    ClauseActionKey(key, map.default_action);
    Span(key, map.span);
    for (const auto& clause : map.clauses) {
      I32(key, clause.sequence);
      Str(key, clause.term_name);
      ClauseActionKey(key, clause.action);
      Span(key, clause.span);
      key += "m[";
      for (const auto& match : clause.matches) {
        U32(key, static_cast<std::uint32_t>(match.kind));
        for (const auto& n : match.names) Str(key, n);
        key += '|';
        U32(key, match.value);
        U32(key, static_cast<std::uint32_t>(match.protocol));
        Span(key, match.span);
      }
      key += ']';
      key += "s[";
      for (const auto& set : clause.sets) {
        U32(key, static_cast<std::uint32_t>(set.kind));
        U32(key, set.value);
        for (const auto& c : set.communities) U32(key, c.value());
        key += '|';
        Address(key, set.next_hop);
        Span(key, set.span);
      }
      key += ']';
    }
  }
  key += ']';

  key += "acls[";
  for (const auto& [name, acl] : config.acls) {
    Str(key, name);
    // Emitted only for IPv6 so IPv4 canonical keys stay byte-identical to
    // pre-dual-stack builds (the per-line AclLineMatchKey is family-tagged,
    // but a line-less v6 ACL must still differ from its v4 twin).
    if (acl.family == util::AddressFamily::kIpv6) key += "f6";
    Span(key, acl.span);
    for (const auto& line : acl.lines) {
      // AclLineMatchKey covers every match field but deliberately not the
      // action — the one omission this key exists to repair.
      Action(key, line.action);
      Str(key, AclLineMatchKey(line));
      Span(key, line.span);
    }
  }
  key += ']';

  key += "ospf";
  if (config.ospf.has_value()) {
    key += '{';
    U32(key, config.ospf->process_id);
    OptAddress(key, config.ospf->router_id);
    U32(key, config.ospf->reference_bandwidth_mbps);
    Redistributions(key, config.ospf->redistributions);
    Span(key, config.ospf->span);
    key += '}';
  } else {
    key += '-';
  }

  key += "bgp";
  if (config.bgp.has_value()) {
    key += '{';
    U32(key, config.bgp->asn);
    OptAddress(key, config.bgp->router_id);
    for (const auto& p : config.bgp->networks) PrefixKey(key, p);
    key += '|';
    for (const auto& neighbor : config.bgp->neighbors) {
      Address(key, neighbor.ip);
      U32(key, neighbor.remote_as);
      Str(key, neighbor.description);
      Str(key, neighbor.import_policy);
      Str(key, neighbor.export_policy);
      Flag(key, neighbor.route_reflector_client);
      Flag(key, neighbor.send_community);
      Flag(key, neighbor.next_hop_self);
      Span(key, neighbor.span);
    }
    Redistributions(key, config.bgp->redistributions);
    Span(key, config.bgp->span);
    key += '}';
  } else {
    key += '-';
  }

  key += "ad{";
  I32(key, config.admin_distances.connected);
  I32(key, config.admin_distances.static_route);
  I32(key, config.admin_distances.ebgp);
  I32(key, config.admin_distances.ospf);
  I32(key, config.admin_distances.ibgp);
  key += "}}";
  return key;
}

std::uint64_t ConfigFingerprint(const ir::RouterConfig& config) {
  return util::Fnv1a64(ConfigCanonicalKey(config));
}

}  // namespace campion::encode
