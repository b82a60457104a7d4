#include "cisco/cisco_parser.h"

#include <map>
#include <optional>
#include <span>
#include <string_view>

#include "frontend/lexer.h"
#include "util/community.h"
#include "util/text_table.h"

namespace campion::cisco {
namespace {

using frontend::ParsePort;
using frontend::ParseU32;
using ir::LineAction;
using ir::Protocol;
using util::Ipv4Address;
using util::IpWildcard;
using util::IpPrefix;

// One line's words, viewing the configuration text.
using Words = std::span<const std::string_view>;

std::optional<Protocol> ParseProtocolName(std::string_view token) {
  if (token == "static") return Protocol::kStatic;
  if (token == "connected") return Protocol::kConnected;
  if (token == "ospf") return Protocol::kOspf;
  if (token == "bgp") return Protocol::kBgp;
  return std::nullopt;
}

std::optional<std::uint8_t> ParseIpProtocol(std::string_view token) {
  if (token == "ip" || token == "ipv6") return std::nullopt;  // Any protocol.
  if (token == "icmp") return ir::kProtoIcmp;
  if (token == "icmpv6") return ir::kProtoIcmpv6;
  if (token == "tcp") return ir::kProtoTcp;
  if (token == "udp") return ir::kProtoUdp;
  if (token == "ospf") return ir::kProtoOspf;
  if (auto n = ParseU32(token); n && *n <= 255) {
    return static_cast<std::uint8_t>(*n);
  }
  return std::nullopt;
}

// The parser proper: a line-oriented state machine over IOS "modes"
// (interface, route-map clause, router bgp, ...).
class Parser {
 public:
  Parser(std::string_view text, std::string filename)
      : filename_(std::move(filename)), lines_(text) {
    result_.config.vendor = ir::Vendor::kCisco;
    result_.config.source_file = filename_;
  }

  ParseResult Run() {
    std::vector<std::string_view> words;  // Refilled for every line.
    for (line_no_ = 1; line_no_ <= lines_.size(); ++line_no_) {
      const std::string_view raw = lines_.Line(line_no_);
      frontend::SplitWords(raw, words);
      if (words.empty() || words[0] == "!") {
        // Comment / separator: ends any indented mode.
        mode_ = Mode::kTop;
        continue;
      }
      bool indented = raw[0] == ' ' || raw[0] == '\t';
      if (!indented) mode_ = Mode::kTop;
      ParseLine(words, raw, indented);
    }
    ApplyOspfNetworks();
    ApplyPeerGroups();
    result_.lines = lines_.size();
    return std::move(result_);
  }

 private:
  enum class Mode {
    kTop,
    kInterface,
    kRouteMap,
    kRouterOspf,
    kRouterBgp,
    kAcl,
  };

  util::SourceSpan Span(std::string_view raw) const {
    return {filename_, line_no_, line_no_, std::string(raw)};
  }

  // Extends a multi-line span (an interface, a route-map clause, a BGP
  // neighbor) with the current line.
  void ExtendSpan(util::SourceSpan& span, std::string_view raw) const {
    span.last_line = line_no_;
    span.text += '\n';
    span.text += raw;
  }

  // Records "file:line: <message><detail>".
  void Diagnose(std::string_view message, std::string_view detail = {}) {
    std::string diagnostic =
        filename_ + ":" + std::to_string(line_no_) + ": ";
    diagnostic += message;
    diagnostic += detail;
    result_.diagnostics.push_back(std::move(diagnostic));
  }

  ir::RouterConfig& config() { return result_.config; }

  void ParseLine(Words t, std::string_view raw, bool indented) {
    if (!indented) {
      ParseTopLevel(t, raw);
      return;
    }
    switch (mode_) {
      case Mode::kInterface: ParseInterfaceLine(t, raw); break;
      case Mode::kRouteMap: ParseRouteMapLine(t, raw); break;
      case Mode::kRouterOspf: ParseOspfLine(t, raw); break;
      case Mode::kRouterBgp: ParseBgpLine(t, raw); break;
      case Mode::kAcl: ParseAclLine(t, raw); break;
      case Mode::kTop:
        Diagnose("unexpected indented line: ", raw);
        break;
    }
  }

  void ParseTopLevel(Words t, std::string_view raw) {
    if (t[0] == "hostname" && t.size() >= 2) {
      config().hostname = t[1];
    } else if (t[0] == "interface" && t.size() >= 2) {
      config().interfaces.push_back({});
      config().interfaces.back().name = t[1];
      config().interfaces.back().span = Span(raw);
      mode_ = Mode::kInterface;
    } else if (t[0] == "ip" && t.size() >= 2 && t[1] == "route") {
      ParseStaticRoute(t, raw);
    } else if (t[0] == "ip" && t.size() >= 2 && t[1] == "prefix-list") {
      ParsePrefixListLine(t, raw, util::AddressFamily::kIpv4);
    } else if (t[0] == "ipv6" && t.size() >= 2 && t[1] == "prefix-list") {
      ParsePrefixListLine(t, raw, util::AddressFamily::kIpv6);
    } else if (t[0] == "ipv6" && t.size() >= 3 && t[1] == "access-list") {
      // IOS IPv6 ACLs are always named (no standard/extended keyword).
      current_acl_ = t[2];
      current_acl_standard_ = false;
      current_acl_family_ = util::AddressFamily::kIpv6;
      auto [it, inserted] = config().acls.try_emplace(current_acl_);
      if (inserted) {
        it->second.name = current_acl_;
        it->second.family = util::AddressFamily::kIpv6;
        it->second.span = Span(raw);
      }
      mode_ = Mode::kAcl;
    } else if (t[0] == "ip" && t.size() >= 3 && t[1] == "community-list") {
      ParseCommunityListLine(t, raw);
    } else if (t[0] == "ip" && t.size() >= 5 && t[1] == "as-path" &&
               t[2] == "access-list") {
      ParseAsPathListLine(t, raw);
    } else if (t[0] == "ip" && t.size() >= 4 && t[1] == "access-list" &&
               (t[2] == "extended" || t[2] == "standard")) {
      current_acl_ = t[3];
      current_acl_standard_ = t[2] == "standard";
      current_acl_family_ = util::AddressFamily::kIpv4;
      auto [it, inserted] = config().acls.try_emplace(current_acl_);
      if (inserted) {
        it->second.name = current_acl_;
        it->second.span = Span(raw);
      }
      mode_ = Mode::kAcl;
    } else if (t[0] == "access-list" && t.size() >= 3) {
      // Numbered ACL, one line per entry. IOS reserves 1-99 (and
      // 1300-1999) for standard source-only ACLs.
      current_acl_ = t[1];
      auto number = ParseU32(t[1]);
      current_acl_standard_ =
          number && (*number < 100 || (*number >= 1300 && *number < 2000));
      current_acl_family_ = util::AddressFamily::kIpv4;
      auto [it, inserted] = config().acls.try_emplace(current_acl_);
      if (inserted) {
        it->second.name = current_acl_;
        it->second.span = Span(raw);
      }
      ParseAclLine(t.subspan(2), raw);
      mode_ = Mode::kTop;
    } else if (t[0] == "route-map" && t.size() >= 4) {
      ParseRouteMapHeader(t, raw);
    } else if (t[0] == "router" && t.size() >= 2 && t[1] == "ospf") {
      if (!config().ospf) {
        config().ospf.emplace();
        config().ospf->span = Span(raw);
        if (t.size() >= 3) {
          if (auto id = ParseU32(t[2])) config().ospf->process_id = *id;
        }
      }
      mode_ = Mode::kRouterOspf;
    } else if (t[0] == "router" && t.size() >= 3 && t[1] == "bgp") {
      if (!config().bgp) {
        config().bgp.emplace();
        config().bgp->span = Span(raw);
        if (auto asn = ParseU32(t[2])) config().bgp->asn = *asn;
      }
      mode_ = Mode::kRouterBgp;
    } else if (t[0] == "ipv6" && t.size() >= 2 && t[1] == "unicast-routing") {
      // Enables v6 forwarding; no behavioral content for diffing.
    } else if (t[0] == "end" || t[0] == "exit" || t[0] == "version" ||
               t[0] == "no" || t[0] == "boot" || t[0] == "service" ||
               t[0] == "enable" || t[0] == "line" || t[0] == "logging" ||
               t[0] == "ntp" || t[0] == "snmp-server" || t[0] == "banner" ||
               t[0] == "aaa" || t[0] == "clock" || t[0] == "spanning-tree" ||
               t[0] == "vlan" || t[0] == "username" || t[0] == "vrf") {
      // Non-routing directives: silently ignored.
    } else {
      Diagnose("unrecognized top-level line: ", raw);
    }
  }

  // --- interface mode ------------------------------------------------------

  void ParseInterfaceLine(Words t, std::string_view raw) {
    ir::Interface& iface = config().interfaces.back();
    // Every continuation line belongs to the interface's span (like route-map
    // clauses); extending only on some branches loses lines — e.g. a
    // `shutdown` difference whose report text omitted the shutdown line.
    ExtendSpan(iface.span, raw);
    if (t[0] == "ip" && t.size() >= 4 && t[1] == "address") {
      auto addr = Ipv4Address::Parse(t[2]);
      auto mask = Ipv4Address::Parse(t[3]);
      if (!addr || !mask) {
        Diagnose("bad ip address: ", raw);
        return;
      }
      auto len = util::MaskToLength(mask->bits(), 32);
      if (!len) {
        Diagnose("non-contiguous interface mask: ", raw);
        return;
      }
      iface.address = *addr;
      iface.prefix_length = *len;
    } else if (t[0] == "ip" && t.size() >= 4 && t[1] == "ospf" &&
               t[2] == "cost") {
      if (auto cost = ParseU32(t[3])) iface.ospf_cost = *cost;
    } else if (t[0] == "ip" && t.size() >= 5 && t[1] == "ospf" &&
               t[3] == "area") {
      // "ip ospf <proc> area <n>": enables OSPF directly on the interface.
      iface.ospf_enabled = true;
      if (auto area = ParseU32(t[4])) iface.ospf_area = *area;
    } else if (t[0] == "ip" && t.size() >= 4 && t[1] == "access-group") {
      if (t[3] == "in") {
        iface.in_acl = t[2];
      } else if (t[3] == "out") {
        iface.out_acl = t[2];
      }
    } else if (t[0] == "shutdown") {
      iface.shutdown = true;
    } else if (t[0] == "no" && t.size() >= 2 && t[1] == "shutdown") {
      iface.shutdown = false;
    } else if (t[0] == "description" || t[0] == "speed" ||
               t[0] == "duplex" || t[0] == "mtu" || t[0] == "negotiation" ||
               t[0] == "switchport" || t[0] == "no") {
      // Ignored interface attributes.
    } else {
      Diagnose("unrecognized interface line: ", raw);
    }
  }

  // --- static routes ---------------------------------------------------------

  void ParseStaticRoute(Words t, std::string_view raw) {
    // ip route <addr> <mask> (<next-hop>|<interface>) [<distance>] [tag <t>]
    if (t.size() < 5) {
      Diagnose("short static route: ", raw);
      return;
    }
    auto addr = Ipv4Address::Parse(t[2]);
    auto mask = Ipv4Address::Parse(t[3]);
    if (!addr || !mask) {
      Diagnose("bad static route destination: ", raw);
      return;
    }
    auto len = util::MaskToLength(mask->bits(), 32);
    if (!len) {
      Diagnose("non-contiguous static route mask: ", raw);
      return;
    }
    ir::StaticRoute route;
    route.prefix = IpPrefix(*addr, *len);
    route.span = Span(raw);
    std::size_t i = 4;
    if (auto next_hop = Ipv4Address::Parse(t[i])) {
      route.next_hop = *next_hop;
    } else {
      route.next_hop_interface = t[i];
    }
    ++i;
    if (i < t.size()) {
      if (auto distance = ParseU32(t[i])) {
        route.admin_distance = static_cast<int>(*distance);
        ++i;
      }
    }
    while (i + 1 < t.size()) {
      if (t[i] == "tag") {
        if (auto tag = ParseU32(t[i + 1])) route.tag = *tag;
        i += 2;
      } else if (t[i] == "name") {
        i += 2;
      } else {
        break;
      }
    }
    config().static_routes.push_back(std::move(route));
  }

  // --- prefix lists -----------------------------------------------------------

  void ParsePrefixListLine(Words t, std::string_view raw,
                           util::AddressFamily family) {
    // ip|ipv6 prefix-list NAME [seq N] permit|deny P/L [ge X] [le Y]
    const int max_len = util::MaxPrefixLength(family);
    std::size_t i = 2;
    if (i >= t.size()) return Diagnose("short prefix-list: ", raw);
    std::string name(t[i++]);
    if (i + 1 < t.size() && t[i] == "seq") i += 2;
    if (i >= t.size()) return Diagnose("short prefix-list: ", raw);
    LineAction action;
    if (t[i] == "permit") {
      action = LineAction::kPermit;
    } else if (t[i] == "deny") {
      action = LineAction::kDeny;
    } else {
      return Diagnose("bad prefix-list action: ", raw);
    }
    ++i;
    if (i >= t.size()) return Diagnose("missing prefix: ", raw);
    auto prefix = IpPrefix::Parse(t[i]);
    ++i;
    if (!prefix || prefix->family() != family) {
      return Diagnose("bad prefix: ", raw);
    }
    int low = prefix->length();
    int high = prefix->length();
    while (i + 1 < t.size()) {
      if (t[i] == "ge") {
        if (auto ge = ParseU32(t[i + 1])) {
          low = static_cast<int>(*ge);
          if (high < low) high = max_len;  // "ge" alone implies family max.
        }
        i += 2;
      } else if (t[i] == "le") {
        if (auto le = ParseU32(t[i + 1])) high = static_cast<int>(*le);
        i += 2;
      } else {
        Diagnose("unexpected prefix-list token: ", t[i]);
        break;
      }
    }
    auto [it, inserted] = config().prefix_lists.try_emplace(name);
    if (inserted) {
      it->second.name = name;
      it->second.family = family;
      it->second.span = Span(raw);
    } else if (it->second.family != family) {
      // Both vendors keep the v4 and v6 prefix-list namespaces separate;
      // the shared-name collision cannot be represented in the IR.
      return Diagnose("prefix-list " + name +
                          " redeclared with a different address family: ",
                      raw);
    }
    it->second.entries.push_back(
        {action, util::PrefixRange(*prefix, low, high), Span(raw)});
  }

  // --- community lists ----------------------------------------------------------

  void ParseCommunityListLine(Words t, std::string_view raw) {
    // ip community-list standard NAME permit|deny c1 c2 ...
    std::size_t i = 2;
    if (t[i] == "standard" || t[i] == "expanded") ++i;
    if (i + 1 >= t.size()) return Diagnose("short community-list: ", raw);
    std::string name(t[i++]);
    LineAction action;
    if (t[i] == "permit") {
      action = LineAction::kPermit;
    } else if (t[i] == "deny") {
      action = LineAction::kDeny;
    } else {
      return Diagnose("bad community-list action: ", raw);
    }
    ++i;
    ir::CommunityListEntry entry;
    entry.action = action;
    entry.span = Span(raw);
    for (; i < t.size(); ++i) {
      auto community = util::Community::Parse(t[i]);
      if (!community) return Diagnose("bad community: ", t[i]);
      entry.all_of.push_back(*community);
    }
    auto [it, inserted] = config().community_lists.try_emplace(name);
    if (inserted) {
      it->second.name = name;
      it->second.span = Span(raw);
    }
    it->second.entries.push_back(std::move(entry));
  }

  void ParseAsPathListLine(Words t, std::string_view raw) {
    // ip as-path access-list NAME permit|deny REGEX...
    std::string name(t[3]);
    LineAction action;
    if (t[4] == "permit") {
      action = LineAction::kPermit;
    } else if (t[4] == "deny") {
      action = LineAction::kDeny;
    } else {
      return Diagnose("bad as-path action: ", raw);
    }
    std::string regex;
    for (std::size_t i = 5; i < t.size(); ++i) {
      if (!regex.empty()) regex += " ";
      regex += t[i];
    }
    auto [it, inserted] = config().as_path_lists.try_emplace(name);
    if (inserted) {
      it->second.name = name;
      it->second.span = Span(raw);
    }
    it->second.entries.push_back({action, regex, Span(raw)});
  }

  // --- route maps -------------------------------------------------------------

  void ParseRouteMapHeader(Words t, std::string_view raw) {
    // route-map NAME permit|deny SEQ
    std::string name(t[1]);
    LineAction action;
    if (t[2] == "permit") {
      action = LineAction::kPermit;
    } else if (t[2] == "deny") {
      action = LineAction::kDeny;
    } else {
      return Diagnose("bad route-map action: ", raw);
    }
    auto seq = ParseU32(t[3]);
    if (!seq) return Diagnose("bad route-map sequence: ", raw);

    auto [it, inserted] = config().route_maps.try_emplace(name);
    if (inserted) {
      it->second.name = name;
      it->second.default_action = ir::ClauseAction::kDeny;  // IOS implicit.
      it->second.span = Span(raw);
    }
    ir::RouteMapClause clause;
    clause.sequence = static_cast<int>(*seq);
    clause.action = action == LineAction::kPermit ? ir::ClauseAction::kPermit
                                                  : ir::ClauseAction::kDeny;
    clause.span = Span(raw);
    it->second.clauses.push_back(std::move(clause));
    current_route_map_ = name;
    mode_ = Mode::kRouteMap;
  }

  void ParseRouteMapLine(Words t, std::string_view raw) {
    ir::RouteMapClause& clause =
        config().route_maps[current_route_map_].clauses.back();
    ExtendSpan(clause.span, raw);

    if (t[0] == "match") {
      ParseRouteMapMatch(t, raw, clause);
    } else if (t[0] == "set") {
      ParseRouteMapSet(t, raw, clause);
    } else if (t[0] == "continue") {
      // IOS `continue`: apply sets and keep evaluating later clauses.
      clause.action = ir::ClauseAction::kFallThrough;
    } else if (t[0] == "description") {
      // Ignored.
    } else {
      Diagnose("unrecognized route-map line: ", raw);
    }
  }

  void ParseRouteMapMatch(Words t, std::string_view raw,
                          ir::RouteMapClause& clause) {
    ir::RouteMapMatch match;
    match.span = Span(raw);
    if (t.size() >= 3 && (t[1] == "ip" || t[1] == "ipv6") &&
        t[2] == "address") {
      // v4 and v6 lists resolve through the same name table; the referenced
      // list's declared family decides the pair's advertisement space.
      match.kind = ir::RouteMapMatch::Kind::kPrefixList;
      std::size_t i = 3;
      if (i < t.size() && t[i] == "prefix-list") ++i;
      for (; i < t.size(); ++i) match.names.emplace_back(t[i]);
      if (match.names.empty()) return Diagnose("empty match: ", raw);
    } else if (t.size() >= 3 && t[1] == "community") {
      match.kind = ir::RouteMapMatch::Kind::kCommunityList;
      for (std::size_t i = 2; i < t.size(); ++i) {
        if (t[i] == "exact-match") continue;  // Not modeled; names suffice.
        match.names.emplace_back(t[i]);
      }
    } else if (t.size() >= 3 && t[1] == "as-path") {
      match.kind = ir::RouteMapMatch::Kind::kAsPathList;
      for (std::size_t i = 2; i < t.size(); ++i) match.names.emplace_back(t[i]);
    } else if (t.size() >= 3 && t[1] == "tag") {
      match.kind = ir::RouteMapMatch::Kind::kTag;
      if (auto tag = ParseU32(t[2])) match.value = *tag;
    } else if (t.size() >= 3 && t[1] == "metric") {
      match.kind = ir::RouteMapMatch::Kind::kMetric;
      if (auto metric = ParseU32(t[2])) match.value = *metric;
    } else if (t.size() >= 3 && t[1] == "source-protocol") {
      match.kind = ir::RouteMapMatch::Kind::kProtocol;
      if (auto protocol = ParseProtocolName(t[2])) {
        match.protocol = *protocol;
      } else {
        return Diagnose("bad source-protocol: ", raw);
      }
    } else {
      return Diagnose("unrecognized match: ", raw);
    }
    clause.matches.push_back(std::move(match));
  }

  void ParseRouteMapSet(Words t, std::string_view raw,
                        ir::RouteMapClause& clause) {
    ir::RouteMapSet set;
    set.span = Span(raw);
    if (t.size() >= 3 && t[1] == "local-preference") {
      set.kind = ir::RouteMapSet::Kind::kLocalPreference;
      if (auto v = ParseU32(t[2])) set.value = *v;
    } else if (t.size() >= 3 && t[1] == "metric") {
      set.kind = ir::RouteMapSet::Kind::kMetric;
      if (auto v = ParseU32(t[2])) set.value = *v;
    } else if (t.size() >= 3 && t[1] == "tag") {
      set.kind = ir::RouteMapSet::Kind::kTag;
      if (auto v = ParseU32(t[2])) set.value = *v;
    } else if (t.size() >= 3 && t[1] == "weight") {
      return;  // Weight is local to the router; not modeled.
    } else if (t.size() >= 3 && t[1] == "community") {
      bool additive = t.back() == "additive";
      set.kind = additive ? ir::RouteMapSet::Kind::kCommunityAdd
                          : ir::RouteMapSet::Kind::kCommunitySet;
      for (std::size_t i = 2; i < t.size(); ++i) {
        if (t[i] == "additive") continue;
        auto community = util::Community::Parse(t[i]);
        if (!community) return Diagnose("bad community: ", t[i]);
        set.communities.push_back(*community);
      }
    } else if (t.size() >= 4 && t[1] == "ip" && t[2] == "next-hop") {
      if (t[3] == "self") {
        set.kind = ir::RouteMapSet::Kind::kNextHopSelf;
      } else if (auto ip = Ipv4Address::Parse(t[3])) {
        set.kind = ir::RouteMapSet::Kind::kNextHop;
        set.next_hop = *ip;
      } else {
        return Diagnose("bad next-hop: ", raw);
      }
    } else {
      return Diagnose("unrecognized set: ", raw);
    }
    clause.sets.push_back(std::move(set));
  }

  // --- OSPF ---------------------------------------------------------------------

  void ParseOspfLine(Words t, std::string_view raw) {
    ir::OspfProcess& ospf = *config().ospf;
    if (t[0] == "router-id" && t.size() >= 2) {
      ospf.router_id = Ipv4Address::Parse(t[1]);
    } else if (t[0] == "network" && t.size() >= 5 && t[3] == "area") {
      auto addr = Ipv4Address::Parse(t[1]);
      auto wildcard = Ipv4Address::Parse(t[2]);
      auto area = ParseU32(t[4]);
      if (!addr || !wildcard || !area) {
        return Diagnose("bad ospf network: ", raw);
      }
      ospf_networks_.push_back(
          {IpWildcard(*addr, wildcard->bits()), *area});
    } else if (t[0] == "passive-interface" && t.size() >= 2) {
      passive_interfaces_.emplace_back(t[1]);
    } else if (t[0] == "redistribute" && t.size() >= 2) {
      auto protocol = ParseProtocolName(t[1]);
      if (!protocol) return Diagnose("bad redistribute: ", raw);
      ir::Redistribution redist;
      redist.from = *protocol;
      redist.span = Span(raw);
      for (std::size_t i = 2; i + 1 < t.size(); ++i) {
        if (t[i] == "route-map") redist.route_map = t[i + 1];
      }
      ospf.redistributions.push_back(std::move(redist));
    } else if (t[0] == "auto-cost" && t.size() >= 2 &&
               t[1] == "reference-bandwidth" && t.size() >= 3) {
      if (auto bw = ParseU32(t[2])) ospf.reference_bandwidth_mbps = *bw;
    } else if (t[0] == "log-adjacency-changes" || t[0] == "maximum-paths") {
      // Ignored.
    } else {
      Diagnose("unrecognized ospf line: ", raw);
    }
  }

  // --- BGP -----------------------------------------------------------------------

  ir::BgpNeighbor& NeighborFor(Ipv4Address ip, std::string_view raw) {
    for (auto& n : config().bgp->neighbors) {
      if (n.ip == ip) return n;
    }
    config().bgp->neighbors.push_back({});
    config().bgp->neighbors.back().ip = ip;
    config().bgp->neighbors.back().span = Span(raw);
    return config().bgp->neighbors.back();
  }

  // Applies one `neighbor X <attribute...>` line (t[2] onward) to a
  // neighbor or peer-group template. Returns false if unrecognized.
  bool ApplyNeighborAttribute(ir::BgpNeighbor& neighbor, Words t) {
    if (t[2] == "remote-as" && t.size() >= 4) {
      if (auto asn = ParseU32(t[3])) neighbor.remote_as = *asn;
    } else if (t[2] == "route-map" && t.size() >= 5) {
      if (t[4] == "in") {
        neighbor.import_policy = t[3];
      } else if (t[4] == "out") {
        neighbor.export_policy = t[3];
      }
    } else if (t[2] == "route-reflector-client") {
      neighbor.route_reflector_client = true;
    } else if (t[2] == "send-community") {
      neighbor.send_community = true;
    } else if (t[2] == "next-hop-self") {
      neighbor.next_hop_self = true;
    } else if (t[2] == "description") {
      std::string description;
      for (std::size_t i = 3; i < t.size(); ++i) {
        if (i > 3) description += " ";
        description += t[i];
      }
      neighbor.description = description;
    } else if (t[2] == "update-source" || t[2] == "soft-reconfiguration" ||
               t[2] == "timers" || t[2] == "activate" ||
               t[2] == "password" || t[2] == "ebgp-multihop") {
      // Ignored.
    } else {
      return false;
    }
    return true;
  }

  // Resolves peer-group membership after the whole file is parsed: a
  // member inherits every group attribute it did not set explicitly
  // (explicit settings are detectable as non-default values because the
  // attributes are set-only in IOS).
  void ApplyPeerGroups() {
    if (!config().bgp) return;
    for (auto& neighbor : config().bgp->neighbors) {
      auto membership = peer_group_members_.find(neighbor.ip);
      if (membership == peer_group_members_.end()) continue;
      auto group_it = peer_groups_.find(membership->second);
      if (group_it == peer_groups_.end()) {
        result_.diagnostics.push_back(
            filename_ + ": neighbor " + neighbor.ip.ToString() +
            " references undefined peer-group " + membership->second);
        continue;
      }
      const ir::BgpNeighbor& group = group_it->second;
      if (neighbor.remote_as == 0) neighbor.remote_as = group.remote_as;
      if (neighbor.import_policy.empty()) {
        neighbor.import_policy = group.import_policy;
      }
      if (neighbor.export_policy.empty()) {
        neighbor.export_policy = group.export_policy;
      }
      if (neighbor.description.empty()) {
        neighbor.description = group.description;
      }
      neighbor.route_reflector_client |= group.route_reflector_client;
      neighbor.send_community |= group.send_community;
      neighbor.next_hop_self |= group.next_hop_self;
    }
  }

  void ParseBgpLine(Words t, std::string_view raw) {
    ir::BgpProcess& bgp = *config().bgp;
    if (t[0] == "bgp" && t.size() >= 3 && t[1] == "router-id") {
      bgp.router_id = Ipv4Address::Parse(t[2]);
    } else if (t[0] == "bgp" && t.size() >= 2 &&
               (t[1] == "log-neighbor-changes" || t[1] == "bestpath")) {
      // Ignored.
    } else if (t[0] == "network" && t.size() >= 2) {
      auto addr = Ipv4Address::Parse(t[1]);
      if (!addr) return Diagnose("bad network: ", raw);
      int length = 8;  // Classful default, overridden by "mask".
      if (t.size() >= 4 && t[2] == "mask") {
        auto mask = Ipv4Address::Parse(t[3]);
        if (!mask) return Diagnose("bad network mask: ", raw);
        auto len = util::MaskToLength(mask->bits(), 32);
        if (!len) return Diagnose("non-contiguous network mask: ", raw);
        length = *len;
      }
      bgp.networks.emplace_back(*addr, length);
    } else if (t[0] == "neighbor" && t.size() >= 3) {
      auto ip = Ipv4Address::Parse(t[1]);
      if (!ip) {
        // A peer-group template: `neighbor PG peer-group` declares it;
        // other attribute lines configure the template.
        ir::BgpNeighbor& group = peer_groups_[std::string(t[1])];
        if (t[2] == "peer-group" && t.size() == 3) return;
        if (!ApplyNeighborAttribute(group, t)) {
          Diagnose("unrecognized peer-group line: ", raw);
        }
        return;
      }
      ir::BgpNeighbor& neighbor = NeighborFor(*ip, raw);
      // Later attribute lines extend the span; keep the text in step with
      // the claimed line range (NeighborFor already recorded the first
      // line, so only genuinely new lines append).
      if (line_no_ > neighbor.span.last_line) ExtendSpan(neighbor.span, raw);
      if (t[2] == "peer-group" && t.size() >= 4) {
        // Membership: inherited attributes are resolved in a post-pass so
        // group lines appearing later in the file still apply.
        peer_group_members_[*ip] = t[3];
      } else if (!ApplyNeighborAttribute(neighbor, t)) {
        Diagnose("unrecognized neighbor line: ", raw);
      }
    } else if (t[0] == "redistribute" && t.size() >= 2) {
      auto protocol = ParseProtocolName(t[1]);
      if (!protocol) return Diagnose("bad redistribute: ", raw);
      ir::Redistribution redist;
      redist.from = *protocol;
      redist.span = Span(raw);
      for (std::size_t i = 2; i + 1 < t.size(); ++i) {
        if (t[i] == "route-map") redist.route_map = t[i + 1];
      }
      bgp.redistributions.push_back(std::move(redist));
    } else if (t[0] == "distance" && t.size() >= 5 && t[1] == "bgp") {
      auto ebgp = ParseU32(t[2]);
      auto ibgp = ParseU32(t[3]);
      if (ebgp) config().admin_distances.ebgp = static_cast<int>(*ebgp);
      if (ibgp) config().admin_distances.ibgp = static_cast<int>(*ibgp);
    } else if (t[0] == "address-family" || t[0] == "exit-address-family") {
      // IPv4 unicast assumed; ignored.
    } else {
      Diagnose("unrecognized bgp line: ", raw);
    }
  }

  // --- ACLs ----------------------------------------------------------------------

  // Parses an address spec starting at t[i]; advances i. IPv4 ACLs accept
  // any | host A | A WILDCARD | A; IPv6 ACLs (prefix-shaped in IOS syntax)
  // accept any | host A6 | P6/LEN | A6.
  std::optional<IpWildcard> ParseAddressSpec(Words t, std::size_t& i,
                                             util::AddressFamily family) {
    if (i >= t.size()) return std::nullopt;
    if (t[i] == "any") {
      ++i;
      return IpWildcard::AnyOf(family);
    }
    if (family == util::AddressFamily::kIpv6) {
      if (t[i] == "host") {
        if (i + 1 >= t.size()) return std::nullopt;
        auto ip = util::Ipv6Address::Parse(t[i + 1]);
        if (!ip) return std::nullopt;
        i += 2;
        return IpWildcard(*ip);
      }
      auto prefix = IpPrefix::Parse(t[i]);
      if (prefix && prefix->family() == family) {
        ++i;
        return IpWildcard(*prefix);
      }
      auto addr = util::Ipv6Address::Parse(t[i]);
      if (!addr) return std::nullopt;
      ++i;
      return IpWildcard(*addr);  // Bare address: host match.
    }
    if (t[i] == "host") {
      if (i + 1 >= t.size()) return std::nullopt;
      auto ip = Ipv4Address::Parse(t[i + 1]);
      if (!ip) return std::nullopt;
      i += 2;
      return IpWildcard(*ip);
    }
    auto addr = Ipv4Address::Parse(t[i]);
    if (!addr) return std::nullopt;
    if (i + 1 < t.size()) {
      if (auto wildcard = Ipv4Address::Parse(t[i + 1])) {
        i += 2;
        return IpWildcard(*addr, wildcard->bits());
      }
    }
    ++i;
    return IpWildcard(*addr);  // Bare address: host match.
  }

  // Parses an optional port spec at t[i]; advances i. nullopt when an
  // operand is neither a port number nor a known service name.
  std::optional<std::vector<ir::PortRange>> ParsePortSpec(Words t,
                                                          std::size_t& i) {
    std::vector<ir::PortRange> ports;
    if (i >= t.size()) return ports;
    if (t[i] == "eq" && i + 1 < t.size()) {
      auto p = ParsePort(t[i + 1]);
      if (!p) return std::nullopt;
      ports.push_back({*p, *p});
      i += 2;
    } else if (t[i] == "range" && i + 2 < t.size()) {
      auto low = ParsePort(t[i + 1]);
      auto high = ParsePort(t[i + 2]);
      if (!low || !high) return std::nullopt;
      ports.push_back({*low, *high});
      i += 3;
    } else if (t[i] == "gt" && i + 1 < t.size()) {
      auto p = ParsePort(t[i + 1]);
      if (!p) return std::nullopt;
      ports.push_back(
          {static_cast<std::uint16_t>(*p == 65535 ? 65535 : *p + 1), 65535});
      i += 2;
    } else if (t[i] == "lt" && i + 1 < t.size()) {
      auto p = ParsePort(t[i + 1]);
      if (!p) return std::nullopt;
      ports.push_back({0, static_cast<std::uint16_t>(*p == 0 ? 0 : *p - 1)});
      i += 2;
    }
    return ports;
  }

  void ParseAclLine(Words t, std::string_view raw) {
    std::size_t i = 0;
    // Optional leading sequence number (IOS XR style numbered entries).
    if (ParseU32(t[i]).has_value()) ++i;
    if (i >= t.size()) return;
    if (t[i] == "remark") return;
    ir::AclLine line;
    line.span = Span(raw);
    if (t[i] == "permit") {
      line.action = LineAction::kPermit;
    } else if (t[i] == "deny") {
      line.action = LineAction::kDeny;
    } else {
      return Diagnose("bad acl action: ", raw);
    }
    ++i;
    const util::AddressFamily family = current_acl_family_;
    if (current_acl_standard_) {
      // Standard ACLs match on source address only.
      auto src = ParseAddressSpec(t, i, family);
      if (!src) return Diagnose("bad standard acl source: ", raw);
      line.src = *src;
      line.dst = IpWildcard::AnyOf(family);
      config().acls[current_acl_].lines.push_back(std::move(line));
      return;
    }
    if (i >= t.size()) return Diagnose("short acl line: ", raw);
    std::string_view protocol_token = t[i];
    if (protocol_token == "ipv4") protocol_token = "ip";  // IOS XR spelling.
    line.protocol = ParseIpProtocol(protocol_token);
    if (!line.protocol && protocol_token != "ip" && protocol_token != "ipv6") {
      return Diagnose("bad acl protocol: ", raw);
    }
    ++i;
    auto src = ParseAddressSpec(t, i, family);
    if (!src) return Diagnose("bad acl source: ", raw);
    line.src = *src;
    auto src_ports = ParsePortSpec(t, i);
    if (!src_ports) return Diagnose("bad acl port: ", raw);
    line.src_ports = std::move(*src_ports);
    auto dst = ParseAddressSpec(t, i, family);
    if (!dst) return Diagnose("bad acl destination: ", raw);
    line.dst = *dst;
    auto dst_ports = ParsePortSpec(t, i);
    if (!dst_ports) return Diagnose("bad acl port: ", raw);
    line.dst_ports = std::move(*dst_ports);
    if ((line.protocol == ir::kProtoIcmp ||
         line.protocol == ir::kProtoIcmpv6) &&
        i < t.size()) {
      if (auto type = ParseU32(t[i]); type && *type <= 255) {
        line.icmp_type = static_cast<std::uint8_t>(*type);
      } else if (t[i] == "echo") {
        line.icmp_type = 8;
      } else if (t[i] == "echo-reply") {
        line.icmp_type = 0;
      }
    }
    for (; i < t.size(); ++i) {
      if (t[i] == "established") line.established = true;
      // "log" and counters are irrelevant to forwarding behavior.
    }
    config().acls[current_acl_].lines.push_back(std::move(line));
  }

  // OSPF "network" statements enable OSPF on every interface whose address
  // matches the wildcard; resolve them once the whole file is parsed.
  void ApplyOspfNetworks() {
    if (ospf_networks_.empty() && passive_interfaces_.empty()) return;
    for (auto& iface : config().interfaces) {
      if (iface.address) {
        for (const auto& [wildcard, area] : ospf_networks_) {
          if (wildcard.Matches(*iface.address)) {
            iface.ospf_enabled = true;
            iface.ospf_area = area;
            break;
          }
        }
      }
      for (const auto& passive : passive_interfaces_) {
        if (iface.name == passive) iface.ospf_passive = true;
      }
    }
  }

  std::string filename_;
  frontend::LineIndex lines_;
  int line_no_ = 0;
  Mode mode_ = Mode::kTop;
  std::string current_route_map_;
  std::string current_acl_;
  bool current_acl_standard_ = false;
  util::AddressFamily current_acl_family_ = util::AddressFamily::kIpv4;
  std::vector<std::pair<IpWildcard, std::uint32_t>> ospf_networks_;
  std::vector<std::string> passive_interfaces_;
  std::map<std::string, ir::BgpNeighbor> peer_groups_;
  std::map<Ipv4Address, std::string> peer_group_members_;
  ParseResult result_;
};

}  // namespace

ParseResult ParseCiscoConfig(const std::string& text,
                             const std::string& filename) {
  return Parser(text, filename).Run();
}

}  // namespace campion::cisco
