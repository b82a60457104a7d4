#include "encode/encoding_template.h"

#include <algorithm>
#include <vector>

#include "encode/policy_encoder.h"
#include "obs/metrics.h"

namespace campion::encode {
namespace {

void AppendU32(std::string& out, std::uint32_t value) {
  out += std::to_string(value);
  out += ',';
}

// 128-bit values (IPv6 addresses) keyed limb-wise. IPv4 keys keep their
// original single-limb form so v4 keys are byte-identical to pre-dual-stack
// builds; the family-specific key prefixes ("pl6:", "al6:") keep the two
// families from ever colliding.
void AppendU128(std::string& out, util::U128 value) {
  out += std::to_string(value.hi());
  out += ':';
  out += std::to_string(value.lo());
  out += ',';
}

void AppendWildcard(std::string& out, const util::IpWildcard& w) {
  if (w.family() == util::AddressFamily::kIpv4) {
    AppendU32(out, w.address().bits());
    AppendU32(out, w.wildcard_bits());
  } else {
    AppendU128(out, w.address_wide());
    AppendU128(out, w.wildcard_wide());
  }
}

}  // namespace

std::string PrefixListKey(const ir::PrefixList& list) {
  const bool v6 = list.family == util::AddressFamily::kIpv6;
  std::string key = v6 ? "pl6:" : "pl:";
  for (const auto& entry : list.entries) {
    key += entry.action == ir::LineAction::kPermit ? 'p' : 'd';
    if (v6) {
      AppendU128(key, entry.range.prefix().address().bits());
    } else {
      AppendU32(key, static_cast<std::uint32_t>(
                         entry.range.prefix().address().bits().lo()));
    }
    AppendU32(key, static_cast<std::uint32_t>(entry.range.prefix().length()));
    AppendU32(key, static_cast<std::uint32_t>(entry.range.low()));
    AppendU32(key, static_cast<std::uint32_t>(entry.range.high()));
    key += ';';
  }
  return key;
}

std::string CommunityListKey(const ir::CommunityList& list) {
  std::string key = "cl:";
  for (const auto& entry : list.entries) {
    key += entry.action == ir::LineAction::kPermit ? 'p' : 'd';
    // An entry matches iff the route carries every community it names, so
    // within one entry the member order (and duplicates) cannot matter.
    std::vector<util::Community> members = entry.all_of;
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    for (util::Community c : members) AppendU32(key, c.value());
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
  AppendU32(key, line.protocol ? std::uint32_t{*line.protocol} + 1 : 0);
  AppendWildcard(key, line.src);
  AppendWildcard(key, line.dst);
  key += 's';
  for (const auto& r : line.src_ports) {
    AppendU32(key, r.low);
    AppendU32(key, r.high);
  }
  key += 'd';
  for (const auto& r : line.dst_ports) {
    AppendU32(key, r.low);
    AppendU32(key, r.high);
  }
  AppendU32(key, line.icmp_type ? std::uint32_t{*line.icmp_type} + 1 : 0);
  key += line.established ? 'e' : '-';
  return key;
}

EncodingTemplate::EncodingTemplate(const ir::RouterConfig& config1,
                                   const ir::RouterConfig& config2,
                                   bool route_side, bool packet_side,
                                   bool sift_witnesses) {
  if (route_side) {
    // The same community universe every route-map pair task uses: the union
    // over both configurations. Seeded pair layouts copy this layout, so
    // their variable order matches a from-scratch pair's exactly.
    std::vector<util::Community> communities = config1.AllCommunities();
    auto more = config2.AllCommunities();
    communities.insert(communities.end(), more.begin(), more.end());
    route_layout_.emplace(route_mgr_, std::move(communities));
    for (const ir::RouterConfig* config : {&config1, &config2}) {
      // The encoder resolves nothing by name here; it is used only for the
      // list-to-BDD compilation loops (shared with the per-pair path).
      PolicyEncoder encoder(*route_layout_, *config);
      for (const auto& [name, list] : config->prefix_lists) {
        // The template's layouts are IPv4; IPv6 objects are encoded
        // per-pair on a v6 layout (v6 pairs bypass the template entirely).
        if (list.family != util::AddressFamily::kIpv4) continue;
        auto [it, inserted] =
            prefix_lists_.try_emplace(PrefixListKey(list), bdd::kFalse);
        if (inserted) it->second = encoder.PrefixListPermits(list);
      }
      for (const auto& [name, list] : config->community_lists) {
        auto [it, inserted] =
            community_lists_.try_emplace(CommunityListKey(list), bdd::kFalse);
        if (inserted) it->second = encoder.CommunityListPermits(list);
      }
      if (sift_witnesses) {
        // Witness chains: the clause-guard fall-through structure
        // BuildRouteMapClasses walks per pair, in first-match form.
        for (const auto& [name, map] : config->route_maps) {
          bdd::BddRef remaining = route_layout_->Valid();
          bdd::BddRef permitted = bdd::kFalse;
          for (const auto& clause : map.clauses) {
            bdd::BddRef guard = encoder.ClauseGuard(clause);
            bdd::BddRef taken = route_mgr_.And(remaining, guard);
            remaining = route_mgr_.Diff(remaining, guard);
            if (clause.action == ir::ClauseAction::kPermit) {
              permitted = route_mgr_.Or(permitted, taken);
            }
            route_sift_witnesses_.push_back(taken);
          }
          route_sift_witnesses_.push_back(remaining);
          route_sift_witnesses_.push_back(permitted);
        }
      }
    }
    obs::Count("encode.template_prefix_lists",
               static_cast<double>(prefix_lists_.size()));
    obs::Count("encode.template_community_lists",
               static_cast<double>(community_lists_.size()));
  }
  if (packet_side) {
    packet_layout_.emplace(packet_mgr_);
    for (const ir::RouterConfig* config : {&config1, &config2}) {
      for (const auto& [name, acl] : config->acls) {
        if (acl.family != util::AddressFamily::kIpv4) continue;
        // Witness chain: the first-match classes BuildAclClasses derives
        // per pair (`here = remaining ∧ match`, `remaining \ here`, permit
        // union). Interning makes the second config's identical ACLs free.
        bdd::BddRef remaining = packet_mgr_.True();
        bdd::BddRef permitted = bdd::kFalse;
        for (const auto& line : acl.lines) {
          auto [it, inserted] =
              acl_lines_.try_emplace(AclLineMatchKey(line), bdd::kFalse);
          if (inserted) it->second = packet_layout_->MatchLine(line);
          if (sift_witnesses) {
            bdd::BddRef here = packet_mgr_.And(remaining, it->second);
            remaining = packet_mgr_.Diff(remaining, here);
            if (line.action == ir::LineAction::kPermit) {
              permitted = packet_mgr_.Or(permitted, here);
            }
            packet_sift_witnesses_.push_back(here);
          }
        }
        if (sift_witnesses) {
          packet_sift_witnesses_.push_back(remaining);
          packet_sift_witnesses_.push_back(permitted);
        }
      }
    }
    obs::Count("encode.template_acl_lines",
               static_cast<double>(acl_lines_.size()));
  }
}

bdd::SiftResult EncodingTemplate::Reorder(bdd::SiftMode mode) {
  bdd::SiftResult total;
  auto accumulate = [&total](const bdd::SiftResult& r) {
    total.passes += r.passes;
    total.swaps += r.swaps;
    total.nodes_before += r.nodes_before;
    total.nodes_after += r.nodes_after;
  };
  if (route_layout_) {
    std::vector<bdd::BddRef> roots = route_layout_->SiftRoots();
    for (const auto& [key, ref] : prefix_lists_) roots.push_back(ref);
    for (const auto& [key, ref] : community_lists_) roots.push_back(ref);
    roots.insert(roots.end(), route_sift_witnesses_.begin(),
                 route_sift_witnesses_.end());
    accumulate(route_mgr_.Sift(mode, &roots));
  }
  if (packet_layout_) {
    std::vector<bdd::BddRef> roots;
    for (const auto& [key, ref] : acl_lines_) roots.push_back(ref);
    roots.insert(roots.end(), packet_sift_witnesses_.begin(),
                 packet_sift_witnesses_.end());
    accumulate(packet_mgr_.Sift(mode, &roots));
  }
  return total;
}

std::optional<bdd::BddRef> EncodingTemplate::PrefixListPermits(
    const ir::PrefixList& list) const {
  auto it = prefix_lists_.find(PrefixListKey(list));
  if (it == prefix_lists_.end()) return std::nullopt;
  return it->second;
}

std::optional<bdd::BddRef> EncodingTemplate::CommunityListPermits(
    const ir::CommunityList& list) const {
  auto it = community_lists_.find(CommunityListKey(list));
  if (it == community_lists_.end()) return std::nullopt;
  return it->second;
}

std::optional<bdd::BddRef> EncodingTemplate::AclLineMatch(
    const ir::AclLine& line) const {
  auto it = acl_lines_.find(AclLineMatchKey(line));
  if (it == acl_lines_.end()) return std::nullopt;
  return it->second;
}

}  // namespace campion::encode
