#include "core/present.h"

#include <algorithm>

#include "util/text_table.h"

namespace campion::core {
namespace {

std::string RangesToCell(const std::vector<util::PrefixRange>& ranges) {
  if (ranges.empty()) return "(none)";
  std::string out;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (i > 0) out += "\n";
    out += ranges[i].ToString();
  }
  return out;
}

std::vector<util::PrefixRange> AclRanges(const ir::Acl& acl, bool dst) {
  const int width = util::AddressWidth(acl.family);
  std::vector<util::PrefixRange> ranges;
  for (const auto& line : acl.lines) {
    const util::IpWildcard& w = dst ? line.dst : line.src;
    if (auto prefix = w.AsIpPrefix()) {
      ranges.emplace_back(*prefix, width, width);
    }
  }
  return ranges;
}

}  // namespace

std::vector<util::PrefixRange> RouteMapRanges(const ir::RouterConfig& config1,
                                              const ir::RouterConfig& config2,
                                              util::AddressFamily family) {
  std::vector<util::PrefixRange> ranges = config1.AllPrefixRanges();
  auto ranges2 = config2.AllPrefixRanges();
  ranges.insert(ranges.end(), ranges2.begin(), ranges2.end());
  // Range constants of the other family match nothing in this family's
  // advertisement space.
  std::erase_if(ranges, [&](const util::PrefixRange& r) {
    return r.family() != family;
  });
  return ranges;
}

util::PrefixRange AclAddressUniverse(util::AddressFamily family) {
  const int width = util::AddressWidth(family);
  return util::PrefixRange(util::IpPrefix(family, util::U128(), 0), width,
                           width);
}

std::vector<util::PrefixRange> AclDstRanges(const ir::Acl& acl) {
  return AclRanges(acl, /*dst=*/true);
}

std::vector<util::PrefixRange> AclSrcRanges(const ir::Acl& acl) {
  return AclRanges(acl, /*dst=*/false);
}

PresentedDifference PresentRouteMapDifference(
    encode::RouteAdvLayout& layout, const RouteMapDifference& diff,
    const ir::RouterConfig& config1, const ir::RouterConfig& config2,
    const std::string& policy1, const std::string& policy2,
    HeaderLocalizer& localizer) {
  bdd::BddManager& mgr = layout.manager();
  PresentedDifference out;

  // Header localization over the advertised prefix: project the input set
  // onto the prefix variables and express it over the configurations'
  // prefix-range constants.
  bdd::BddRef prefix_set = mgr.Exists(diff.input_set,
                                      layout.NonPrefixVarMask());
  HeaderLocalizeResult localized = localizer.Localize(prefix_set);
  out.included = localized.IncludedRanges();
  out.excluded = localized.ExcludedRanges();

  // Communities are shown only when they are *required* for the
  // difference: if some community-free route already exhibits it, the
  // Included/Excluded prefix rows characterize it and the row would be
  // noise (the paper's Table 2(a) omits it for this reason). When they are
  // required, we go beyond the paper's single example (its §4 sketches
  // this as future work): the difference set is projected onto the
  // community variables and, if the projection has few enough distinct
  // conditions, all of them are listed; otherwise one example is shown
  // with a "+N more" marker, Table 7-style.
  if (!mgr.Intersects(diff.input_set, layout.NoCommunities())) {
    std::vector<bool> community_vars = layout.CommunityVarMask();
    std::vector<bool> non_community = community_vars;
    non_community.flip();
    bdd::BddRef community_set = mgr.Exists(diff.input_set, non_community);
    std::vector<std::string> conditions;
    std::size_t total_conditions = 0;
    constexpr std::size_t kMaxConditions = 6;
    mgr.ForEachSatPath(community_set, [&](const bdd::Cube& cube) {
      ++total_conditions;
      if (conditions.size() < kMaxConditions) {
        conditions.push_back(layout.DescribeCommunityCube(cube));
      }
    });
    if (total_conditions > kMaxConditions) {
      conditions.resize(1);
      conditions[0] += "  (+" + std::to_string(total_conditions - 1) +
                       " more conditions)";
    }
    out.example = util::JoinLines(conditions, "\n");
  }

  out.action1 = diff.action1.ToString();
  out.action2 = diff.action2.ToString();
  out.text1 = diff.text1;
  out.text2 = diff.text2;

  util::TextTable table({"", config1.hostname, config2.hostname});
  table.AddRow({"Included Prefixes", RangesToCell(out.included), ""});
  table.AddRow({"Excluded Prefixes", RangesToCell(out.excluded), ""});
  if (out.example) table.AddRow({"Community", *out.example, ""});
  table.AddRow({"Policy Name", policy1, policy2});
  table.AddRow({"Action", out.action1, out.action2});
  table.AddRow({"Text", out.text1, out.text2});
  out.table = table.Render();
  out.title = "Route map difference: " + policy1 + " vs " + policy2;
  return out;
}

PresentedDifference PresentAclDifference(encode::PacketLayout& layout,
                                         const AclDifference& diff,
                                         const ir::Acl& acl1,
                                         const ir::Acl& acl2,
                                         const ir::RouterConfig& config1,
                                         const ir::RouterConfig& config2,
                                         HeaderLocalizer& dst,
                                         HeaderLocalizer& src) {
  bdd::BddManager& mgr = layout.manager();
  PresentedDifference out;

  auto localize = [&](HeaderLocalizer& localizer,
                      const std::vector<bool>& keep_mask) {
    std::vector<bool> quantified = keep_mask;
    quantified.flip();
    return localizer.Localize(mgr.Exists(diff.input_set, quantified));
  };

  HeaderLocalizeResult dst_set = localize(dst, layout.DstIpVarMask());
  out.included = dst_set.IncludedRanges();
  out.excluded = dst_set.ExcludedRanges();

  HeaderLocalizeResult src_set = localize(src, layout.SrcIpVarMask());
  out.src_included = src_set.IncludedRanges();
  out.src_excluded = src_set.ExcludedRanges();

  // Exact protocol / destination-port localization; rows are shown only
  // when the difference actually constrains the field.
  auto protocols = layout.AffectedProtocols(diff.input_set);
  if (!(protocols.size() == 1 && protocols[0].low == 0 &&
        protocols[0].high == 255)) {
    out.protocols = std::move(protocols);
  }
  auto dst_ports = layout.AffectedDstPorts(diff.input_set);
  if (!(dst_ports.size() == 1 && dst_ports[0].IsAny())) {
    out.dst_ports = std::move(dst_ports);
  }

  if (auto cube = mgr.AnySat(diff.input_set)) {
    out.example = layout.Decode(*cube).ToString();
  }

  out.action1 = ir::ToString(diff.action1 == ir::LineAction::kPermit
                                 ? ir::ClauseAction::kPermit
                                 : ir::ClauseAction::kDeny);
  out.action2 = ir::ToString(diff.action2 == ir::LineAction::kPermit
                                 ? ir::ClauseAction::kPermit
                                 : ir::ClauseAction::kDeny);
  out.text1 = diff.text1;
  out.text2 = diff.text2;

  // Render srcIP/dstIP localizations as prefixes (the window is always
  // exactly /32s, so show just the base prefix).
  auto as_prefixes = [](const std::vector<util::PrefixRange>& ranges) {
    std::vector<std::string> lines;
    lines.reserve(ranges.size());
    for (const auto& r : ranges) lines.push_back(r.prefix().ToString());
    return util::JoinLines(lines, "\n");
  };
  std::string included_cell;
  if (!out.src_included.empty()) {
    included_cell += "srcIP: " + as_prefixes(out.src_included);
  }
  if (!out.included.empty()) {
    if (!included_cell.empty()) included_cell += "\n";
    included_cell += "dstIP: " + as_prefixes(out.included);
  }
  std::string excluded_cell;
  if (!out.src_excluded.empty()) {
    excluded_cell += "srcIP: " + as_prefixes(out.src_excluded);
  }
  if (!out.excluded.empty()) {
    if (!excluded_cell.empty()) excluded_cell += "\n";
    excluded_cell += "dstIP: " + as_prefixes(out.excluded);
  }
  if (excluded_cell.empty()) excluded_cell = "(none)";

  auto ranges_cell = [](const std::vector<ir::PortRange>& ranges,
                        bool protocol_names) {
    std::string cell;
    for (const auto& range : ranges) {
      if (!cell.empty()) cell += ", ";
      if (protocol_names && range.low == range.high) {
        cell += ir::ProtocolNumberToString(
            static_cast<std::uint8_t>(range.low));
      } else {
        cell += range.ToString();
      }
    }
    return cell;
  };

  util::TextTable table({"", config1.hostname, config2.hostname});
  table.AddRow({"Included Packets", included_cell, ""});
  table.AddRow({"Excluded Packets", excluded_cell, ""});
  if (!out.protocols.empty()) {
    table.AddRow({"Protocols", ranges_cell(out.protocols, true), ""});
  }
  if (!out.dst_ports.empty()) {
    table.AddRow({"Dst Ports", ranges_cell(out.dst_ports, false), ""});
  }
  if (out.example) table.AddRow({"Example", *out.example, ""});
  table.AddRow({"ACL Name", acl1.name, acl2.name});
  table.AddRow({"Action", out.action1, out.action2});
  table.AddRow({"Text", out.text1, out.text2});
  out.table = table.Render();
  out.title = "ACL difference: " + acl1.name;
  return out;
}

PresentedDifference PresentStructuralDifference(
    const StructuralDifference& diff, const ir::RouterConfig& config1,
    const ir::RouterConfig& config2) {
  PresentedDifference out;
  out.action1 = diff.value1;
  out.action2 = diff.value2;
  out.text1 = diff.span1.text.empty() ? "(none)" : diff.span1.text;
  out.text2 = diff.span2.text.empty() ? "(none)" : diff.span2.text;
  if (diff.span1.HasLocation()) out.location1 = diff.span1.LocationString();
  if (diff.span2.HasLocation()) out.location2 = diff.span2.LocationString();

  util::TextTable table({"", config1.hostname, config2.hostname});
  table.AddRow({"Component", diff.component, diff.component});
  table.AddRow({diff.field, diff.value1, diff.value2});
  table.AddRow({"Text", out.text1, out.text2});
  out.table = table.Render();
  out.title = "Structural difference: " + diff.component + " (" + diff.field +
              ")";
  return out;
}

}  // namespace campion::core
