#include "core/json_report.h"

#include "util/json.h"

namespace campion::core {
namespace {

const char* KindName(DifferenceEntry::Kind kind) {
  switch (kind) {
    case DifferenceEntry::Kind::kRouteMapSemantic: return "route-map";
    case DifferenceEntry::Kind::kAclSemantic: return "acl";
    case DifferenceEntry::Kind::kStructural: return "structural";
    case DifferenceEntry::Kind::kUnmatched: return "unmatched";
    case DifferenceEntry::Kind::kWarning: return "warning";
  }
  return "unknown";
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  out += JsonEscape(text);
  out += '"';
  return out;
}

std::string RangeArray(const std::vector<util::PrefixRange>& ranges) {
  std::string out = "[";
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (i > 0) out += ",";
    out += Quoted(ranges[i].ToString());
  }
  return out + "]";
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  return util::JsonEscape(text);
}

std::string ReportJsonFragment(const std::string& rendered, bool is_json) {
  if (is_json) return rendered;
  return Quoted(rendered);
}

std::string ReportToJson(const DiffReport& report, const std::string& router1,
                         const std::string& router2) {
  std::string out = "{\n";
  out += "  \"router1\": " + Quoted(router1) + ",\n";
  out += "  \"router2\": " + Quoted(router2) + ",\n";
  out += std::string("  \"equivalent\": ") +
         (report.Equivalent() ? "true" : "false") + ",\n";
  if (report.entries.empty()) {
    out += "  \"differences\": []\n}\n";
    return out;
  }
  out += "  \"differences\": [";
  bool first = true;
  for (const auto& entry : report.entries) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\n";
    out += std::string("      \"kind\": \"") + KindName(entry.kind) + "\",\n";
    out += "      \"title\": " + Quoted(entry.title) + ",\n";
    const PresentedDifference& d = entry.detail;
    if (!d.included.empty() || !d.excluded.empty()) {
      out += "      \"included_prefixes\": " + RangeArray(d.included) + ",\n";
      out += "      \"excluded_prefixes\": " + RangeArray(d.excluded) + ",\n";
    }
    if (!d.src_included.empty() || !d.src_excluded.empty()) {
      out += "      \"src_included_prefixes\": " + RangeArray(d.src_included) +
             ",\n";
      out += "      \"src_excluded_prefixes\": " + RangeArray(d.src_excluded) +
             ",\n";
    }
    auto port_array = [&](const std::vector<ir::PortRange>& ranges) {
      std::string array = "[";
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (i > 0) array += ",";
        array += Quoted(ranges[i].ToString());
      }
      return array + "]";
    };
    if (!d.protocols.empty()) {
      out += "      \"protocols\": " + port_array(d.protocols) + ",\n";
    }
    if (!d.dst_ports.empty()) {
      out += "      \"dst_ports\": " + port_array(d.dst_ports) + ",\n";
    }
    if (d.example) {
      out += "      \"example\": " + Quoted(*d.example) + ",\n";
    }
    if (!d.location1.empty() || !d.location2.empty()) {
      out += "      \"location1\": " + Quoted(d.location1) + ",\n";
      out += "      \"location2\": " + Quoted(d.location2) + ",\n";
    }
    out += "      \"action1\": " + Quoted(d.action1) + ",\n";
    out += "      \"action2\": " + Quoted(d.action2) + ",\n";
    out += "      \"text1\": " + Quoted(d.text1) + ",\n";
    out += "      \"text2\": " + Quoted(d.text2) + ",\n";
    out += "      \"rendered\": " + Quoted(entry.rendered) + "\n";
    out += "    }";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace campion::core
