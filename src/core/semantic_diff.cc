#include "core/semantic_diff.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::core {
namespace {

// The configuration text responsible for a clause: its recorded source
// span when the IR came from a parser, or a canonical one-liner otherwise.
std::string ClauseText(const ir::RouteMapClause& clause) {
  if (!clause.span.text.empty()) return clause.span.text;
  std::string out = clause.term_name.empty()
                        ? "clause " + std::to_string(clause.sequence)
                        : "term " + clause.term_name;
  out += " (" + ir::ToString(clause.action) + ")";
  return out;
}

std::string LineText(const ir::AclLine& line) {
  if (!line.span.text.empty()) return line.span.text;
  std::string out = ir::ToString(line.action);
  out += line.protocol ? " " + ir::ProtocolNumberToString(*line.protocol)
                       : " ip";
  out += " " + line.src.ToString() + " " + line.dst.ToString();
  return out;
}

}  // namespace

std::vector<RouteMapPathClass> BuildRouteMapClasses(
    encode::RouteAdvLayout& layout, encode::PolicyEncoder& encoder,
    const ir::RouteMap& map) {
  bdd::BddManager& mgr = layout.manager();
  obs::ScopedSpan span("encode", map.name);

  // A pending state: advertisements that have reached the current clause
  // with `sets` already applied by earlier fall-through terms.
  struct Pending {
    bdd::BddRef predicate;
    std::vector<ir::RouteMapSet> sets;
    std::string text;  // Text of the fall-through terms already traversed.
  };

  std::vector<RouteMapPathClass> classes;
  std::vector<Pending> pending;
  pending.push_back({layout.Valid(), {}, ""});

  auto path_text = [](const Pending& state, const std::string& terminal) {
    return state.text.empty() ? terminal : state.text + "\n" + terminal;
  };

  for (const auto& clause : map.clauses) {
    bdd::BddRef guard = encoder.ClauseGuard(clause);
    std::vector<Pending> next;
    next.reserve(pending.size());
    for (auto& state : pending) {
      bdd::BddRef taken = mgr.And(state.predicate, guard);
      bdd::BddRef missed = mgr.Diff(state.predicate, guard);
      if (taken != bdd::kFalse) {
        std::vector<ir::RouteMapSet> sets = state.sets;
        sets.insert(sets.end(), clause.sets.begin(), clause.sets.end());
        if (clause.action == ir::ClauseAction::kFallThrough) {
          next.push_back({taken, std::move(sets),
                          path_text(state, ClauseText(clause))});
        } else {
          RouteMapPathClass cls;
          cls.predicate = taken;
          cls.action = RouteAction::FromPath(
              clause.action == ir::ClauseAction::kPermit, sets);
          cls.text = path_text(state, ClauseText(clause));
          classes.push_back(std::move(cls));
        }
      }
      if (missed != bdd::kFalse) {
        next.push_back({missed, std::move(state.sets), std::move(state.text)});
      }
    }
    pending = std::move(next);
  }

  // Whatever is left falls off the end: the vendor-specific default action.
  for (auto& state : pending) {
    RouteMapPathClass cls;
    cls.predicate = state.predicate;
    cls.action = RouteAction::FromPath(
        map.default_action == ir::ClauseAction::kPermit, state.sets);
    std::string terminal =
        "<fall-through: default " +
        std::string(map.default_action == ir::ClauseAction::kPermit
                        ? "accept"
                        : "reject") +
        ">";
    cls.text = path_text(state, terminal);
    cls.is_default = true;
    classes.push_back(std::move(cls));
  }
  span.AddAttr("classes", static_cast<double>(classes.size()));
  span.AddAttr("clauses", static_cast<double>(map.clauses.size()));
  span.AddAttr("bdd_vars", static_cast<double>(mgr.num_vars()));
  obs::Count("encode.route_map_classes", static_cast<double>(classes.size()));
  return classes;
}

std::vector<RouteMapDifference> SemanticDiffRouteMaps(
    encode::RouteAdvLayout& layout, const ir::RouterConfig& config1,
    const ir::RouteMap& map1, const ir::RouterConfig& config2,
    const ir::RouteMap& map2) {
  bdd::BddManager& mgr = layout.manager();
  encode::PolicyEncoder encoder1(layout, config1);
  encode::PolicyEncoder encoder2(layout, config2);
  std::vector<RouteMapPathClass> classes1 =
      BuildRouteMapClasses(layout, encoder1, map1);
  std::vector<RouteMapPathClass> classes2 =
      BuildRouteMapClasses(layout, encoder2, map2);

  std::vector<RouteMapDifference> differences;
  {
    obs::ScopedSpan span("class_intersect",
                         map1.name + " vs " + map2.name);
    for (const auto& c1 : classes1) {
      for (const auto& c2 : classes2) {
        if (c1.action == c2.action) continue;
        bdd::BddRef overlap = mgr.And(c1.predicate, c2.predicate);
        if (overlap == bdd::kFalse) continue;
        differences.push_back(
            {overlap, c1.action, c2.action, c1.text, c2.text});
      }
    }
    span.AddAttr("class_pairs",
                 static_cast<double>(classes1.size() * classes2.size()));
    span.AddAttr("differences", static_cast<double>(differences.size()));
  }
  obs::Count("diff.route_map_differences",
             static_cast<double>(differences.size()));
  return differences;
}

std::vector<AclPathClass> BuildAclClasses(encode::PacketLayout& layout,
                                          const ir::Acl& acl) {
  bdd::BddManager& mgr = layout.manager();
  obs::ScopedSpan span("encode", acl.name);
  std::vector<AclPathClass> classes;
  bdd::BddRef remaining = mgr.True();
  for (const auto& line : acl.lines) {
    bdd::BddRef here = mgr.And(remaining, layout.MatchLine(line));
    if (here != bdd::kFalse) {
      classes.push_back({here, line.action, LineText(line), false});
    }
    remaining = mgr.Diff(remaining, here);
  }
  if (remaining != bdd::kFalse) {
    classes.push_back({remaining, ir::LineAction::kDeny,
                       "<implicit deny at end of ACL>", true});
  }
  span.AddAttr("classes", static_cast<double>(classes.size()));
  span.AddAttr("lines", static_cast<double>(acl.lines.size()));
  span.AddAttr("bdd_vars", static_cast<double>(mgr.num_vars()));
  obs::Count("encode.acl_classes", static_cast<double>(classes.size()));
  return classes;
}

std::vector<AclDifference> SemanticDiffAcls(encode::PacketLayout& layout,
                                            const ir::Acl& acl1,
                                            const ir::Acl& acl2,
                                            const AclDiffOptions& options) {
  bdd::BddManager& mgr = layout.manager();
  std::vector<AclPathClass> classes1 = BuildAclClasses(layout, acl1);
  std::vector<AclPathClass> classes2 = BuildAclClasses(layout, acl2);

  // Pruning: any differing class pair lies inside the symmetric difference
  // of the two permit sets, so only classes overlapping it can contribute.
  // This turns the pairwise comparison from quadratic in the ACL size into
  // quadratic in the number of classes actually touched by a difference.
  auto permit_set = [&](const std::vector<AclPathClass>& classes) {
    bdd::BddRef permitted = mgr.False();
    for (const auto& cls : classes) {
      if (cls.action == ir::LineAction::kPermit) {
        permitted = mgr.Or(permitted, cls.predicate);
      }
    }
    return permitted;
  };
  bdd::BddRef disagreement =
      mgr.Xor(permit_set(classes1), permit_set(classes2));
  if (disagreement == bdd::kFalse) return {};
  if (!options.prune_with_disagreement_set) {
    disagreement = mgr.True();  // Ablation: consider every class pair.
  }

  auto touched = [&](const std::vector<AclPathClass>& classes) {
    std::vector<const AclPathClass*> relevant;
    for (const auto& cls : classes) {
      if (mgr.Intersects(cls.predicate, disagreement)) {
        relevant.push_back(&cls);
      }
    }
    return relevant;
  };
  std::vector<const AclPathClass*> relevant1 = touched(classes1);
  std::vector<const AclPathClass*> relevant2 = touched(classes2);

  std::vector<AclDifference> differences;
  {
    obs::ScopedSpan span("class_intersect", acl1.name + " vs " + acl2.name);
    for (const AclPathClass* c1 : relevant1) {
      for (const AclPathClass* c2 : relevant2) {
        if (c1->action == c2->action) continue;
        bdd::BddRef overlap = mgr.And(c1->predicate, c2->predicate);
        if (overlap == bdd::kFalse) continue;
        differences.push_back(
            {overlap, c1->action, c2->action, c1->text, c2->text});
      }
    }
    span.AddAttr("class_pairs", static_cast<double>(relevant1.size() *
                                                    relevant2.size()));
    span.AddAttr("differences", static_cast<double>(differences.size()));
  }
  obs::Count("diff.acl_differences", static_cast<double>(differences.size()));
  return differences;
}

}  // namespace campion::core
