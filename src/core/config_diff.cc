#include "core/config_diff.h"

#include <cstddef>
#include <functional>
#include <iterator>
#include <optional>
#include <set>
#include <utility>

#include "bdd/bdd.h"
#include "core/semantic_diff.h"
#include "core/structural_diff.h"
#include "encode/encoding_template.h"
#include "encode/packet.h"
#include "encode/route_adv.h"
#include "obs/bdd_metrics.h"
#include "obs/mem_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace campion::core {
namespace {

// The accept-everything route map that models "no policy configured".
ir::RouteMap PassThroughMap() {
  ir::RouteMap map;
  map.name = "(no policy)";
  map.default_action = ir::ClauseAction::kPermit;
  return map;
}

// Resolves a route map by name, falling back to pass-through for the empty
// name and recording a warning for a dangling reference.
// Records a pair manager's kernel + memory accounting on the pair's span
// and into the metrics registry. One call per manager, at task end — the
// MemoryStats() walk is cheap but not free, so it stays off when tracing
// is disabled.
void RecordPairBddObservability(obs::ScopedSpan& span,
                                const bdd::BddManager& mgr) {
  if (!obs::Enabled()) return;
  span.AddAttr("bdd_nodes", static_cast<double>(mgr.ArenaSize()));
  obs::RecordBddStats(mgr.Stats());
  bdd::BddMemoryStats mem = mgr.MemoryStats();
  span.AddAttr("bdd_mem_bytes", static_cast<double>(mem.total_bytes));
  span.AddAttr("bdd_rehashes", static_cast<double>(mem.rehash_count));
  obs::RecordBddMemory(mem);
}

const ir::RouteMap* ResolveMap(const ir::RouterConfig& config,
                               const std::string& name,
                               const ir::RouteMap& fallback,
                               std::vector<std::string>* warnings) {
  if (name.empty()) return &fallback;
  const ir::RouteMap* map = config.FindRouteMap(name);
  if (map == nullptr) {
    if (warnings != nullptr) {
      warnings->push_back("route map " + name + " referenced but not defined in " +
                          config.hostname + "; treating as accept-all");
    }
    return &fallback;
  }
  return map;
}

// The address family a route-map pair's advertisement space uses: IPv6 iff
// either map matches on an IPv6 prefix list. (Both vendors keep v4 and v6
// policy in separate namespaces/terms; a map whose prefix matches are all
// v4 — or that matches no prefixes at all — diffs over the v4 space,
// byte-identical to the pre-dual-stack behavior.)
util::AddressFamily RouteMapPairFamily(const ir::RouterConfig& config,
                                       const ir::RouteMap& map) {
  for (const auto& clause : map.clauses) {
    for (const auto& match : clause.matches) {
      if (match.kind != ir::RouteMapMatch::Kind::kPrefixList) continue;
      for (const auto& name : match.names) {
        const ir::PrefixList* list = config.FindPrefixList(name);
        if (list != nullptr && list->family == util::AddressFamily::kIpv6) {
          return util::AddressFamily::kIpv6;
        }
      }
    }
  }
  return util::AddressFamily::kIpv4;
}

// Maps the driver-level reorder option onto a kernel sift mode; nullopt =
// reordering off.
std::optional<bdd::SiftMode> SiftModeFor(DiffOptions::ReorderMode mode) {
  switch (mode) {
    case DiffOptions::ReorderMode::kOff:
      return std::nullopt;
    case DiffOptions::ReorderMode::kSift:
      return bdd::SiftMode::kVars;
    case DiffOptions::ReorderMode::kGroupSift:
      return bdd::SiftMode::kGroups;
  }
  return std::nullopt;
}

// Arms a pair manager's growth-triggered auto-sift when reordering is on.
// Runs after SeedFrom / layout construction so the trigger baseline is the
// seeded (already-sifted) arena, not an empty one.
void ArmAutoSift(bdd::BddManager& mgr, const DiffOptions& options) {
  if (std::optional<bdd::SiftMode> mode = SiftModeFor(options.reorder)) {
    mgr.SetAutoSift(*mode, options.reorder_trigger_ratio);
  }
}

std::vector<PresentedDifference> DiffRouteMapPairImpl(
    const ir::RouterConfig& config1, const std::string& name1,
    const ir::RouterConfig& config2, const std::string& name2,
    std::vector<std::string>* warnings,
    const encode::EncodingTemplate* tmpl = nullptr,
    const DiffOptions& options = {}) {
  ir::RouteMap fallback = PassThroughMap();
  const ir::RouteMap* map1 = ResolveMap(config1, name1, fallback, warnings);
  const ir::RouteMap* map2 = ResolveMap(config2, name2, fallback, warnings);
  obs::ScopedSpan span("route_map_pair",
                       map1->name + " vs " + map2->name);

  // An IPv6 pair diffs over the 128-bit advertisement space. The shared
  // template's layouts are IPv4, so v6 pairs build from scratch — template
  // on and off are trivially identical for them.
  util::AddressFamily family = RouteMapPairFamily(config1, *map1);
  if (family == util::AddressFamily::kIpv4) {
    family = RouteMapPairFamily(config2, *map2);
  }
  if (family != util::AddressFamily::kIpv4) tmpl = nullptr;

  // One manager per pair keeps arenas small and lifetimes obvious. With a
  // template, the manager starts as a snapshot of the shared arena (same
  // variable order, common list BDDs pre-built) instead of empty; either
  // way, the pair owns its manager outright from here on.
  bdd::BddManager mgr;
  std::optional<encode::RouteAdvLayout> layout;
  if (tmpl != nullptr) {
    mgr.SeedFrom(tmpl->route_manager());
    layout.emplace(mgr, tmpl->route_layout());
  } else {
    std::vector<util::Community> communities = config1.AllCommunities();
    auto more = config2.AllCommunities();
    communities.insert(communities.end(), more.begin(), more.end());
    layout.emplace(mgr, std::move(communities), family);
  }
  ArmAutoSift(mgr, options);

  std::vector<RouteMapDifference> diffs =
      SemanticDiffRouteMaps(*layout, config1, *map1, config2, *map2, tmpl);
  std::vector<PresentedDifference> presented;
  presented.reserve(diffs.size());
  for (const auto& diff : diffs) {
    presented.push_back(PresentRouteMapDifference(
        *layout, diff, config1, config2, map1->name, map2->name));
  }
  span.AddAttr("differences", static_cast<double>(presented.size()));
  obs::Count("diff.route_map_pairs");
  RecordPairBddObservability(span, mgr);
  return presented;
}

std::vector<PresentedDifference> DiffAclPairImpl(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2,
    const std::string& name, const encode::EncodingTemplate* tmpl = nullptr,
    const DiffOptions& options = {}) {
  const ir::Acl* acl1 = config1.FindAcl(name);
  const ir::Acl* acl2 = config2.FindAcl(name);
  if (acl1 == nullptr || acl2 == nullptr) return {};
  // Family mismatches are reported as unmatched components by
  // MatchPolicies; a pair reaching here shares one family.
  if (acl1->family != acl2->family) return {};
  obs::ScopedSpan span("acl_pair", name);

  // IPv6 ACLs diff over the 256-bit-address packet space; the shared
  // template's packet layout is IPv4, so v6 pairs build from scratch.
  if (acl1->family != util::AddressFamily::kIpv4) tmpl = nullptr;
  bdd::BddManager mgr;
  std::optional<encode::PacketLayout> layout;
  if (tmpl != nullptr) {
    mgr.SeedFrom(tmpl->packet_manager());
    layout.emplace(mgr, tmpl->packet_layout());
  } else {
    layout.emplace(mgr, acl1->family);
  }
  ArmAutoSift(mgr, options);
  std::vector<AclDifference> diffs =
      SemanticDiffAcls(*layout, *acl1, *acl2, {}, tmpl);
  std::vector<PresentedDifference> presented;
  presented.reserve(diffs.size());
  for (const auto& diff : diffs) {
    presented.push_back(
        PresentAclDifference(*layout, diff, *acl1, *acl2, config1, config2));
  }
  span.AddAttr("differences", static_cast<double>(presented.size()));
  obs::Count("diff.acl_pairs");
  RecordPairBddObservability(span, mgr);
  return presented;
}

}  // namespace

int DiffReport::CountOf(DifferenceEntry::Kind kind) const {
  int count = 0;
  for (const auto& entry : entries) {
    if (entry.kind == kind) ++count;
  }
  return count;
}

bool DiffReport::Equivalent() const {
  for (const auto& entry : entries) {
    if (entry.kind != DifferenceEntry::Kind::kWarning) return false;
  }
  return true;
}

std::string DiffReport::Render() const {
  if (entries.empty()) {
    return "No differences found: the configurations are behaviorally "
           "equivalent for all supported components.\n";
  }
  std::string out;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += "=== [" + std::to_string(i + 1) + "] " + entries[i].title + " ===\n";
    out += entries[i].rendered;
    if (!out.empty() && out.back() != '\n') out += "\n";
    out += "\n";
  }
  out += "Summary: " +
         std::to_string(CountOf(DifferenceEntry::Kind::kRouteMapSemantic)) +
         " route-map, " +
         std::to_string(CountOf(DifferenceEntry::Kind::kAclSemantic)) +
         " ACL, " +
         std::to_string(CountOf(DifferenceEntry::Kind::kStructural)) +
         " structural difference(s); " +
         std::to_string(CountOf(DifferenceEntry::Kind::kUnmatched)) +
         " unmatched component(s), " +
         std::to_string(CountOf(DifferenceEntry::Kind::kWarning)) +
         " warning(s)\n";
  return out;
}

std::vector<PresentedDifference> DiffRouteMapPair(
    const ir::RouterConfig& config1, const std::string& name1,
    const ir::RouterConfig& config2, const std::string& name2) {
  return DiffRouteMapPairImpl(config1, name1, config2, name2, nullptr);
}

std::vector<PresentedDifference> DiffAclPair(const ir::RouterConfig& config1,
                                             const ir::RouterConfig& config2,
                                             const std::string& name) {
  return DiffAclPairImpl(config1, config2, name);
}

DiffReport ConfigDiff(const ir::RouterConfig& config1,
                      const ir::RouterConfig& config2,
                      const DiffOptions& options) {
  // Scoped metrics capture: resolve the run's sink once — the caller's
  // explicit per-request sink, or whatever is ambient on this thread —
  // and install it here and on every pooled task below, so the capture is
  // complete and request-private at any thread count.
  std::optional<obs::MetricsScope> metrics_scope;
  if (options.metrics_sink != nullptr) {
    metrics_scope.emplace(*options.metrics_sink);
  }
  obs::MetricsSink* metrics_sink = &obs::CurrentMetrics();
  obs::ScopedSpan pipeline_span("config_diff",
                                config1.hostname + " vs " + config2.hostname);
  DiffReport report;
  std::vector<std::string> warnings;
  PolicyPairing pairing;
  {
    obs::ScopedSpan span("match_policies");
    pairing = MatchPolicies(config1, config2);
    span.AddAttr("route_map_pairs",
                 static_cast<double>(pairing.route_maps.size()));
    span.AddAttr("acl_pairs", static_cast<double>(pairing.acls.size()));
    span.AddAttr("unmatched", static_cast<double>(pairing.unmatched.size()));
  }

  auto add_semantic = [&](DifferenceEntry::Kind kind,
                          std::vector<PresentedDifference> diffs) {
    for (auto& d : diffs) {
      DifferenceEntry entry;
      entry.kind = kind;
      entry.title = d.title;
      entry.rendered = d.table;
      entry.detail = std::move(d);
      report.entries.push_back(std::move(entry));
    }
  };
  auto add_structural = [&](std::vector<StructuralDifference> diffs) {
    for (const auto& d : diffs) {
      PresentedDifference presented =
          PresentStructuralDifference(d, config1, config2);
      DifferenceEntry entry;
      entry.kind = DifferenceEntry::Kind::kStructural;
      entry.title = presented.title;
      entry.rendered = presented.table;
      entry.detail = std::move(presented);
      report.entries.push_back(std::move(entry));
    }
  };

  // Shared read-only encoding template: encode each structurally distinct
  // prefix list, community list, and ACL match clause once, before the
  // fan-out, so pair tasks seed their managers from the frozen arena
  // instead of re-encoding the common library. Built on the main thread
  // (its span lands at a fixed position in the trace tree at any thread
  // count) and only read — never mutated — by the tasks.
  bool want_route_maps =
      options.check_route_maps &&
      (!pairing.route_maps.empty() || !pairing.redistributions.empty());
  bool want_acls = options.check_acls && !pairing.acls.empty();
  std::optional<encode::EncodingTemplate> template_storage;
  const encode::EncodingTemplate* tmpl = nullptr;
  if (options.use_encoding_template && (want_route_maps || want_acls)) {
    obs::ScopedSpan span("encode_template",
                         config1.hostname + " vs " + config2.hostname);
    template_storage.emplace(config1, config2, want_route_maps, want_acls,
                             /*sift_witnesses=*/SiftModeFor(options.reorder)
                                 .has_value());
    tmpl = &*template_storage;
    if (obs::Enabled()) {
      span.AddAttr("unique_prefix_lists",
                   static_cast<double>(tmpl->unique_prefix_lists()));
      span.AddAttr("unique_community_lists",
                   static_cast<double>(tmpl->unique_community_lists()));
      span.AddAttr("unique_acl_lines",
                   static_cast<double>(tmpl->unique_acl_lines()));
      double template_nodes = 0.0;
      if (tmpl->has_route_side()) {
        template_nodes +=
            static_cast<double>(tmpl->route_manager().ArenaSize());
      }
      if (tmpl->has_packet_side()) {
        template_nodes +=
            static_cast<double>(tmpl->packet_manager().ArenaSize());
      }
      span.AddAttr("bdd_nodes", template_nodes);
    }
  }
  // Reorder the shared template ONCE, on the main thread, before any pair
  // seeds from it: every seeded manager inherits the sifted order and the
  // template's lookup refs stay valid everywhere. (The alternative —
  // letting each pair sift privately and invalidating the template's refs
  // per manager — would re-pay the sift per pair and forfeit ref sharing.)
  if (tmpl != nullptr) {
    if (std::optional<bdd::SiftMode> mode = SiftModeFor(options.reorder)) {
      obs::ScopedSpan span("bdd_sift",
                           config1.hostname + " vs " + config2.hostname);
      bdd::SiftResult sift = template_storage->Reorder(*mode);
      span.AddAttr("sift_passes", static_cast<double>(sift.passes));
      span.AddAttr("sift_swaps", static_cast<double>(sift.swaps));
      span.AddAttr("sift_nodes_before",
                   static_cast<double>(sift.nodes_before));
      span.AddAttr("sift_nodes_after",
                   static_cast<double>(sift.nodes_after));
    }
    // Record the template managers' kernel stats only now, after the
    // optional sift: bdd.arena_nodes then counts the arena pairs actually
    // seed from (post-reclamation), and the managers' sift tallies ride
    // along as bdd.sift_* — absent when no sift ran, keeping reorder-off
    // runs byte-identical.
    if (obs::Enabled()) {
      if (tmpl->has_route_side()) {
        obs::RecordBddStats(tmpl->route_manager().Stats());
        obs::RecordBddMemory(tmpl->route_manager().MemoryStats());
      }
      if (tmpl->has_packet_side()) {
        obs::RecordBddStats(tmpl->packet_manager().Stats());
        obs::RecordBddMemory(tmpl->packet_manager().MemoryStats());
      }
    }
  }

  // The semantic checks are the expensive part (each pair builds and
  // compares BDDs), and every pair is independent: each task constructs its
  // own BddManager and layout, so tasks share no mutable state. Fan the
  // distinct pairs out across the worker pool, then merge results back in
  // pair-declaration order so the report is byte-identical to a serial run.
  struct SemanticTask {
    DifferenceEntry::Kind kind;
    std::function<std::vector<PresentedDifference>(std::vector<std::string>*)>
        run;
  };
  std::vector<SemanticTask> tasks;
  if (options.check_route_maps) {
    // Several neighbors often share one policy pair (e.g. both uplinks use
    // the same import map); each distinct (name1, name2) pair is diffed
    // once.
    std::set<std::pair<std::string, std::string>> seen_pairs;
    for (const auto& pair : pairing.route_maps) {
      if (!seen_pairs.insert({pair.name1, pair.name2}).second) continue;
      tasks.push_back(
          {DifferenceEntry::Kind::kRouteMapSemantic,
           [&config1, &config2, &options, pair,
            tmpl](std::vector<std::string>* task_warnings) {
             auto diffs =
                 DiffRouteMapPairImpl(config1, pair.name1, config2, pair.name2,
                                      task_warnings, tmpl, options);
             for (auto& d : diffs) {
               d.title += " (neighbor " + pair.neighbor.ToString() + ", " +
                          ToString(pair.direction) + ")";
             }
             return diffs;
           }});
    }
    for (const auto& pair : pairing.redistributions) {
      tasks.push_back(
          {DifferenceEntry::Kind::kRouteMapSemantic,
           [&config1, &config2, &options, pair,
            tmpl](std::vector<std::string>* task_warnings) {
             auto diffs =
                 DiffRouteMapPairImpl(config1, pair.name1, config2, pair.name2,
                                      task_warnings, tmpl, options);
             for (auto& d : diffs) {
               d.title += " (redistribution of " + ir::ToString(pair.from) +
                          " into " + ir::ToString(pair.via) + ")";
             }
             return diffs;
           }});
    }
  }
  if (options.check_acls) {
    for (const auto& pair : pairing.acls) {
      tasks.push_back(
          {DifferenceEntry::Kind::kAclSemantic,
           [&config1, &config2, &options, pair,
            tmpl](std::vector<std::string>*) {
             return DiffAclPairImpl(config1, config2, pair.name, tmpl,
                                    options);
           }});
    }
  }

  std::vector<std::vector<PresentedDifference>> task_results(tasks.size());
  std::vector<std::vector<std::string>> task_warnings(tasks.size());
  // Each task's spans are captured on whichever thread ran it and attached
  // back below in task-declaration order, so the trace tree — like the
  // report — is structurally identical at every thread count.
  std::vector<std::vector<obs::Span>> task_spans(tasks.size());
  util::RunParallel(options.num_threads, tasks.size(), [&](std::size_t i) {
    // Pool threads have no ambient scope of their own: route this task's
    // metrics into the run's sink (re-installing the same sink is a no-op
    // when the task runs inline on the submitting thread).
    obs::MetricsScope task_metrics(*metrics_sink);
    obs::TaskCapture capture;
    task_results[i] = tasks[i].run(&task_warnings[i]);
    task_spans[i] = capture.Finish();
  });
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    obs::AttachSpans(std::move(task_spans[i]));
    add_semantic(tasks[i].kind, std::move(task_results[i]));
    warnings.insert(warnings.end(),
                    std::make_move_iterator(task_warnings[i].begin()),
                    std::make_move_iterator(task_warnings[i].end()));
  }
  auto structural_check = [&](bool enabled, const char* detail,
                              const std::function<
                                  std::vector<StructuralDifference>()>& run) {
    if (!enabled) return;
    obs::ScopedSpan span("structural", detail);
    std::vector<StructuralDifference> diffs = run();
    span.AddAttr("differences", static_cast<double>(diffs.size()));
    obs::Count("diff.structural_differences",
               static_cast<double>(diffs.size()));
    add_structural(std::move(diffs));
  };
  structural_check(options.check_static_routes, "static",
                   [&] { return DiffStaticRoutes(config1, config2); });
  structural_check(options.check_connected_routes, "connected",
                   [&] { return DiffConnectedRoutes(config1, config2); });
  structural_check(options.check_ospf, "ospf", [&] {
    return DiffOspf(config1, config2, pairing.interfaces);
  });
  structural_check(options.check_bgp_properties, "bgp",
                   [&] { return DiffBgpProperties(config1, config2); });
  structural_check(options.check_admin_distances, "admin",
                   [&] { return DiffAdminDistances(config1, config2); });

  for (const auto& note : pairing.unmatched) {
    DifferenceEntry entry;
    entry.kind = DifferenceEntry::Kind::kUnmatched;
    entry.title = "Unmatched component";
    entry.rendered = note + "\n";
    report.entries.push_back(std::move(entry));
  }
  for (const auto& warning : warnings) {
    DifferenceEntry entry;
    entry.kind = DifferenceEntry::Kind::kWarning;
    entry.title = "Warning";
    entry.rendered = warning + "\n";
    report.entries.push_back(std::move(entry));
  }
  obs::RecordSpanMemory(pipeline_span);
  return report;
}

}  // namespace campion::core
