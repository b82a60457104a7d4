#include "core/config_diff.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "bdd/bdd.h"
#include "core/ddnf.h"
#include "core/header_localize.h"
#include "core/semantic_diff.h"
#include "core/structural_diff.h"
#include "encode/packet.h"
#include "encode/route_adv.h"
#include "obs/bdd_metrics.h"
#include "obs/mem_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace campion::core {
namespace {

// The calling thread's BDD manager, leased to one pair task and Reset()
// for it. A thread keeps its manager for life, so a warm thread reuses the
// arena and tables of its largest task so far instead of allocating and
// regrowing them for every pair. Reuse is safe because a thread runs one
// pair task at a time: RunParallel's caller runs only its own call's
// indices and a pair task starts no fan-out, so no pair task ever runs
// inside another on one thread. The lease checks that.
class PairTaskManager {
 public:
  PairTaskManager() : slot_(ThreadSlot()) {
    if (slot_.leased) {
      throw std::logic_error("a pair task started inside another pair task");
    }
    slot_.leased = true;
    slot_.mgr.Reset();
  }
  ~PairTaskManager() { slot_.leased = false; }
  PairTaskManager(const PairTaskManager&) = delete;
  PairTaskManager& operator=(const PairTaskManager&) = delete;

  bdd::BddManager& manager() { return slot_.mgr; }

 private:
  struct Slot {
    bdd::BddManager mgr;
    bool leased = false;
  };
  static Slot& ThreadSlot() {
    thread_local Slot slot;
    return slot;
  }
  Slot& slot_;
};

// The accept-everything route map that models "no policy configured".
ir::RouteMap PassThroughMap() {
  ir::RouteMap map;
  map.name = "(no policy)";
  map.default_action = ir::ClauseAction::kPermit;
  return map;
}

// Resolves a route map by name, falling back to pass-through for the empty
// name and recording a warning for a dangling reference.
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
// v4 — or that matches no prefixes at all, like the pass-through map an
// empty or dangling name resolves to — diffs over the v4 space,
// byte-identical to the pre-dual-stack behavior.)
util::AddressFamily RouteMapFamily(const ir::RouterConfig& config,
                                   const std::string& name) {
  const ir::RouteMap* map = name.empty() ? nullptr : config.FindRouteMap(name);
  if (map == nullptr) return util::AddressFamily::kIpv4;
  for (const auto& clause : map->clauses) {
    for (const auto& match : clause.matches) {
      if (match.kind != ir::RouteMapMatch::Kind::kPrefixList) continue;
      for (const auto& list_name : match.names) {
        const ir::PrefixList* list = config.FindPrefixList(list_name);
        if (list != nullptr && list->family == util::AddressFamily::kIpv6) {
          return util::AddressFamily::kIpv6;
        }
      }
    }
  }
  return util::AddressFamily::kIpv4;
}

util::AddressFamily RouteMapPairFamily(const ir::RouterConfig& config1,
                                       const std::string& name1,
                                       const ir::RouterConfig& config2,
                                       const std::string& name2) {
  util::AddressFamily family = RouteMapFamily(config1, name1);
  return family == util::AddressFamily::kIpv4 ? RouteMapFamily(config2, name2)
                                              : family;
}

// The route-map localization DAG of one address family: every
// prefix-range constant of both configurations in that family's
// advertisement space. Every route-map difference of a comparison
// localizes over the same ranges, so the DAG is built at most once, by the
// first pair task that has a difference to localize, and a comparison
// without one builds none. The build's `localize_dag` span is taken off
// that task's subtree and kept here for the caller to attach at a fixed
// position, so the trace does not depend on which task built it.
class RouteDag {
 public:
  RouteDag(const ir::RouterConfig& config1, const ir::RouterConfig& config2,
           util::AddressFamily family)
      : config1_(config1), config2_(config2), family_(family) {}

  util::AddressFamily family() const { return family_; }

  // Builds the DAG on first call; safe to call from concurrent tasks.
  const PrefixRangeDag& Get() {
    std::call_once(built_, [this] {
      obs::TaskCapture capture;
      dag_.emplace(
          BuildLocalizeDag(RouteMapRanges(config1_, config2_, family_),
                           util::PrefixRange::UniverseOf(family_)));
      spans_ = capture.Finish();
    });
    return *dag_;
  }

  // The build's spans (none when no task needed the DAG). Call after every
  // task that may call Get() has finished.
  std::vector<obs::Span> TakeSpans() { return std::move(spans_); }

 private:
  const ir::RouterConfig& config1_;
  const ir::RouterConfig& config2_;
  const util::AddressFamily family_;
  std::once_flag built_;
  std::optional<PrefixRangeDag> dag_;
  std::vector<obs::Span> spans_;
};

std::vector<PresentedDifference> DiffRouteMapPairImpl(
    const ir::RouterConfig& config1, const std::string& name1,
    const ir::RouterConfig& config2, const std::string& name2,
    std::vector<std::string>* warnings, RouteDag& route_dag) {
  ir::RouteMap fallback = PassThroughMap();
  const ir::RouteMap* map1 = ResolveMap(config1, name1, fallback, warnings);
  const ir::RouteMap* map2 = ResolveMap(config2, name2, fallback, warnings);
  obs::ScopedSpan span("route_map_pair",
                       map1->name + " vs " + map2->name);

  // `route_dag` is for the pair's family (RouteMapPairFamily). An IPv6
  // pair diffs over the 128-bit advertisement space.
  util::AddressFamily family = route_dag.family();

  // One manager per pair, reset for it, keeps each arena as small as the
  // pair's own work (paper §3–4: modular checking).
  PairTaskManager lease;
  bdd::BddManager& mgr = lease.manager();
  std::vector<util::Community> communities = config1.AllCommunities();
  auto more = config2.AllCommunities();
  communities.insert(communities.end(), more.begin(), more.end());
  encode::RouteAdvLayout layout(mgr, std::move(communities), family);

  std::vector<RouteMapDifference> diffs =
      SemanticDiffRouteMaps(layout, config1, *map1, config2, *map2);
  std::vector<PresentedDifference> presented;
  presented.reserve(diffs.size());
  if (!diffs.empty()) {
    // One localizer for all of the pair's differences: its length windows
    // are encoded on the pair's manager once, remainders are shared.
    HeaderLocalizer localizer(mgr, route_dag.Get(),
                              layout.prefix_encoding());
    for (const auto& diff : diffs) {
      presented.push_back(PresentRouteMapDifference(layout, diff, config1,
                                                    config2, map1->name,
                                                    map2->name, localizer));
    }
  }
  span.AddAttr("differences", static_cast<double>(presented.size()));
  obs::Count("diff.route_map_pairs");
  obs::RecordBddManager(span, mgr);
  return presented;
}

std::vector<PresentedDifference> DiffAclPairImpl(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2,
    const std::string& name) {
  const ir::Acl* acl1 = config1.FindAcl(name);
  const ir::Acl* acl2 = config2.FindAcl(name);
  if (acl1 == nullptr || acl2 == nullptr) return {};
  // Family mismatches are reported as unmatched components by
  // MatchPolicies; a pair reaching here shares one family.
  if (acl1->family != acl2->family) return {};
  obs::ScopedSpan span("acl_pair", name);

  // IPv6 ACLs diff over the 256-bit-address packet space.
  PairTaskManager lease;
  bdd::BddManager& mgr = lease.manager();
  encode::PacketLayout layout(mgr, acl1->family);
  std::vector<AclDifference> diffs = SemanticDiffAcls(layout, *acl1, *acl2);
  std::vector<PresentedDifference> presented;
  presented.reserve(diffs.size());
  if (!diffs.empty()) {
    // One DAG and one localizer per address direction, over both ACLs'
    // prefixes, for all of the pair's differences.
    auto both = [&](auto ranges_of) {
      std::vector<util::PrefixRange> ranges = ranges_of(*acl1);
      auto more = ranges_of(*acl2);
      ranges.insert(ranges.end(), more.begin(), more.end());
      return BuildLocalizeDag(std::move(ranges),
                              AclAddressUniverse(acl1->family));
    };
    PrefixRangeDag dst_dag = both(AclDstRanges);
    PrefixRangeDag src_dag = both(AclSrcRanges);
    HeaderLocalizer dst(mgr, dst_dag, layout.DstPrefixEncoding());
    HeaderLocalizer src(mgr, src_dag, layout.SrcPrefixEncoding());
    for (const auto& diff : diffs) {
      presented.push_back(PresentAclDifference(layout, diff, *acl1, *acl2,
                                               config1, config2, dst, src));
    }
  }
  span.AddAttr("differences", static_cast<double>(presented.size()));
  obs::Count("diff.acl_pairs");
  obs::RecordBddManager(span, mgr);
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
  RouteDag route_dag(config1, config2,
                     RouteMapPairFamily(config1, name1, config2, name2));
  std::vector<PresentedDifference> presented = DiffRouteMapPairImpl(
      config1, name1, config2, name2, nullptr, route_dag);
  obs::AttachSpans(route_dag.TakeSpans());
  return presented;
}

std::vector<PresentedDifference> DiffAclPair(const ir::RouterConfig& config1,
                                             const ir::RouterConfig& config2,
                                             const std::string& name) {
  return DiffAclPairImpl(config1, config2, name);
}

bool ParseChecks(const std::string& list, DiffOptions* options,
                 std::string* error) {
  static constexpr std::pair<const char*, bool DiffOptions::*> kChecks[] = {
      {"route-maps", &DiffOptions::check_route_maps},
      {"acls", &DiffOptions::check_acls},
      {"static", &DiffOptions::check_static_routes},
      {"connected", &DiffOptions::check_connected_routes},
      {"ospf", &DiffOptions::check_ospf},
      {"bgp", &DiffOptions::check_bgp_properties},
      {"admin", &DiffOptions::check_admin_distances},
  };
  for (const auto& [name, flag] : kChecks) options->*flag = false;
  bool any = false;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) {
      const auto* check = std::find_if(
          std::begin(kChecks), std::end(kChecks),
          [&](const auto& entry) { return item == entry.first; });
      if (check == std::end(kChecks)) {
        *error = "unknown check '" + item + "'";
        return false;
      }
      options->*(check->second) = true;
      any = true;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (!any) {
    *error =
        "checks list names no check (expected route-maps, acls, static, "
        "connected, ospf, bgp, admin)";
    return false;
  }
  return true;
}

DiffReport ConfigDiff(const ir::RouterConfig& config1,
                      const ir::RouterConfig& config2,
                      const DiffOptions& options) {
  // Scoped metrics capture: the sink current on the calling thread (a
  // daemon request's MetricsScope, or the process sink) is installed on
  // every pooled task below, so the capture is complete and
  // request-private at any thread count.
  obs::MetricsSink* metrics_sink = &obs::CurrentMetrics();
  obs::ScopedSpan pipeline_span("config_diff",
                                config1.hostname + " vs " + config2.hostname);
  DiffReport report;
  // Both configs' interfaces by name, for the pairing and the OSPF check.
  const ir::InterfaceIndex interfaces1(config1);
  const ir::InterfaceIndex interfaces2(config2);
  PolicyPairing pairing;
  {
    obs::ScopedSpan span("match_policies");
    pairing = MatchPolicies(config1, interfaces1, config2, interfaces2);
    span.AddAttr("route_map_pairs",
                 static_cast<double>(pairing.route_maps.size()));
    span.AddAttr("acl_pairs", static_cast<double>(pairing.acls.size()));
    span.AddAttr("unmatched", static_cast<double>(pairing.unmatched.size()));
  }

  // Every check is a task: the semantic pair checks (the expensive part:
  // each pair builds and compares BDDs), then the structural checks. The
  // tasks are independent: each pair task runs on its thread's reset
  // BddManager (PairTaskManager) and builds its own layout, the structural
  // checks only read the two IRs and the pairing, and the route DAGs are
  // built once under their own flag. Fan them out across the worker pool,
  // then merge results back in task-declaration order so the report is
  // byte-identical to a serial run.
  struct Task {
    DifferenceEntry::Kind kind;
    std::function<std::vector<PresentedDifference>(std::vector<std::string>*)>
        run;
  };
  std::vector<Task> tasks;
  // One DAG per family in use, in order of its first route-map pair; a
  // deque keeps each in place as more are added.
  std::deque<RouteDag> route_dags;
  if (options.check_route_maps) {
    auto route_dag = [&](const std::string& name1,
                         const std::string& name2) -> RouteDag* {
      util::AddressFamily family =
          RouteMapPairFamily(config1, name1, config2, name2);
      for (RouteDag& dag : route_dags) {
        if (dag.family() == family) return &dag;
      }
      return &route_dags.emplace_back(config1, config2, family);
    };
    // Several neighbors often share one policy pair (e.g. both uplinks use
    // the same import map); each distinct (name1, name2) pair is diffed
    // once.
    std::set<std::pair<std::string, std::string>> seen_pairs;
    for (const auto& pair : pairing.route_maps) {
      if (!seen_pairs.insert({pair.name1, pair.name2}).second) continue;
      tasks.push_back(
          {DifferenceEntry::Kind::kRouteMapSemantic,
           [&config1, &config2, pair,
            dag = route_dag(pair.name1, pair.name2)](
               std::vector<std::string>* task_warnings) {
             auto diffs =
                 DiffRouteMapPairImpl(config1, pair.name1, config2, pair.name2,
                                      task_warnings, *dag);
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
           [&config1, &config2, pair,
            dag = route_dag(pair.name1, pair.name2)](
               std::vector<std::string>* task_warnings) {
             auto diffs =
                 DiffRouteMapPairImpl(config1, pair.name1, config2, pair.name2,
                                      task_warnings, *dag);
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
           [&config1, &config2, pair](std::vector<std::string>*) {
             return DiffAclPairImpl(config1, config2, pair.name);
           }});
    }
  }
  auto structural = [&](bool enabled, const char* detail,
                        std::function<std::vector<StructuralDifference>()>
                            check) {
    if (!enabled) return;
    tasks.push_back(
        {DifferenceEntry::Kind::kStructural,
         [&config1, &config2, detail,
          check = std::move(check)](std::vector<std::string>*) {
           obs::ScopedSpan span("structural", detail);
           std::vector<StructuralDifference> diffs = check();
           span.AddAttr("differences", static_cast<double>(diffs.size()));
           obs::Count("diff.structural_differences",
                      static_cast<double>(diffs.size()));
           std::vector<PresentedDifference> presented;
           presented.reserve(diffs.size());
           for (const auto& d : diffs) {
             presented.push_back(
                 PresentStructuralDifference(d, config1, config2));
           }
           return presented;
         }});
  };
  structural(options.check_static_routes, "static",
             [&] { return DiffStaticRoutes(config1, config2); });
  structural(options.check_connected_routes, "connected",
             [&] { return DiffConnectedRoutes(config1, config2); });
  structural(options.check_ospf, "ospf", [&] {
    return DiffOspf(config1, interfaces1, config2, interfaces2,
                    pairing.interfaces);
  });
  structural(options.check_bgp_properties, "bgp",
             [&] { return DiffBgpProperties(config1, config2); });
  structural(options.check_admin_distances, "admin",
             [&] { return DiffAdminDistances(config1, config2); });

  std::vector<std::vector<PresentedDifference>> task_results(tasks.size());
  std::vector<std::vector<std::string>> task_warnings(tasks.size());
  // Each task's spans are captured on whichever thread ran it and attached
  // back below in task-declaration order, so the trace tree — like the
  // report — is structurally identical at every thread count.
  std::vector<std::vector<obs::Span>> task_spans(tasks.size());
  util::RunParallel(options.num_threads, tasks.size(), [&](std::size_t i) {
    // Pool workers have no ambient scope of their own: route this task's
    // metrics into the run's sink (re-installing the same sink is a no-op
    // when the task runs on the calling thread).
    obs::MetricsScope task_metrics(*metrics_sink);
    obs::TaskCapture capture;
    task_results[i] = tasks[i].run(&task_warnings[i]);
    task_spans[i] = capture.Finish();
  });
  // The route DAGs' builds sit right after match_policies, in order of
  // each family's first pair, wherever their tasks ran.
  for (RouteDag& dag : route_dags) obs::AttachSpans(dag.TakeSpans());
  std::vector<std::string> warnings;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    obs::AttachSpans(std::move(task_spans[i]));
    for (auto& d : task_results[i]) {
      DifferenceEntry entry;
      entry.kind = tasks[i].kind;
      entry.title = d.title;
      entry.rendered = d.table;
      entry.detail = std::move(d);
      report.entries.push_back(std::move(entry));
    }
    warnings.insert(warnings.end(),
                    std::make_move_iterator(task_warnings[i].begin()),
                    std::make_move_iterator(task_warnings[i].end()));
  }

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
