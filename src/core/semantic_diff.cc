#include "core/semantic_diff.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

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

// The number of lines at the bottom of `a` and `b` that match alike.
std::size_t SharedSuffixLength(const ir::Acl& a, const ir::Acl& b) {
  auto [end_a, end_b] =
      std::mismatch(a.lines.rbegin(), a.lines.rend(), b.lines.rbegin(),
                    b.lines.rend(), ir::SameMatch);
  return static_cast<std::size_t>(end_a - a.lines.rbegin());
}

// One ACL of a compared pair: its line predicates, its permit set, and its
// `encode` span. Under first match the permit set of the last k lines
// depends on those lines alone, so the pair's `shared` trailing lines are
// folded once, by the first ACL. The second takes the first's predicates
// and permit set at that boundary, and folds only its own head on top.
// The classes are built from both ACLs' permit sets, so the span's time is
// summed over two phases (encoding, then the class walk) and the span is
// attached by AttachEncodeSpans once both walks are done.
class AclEncoding {
 public:
  AclEncoding(const encode::PacketLayout& layout, const ir::Acl& acl,
              std::size_t shared, const AclEncoding* first = nullptr)
      : mgr_(layout.manager()),
        acl_(acl),
        shared_(shared),
        traced_(obs::Enabled()) {
    if (traced_) {
      span_.name = "encode";
      span_.detail = acl.name;
      span_.start_ns = obs::NowNs();
    }
    Timed([&] {
      const std::size_t head = acl.lines.size() - shared;
      const std::size_t own = first ? head : acl.lines.size();
      matches_.reserve(acl.lines.size());
      for (std::size_t i = 0; i < own; ++i) {
        matches_.push_back(layout.MatchLine(acl.lines[i]));
      }
      if (first) {
        matches_.insert(
            matches_.end(),
            first->matches_.end() - static_cast<std::ptrdiff_t>(shared),
            first->matches_.end());
        suffix_set_ = first->suffix_set_;
      } else {
        suffix_set_ = Fold(head, acl.lines.size(), bdd::kFalse);
      }
      permit_set_ = Fold(0, head, suffix_set_);
    });
  }

  bdd::BddRef permit_set() const { return permit_set_; }

  std::vector<AclPathClass> Classes(bdd::BddRef scope) {
    std::vector<AclPathClass> classes;
    Timed([&] { classes = BuildAclClasses(mgr_, acl_, matches_, scope); });
    obs::Count("encode.acl_classes", static_cast<double>(classes.size()));
    if (traced_) {
      span_.attrs = {{"classes", static_cast<double>(classes.size())},
                     {"lines", static_cast<double>(acl_.lines.size())},
                     {"bdd_vars", static_cast<double>(mgr_.num_vars())},
                     {"shared_lines", static_cast<double>(shared_)},
                     {"ite_lookups", static_cast<double>(ite_lookups_)}};
    }
    return classes;
  }

  // Attaches both spans under the calling thread's open span, in order.
  // The second starts where the first ends, so the two siblings do not
  // overlap although their phases interleaved.
  friend void AttachEncodeSpans(AclEncoding& first, AclEncoding& second) {
    if (!first.traced_ || !second.traced_) return;
    second.span_.start_ns = first.span_.start_ns + first.span_.duration_ns;
    std::vector<obs::Span> spans;
    spans.push_back(std::move(first.span_));
    spans.push_back(std::move(second.span_));
    obs::AttachSpans(std::move(spans));
  }

 private:
  // Lines [begin, end) folded bottom-up on top of `below`, the permit set
  // of the lines after them: a packet line i matches takes line i's action;
  // any other packet takes whatever the lines below decide.
  bdd::BddRef Fold(std::size_t begin, std::size_t end, bdd::BddRef below) {
    for (std::size_t i = end; i-- > begin;) {
      below = acl_.lines[i].action == ir::LineAction::kPermit
                  ? mgr_.Or(matches_[i], below)
                  : mgr_.Diff(below, matches_[i]);
    }
    return below;
  }

  template <typename Work>
  void Timed(Work&& work) {
    if (!traced_) return work();
    std::uint64_t start_ns = obs::NowNs();
    std::uint64_t lookups = mgr_.Stats().cache_lookups;
    work();
    ite_lookups_ += mgr_.Stats().cache_lookups - lookups;
    span_.duration_ns += obs::NowNs() - start_ns;
  }

  bdd::BddManager& mgr_;
  const ir::Acl& acl_;
  std::size_t shared_ = 0;
  bool traced_ = false;
  obs::Span span_;
  std::uint64_t ite_lookups_ = 0;  // Over the timed phases; traced only.
  std::vector<bdd::BddRef> matches_;
  bdd::BddRef suffix_set_ = bdd::kFalse;  // Permit set of the shared lines.
  bdd::BddRef permit_set_ = bdd::kFalse;
};

}  // namespace

std::string AclLineText(const ir::AclLine& line) {
  if (!line.span.text.empty()) return line.span.text;
  // Appends only: a chain of std::string operator+ here draws a GCC 12
  // -Wrestrict false positive at -O3.
  std::string out = ir::ToString(line.action);
  out += ' ';
  out += line.protocol ? ir::ProtocolNumberToString(*line.protocol) : "ip";
  out += ' ';
  out += line.src.ToString();
  out += ' ';
  out += line.dst.ToString();
  auto ports = [&](const char* keyword,
                   const std::vector<ir::PortRange>& ranges) {
    if (ranges.empty()) return;
    out += ' ';
    out += keyword;
    out += ' ';
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      if (i > 0) out += ',';
      out += ranges[i].ToString();
    }
  };
  ports("src-port", line.src_ports);
  ports("dst-port", line.dst_ports);
  if (line.icmp_type) {
    out += " icmp-type ";
    out += std::to_string(*line.icmp_type);
  }
  if (line.established) out += " established";
  return out;
}

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

std::vector<AclPathClass> BuildAclClasses(
    bdd::BddManager& mgr, const ir::Acl& acl,
    const std::vector<bdd::BddRef>& matches, bdd::BddRef scope) {
  std::vector<AclPathClass> classes;
  bdd::BddRef remaining = scope;
  for (std::size_t i = 0; i < acl.lines.size() && remaining != bdd::kFalse;
       ++i) {
    bdd::BddRef here = mgr.And(remaining, matches[i]);
    if (here == bdd::kFalse) continue;
    classes.push_back({here, acl.lines[i].action, AclLineText(acl.lines[i]),
                       false});
    remaining = mgr.Diff(remaining, here);
  }
  if (remaining != bdd::kFalse) {
    classes.push_back({remaining, ir::LineAction::kDeny,
                       "<implicit deny at end of ACL>", true});
  }
  return classes;
}

AclPermitSets FoldAclPermitSets(encode::PacketLayout& layout,
                                const ir::Acl& acl1, const ir::Acl& acl2) {
  const std::size_t shared = SharedSuffixLength(acl1, acl2);
  AclEncoding encoding1(layout, acl1, shared);
  AclEncoding encoding2(layout, acl2, shared, &encoding1);
  return {encoding1.permit_set(), encoding2.permit_set(), shared};
}

std::vector<AclDifference> SemanticDiffAcls(encode::PacketLayout& layout,
                                            const ir::Acl& acl1,
                                            const ir::Acl& acl2) {
  bdd::BddManager& mgr = layout.manager();
  const std::size_t shared = SharedSuffixLength(acl1, acl2);
  AclEncoding encoding1(layout, acl1, shared);
  AclEncoding encoding2(layout, acl2, shared, &encoding1);

  // Two classes with different actions overlap only where the permit sets
  // disagree, so the classes are built inside the disagreement alone, and
  // an equivalent pair builds none.
  bdd::BddRef disagreement =
      mgr.Xor(encoding1.permit_set(), encoding2.permit_set());
  std::vector<AclPathClass> classes1 = encoding1.Classes(disagreement);
  std::vector<AclPathClass> classes2 = encoding2.Classes(disagreement);
  AttachEncodeSpans(encoding1, encoding2);
  if (disagreement == bdd::kFalse) return {};

  std::vector<AclDifference> differences;
  {
    obs::ScopedSpan span("class_intersect", acl1.name + " vs " + acl2.name);
    for (const AclPathClass& c1 : classes1) {
      for (const AclPathClass& c2 : classes2) {
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
  obs::Count("diff.acl_differences", static_cast<double>(differences.size()));
  return differences;
}

}  // namespace campion::core
