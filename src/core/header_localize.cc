#include "core/header_localize.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::core {

// GetMatch's intermediate result: a range minus nested terms.
struct HeaderLocalizer::MatchTerm {
  util::PrefixRange range;
  std::vector<MatchTerm> subtracted;
};

HeaderLocalizer::HeaderLocalizer(bdd::BddManager& mgr,
                                 const PrefixRangeDag& dag,
                                 const RangeToBdd& range_to_bdd)
    : mgr_(mgr), dag_(dag), remainders_(dag.size(), kUncomputed) {
  node_bdds_.reserve(dag.size());
  for (std::size_t n = 0; n < dag.size(); ++n) {
    node_bdds_.push_back(range_to_bdd(dag.label(n)));
  }
}

// The GetMatch recursion of §3.2.
std::vector<HeaderLocalizer::MatchTerm> HeaderLocalizer::GetMatch(
    bdd::BddRef set, std::size_t node) {
  bdd::BddRef node_bdd = node_bdds_[node];
  // Short-circuits (these also keep the output minimal): a node disjoint
  // from S contributes nothing; a node fully inside S is itself a term.
  if (!mgr_.Intersects(node_bdd, set)) return {};
  if (mgr_.Subset(node_bdd, set)) return {{dag_.label(node), {}}};

  if (dag_.IsLeaf(node)) {
    // By construction (S built from the DAG's ranges) a leaf is contained
    // in S or disjoint from it; both cases were handled above. If S used a
    // range we were not given, fall back to reporting the overlap.
    return {{dag_.label(node), {}}};
  }

  if (mgr_.Subset(Remainder(node), set)) {
    // R's remainder is in S: include R, minus the child parts not in S.
    MatchTerm term{dag_.label(node), {}};
    for (std::size_t child : dag_.children(node)) {
      auto nonmatches = GetMatch(mgr_.Not(set), child);
      term.subtracted.insert(term.subtracted.end(), nonmatches.begin(),
                             nonmatches.end());
    }
    return {std::move(term)};
  }
  // Otherwise recurse and union the children's results.
  std::vector<MatchTerm> result;
  for (std::size_t child : dag_.children(node)) {
    auto sub = GetMatch(set, child);
    result.insert(result.end(), sub.begin(), sub.end());
  }
  return result;
}

// The remainder set of an internal node: its range minus its children.
bdd::BddRef HeaderLocalizer::Remainder(std::size_t node) {
  if (remainders_[node] != kUncomputed) return remainders_[node];
  bdd::BddRef rem = node_bdds_[node];
  for (std::size_t child : dag_.children(node)) {
    rem = mgr_.Diff(rem, node_bdds_[child]);
  }
  remainders_[node] = rem;
  return rem;
}

// Removes nested differences: R − (X − Y) becomes {R − X, Y} (Y ⊆ X ⊆ R and
// Y ⊆ S make this sound). One pass over the term tree, as in the paper.
void HeaderLocalizer::FlattenInto(const MatchTerm& term,
                                  std::vector<util::PrefixRangeTerm>& out) {
  util::PrefixRangeTerm flat{term.range, {}};
  for (const auto& sub : term.subtracted) {
    flat.exclude.push_back(sub.range);
  }
  std::sort(flat.exclude.begin(), flat.exclude.end());
  out.push_back(std::move(flat));
  for (const auto& sub : term.subtracted) {
    for (const auto& nested : sub.subtracted) {
      FlattenInto(nested, out);
    }
  }
}

std::vector<util::PrefixRange> HeaderLocalizeResult::IncludedRanges() const {
  std::set<util::PrefixRange> seen;
  std::vector<util::PrefixRange> out;
  for (const auto& term : terms) {
    if (seen.insert(term.include).second) out.push_back(term.include);
  }
  return out;
}

std::vector<util::PrefixRange> HeaderLocalizeResult::ExcludedRanges() const {
  std::set<util::PrefixRange> seen;
  std::vector<util::PrefixRange> out;
  for (const auto& term : terms) {
    for (const auto& x : term.exclude) {
      if (seen.insert(x).second) out.push_back(x);
    }
  }
  return out;
}

std::string HeaderLocalizeResult::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += "\n";
    out += terms[i].ToString();
  }
  return out;
}

PrefixRangeDag BuildLocalizeDag(std::vector<util::PrefixRange> ranges,
                                util::PrefixRange universe) {
  obs::ScopedSpan span("localize_dag",
                       universe.family() == util::AddressFamily::kIpv4
                           ? "ipv4"
                           : "ipv6");
  span.AddAttr("ranges", static_cast<double>(ranges.size()));
  PrefixRangeDag dag(std::move(ranges), universe);
  span.AddAttr("dag_nodes", static_cast<double>(dag.size()));
  return dag;
}

HeaderLocalizeResult HeaderLocalizer::Localize(bdd::BddRef set) {
  obs::ScopedSpan span("header_localize");
  // Work within the universe: S may be a complement reaching outside it.
  bdd::BddRef clipped = mgr_.And(set, node_bdds_[dag_.root()]);
  HeaderLocalizeResult result;
  obs::Count("localize.calls");
  if (clipped == bdd::kFalse) return result;
  for (const auto& term : GetMatch(clipped, dag_.root())) {
    FlattenInto(term, result.terms);
  }
  span.AddAttr("dag_nodes", static_cast<double>(dag_.size()));
  span.AddAttr("terms", static_cast<double>(result.terms.size()));
  obs::Count("localize.terms", static_cast<double>(result.terms.size()));
  return result;
}

HeaderLocalizeResult HeaderLocalize(bdd::BddManager& mgr, bdd::BddRef set,
                                    std::vector<util::PrefixRange> ranges,
                                    const RangeToBdd& range_to_bdd,
                                    util::PrefixRange universe) {
  PrefixRangeDag dag = BuildLocalizeDag(std::move(ranges), universe);
  return HeaderLocalizer(mgr, dag, range_to_bdd).Localize(set);
}

}  // namespace campion::core
