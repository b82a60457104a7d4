#include "core/header_localize.h"

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::core {
namespace {

// Builds the remainder of one DAG node below its own prefix bits, as a trie
// over its children's base prefixes: each level is one Branch on the next
// address variable, and each leaf is the node's length window minus the
// windows of the children that end on that path. The children are sorted
// by (address, base length); labels are normalized (host bits zero), so
// that is a preorder of their prefix trie. The children that agree with a
// path therefore form one contiguous span, those ending at the current
// depth lead it, and the rest split on the next address bit.
class RemainderTrie {
 public:
  // Prefix lengths as a bit set: bit n stands for length n.
  using Lengths =
      std::bitset<util::MaxPrefixLength(util::AddressFamily::kIpv6) + 1>;

  RemainderTrie(bdd::BddManager& mgr, const encode::PrefixEncoding& encoding,
                const PrefixRangeDag& dag, const util::PrefixRange& label)
      : mgr_(mgr), encoding_(encoding), dag_(dag), window_(Window(label)) {}

  // The remainder below depth `depth` of the path shared by `span`, given
  // the lengths `covered` by the children ended above it.
  bdd::BddRef Build(std::span<const std::size_t> span, int depth,
                    Lengths covered) {
    std::size_t ended = 0;
    while (ended < span.size() &&
           dag_.label(span[ended]).prefix().length() == depth) {
      covered |= Window(dag_.label(span[ended]));
      ++ended;
    }
    span = span.subspan(ended);
    if (span.empty()) return Leaf(covered);
    const auto upper = std::partition_point(
        span.begin(), span.end(),
        [&](std::size_t child) { return !AddressBit(child, depth); });
    const auto split = static_cast<std::size_t>(upper - span.begin());
    const bdd::BddRef low = Build(span.first(split), depth + 1, covered);
    const bdd::BddRef high = Build(span.subspan(split), depth + 1, covered);
    return mgr_.Branch(encoding_.address.VarAt(depth), low, high);
  }

 private:
  // The node's window minus `covered`, one InRanges per distinct value. A
  // host-address encoding has no length field: any child ending on the
  // path covers all of it.
  bdd::BddRef Leaf(const Lengths& covered) {
    if (!encoding_.length) return covered.none() ? bdd::kTrue : bdd::kFalse;
    const Lengths gaps = window_ & ~covered;
    auto [it, fresh] = leaves_.try_emplace(gaps, bdd::kFalse);
    if (fresh) {
      std::vector<encode::SymbolicField::Interval> runs;
      for (std::uint32_t n = 0; n < gaps.size(); ++n) {
        if (!gaps[n]) continue;
        std::uint32_t last = n;
        while (last + 1 < gaps.size() && gaps[last + 1]) ++last;
        runs.push_back({n, last});
        n = last;
      }
      it->second = encoding_.length->InRanges(mgr_, std::move(runs));
    }
    return it->second;
  }

  static Lengths Window(const util::PrefixRange& label) {
    Lengths window;
    for (int n = label.low(); n <= label.high(); ++n) window.set(n);
    return window;
  }
  bool AddressBit(std::size_t node, int depth) const {
    return dag_.label(node).prefix().address().bits().Bit(
        encoding_.address.width() - 1 - depth);
  }

  bdd::BddManager& mgr_;
  const encode::PrefixEncoding& encoding_;
  const PrefixRangeDag& dag_;
  const Lengths window_;
  std::unordered_map<Lengths, bdd::BddRef> leaves_;
};

}  // namespace

// GetMatch's intermediate result: a range minus nested terms.
struct HeaderLocalizer::MatchTerm {
  util::PrefixRange range;
  std::vector<MatchTerm> subtracted;
};

HeaderLocalizer::HeaderLocalizer(bdd::BddManager& mgr,
                                 const PrefixRangeDag& dag,
                                 const encode::PrefixEncoding& encoding)
    : mgr_(mgr),
      dag_(dag),
      encoding_(encoding),
      remainders_(dag.size(), kUncomputed) {
  obs::ScopedSpan span("localize_encode");
  const std::size_t arena_before = mgr_.ArenaSize();
  root_bdd_ = encoding_.MatchRange(mgr_, dag.label(dag.root()));
  // Windows by clamped (low, high): DAG nodes share few of them.
  std::map<std::pair<int, int>, bdd::BddRef> windows;
  windows_.reserve(dag.size());
  for (const util::PrefixRange& label : dag.labels()) {
    auto [it, fresh] = windows.try_emplace(
        {label.EffectiveLow(), label.EffectiveHigh()}, bdd::kFalse);
    if (fresh) it->second = encoding_.MatchWindow(mgr_, label);
    windows_.push_back(it->second);
  }
  span.AddAttr("dag_nodes", static_cast<double>(dag.size()));
  span.AddAttr("bdd_nodes_created",
               static_cast<double>(mgr_.ArenaSize() - arena_before));
}

// The GetMatch recursion of §3.2.
std::vector<HeaderLocalizer::MatchTerm> HeaderLocalizer::GetMatch(
    bdd::BddRef set, std::size_t node, bdd::BddRef above) {
  // Short-circuits (these also keep the output minimal): a node disjoint
  // from S contributes nothing; a node fully inside S is itself a term.
  // The node's range is its prefix bits and its window, and the window
  // lies below those bits, so both tests read the window against S's
  // cofactor at the prefix. A child's base prefix extends its parent's, so
  // the walk resumes from the parent's cofactor.
  const bdd::BddRef window = windows_[node];
  const bdd::BddRef cofactor = Cofactor(above, node);
  if (!mgr_.Intersects(window, cofactor)) return {};
  if (mgr_.Subset(window, cofactor)) return {{dag_.label(node), {}}};

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
      auto nonmatches =
          GetMatch(mgr_.Not(set), child, mgr_.Not(cofactor));
      term.subtracted.insert(term.subtracted.end(), nonmatches.begin(),
                             nonmatches.end());
    }
    return {std::move(term)};
  }
  // Otherwise recurse and union the children's results.
  std::vector<MatchTerm> result;
  for (std::size_t child : dag_.children(node)) {
    auto sub = GetMatch(set, child, cofactor);
    result.insert(result.end(), sub.begin(), sub.end());
  }
  return result;
}

bdd::BddRef HeaderLocalizer::Cofactor(bdd::BddRef set,
                                      std::size_t node) const {
  const util::IpPrefix& prefix = dag_.label(node).prefix();
  const util::U128 bits = prefix.address().bits();
  const encode::SymbolicField& address = encoding_.address;
  const bdd::Var end = address.VarAt(prefix.length());
  // Localize checked that no variable lies above the address field.
  while (!mgr_.IsTerminal(set) && mgr_.NodeVar(set) < end) {
    const int depth = static_cast<int>(mgr_.NodeVar(set) - address.first_var());
    set = bits.Bit(address.width() - 1 - depth) ? mgr_.NodeHigh(set)
                                                : mgr_.NodeLow(set);
  }
  return set;
}

bdd::BddRef HeaderLocalizer::Remainder(std::size_t node) {
  if (remainders_[node] != kUncomputed) return remainders_[node];
  std::vector<std::size_t> children = dag_.children(node);
  // IpPrefix orders by (address, length): the trie preorder.
  std::sort(children.begin(), children.end(),
            [&](std::size_t a, std::size_t b) {
              return dag_.label(a).prefix() < dag_.label(b).prefix();
            });
  const util::PrefixRange& label = dag_.label(node);
  const int base_len = label.prefix().length();
  RemainderTrie trie(mgr_, encoding_, dag_, label);
  const bdd::BddRef below = trie.Build(children, base_len, {});
  remainders_[node] = encoding_.address.MatchPrefixBits(
      mgr_, label.prefix().address().bits(), base_len, below);
  return remainders_[node];
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
  const std::size_t arena_before = mgr_.ArenaSize();
  // Cofactor reads every variable above a base length as an address bit.
  if (!mgr_.IsTerminal(set) &&
      mgr_.NodeVar(set) < encoding_.address.first_var()) {
    throw std::logic_error(
        "HeaderLocalizer::Localize: set branches above the address field");
  }
  // Work within the universe: S may be a complement reaching outside it.
  bdd::BddRef clipped = mgr_.And(set, root_bdd_);
  HeaderLocalizeResult result;
  obs::Count("localize.calls");
  if (clipped != bdd::kFalse) {
    for (const auto& term : GetMatch(clipped, dag_.root(), clipped)) {
      FlattenInto(term, result.terms);
    }
    span.AddAttr("dag_nodes", static_cast<double>(dag_.size()));
    span.AddAttr("terms", static_cast<double>(result.terms.size()));
    obs::Count("localize.terms", static_cast<double>(result.terms.size()));
  }
  span.AddAttr("bdd_nodes_created",
               static_cast<double>(mgr_.ArenaSize() - arena_before));
  return result;
}

HeaderLocalizeResult HeaderLocalize(bdd::BddManager& mgr, bdd::BddRef set,
                                    std::vector<util::PrefixRange> ranges,
                                    const encode::PrefixEncoding& encoding,
                                    util::PrefixRange universe) {
  PrefixRangeDag dag = BuildLocalizeDag(std::move(ranges), universe);
  return HeaderLocalizer(mgr, dag, encoding).Localize(set);
}

}  // namespace campion::core
