#pragma once

// HeaderLocalize (§3.2): turns the BDD of a difference's input set into a
// minimal, human-readable union of configuration prefix ranges and range
// differences — the "Included Prefixes" / "Excluded Prefixes" rows of the
// paper's output tables.
//
// The algorithm runs over the prefix-range containment DAG (core/ddnf.h)
// built from every range constant appearing in the two configurations. That
// DAG is an invariant of a comparison, so it is built once (BuildLocalizeDag)
// and a HeaderLocalizer associates each node with its symbolic member set
// once, then localizes any number of sets with the recursive GetMatch
// traversal: a node whose remainder lies inside S contributes its range
// minus the children not in S (computed by recursing on ¬S); otherwise the
// children are visited and their results unioned. A final pass removes
// nested differences, e.g. C − (F − G) becomes {C − F, G}.
//
// The localizer knows the prefix encoding (encode::PrefixEncoding), so it
// builds each remainder directly as one prefix trie of Branch nodes.

#include <cstddef>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "core/ddnf.h"
#include "encode/prefix_encoding.h"
#include "util/prefix_range.h"

namespace campion::core {

struct HeaderLocalizeResult {
  // S as a union of difference terms (include minus excludes).
  std::vector<util::PrefixRangeTerm> terms;

  // Flattened views for presentation: the union of all included ranges and
  // of all excluded ranges, as in the paper's tables.
  std::vector<util::PrefixRange> IncludedRanges() const;
  std::vector<util::PrefixRange> ExcludedRanges() const;

  std::string ToString() const;
};

// Builds the localization DAG over `ranges` with `universe` as the root,
// recorded as a `localize_dag` span.
PrefixRangeDag BuildLocalizeDag(std::vector<util::PrefixRange> ranges,
                                util::PrefixRange universe);

// Localizes sets against one DAG on one manager. Construction encodes every
// node's range once (a `localize_encode` span); the remainder of each
// internal node (its range minus its children) does not depend on the
// localized set and is memoized across calls. The DAG and the manager must
// outlive the localizer.
class HeaderLocalizer {
 public:
  // `encoding` lays out the DAG's ranges: RouteAdvLayout::prefix_encoding()
  // for route maps, PacketLayout's Dst/SrcPrefixEncoding() for ACL
  // addresses (whose ranges are host-address sets, window /32-32 or
  // /128-128).
  HeaderLocalizer(bdd::BddManager& mgr, const PrefixRangeDag& dag,
                  const encode::PrefixEncoding& encoding);

  // `set` must be a predicate over the prefix encoding only (project other
  // variables out first), built from the DAG's range constants. Parts of
  // `set` outside the universe are ignored.
  HeaderLocalizeResult Localize(bdd::BddRef set);

  // The remainder of internal node `node`: its range minus its children's.
  // Built once, bottom-up, as a trie over the children's prefix bits whose
  // leaves are length windows, and memoized.
  bdd::BddRef Remainder(std::size_t node);

 private:
  struct MatchTerm;
  static constexpr bdd::BddRef kUncomputed = ~bdd::BddRef{0};

  std::vector<MatchTerm> GetMatch(bdd::BddRef set, std::size_t node);
  static void FlattenInto(const MatchTerm& term,
                          std::vector<util::PrefixRangeTerm>& out);

  bdd::BddManager& mgr_;
  const PrefixRangeDag& dag_;
  encode::PrefixEncoding encoding_;
  std::vector<bdd::BddRef> node_bdds_;
  std::vector<bdd::BddRef> remainders_;
};

// One-shot form: builds the DAG over `ranges` and localizes `set` with a
// fresh HeaderLocalizer. `universe` is the root range (the whole
// advertisement space for route maps; the all-host-prefixes space for ACL
// addresses).
HeaderLocalizeResult HeaderLocalize(
    bdd::BddManager& mgr, bdd::BddRef set,
    std::vector<util::PrefixRange> ranges,
    const encode::PrefixEncoding& encoding,
    util::PrefixRange universe = util::PrefixRange::Universe());

}  // namespace campion::core
