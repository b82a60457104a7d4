#pragma once

// HeaderLocalize (§3.2): turns the BDD of a difference's input set into a
// minimal, human-readable union of configuration prefix ranges and range
// differences — the "Included Prefixes" / "Excluded Prefixes" rows of the
// paper's output tables.
//
// The algorithm runs over the prefix-range containment DAG (core/ddnf.h)
// built from every range constant appearing in the two configurations. That
// DAG is an invariant of a comparison, so it is built once (BuildLocalizeDag)
// and a HeaderLocalizer localizes any number of sets over it with the
// recursive GetMatch traversal: a node whose remainder lies inside S
// contributes its range minus the children not in S (computed by recursing
// on ¬S); otherwise the children are visited and their results unioned. A
// final pass removes nested differences, e.g. C − (F − G) becomes {C − F, G}.
//
// The localizer knows the prefix encoding (encode::PrefixEncoding). A node's
// range is its base prefix's bits conjoined with a length window over later
// variables, so GetMatch never builds a node's set: it asks whether the
// window meets, or lies inside, the cofactor of S at the base prefix (S
// walked down the prefix bits). Each remainder is built directly as one
// prefix trie of Branch nodes.

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

// Localizes sets against one DAG on one manager. Construction (a
// `localize_encode` span) encodes the root's range, to clip S to the
// universe, and one length window per distinct clamped window of the DAG's
// nodes; no other node's range is ever encoded. The remainder of each
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
  // `set` outside the universe are ignored. A set branching on a variable
  // above the address field throws std::logic_error.
  HeaderLocalizeResult Localize(bdd::BddRef set);

  // The remainder of internal node `node`: its range minus its children's.
  // Built once, bottom-up, as a trie over the children's prefix bits whose
  // leaves are length windows, and memoized.
  bdd::BddRef Remainder(std::size_t node);

 private:
  struct MatchTerm;
  static constexpr bdd::BddRef kUncomputed = ~bdd::BddRef{0};

  // `above` is `set`'s cofactor at the base prefix of a range containing
  // `node`'s (`set` itself at the root), where the walk to `node`'s own
  // cofactor resumes.
  std::vector<MatchTerm> GetMatch(bdd::BddRef set, std::size_t node,
                                  bdd::BddRef above);
  // `set` with the address bits above `node`'s base length fixed to its
  // base prefix: a walk down `set` that creates no BDD node.
  bdd::BddRef Cofactor(bdd::BddRef set, std::size_t node) const;
  static void FlattenInto(const MatchTerm& term,
                          std::vector<util::PrefixRangeTerm>& out);

  bdd::BddManager& mgr_;
  const PrefixRangeDag& dag_;
  encode::PrefixEncoding encoding_;
  bdd::BddRef root_bdd_ = bdd::kFalse;
  // Each node's length window over the length field (kTrue without one).
  std::vector<bdd::BddRef> windows_;
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
