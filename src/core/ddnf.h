#pragma once

// The prefix-range containment DAG used by HeaderLocalize (§3.2), analogous
// to the ddNF data structure of Bjørner et al. but labeled with prefix
// ranges instead of tri-state bit vectors.
//
// Invariants (paper §3.2):
//   1. The root is labeled with the universe and reaches every node.
//   2. Labels are unique (ranges are normalized before insertion).
//   3. The label set contains every supplied range and is closed under
//      intersection.
//   4. There is an edge (m, n) exactly when label(n) ⊊ label(m) with no
//      intermediate node between them.

#include <cstddef>
#include <vector>

#include "util/prefix_range.h"

namespace campion::core {

class PrefixRangeDag {
 public:
  // Builds the DAG over `ranges`, with `universe` as the root (added if
  // missing) and the label set closed under intersection. Ranges are
  // normalized (length window clamped to [base length, family maximum] and
  // intersected with the universe) and de-duplicated; empty ranges are
  // dropped, as are ranges of another family. The build walks each base
  // prefix's ancestor chain instead of all pairs of ranges, so on shallow
  // prefix trees it costs about n log n for n ranges, not n².
  PrefixRangeDag(std::vector<util::PrefixRange> ranges,
                 util::PrefixRange universe = util::PrefixRange::Universe());

  std::size_t size() const { return labels_.size(); }
  std::size_t root() const { return 0; }
  const util::PrefixRange& label(std::size_t node) const {
    return labels_[node];
  }
  const std::vector<std::size_t>& children(std::size_t node) const {
    return children_[node];
  }
  bool IsLeaf(std::size_t node) const { return children_[node].empty(); }

  // All labels in insertion (generality) order; index == node id.
  const std::vector<util::PrefixRange>& labels() const { return labels_; }

 private:
  std::vector<util::PrefixRange> labels_;
  std::vector<std::vector<std::size_t>> children_;
};

}  // namespace campion::core
