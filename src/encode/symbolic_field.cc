#include "encode/symbolic_field.h"

#include <algorithm>
#include <span>

namespace campion::encode {

using util::U128;

bdd::BddRef SymbolicField::EqualsConst(bdd::BddManager& mgr, U128 value,
                                       bdd::BddRef below) const {
  return MatchPrefixBits(mgr, value, width_, below);
}

// The per-bit builders below run from the field's last bit up to its first
// and add one node per bit with BddManager::Branch. Each step's result only
// branches on later variables, so the chain is canonical as built and costs
// no Ite call. A literal conjoined onto a function that sits wholly below it
// is exactly that one node.

bdd::BddRef SymbolicField::MatchPrefixBits(bdd::BddManager& mgr, U128 value,
                                           int nbits,
                                           bdd::BddRef below) const {
  bdd::BddRef result = below;
  for (int i = nbits - 1; i >= 0; --i) {
    result = ValueBit(value, i) ? mgr.Branch(VarAt(i), mgr.False(), result)
                                : mgr.Branch(VarAt(i), result, mgr.False());
  }
  return result;
}

bdd::BddRef SymbolicField::MatchMasked(bdd::BddManager& mgr, U128 value,
                                       U128 care, bdd::BddRef below) const {
  bdd::BddRef result = below;
  for (int i = width_ - 1; i >= 0; --i) {
    if (!ValueBit(care, i)) continue;
    result = ValueBit(value, i) ? mgr.Branch(VarAt(i), mgr.False(), result)
                                : mgr.Branch(VarAt(i), result, mgr.False());
  }
  return result;
}

bdd::BddRef SymbolicField::Leq(bdd::BddManager& mgr, U128 value) const {
  // leq_i = value_bit ? (field_bit ? leq_{i+1} : true)
  //                   : (field_bit ? false : leq_{i+1})
  bdd::BddRef result = mgr.True();
  for (int i = width_ - 1; i >= 0; --i) {
    result = ValueBit(value, i) ? mgr.Branch(VarAt(i), mgr.True(), result)
                                : mgr.Branch(VarAt(i), result, mgr.False());
  }
  return result;
}

bdd::BddRef SymbolicField::Geq(bdd::BddManager& mgr, U128 value) const {
  // geq_i = value_bit ? (field_bit ? geq_{i+1} : false)
  //                   : (field_bit ? true : geq_{i+1})
  bdd::BddRef result = mgr.True();
  for (int i = width_ - 1; i >= 0; --i) {
    result = ValueBit(value, i) ? mgr.Branch(VarAt(i), mgr.False(), result)
                                : mgr.Branch(VarAt(i), result, mgr.True());
  }
  return result;
}

namespace {

// The predicate over field bits `depth` onward that the value whose top
// `depth` bits are those of `base` (the rest of `base` is zero) lies in one
// of `ranges`, conjoined with `below`. `ranges` are sorted, disjoint and
// each intersect that block of values. A block inside an interval is
// `below` and a block outside all of them is false; only the O(width)
// blocks that hold an interval's edge split into a Branch on their top bit,
// so a union of k intervals costs O(k × width) nodes, all of them final.
bdd::BddRef BlockInRanges(bdd::BddManager& mgr, const SymbolicField& field,
                          std::span<const SymbolicField::Interval> ranges,
                          int depth, U128 base, bdd::BddRef below) {
  using Interval = SymbolicField::Interval;
  if (ranges.empty()) return mgr.False();
  const int rest = field.width() - depth;
  const U128 last = base + U128::Ones(rest);
  if (ranges.front().low <= base && ranges.front().high >= last) {
    return below;
  }
  // Some edge lies inside the block, so it has more than one value and
  // rest > 0. The upper half starts at `mid`; an interval that straddles it
  // goes to both halves.
  const U128 mid = base | (U128(1) << (rest - 1));
  auto lower_end = std::partition_point(
      ranges.begin(), ranges.end(),
      [&](const Interval& r) { return r.low < mid; });
  auto upper_begin = std::partition_point(
      ranges.begin(), ranges.end(),
      [&](const Interval& r) { return r.high < mid; });
  return mgr.Branch(field.VarAt(depth),
                    BlockInRanges(mgr, field, {ranges.begin(), lower_end},
                                  depth + 1, base, below),
                    BlockInRanges(mgr, field, {upper_begin, ranges.end()},
                                  depth + 1, mid, below));
}

}  // namespace

bdd::BddRef SymbolicField::InRange(bdd::BddManager& mgr, U128 low,
                                   U128 high) const {
  if (low > high) return mgr.False();
  const Interval range{low, high};
  return BlockInRanges(mgr, *this, {&range, 1}, 0, U128(), mgr.True());
}

bdd::BddRef SymbolicField::InRanges(bdd::BddManager& mgr,
                                    std::vector<Interval> ranges,
                                    bdd::BddRef below) const {
  std::erase_if(ranges, [](const Interval& r) { return r.low > r.high; });
  std::sort(ranges.begin(), ranges.end());
  // Merge overlapping and adjacent intervals in place (no `high + 1`, which
  // wraps at the maximum value).
  std::size_t merged = 0;
  for (const Interval& r : ranges) {
    if (merged > 0 && (r.low == U128() ||
                       ranges[merged - 1].high >= r.low - U128(1))) {
      ranges[merged - 1].high = std::max(ranges[merged - 1].high, r.high);
    } else {
      ranges[merged++] = r;
    }
  }
  ranges.resize(merged);
  return BlockInRanges(mgr, *this, ranges, 0, U128(), below);
}

void SymbolicField::AppendInterval(std::vector<Interval>& intervals, U128 low,
                                   U128 high) {
  // Adjacency is tested as `back.high == low - 1` with a low != 0 guard,
  // never `back.high + 1 == low`: when back.high is the all-ones maximum
  // field value the increment wraps to 0 and a spurious merge would corrupt
  // the list.
  if (!intervals.empty() && low != U128() &&
      intervals.back().high == low - U128(1)) {
    intervals.back().high = high;  // Merge adjacent blocks.
  } else {
    intervals.push_back({low, high});
  }
}

std::vector<SymbolicField::Interval> SymbolicField::Intervals(
    const bdd::BddManager& mgr, bdd::BddRef set) const {
  std::vector<Interval> intervals;
  const bdd::Var past_end = first_ + static_cast<bdd::Var>(width_);
  // Walk the field's bits most-significant first, which is top-down in the
  // variable order. At depth d with value prefix `base`, `node` is the BDD
  // restricted to the decisions so far.
  // When the node no longer depends on the remaining field bits, the whole
  // aligned block [base, base + 2^(width-d) - 1] is uniformly in or out.
  //
  // Recursion is over (node, depth); depth increases strictly, so the
  // total work is bounded by width x visited nodes.
  auto rec = [&](auto&& self, bdd::BddRef node, int depth,
                 U128 base) -> void {
    U128 block = U128::Ones(width_ - depth);
    if (node == bdd::kFalse) return;
    if (node == bdd::kTrue) {
      AppendInterval(intervals, base, base + block);
      return;
    }
    if (depth == width_) {
      // Depends on variables outside the field: treat as nonempty (caller
      // should have projected). Conservatively include the single value.
      AppendInterval(intervals, base, base);
      return;
    }
    bdd::Var node_var = mgr.NodeVar(node);
    if (node_var >= past_end || node_var < first_) {
      // The whole subtree branches on variables outside the field (in
      // declaration order, descendants only sit lower), so no remaining
      // field bit is constrained: the entire block is uniformly nonempty.
      // One O(1) emit — descending bit-by-bit here would cost 2^(width-d)
      // single-value emits for the same merged interval.
      AppendInterval(intervals, base, base + block);
      return;
    }
    bdd::Var expected = VarAt(depth);
    if (node_var > expected) {
      // The node skips this bit: both values of the bit lead to the same
      // subfunction.
      self(self, node, depth + 1, base);
      self(self, node, depth + 1, base | (U128(1) << (width_ - 1 - depth)));
      return;
    }
    self(self, mgr.NodeLow(node), depth + 1, base);
    self(self, mgr.NodeHigh(node), depth + 1,
         base | (U128(1) << (width_ - 1 - depth)));
  };
  rec(rec, set, 0, U128());
  return intervals;
}

util::U128 SymbolicField::Decode(const bdd::Cube& cube) const {
  U128 value;
  for (int i = 0; i < width_; ++i) {
    value = value << 1;
    bdd::Var v = VarAt(i);
    if (v < cube.size() && cube[v] == 1) value = value | U128(1);
  }
  return value;
}

}  // namespace campion::encode
