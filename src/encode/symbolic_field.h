#pragma once

// Fixed-width unsigned bit fields inside a BDD variable order, with the
// comparison and equality predicates the encoders need. Bit 0 of a field is
// its most significant bit, so integer comparisons read top-down along the
// variable order and stay small.
//
// Values are util::U128, so fields may be up to 128 bits wide (IPv6
// addresses); narrower call sites pass plain integers, which convert
// implicitly and occupy the low bits — for a 32-bit field the semantics are
// bit-for-bit the old uint32_t ones.

#include <cstdint>
#include <vector>

#include "bdd/bdd.h"
#include "util/u128.h"

namespace campion::encode {

class SymbolicField {
 public:
  SymbolicField() = default;
  SymbolicField(bdd::Var first_var, int width)
      : first_(first_var), width_(width) {}

  bdd::Var first_var() const { return first_; }
  int width() const { return width_; }
  bdd::Var VarAt(int bit) const { return first_ + static_cast<bdd::Var>(bit); }

  // field == value, conjoined with `below` (see MatchPrefixBits).
  bdd::BddRef EqualsConst(bdd::BddManager& mgr, util::U128 value,
                          bdd::BddRef below = bdd::kTrue) const;
  // The top `nbits` bits of the field equal the top `nbits` bits of `value`
  // (value is left-aligned in the field width), conjoined with `below`.
  // Used for prefix matching. `below` must branch only on variables after
  // field bit `nbits - 1` (BddManager::Branch checks this), which lets a
  // caller chain a later field's predicate on without an And.
  bdd::BddRef MatchPrefixBits(bdd::BddManager& mgr, util::U128 value,
                              int nbits, bdd::BddRef below = bdd::kTrue) const;
  // Per-bit wildcard equality: bits where `care` has a 0 are ignored.
  // `value` and `care` are left-aligned in the field width. Conjoined with
  // `below`, which must branch only on variables after the field.
  bdd::BddRef MatchMasked(bdd::BddManager& mgr, util::U128 value,
                          util::U128 care,
                          bdd::BddRef below = bdd::kTrue) const;
  // field <= value, field >= value.
  bdd::BddRef Leq(bdd::BddManager& mgr, util::U128 value) const;
  bdd::BddRef Geq(bdd::BddManager& mgr, util::U128 value) const;

  struct Interval {
    util::U128 low;
    util::U128 high;
    friend auto operator<=>(const Interval&, const Interval&) = default;
  };
  // low <= field <= high; false when low > high. Bounds must fit in the
  // field width.
  bdd::BddRef InRange(bdd::BddManager& mgr, util::U128 low,
                      util::U128 high) const;
  // The field lies in some interval of `ranges`, conjoined with `below`,
  // which must branch only on variables after the field. The list may be in
  // any order and hold overlapping, adjacent or inverted (low > high,
  // matching nothing) intervals; an empty or all-inverted list is false.
  bdd::BddRef InRanges(bdd::BddManager& mgr, std::vector<Interval> ranges,
                       bdd::BddRef below = bdd::kTrue) const;

  // Reads the field from a cube; don't-care bits decode as 0.
  util::U128 Decode(const bdd::Cube& cube) const;

  // The exact set of field values satisfying `set` (a predicate over this
  // field only — project other variables out first), as a sorted list of
  // maximal disjoint [low, high] intervals. Cost is O(nodes × width), not
  // O(2^width): the BDD is walked once per (node, depth) pair.
  std::vector<Interval> Intervals(const bdd::BddManager& mgr,
                                  bdd::BddRef set) const;

  // Appends [low, high] to `intervals`, merging with the back interval when
  // exactly adjacent (back.high + 1 == low). Callers append in increasing
  // order. Public (and written subtraction-style) so the no-wraparound
  // guarantee is directly testable: a back interval ending at the maximum
  // field value must never merge with a later append — the old
  // `high + 1 == low` formulation wrapped to 0 there.
  static void AppendInterval(std::vector<Interval>& intervals, util::U128 low,
                             util::U128 high);

 private:
  // The bit of `value` aligned with field bit `i` (value left-aligned).
  bool ValueBit(util::U128 value, int i) const {
    return value.Bit(width_ - 1 - i);
  }

  bdd::Var first_ = 0;
  int width_ = 0;
};

}  // namespace campion::encode
