#pragma once

// Prefix ranges, the vocabulary of HeaderLocalize (§3.2 of the paper).
//
// A prefix range pairs a prefix with a range of prefix lengths. The range
// (1.2.0.0/16, 16-32) denotes every prefix whose address matches 1.2.0.0/16
// and whose length lies in [16, 32]. Prefix lists in both Cisco ("le"/"ge")
// and Juniper ("prefix-length-range", "orlonger", "upto") compile to prefix
// ranges, and Campion reports difference header spaces as unions and
// differences of these ranges. Ranges are family-tagged (the base prefix
// carries its family); ranges of different families never intersect or
// contain one another.

#include <optional>
#include <string>
#include <vector>

#include "util/ip.h"

namespace campion::util {

class PrefixRange {
 public:
  constexpr PrefixRange() = default;
  constexpr PrefixRange(IpPrefix prefix, int low, int high)
      : prefix_(prefix), low_(low), high_(high) {}

  // The range matching exactly one prefix.
  constexpr explicit PrefixRange(IpPrefix prefix)
      : PrefixRange(prefix, prefix.length(), prefix.length()) {}

  // The universe U = (0.0.0.0/0, 0-32): every IPv4 prefix.
  static constexpr PrefixRange Universe() {
    return UniverseOf(AddressFamily::kIpv4);
  }
  // The all-prefixes range of either family.
  static constexpr PrefixRange UniverseOf(AddressFamily family) {
    return PrefixRange(IpPrefix(family, U128(), 0), 0,
                       MaxPrefixLength(family));
  }

  constexpr const IpPrefix& prefix() const { return prefix_; }
  constexpr AddressFamily family() const { return prefix_.family(); }
  constexpr int low() const { return low_; }
  constexpr int high() const { return high_; }

  // A range is empty when no length in [low, high] is both >= the base
  // prefix length (a member must be a subnet of the base) and <= the
  // family's maximum length.
  constexpr bool IsEmpty() const {
    return EffectiveLow() > EffectiveHigh();
  }

  // Membership: prefix p is in this range iff its address matches our base
  // prefix and its length falls inside [low, high].
  constexpr bool Contains(const IpPrefix& p) const {
    return p.length() >= low_ && p.length() <= high_ &&
           prefix_.Contains(p);
  }

  // Containment between ranges: every member of `other` is a member of
  // this range. Empty ranges are contained in everything.
  bool ContainsRange(const PrefixRange& other) const;

  // Intersection of the two member sets, expressible as a prefix range
  // whenever it is non-empty (the base prefixes are tree-ordered).
  std::optional<PrefixRange> Intersect(const PrefixRange& other) const;

  // Renders as "10.9.0.0/16 : 16-32", matching the paper's tables.
  std::string ToString() const;

  // The member lengths: [low, high] clamped to [base length, family
  // maximum]. Empty when EffectiveLow() > EffectiveHigh().
  constexpr int EffectiveLow() const {
    return low_ < prefix_.length() ? prefix_.length() : low_;
  }
  constexpr int EffectiveHigh() const {
    const int max = MaxPrefixLength(prefix_.family());
    return high_ > max ? max : high_;
  }

  friend constexpr auto operator<=>(const PrefixRange&,
                                    const PrefixRange&) = default;

 private:
  IpPrefix prefix_;
  int low_ = 0;
  int high_ = 0;
};

// A term of HeaderLocalize output: a positive range minus zero or more
// subtracted ranges, e.g. "B - D". After the nested-difference flattening
// pass the subtracted ranges are plain ranges (no further nesting).
struct PrefixRangeTerm {
  PrefixRange include;
  std::vector<PrefixRange> exclude;

  std::string ToString() const;
  friend auto operator<=>(const PrefixRangeTerm&,
                          const PrefixRangeTerm&) = default;
};

}  // namespace campion::util
