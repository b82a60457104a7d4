#include "encode/prefix_encoding.h"

#include <algorithm>
#include <cstdint>

namespace campion::encode {

bdd::BddRef PrefixEncoding::MatchRange(bdd::BddManager& mgr,
                                       const util::PrefixRange& range) const {
  const int base_len = range.prefix().length();
  bdd::BddRef window = bdd::kTrue;
  if (length) {
    const int low = std::max(range.low(), base_len);
    const int high =
        std::min(range.high(), util::MaxPrefixLength(range.family()));
    window = length->InRange(mgr, static_cast<std::uint32_t>(low),
                             static_cast<std::uint32_t>(high));
  }
  // The address field precedes the length field in every layout, so the
  // address literals chain straight onto the length predicate.
  return address.MatchPrefixBits(mgr, range.prefix().address().bits(),
                                 base_len, window);
}

}  // namespace campion::encode
