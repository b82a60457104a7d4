#include "encode/prefix_encoding.h"

#include <cstdint>

namespace campion::encode {

bdd::BddRef PrefixEncoding::MatchRange(bdd::BddManager& mgr,
                                       const util::PrefixRange& range) const {
  // The address field precedes the length field in every layout, so the
  // address literals chain straight onto the length predicate.
  return address.MatchPrefixBits(mgr, range.prefix().address().bits(),
                                 range.prefix().length(),
                                 MatchWindow(mgr, range));
}

bdd::BddRef PrefixEncoding::MatchWindow(bdd::BddManager& mgr,
                                        const util::PrefixRange& range) const {
  if (!length) return bdd::kTrue;
  return length->InRange(mgr,
                         static_cast<std::uint32_t>(range.EffectiveLow()),
                         static_cast<std::uint32_t>(range.EffectiveHigh()));
}

}  // namespace campion::encode
