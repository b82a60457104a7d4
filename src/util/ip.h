#pragma once

// IP addresses, network prefixes, and wildcard masks — IPv4 and IPv6.
//
// These are the basic value types used throughout Campion: configurations
// match on prefixes (route maps, prefix lists, static routes) and on
// address/wildcard pairs (Cisco extended ACLs). Addresses come in one type
// per family (Ipv4Address, Ipv6Address) plus the family-tagged IpAddress;
// prefixes and wildcards have one family-tagged type each (IpPrefix,
// IpWildcard), so every layer carries both families on the same code
// paths. IPv4 values occupy the low 32 bits of the 128-bit storage, and
// all-IPv4 collections of IpPrefix order by address, then length.

#include <compare>
#include <cstdint>
#include <optional>
#include <string>

#include "util/u128.h"

namespace campion::util {

enum class AddressFamily { kIpv4, kIpv6 };

// Header width (and maximum prefix length) of an address family.
constexpr int AddressWidth(AddressFamily family) {
  return family == AddressFamily::kIpv4 ? 32 : 128;
}
constexpr int MaxPrefixLength(AddressFamily family) {
  return AddressWidth(family);
}

// An IPv4 address stored in host byte order.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t bits) : bits_(bits) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : bits_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  // Parses dotted-quad notation ("10.9.0.0"). Returns nullopt on any
  // malformed input (out-of-range octet, leading-zero octet, missing dot,
  // trailing junk).
  static std::optional<Ipv4Address> Parse(std::string_view text);

  constexpr std::uint32_t bits() const { return bits_; }
  std::string ToString() const;

  // The i-th bit counting from the most significant (bit 0 is the top bit).
  constexpr bool Bit(int i) const { return (bits_ >> (31 - i)) & 1u; }

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

 private:
  std::uint32_t bits_ = 0;
};

// An IPv6 address stored as a 128-bit value in host bit order.
class Ipv6Address {
 public:
  constexpr Ipv6Address() = default;
  constexpr explicit Ipv6Address(U128 bits) : bits_(bits) {}

  // Parses RFC 4291 text ("2001:db8::1", "::ffff:10.0.0.1" with an embedded
  // dotted-quad in the final position). Returns nullopt on malformed input.
  static std::optional<Ipv6Address> Parse(std::string_view text);

  constexpr U128 bits() const { return bits_; }
  // Canonical RFC 5952 text: lowercase hex, the longest (leftmost on ties)
  // run of two or more zero groups compressed to "::".
  std::string ToString() const;

  // The i-th bit counting from the most significant (bit 0 is the top bit).
  constexpr bool Bit(int i) const { return bits_.Bit(127 - i); }

  friend constexpr auto operator<=>(const Ipv6Address&,
                                    const Ipv6Address&) = default;

 private:
  U128 bits_;
};

// The mask with `len` leading one bits inside a `width`-bit field,
// right-aligned at bit 0.
constexpr U128 MaskBits(int len, int width) {
  if (len <= 0) return U128();
  if (len >= width) return U128::Ones(width);
  return U128::Ones(width) ^ U128::Ones(width - len);
}

// Returns the prefix length if `mask` is a contiguous `width`-bit netmask
// (255.255.254.0 etc.), nullopt otherwise.
std::optional<int> MaskToLength(U128 mask, int width);

// A family-tagged address. IPv4 values occupy the low 32 bits.
class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr IpAddress(Ipv4Address a)  // NOLINT(runtime/explicit)
      : bits_(a.bits()) {}
  constexpr IpAddress(Ipv6Address a)  // NOLINT(runtime/explicit)
      : bits_(a.bits()), family_(AddressFamily::kIpv6) {}

  constexpr AddressFamily family() const { return family_; }
  constexpr U128 bits() const { return bits_; }
  constexpr Ipv4Address V4() const {
    return Ipv4Address(static_cast<std::uint32_t>(bits_.lo()));
  }
  constexpr Ipv6Address V6() const { return Ipv6Address(bits_); }

  std::string ToString() const;

  friend constexpr auto operator<=>(const IpAddress&,
                                    const IpAddress&) = default;

 private:
  U128 bits_;
  AddressFamily family_ = AddressFamily::kIpv4;
};

// A family-tagged prefix: address plus length, with host bits always
// zeroed so that equal prefixes compare equal. Prefixes order by address
// bits, then length, then family, so an all-IPv4 set orders by address and
// then length.
class IpPrefix {
 public:
  constexpr IpPrefix() = default;
  constexpr IpPrefix(Ipv4Address addr, int length)
      : IpPrefix(AddressFamily::kIpv4, U128(addr.bits()), length) {}
  constexpr IpPrefix(Ipv6Address addr, int length)
      : IpPrefix(AddressFamily::kIpv6, addr.bits(), length) {}
  constexpr IpPrefix(AddressFamily family, U128 bits, int length)
      : bits_(bits & MaskBits(length, AddressWidth(family))),
        length_(length),
        family_(family) {}

  // Parses either family ("10.0.0.0/8" or "2001:db8::/32").
  static std::optional<IpPrefix> Parse(std::string_view text);

  constexpr AddressFamily family() const { return family_; }
  constexpr int length() const { return length_; }
  constexpr IpAddress address() const {
    return family_ == AddressFamily::kIpv4
               ? IpAddress(Ipv4Address(static_cast<std::uint32_t>(bits_.lo())))
               : IpAddress(Ipv6Address(bits_));
  }
  std::string ToString() const;

  // True if `other` is a (non-strict) subnet of this prefix.
  constexpr bool Contains(const IpPrefix& other) const {
    return family_ == other.family_ && other.length_ >= length_ &&
           (other.bits_ & MaskBits(length_, AddressWidth(family_))) == bits_;
  }

  friend constexpr auto operator<=>(const IpPrefix&,
                                    const IpPrefix&) = default;

 private:
  U128 bits_;
  int length_ = 0;
  AddressFamily family_ = AddressFamily::kIpv4;
};

// A Cisco-style address/wildcard pair ("9.140.0.0 0.0.1.255"). Wildcard bits
// set to one are "don't care". Unlike prefixes the don't-care bits need not
// be contiguous, though in practice they almost always are. Either family;
// IPv6 ACL matches (which are prefix-shaped in both vendors' syntax) store
// the equivalent 128-bit pair.
class IpWildcard {
 public:
  constexpr IpWildcard() = default;
  constexpr IpWildcard(Ipv4Address addr, std::uint32_t wildcard_bits)
      : addr_(addr.bits() & ~wildcard_bits), wildcard_(wildcard_bits) {}
  // A wildcard matching exactly one address.
  constexpr explicit IpWildcard(Ipv4Address host) : IpWildcard(host, 0) {}
  // IPv6 forms.
  constexpr IpWildcard(Ipv6Address addr, U128 wildcard_bits)
      : addr_(addr.bits() & ~wildcard_bits),
        wildcard_(wildcard_bits),
        family_(AddressFamily::kIpv6) {}
  constexpr explicit IpWildcard(Ipv6Address host) : IpWildcard(host, U128()) {}
  // A wildcard that matches exactly the given prefix.
  constexpr explicit IpWildcard(const IpPrefix& p)
      : addr_(p.address().bits()),
        wildcard_(U128::Ones(AddressWidth(p.family())) ^
                  MaskBits(p.length(), AddressWidth(p.family()))),
        family_(p.family()) {}
  // A host wildcard of either family.
  constexpr explicit IpWildcard(const IpAddress& host)
      : addr_(host.bits()), wildcard_(U128()), family_(host.family()) {}

  static constexpr IpWildcard Any() {
    return IpWildcard(Ipv4Address(0), ~0u);
  }
  static constexpr IpWildcard AnyOf(AddressFamily family) {
    return family == AddressFamily::kIpv4
               ? Any()
               : IpWildcard(Ipv6Address(), U128::Ones(128));
  }

  constexpr AddressFamily family() const { return family_; }

  // 32-bit views (meaningful for IPv4 wildcards; the low 32 bits otherwise).
  constexpr Ipv4Address address() const {
    return Ipv4Address(static_cast<std::uint32_t>(addr_.lo()));
  }
  constexpr std::uint32_t wildcard_bits() const {
    return static_cast<std::uint32_t>(wildcard_.lo());
  }

  // Full-width views, right-aligned in AddressWidth(family()) bits.
  constexpr U128 address_wide() const { return addr_; }
  constexpr U128 wildcard_wide() const { return wildcard_; }

  constexpr bool Matches(Ipv4Address a) const {
    return family_ == AddressFamily::kIpv4 &&
           (U128(a.bits()) | wildcard_) == (addr_ | wildcard_);
  }
  constexpr bool Matches(Ipv6Address a) const {
    return family_ == AddressFamily::kIpv6 &&
           (a.bits() | wildcard_) == (addr_ | wildcard_);
  }
  constexpr bool Matches(const IpAddress& a) const {
    return family_ == a.family() &&
           (a.bits() | wildcard_) == (addr_ | wildcard_);
  }
  constexpr bool IsAny() const {
    return wildcard_ == U128::Ones(AddressWidth(family_));
  }

  // If the wildcard is a contiguous suffix of don't-care bits, the
  // equivalent prefix.
  std::optional<IpPrefix> AsIpPrefix() const;

  std::string ToString() const;

  friend constexpr auto operator<=>(const IpWildcard&,
                                    const IpWildcard&) = default;

 private:
  U128 addr_;
  U128 wildcard_;
  AddressFamily family_ = AddressFamily::kIpv4;
};

}  // namespace campion::util
