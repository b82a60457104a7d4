#include "util/ip.h"

#include <charconv>
#include <vector>

namespace campion::util {
namespace {

// Parses a decimal integer in [0, max] from the front of `text`, advancing
// it past the digits. Returns nullopt if there are no digits, the value
// overflows, or the number has a leading zero ("010" — inet_pton rejects
// these because historic tools read them as octal).
std::optional<std::uint32_t> ParseDecimal(std::string_view& text,
                                          std::uint32_t max) {
  if (text.size() >= 2 && text[0] == '0' && text[1] >= '0' && text[1] <= '9') {
    return std::nullopt;
  }
  std::uint32_t value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr == begin || value > max) return std::nullopt;
  text.remove_prefix(static_cast<std::size_t>(ptr - begin));
  return value;
}

bool Consume(std::string_view& text, char c) {
  if (text.empty() || text.front() != c) return false;
  text.remove_prefix(1);
  return true;
}

std::optional<int> HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return std::nullopt;
}

// Parses one v6 group token: 1-4 hex digits (leading zeros allowed per
// RFC 4291, unlike dotted-quad octets).
std::optional<std::uint32_t> ParseHexGroup(std::string_view token) {
  if (token.empty() || token.size() > 4) return std::nullopt;
  std::uint32_t value = 0;
  for (char c : token) {
    auto digit = HexDigit(c);
    if (!digit) return std::nullopt;
    value = (value << 4) | static_cast<std::uint32_t>(*digit);
  }
  return value;
}

// Splits a (non-empty) "::"-free group run on ':'. Empty tokens (leading,
// trailing, or doubled colons) are malformed here. The final token may be an
// embedded dotted-quad, which expands to two groups.
std::optional<std::vector<std::uint32_t>> ParseGroupRun(std::string_view text) {
  std::vector<std::uint32_t> groups;
  while (!text.empty()) {
    auto colon = text.find(':');
    std::string_view token =
        colon == std::string_view::npos ? text : text.substr(0, colon);
    if (token.empty()) return std::nullopt;
    bool last = colon == std::string_view::npos;
    if (last && token.find('.') != std::string_view::npos) {
      auto v4 = Ipv4Address::Parse(token);
      if (!v4) return std::nullopt;
      groups.push_back(v4->bits() >> 16);
      groups.push_back(v4->bits() & 0xffff);
    } else {
      auto group = ParseHexGroup(token);
      if (!group) return std::nullopt;
      groups.push_back(*group);
    }
    if (last) break;
    text.remove_prefix(colon + 1);
    if (text.empty()) return std::nullopt;  // Trailing single colon.
  }
  return groups;
}

U128 GroupsToBits(const std::vector<std::uint32_t>& head,
                  const std::vector<std::uint32_t>& tail) {
  U128 bits;
  for (std::size_t i = 0; i < head.size(); ++i) {
    bits = bits | (U128(head[i]) << (112 - 16 * static_cast<int>(i)));
  }
  for (std::size_t i = 0; i < tail.size(); ++i) {
    int slot = 8 - static_cast<int>(tail.size()) + static_cast<int>(i);
    bits = bits | (U128(tail[i]) << (112 - 16 * slot));
  }
  return bits;
}

}  // namespace

std::optional<Ipv4Address> Ipv4Address::Parse(std::string_view text) {
  std::uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0 && !Consume(text, '.')) return std::nullopt;
    auto octet = ParseDecimal(text, 255);
    if (!octet) return std::nullopt;
    bits = (bits << 8) | *octet;
  }
  if (!text.empty()) return std::nullopt;
  return Ipv4Address(bits);
}

std::string Ipv4Address::ToString() const {
  std::string out;
  out.reserve(15);
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) out.push_back('.');
    out += std::to_string((bits_ >> shift) & 0xff);
  }
  return out;
}

std::optional<Ipv6Address> Ipv6Address::Parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  auto gap = text.find("::");
  if (gap == std::string_view::npos) {
    auto groups = ParseGroupRun(text);
    if (!groups || groups->size() != 8) return std::nullopt;
    return Ipv6Address(GroupsToBits(*groups, {}));
  }
  if (text.find("::", gap + 1) != std::string_view::npos) return std::nullopt;
  std::string_view head_text = text.substr(0, gap);
  std::string_view tail_text = text.substr(gap + 2);
  std::vector<std::uint32_t> head, tail;
  if (!head_text.empty()) {
    auto groups = ParseGroupRun(head_text);
    if (!groups) return std::nullopt;
    head = std::move(*groups);
  }
  if (!tail_text.empty()) {
    auto groups = ParseGroupRun(tail_text);
    if (!groups) return std::nullopt;
    tail = std::move(*groups);
  }
  // "::" must stand for at least one zero group.
  if (head.size() + tail.size() >= 8) return std::nullopt;
  return Ipv6Address(GroupsToBits(head, tail));
}

std::string Ipv6Address::ToString() const {
  std::uint32_t groups[8];
  for (int i = 0; i < 8; ++i) {
    groups[i] =
        static_cast<std::uint32_t>((bits_ >> (112 - 16 * i)).lo()) & 0xffff;
  }
  // RFC 5952: compress the longest run of two or more zero groups,
  // leftmost on ties.
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[j] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(39);
  auto append_group = [&](std::uint32_t g) {
    bool started = false;
    for (int shift = 12; shift >= 0; shift -= 4) {
      std::uint32_t digit = (g >> shift) & 0xf;
      if (digit != 0 || started || shift == 0) {
        out.push_back(kHex[digit]);
        started = true;
      }
    }
  };
  for (int i = 0; i < 8; ++i) {
    if (i == best_start) {
      out += "::";
      i += best_len - 1;
      continue;
    }
    if (!out.empty() && out.back() != ':') out.push_back(':');
    append_group(groups[i]);
  }
  if (out.empty()) return "::";
  return out;
}

std::optional<int> MaskToLength(U128 mask, int width) {
  for (int len = 0; len <= width; ++len) {
    if (mask == MaskBits(len, width)) return len;
  }
  return std::nullopt;
}

std::string IpAddress::ToString() const {
  return family_ == AddressFamily::kIpv4 ? V4().ToString() : V6().ToString();
}

std::optional<IpPrefix> IpPrefix::Parse(std::string_view text) {
  auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  std::string_view addr_text = text.substr(0, slash);
  std::string_view len_text = text.substr(slash + 1);
  std::optional<IpAddress> addr;
  if (auto v4 = Ipv4Address::Parse(addr_text)) {
    addr = *v4;
  } else if (auto v6 = Ipv6Address::Parse(addr_text)) {
    addr = *v6;
  } else {
    return std::nullopt;
  }
  const int width = AddressWidth(addr->family());
  auto len = ParseDecimal(len_text, static_cast<std::uint32_t>(width));
  if (!len || !len_text.empty()) return std::nullopt;
  return IpPrefix(addr->family(), addr->bits(), static_cast<int>(*len));
}

std::string IpPrefix::ToString() const {
  return address().ToString() + "/" + std::to_string(length_);
}

std::optional<IpPrefix> IpWildcard::AsIpPrefix() const {
  int width = AddressWidth(family_);
  auto len = MaskToLength(U128::Ones(width) ^ wildcard_, width);
  if (!len) return std::nullopt;
  return IpPrefix(family_, addr_, *len);
}

std::string IpWildcard::ToString() const {
  if (family_ == AddressFamily::kIpv4) {
    return address().ToString() + " " + Ipv4Address(wildcard_bits()).ToString();
  }
  // IPv6 ACL matches are prefix-shaped in both vendors' syntax; render the
  // prefix when the wildcard is contiguous, address + mask otherwise.
  if (auto prefix = AsIpPrefix()) return prefix->ToString();
  return Ipv6Address(addr_).ToString() + " " +
         Ipv6Address(wildcard_).ToString();
}

}  // namespace campion::util
