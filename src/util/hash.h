#pragma once

// FNV-1a 64-bit: the repo's one string digest. Used where a stable,
// dependency-free fingerprint of a potentially large key is wanted in
// logs and debug endpoints (e.g. the daemon's result-cache key digests)
// — NOT a cryptographic hash, and not for adversarial inputs.

#include <cstdint>
#include <string>
#include <string_view>

namespace campion::util {

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

constexpr std::uint64_t Fnv1a64(std::string_view data) {
  std::uint64_t hash = kFnvOffsetBasis;
  for (char c : data) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

// A digest as the 16 lowercase hex digits the debug endpoints print.
inline std::string KeyHashHex(std::uint64_t hash) {
  std::string hex(16, '0');
  for (char& digit : hex) {
    digit = "0123456789abcdef"[hash >> 60];
    hash <<= 4;
  }
  return hex;
}

}  // namespace campion::util
