#include "frontend/lexer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <utility>

namespace campion::frontend {
namespace {

// A 256-entry byte table with the given bytes set.
constexpr std::array<bool, 256> ByteSet(std::string_view bytes) {
  std::array<bool, 256> table{};
  for (char c : bytes) table[static_cast<unsigned char>(c)] = true;
  return table;
}

// What `std::istringstream >>` skips in the C locale (std::isspace).
constexpr std::array<bool, 256> kWordSeparator = ByteSet(" \t\n\v\f\r");

bool Is(const std::array<bool, 256>& table, char c) {
  return table[static_cast<unsigned char>(c)];
}

// What a byte does to the JunOS lexer. The two word classes come first, so
// that one comparison tells whether a byte continues a word; the five
// punctuation classes come last, in TokenKind's order.
enum class ByteClass : std::uint8_t {
  kWord,
  kSlash,  // A word byte, unless it opens a /* comment.
  kSpace,
  kBlank,  // \t and \r.
  kNewline,
  kHash,
  kQuote,
  kOpenBrace,
  kCloseBrace,
  kSemicolon,
  kOpenBracket,
  kCloseBracket,
};

constexpr std::array<ByteClass, 256> kJunosByteClass = [] {
  std::array<ByteClass, 256> table{};  // kWord
  table['/'] = ByteClass::kSlash;
  table[' '] = ByteClass::kSpace;
  table['\t'] = ByteClass::kBlank;
  table['\r'] = ByteClass::kBlank;
  table['\n'] = ByteClass::kNewline;
  table['#'] = ByteClass::kHash;
  table['"'] = ByteClass::kQuote;
  table['{'] = ByteClass::kOpenBrace;
  table['}'] = ByteClass::kCloseBrace;
  table[';'] = ByteClass::kSemicolon;
  table['['] = ByteClass::kOpenBracket;
  table[']'] = ByteClass::kCloseBracket;
  return table;
}();

ByteClass ClassOf(char c) {
  return kJunosByteClass[static_cast<unsigned char>(c)];
}

constexpr TokenKind PunctuationKind(ByteClass byte_class) {
  return static_cast<TokenKind>(static_cast<int>(byte_class) -
                                static_cast<int>(ByteClass::kOpenBrace) +
                                static_cast<int>(TokenKind::kOpenBrace));
}
static_assert(PunctuationKind(ByteClass::kCloseBrace) ==
              TokenKind::kCloseBrace);
static_assert(PunctuationKind(ByteClass::kCloseBracket) ==
              TokenKind::kCloseBracket);

// The first byte in [p, end) that is no space. On little-endian hosts
// eight bytes are tested per step: the lowest set bit of the loaded word
// XOR eight spaces lies in the first other byte. Elsewhere, and for the
// last few bytes, the scan goes byte by byte.
const char* SkipSpaces(const char* p, const char* end) {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t kEightSpaces = 0x2020202020202020;
    for (; end - p >= 8; p += 8) {
      std::uint64_t word;
      std::memcpy(&word, p, 8);
      if (const std::uint64_t other = word ^ kEightSpaces; other != 0) {
        return p + std::countr_zero(other) / 8;
      }
    }
  }
  while (p != end && *p == ' ') ++p;
  return p;
}

// The first `c` in [p, end), or `end`.
const char* Find(const char* p, const char* end, char c) {
  const void* found = std::memchr(p, c, static_cast<std::size_t>(end - p));
  return found != nullptr ? static_cast<const char*>(found) : end;
}

}  // namespace

LineIndex::LineIndex(std::string_view text) {
  const char* start = text.data();
  const char* const end = start + text.size();
  while (start != end) {
    const auto* newline = static_cast<const char*>(
        std::memchr(start, '\n', static_cast<std::size_t>(end - start)));
    const char* line_end = newline != nullptr ? newline : end;
    if (line_end != start && line_end[-1] == '\r') --line_end;
    lines_.emplace_back(start, static_cast<std::size_t>(line_end - start));
    start = newline != nullptr ? newline + 1 : end;
  }
}

std::string LineIndex::SpanText(int first, int last) const {
  last = std::min(last, size());
  std::size_t length = 0;
  for (int i = first; i <= last; ++i) length += lines_[i - 1].size() + 1;
  std::string text;
  text.reserve(length);
  for (int i = first; i <= last; ++i) {
    if (i > first) text += '\n';
    text += lines_[i - 1];
  }
  return text;
}

void SplitWords(std::string_view line, std::vector<std::string_view>& words) {
  words.clear();
  const char* p = line.data();
  const char* const end = p + line.size();
  while (true) {
    while (p != end && Is(kWordSeparator, *p)) ++p;
    if (p == end) return;
    const char* start = p;
    while (p != end && !Is(kWordSeparator, *p)) ++p;
    words.emplace_back(start, static_cast<std::size_t>(p - start));
  }
}

bool JunosLexer::Next(Token& token) {
  const char* const begin = text_.data();
  const char* const end = begin + text_.size();
  const char* p = begin + pos_;
  auto emit = [&](const char* first, const char* last, TokenKind kind,
                  const char* next) {
    token = {std::string_view(first, static_cast<std::size_t>(last - first)),
             line_, kind};
    pos_ = static_cast<std::size_t>(next - begin);
    return true;
  };
  while (p != end) {
    const ByteClass byte_class = ClassOf(*p);
    switch (byte_class) {
      case ByteClass::kSpace:
        p = SkipSpaces(p + 1, end);
        continue;
      case ByteClass::kBlank:
        ++p;
        continue;
      case ByteClass::kNewline:
        ++line_;
        // Indentation follows most newlines.
        p = SkipSpaces(p + 1, end);
        continue;
      case ByteClass::kHash:
        p = Find(p, end, '\n');
        continue;
      case ByteClass::kSlash:
        if (end - p >= 2 && p[1] == '*') {
          const std::size_t close =
              text_.find("*/", static_cast<std::size_t>(p + 2 - begin));
          const char* stop =
              close != std::string_view::npos ? begin + close : end;
          line_ += static_cast<int>(std::count(p + 2, stop, '\n'));
          p = stop != end ? stop + 2 : end;
          continue;
        }
        break;  // A word that begins with '/'.
      case ByteClass::kWord:
        break;
      case ByteClass::kQuote: {
        const char* const stop = Find(p + 1, end, '"');
        line_ += static_cast<int>(std::count(p + 1, stop, '\n'));
        if (stop == end) unterminated_string_ = true;
        return emit(p + 1, stop, TokenKind::kWord,
                    stop != end ? stop + 1 : end);
      }
      default:
        return emit(p, p + 1, PunctuationKind(byte_class), p + 1);
    }
    // A word: its first byte is a word byte, so it is never empty.
    const char* const first = p++;
    while (p != end && ClassOf(*p) <= ByteClass::kSlash) ++p;
    return emit(first, p, TokenKind::kWord, p);
  }
  pos_ = text_.size();
  return false;
}

std::optional<std::uint32_t> ParseU32(std::string_view token) {
  std::uint32_t value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<std::uint16_t> ParsePort(std::string_view token) {
  if (auto n = ParseU32(token); n && *n <= 65535) {
    return static_cast<std::uint16_t>(*n);
  }
  static constexpr std::pair<std::string_view, std::uint16_t> kServices[] = {
      {"bgp", 179},   {"domain", 53}, {"ftp", 21}, {"ssh", 22},
      {"telnet", 23}, {"smtp", 25},   {"www", 80}, {"snmp", 161},
  };
  for (const auto& [name, port] : kServices) {
    if (token == name) return port;
  }
  return std::nullopt;
}

}  // namespace campion::frontend
