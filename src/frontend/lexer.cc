#include "frontend/lexer.h"

#include <algorithm>
#include <array>
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

// Where a JunOS word stops.
constexpr std::array<bool, 256> kJunosWordStop = ByteSet(" \t\r\n{};[]\"#");

bool Is(const std::array<bool, 256>& table, char c) {
  return table[static_cast<unsigned char>(c)];
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
  const std::string_view text = text_;
  const std::size_t n = text.size();
  std::size_t i = pos_;
  while (i < n) {
    const char c = text[i];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
    } else if (c == '\n') {
      ++line_;
      ++i;
    } else if (c == '#') {
      i = std::min(text.find('\n', i), n);
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line_;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
    } else if (c == '{' || c == '}' || c == ';' || c == '[' || c == ']') {
      token = {text.substr(i, 1), line_};
      pos_ = i + 1;
      return true;
    } else if (c == '"') {
      const std::size_t start = ++i;
      while (i < n && text[i] != '"') {
        if (text[i] == '\n') ++line_;
        ++i;
      }
      token = {text.substr(start, i - start), line_};
      if (i < n) {
        ++i;
      } else {
        unterminated_string_ = true;
      }
      pos_ = i;
      return true;
    } else {
      // `c` is no stop byte (each has its branch above), so the word is
      // never empty and the scan always advances.
      const std::size_t start = i;
      while (i < n && !Is(kJunosWordStop, text[i])) ++i;
      token = {text.substr(start, i - start), line_};
      pos_ = i;
      return true;
    }
  }
  pos_ = n;
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
