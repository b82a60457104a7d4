#pragma once

// The lexical layer both vendor parsers share. Everything here views the
// caller's configuration text instead of copying it: lines, words and JunOS
// tokens are std::string_views that stay valid while that text does, so a
// parse allocates only for what the IR keeps: names and span texts.
//
// util::SourceSpan still owns its text and file name. Spans are copied into
// DiffReport entries that outlive the configuration text, and a Cisco BGP
// neighbor's span collects lines that are not contiguous in the source.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace campion::frontend {

// The lines of a text, split as std::getline splits them: every '\n' ends a
// line, and a final line without one still counts. One trailing '\r' is
// dropped from each line, so CRLF files read like LF files.
class LineIndex {
 public:
  explicit LineIndex(std::string_view text);

  int size() const { return static_cast<int>(lines_.size()); }
  // 1-based, as diagnostics and spans number lines.
  std::string_view Line(int number) const { return lines_[number - 1]; }

  // Lines first..last (1-based; last is clamped to size()) joined with
  // "\n", built in one allocation.
  std::string SpanText(int first, int last) const;

 private:
  std::vector<std::string_view> lines_;
};

// Replaces `words` with the words of `line`, split at exactly the bytes
// `std::istringstream >> std::string` skips in the C locale: space, \t, \n,
// \v, \f and \r. Every other byte, NUL included, is a word byte.
void SplitWords(std::string_view line, std::vector<std::string_view>& words);

// What a JunOS token is. A quoted string is always a word, whatever its
// contents: `description "}";` has two words and no brace.
enum class TokenKind : std::uint8_t {
  kWord,  // A word or a quoted string's contents.
  kOpenBrace,
  kCloseBrace,
  kSemicolon,
  kOpenBracket,
  kCloseBracket,
};

// A JunOS token: a word, a quoted string's contents, or one of { } ; [ ].
struct Token {
  std::string_view text;
  int line = 0;  // The line the token ends on.
  TokenKind kind = TokenKind::kWord;
};

// The JunOS tokens of a text, one at a time. Blanks (space, \t, \r, \n)
// separate tokens; '#' comments run to the end of the line and /* */
// comments may span lines. A word ends at a blank, a punctuation byte, '"'
// or '#'; every other byte, NUL included, belongs to it. An unterminated
// string runs to the end of the text.
//
// One 256-entry table classifies every byte. Runs of spaces, most of a
// configuration's bytes as indentation, are skipped eight at a time, and
// '#' comments and strings end at a memchr.
class JunosLexer {
 public:
  explicit JunosLexer(std::string_view text) : text_(text) {}

  // Stores the next token in `token` and returns true, or returns false at
  // the end of the text.
  bool Next(Token& token);

  // Whether a string literal ran to the end of the text unterminated.
  bool unterminated_string() const { return unterminated_string_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool unterminated_string_ = false;
};

// The decimal value of `token` if all of it is one, else nullopt (no sign,
// no blanks, no overflow).
std::optional<std::uint32_t> ParseU32(std::string_view token);

// A port operand of either vendor's filters: a decimal number up to 65535
// or one of the well-known service names in the one table both parsers
// share; nullopt for anything else.
std::optional<std::uint16_t> ParsePort(std::string_view token);

}  // namespace campion::frontend
