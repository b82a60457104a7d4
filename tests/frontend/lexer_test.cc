#include "frontend/lexer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>

namespace campion::frontend {
namespace {

std::vector<std::string> Strings(const std::vector<std::string_view>& views) {
  return {views.begin(), views.end()};
}

// The IOS parser's old tokenizer, which SplitWords replaces.
std::vector<std::string> StreamWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream stream(line);
  std::string word;
  while (stream >> word) words.push_back(word);
  return words;
}

std::vector<Token> Tokens(JunosLexer& lexer) {
  std::vector<Token> tokens;
  Token token;
  while (lexer.Next(token)) tokens.push_back(token);
  return tokens;
}

TEST(LineIndexTest, SplitsLikeGetline) {
  for (const std::string text :
       {"", "\n", "a", "a\n", "a\nb", "\n\nb\n", "a\r\nb\r\n", "a\r", "\r",
        "a\r\r\n", "x\ry\n"}) {
    std::vector<std::string> expected;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      expected.push_back(line);
    }
    const LineIndex index(text);
    std::vector<std::string> actual;
    for (int i = 1; i <= index.size(); ++i) {
      actual.emplace_back(index.Line(i));
    }
    EXPECT_EQ(actual, expected) << '"' << text << '"';
  }
}

TEST(LineIndexTest, SpanTextJoinsLinesWithoutCarriageReturns) {
  const LineIndex index("x\na {\r\n\n  b;\r\n}\n");
  EXPECT_EQ(index.SpanText(2, 5), "a {\n\n  b;\n}");
  EXPECT_EQ(index.SpanText(2, 2), "a {");
  EXPECT_EQ(index.SpanText(3, 3), "");
  EXPECT_EQ(index.SpanText(4, 99), "  b;\n}");
  EXPECT_EQ(index.SpanText(6, 6), "");
}

TEST(SplitWordsTest, SeparatesExactlyWhereIstringstreamDoes) {
  std::vector<std::string_view> words;
  // Every byte once between two letters, and runs of separators.
  for (int byte = 0; byte < 256; ++byte) {
    std::string line = "a";
    line += static_cast<char>(byte);
    line += "b";
    SplitWords(line, words);
    EXPECT_EQ(Strings(words), StreamWords(line)) << byte;
  }
  for (const std::string line :
       {"", "   ", " \t\v\f\r x \t\v\f\r y ", "ip  route\t10.0.0.0"}) {
    SplitWords(line, words);
    EXPECT_EQ(Strings(words), StreamWords(line)) << '"' << line << '"';
  }
}

TEST(SplitWordsTest, KeepsNulInsideWords) {
  std::vector<std::string_view> words;
  SplitWords(std::string_view("a\0b c", 5), words);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], std::string_view("a\0b", 3));
}

TEST(JunosLexerTest, TokensViewTheText) {
  const std::string text =
      "a { b \"c d\";\n"
      "  # note\n"
      "  e/* x\n y */[ f g ]; }";
  JunosLexer lexer(text);
  const std::vector<Token> tokens = Tokens(lexer);
  std::vector<std::string> words;
  std::vector<int> lines;
  for (const Token& token : tokens) {
    EXPECT_GE(token.text.data(), text.data());
    EXPECT_LE(token.text.data() + token.text.size(),
              text.data() + text.size());
    words.emplace_back(token.text);
    lines.push_back(token.line);
  }
  EXPECT_EQ(words, (std::vector<std::string>{"a", "{", "b", "c d", ";",
                                             "e/*", "x", "y", "*/", "[", "f",
                                             "g", "]", ";", "}"}));
  EXPECT_EQ(lines,
            (std::vector<int>{1, 1, 1, 1, 1, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4}));
  EXPECT_FALSE(lexer.unterminated_string());
}

TEST(JunosLexerTest, CommentsAndUnterminatedString) {
  JunosLexer lexer("/* a\nb */ x; \"open\nend");
  const std::vector<Token> tokens = Tokens(lexer);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[0].line, 2);
  EXPECT_EQ(tokens[2].text, "open\nend");
  EXPECT_EQ(tokens[2].line, 3);
  EXPECT_TRUE(lexer.unterminated_string());
}

TEST(JunosLexerTest, NulIsAWordByte) {
  JunosLexer lexer(std::string_view("a\0b;\0", 5));
  const std::vector<Token> tokens = Tokens(lexer);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, std::string_view("a\0b", 3));
  EXPECT_EQ(tokens[1].text, ";");
  EXPECT_EQ(tokens[2].text, std::string_view("\0", 1));
}

TEST(JunosLexerTest, TokensCarryTheirKind) {
  JunosLexer lexer("a { [ b ] ; } \"{\" \"}\" \";\" \"[\" \"]\"");
  std::vector<TokenKind> kinds;
  for (const Token& token : Tokens(lexer)) kinds.push_back(token.kind);
  using enum TokenKind;
  EXPECT_EQ(kinds, (std::vector<TokenKind>{kWord, kOpenBrace, kOpenBracket,
                                           kWord, kCloseBracket, kSemicolon,
                                           kCloseBrace, kWord, kWord, kWord,
                                           kWord, kWord}));
}

// The JunOS lexer as it was before the byte-class table: one byte per step
// through an if-chain. Verbatim, except that its punctuation branch also
// records the token's kind, which it did not have.
class ByteLoopJunosLexer {
 public:
  explicit ByteLoopJunosLexer(std::string_view text) : text_(text) {}

  bool Next(Token& token) {
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
        token = {text.substr(i, 1), line_, PunctuationKind(c)};
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
        const std::size_t start = i;
        while (i < n && !IsWordStop(text[i])) ++i;
        token = {text.substr(start, i - start), line_};
        pos_ = i;
        return true;
      }
    }
    pos_ = n;
    return false;
  }

  bool unterminated_string() const { return unterminated_string_; }

 private:
  static TokenKind PunctuationKind(char c) {
    switch (c) {
      case '{':
        return TokenKind::kOpenBrace;
      case '}':
        return TokenKind::kCloseBrace;
      case ';':
        return TokenKind::kSemicolon;
      case '[':
        return TokenKind::kOpenBracket;
      default:
        return TokenKind::kCloseBracket;
    }
  }
  static bool IsWordStop(char c) {
    return std::string_view(" \t\r\n{};[]\"#").find(c) !=
           std::string_view::npos;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool unterminated_string_ = false;
};

// Seeded random texts over every byte the lexer treats apart, NUL
// included, with runs of spaces long and short: the table-driven lexer must
// return the byte loop's tokens, token for token (the same bytes of the
// text, line and kind), and the same unterminated flag.
TEST(JunosLexerOracleTest, MatchesTheByteLoopOnRandomTexts) {
  static constexpr char kAlphabet[] = {'{', '}', ';', '[', ']', '"', '#',
                                       '/', '*', '\r', '\n', '\t', ' ', '\0',
                                       'a', 'b', 'z', '-', '.', '0'};
  std::mt19937_64 rng(39);
  for (int text_index = 0; text_index < 100000; ++text_index) {
    const std::size_t length = rng() % 120;
    std::string text;
    while (text.size() < length) {
      const std::uint64_t draw = rng();
      if (draw % 4 == 0) {
        // Indentation-like runs, across the lexer's eight-byte steps.
        text.append(1 + draw / 4 % 24, ' ');
      } else {
        text += kAlphabet[draw / 4 % std::size(kAlphabet)];
      }
    }
    JunosLexer lexer(text);
    ByteLoopJunosLexer reference(text);
    Token token;
    Token expected;
    int index = 0;
    while (true) {
      const bool more = lexer.Next(token);
      ASSERT_EQ(more, reference.Next(expected)) << text_index << " " << index;
      if (!more) break;
      ASSERT_EQ(token.text.data(), expected.text.data()) << text_index;
      ASSERT_EQ(token.text.size(), expected.text.size()) << text_index;
      ASSERT_EQ(token.line, expected.line) << text_index << " " << index;
      ASSERT_EQ(token.kind, expected.kind) << text_index << " " << index;
      ++index;
    }
    ASSERT_EQ(lexer.unterminated_string(), reference.unterminated_string())
        << text_index;
  }
}

TEST(ParseU32Test, WholeTokenDecimalOnly) {
  EXPECT_EQ(ParseU32("0"), 0u);
  EXPECT_EQ(ParseU32("4294967295"), 4294967295u);
  EXPECT_EQ(ParseU32("4294967296"), std::nullopt);
  EXPECT_EQ(ParseU32(""), std::nullopt);
  EXPECT_EQ(ParseU32("-1"), std::nullopt);
  EXPECT_EQ(ParseU32("+1"), std::nullopt);
  EXPECT_EQ(ParseU32("12abc"), std::nullopt);
  EXPECT_EQ(ParseU32(" 1"), std::nullopt);
  EXPECT_EQ(ParseU32(std::string_view()), std::nullopt);
}

}  // namespace
}  // namespace campion::frontend
