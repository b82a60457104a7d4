#include "frontend/lexer.h"

#include <gtest/gtest.h>

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
