// Tests for the minimal JSON reader in util/json: round-trips of the
// document shapes this repo emits (traces, metric dumps), key-order
// preservation, RFC 8259 string escapes, the nesting cap, and the
// malformed-input error paths the trace-diff tool and the daemon rely on.

#include <gtest/gtest.h>

#include <string>

#include "util/json.h"

namespace campion::util {
namespace {

JsonValue ParseOrDie(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(text, value, &error)) << error << "\n" << text;
  return value;
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_EQ(ParseOrDie("null").type, JsonValue::Type::kNull);
  EXPECT_TRUE(ParseOrDie("true").boolean);
  EXPECT_FALSE(ParseOrDie("false").boolean);
  EXPECT_DOUBLE_EQ(ParseOrDie("42").number, 42.0);
  EXPECT_DOUBLE_EQ(ParseOrDie("-3.5e2").number, -350.0);
  EXPECT_EQ(ParseOrDie("\"hi\"").string, "hi");
}

TEST(JsonTest, ParsesNestedContainers) {
  JsonValue value = ParseOrDie(
      "{\"spans\": [{\"name\": \"config_diff\", \"duration_ns\": 12}],"
      " \"metrics\": {\"bdd.nodes\": 7}}");
  ASSERT_TRUE(value.IsObject());
  const JsonValue* spans = value.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->IsArray());
  ASSERT_EQ(spans->array.size(), 1u);
  const JsonValue& span = spans->array[0];
  ASSERT_NE(span.Find("name"), nullptr);
  EXPECT_EQ(span.Find("name")->string, "config_diff");
  EXPECT_DOUBLE_EQ(span.NumberOr("duration_ns", -1), 12.0);
  EXPECT_DOUBLE_EQ(span.NumberOr("absent", -1), -1.0);
  const JsonValue* metrics = value.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->NumberOr("bdd.nodes", 0), 7.0);
}

TEST(JsonTest, ObjectsPreserveKeyOrderAsWritten) {
  JsonValue value = ParseOrDie("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_EQ(value.object.size(), 3u);
  EXPECT_EQ(value.object[0].first, "z");
  EXPECT_EQ(value.object[1].first, "a");
  EXPECT_EQ(value.object[2].first, "m");
}

TEST(JsonTest, RoundTripsEscapedStrings) {
  // What JsonEscape produces, ParseJson must read back verbatim.
  const std::string original = "tab\there \"quoted\" back\\slash\nnewline";
  std::string text = "\"";
  text += JsonEscape(original);
  text += '"';
  JsonValue value = ParseOrDie(text);
  EXPECT_EQ(value.string, original);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  // One, two, three and four UTF-8 bytes; the last from a surrogate pair,
  // as Python's json.dumps escapes characters outside the BMP.
  EXPECT_EQ(ParseOrDie("\"a\\u0041b\"").string, "aAb");
  EXPECT_EQ(ParseOrDie("\"a\\u00e9b\"").string, "a\xc3\xa9" "b");
  EXPECT_EQ(ParseOrDie("\"\\u20AC\"").string, "\xe2\x82\xac");
  EXPECT_EQ(ParseOrDie("\"\\ud83d\\ude00\"").string, "\xf0\x9f\x98\x80");
  EXPECT_EQ(ParseOrDie("\"\\uffff\"").string, "\xef\xbf\xbf");
  // An escaped NUL is a real NUL byte, not the end of the string.
  const std::string nul = ParseOrDie("\"a\\u0000b\"").string;
  EXPECT_EQ(nul, std::string("a\0b", 3));
}

TEST(JsonTest, ControlCharactersRoundTripThroughJsonEscape) {
  // JsonEscape writes control characters as \u00XX; the reader must give
  // back the same bytes.
  std::string original;
  for (int c = 0; c < 0x20; ++c) original += static_cast<char>(c);
  original += "tail";
  std::string text = "\"";
  text += JsonEscape(original);
  text += '"';
  EXPECT_EQ(ParseOrDie(text).string, original);
}

TEST(JsonTest, RejectsRawControlCharactersAndBadUnicodeEscapes) {
  const std::string bad[] = {
      std::string("\"a\0b\"", 5),  // raw NUL
      "\"a\nb\"",                  // raw newline
      "\"a\tb\"",                  // raw tab
      "{\"k\x01\": 1}",            // raw control character in a key
      "\"\\u12\"",                 // short escape
      "\"\\u00g0\"",               // non-hex digit
      "\"\\u+123\"",               // sign is not a hex digit
      "\"\\ud83d\"",               // lone high surrogate
      "\"\\ud83dx\"",              // high surrogate, no escape after
      "\"\\ud83d\\u0041\"",        // high surrogate, then a non-surrogate
      "\"\\ud83d\\ud83d\"",        // high surrogate, then another high one
      "\"\\ude00\"",               // lone low surrogate
  };
  for (const std::string& text : bad) {
    JsonValue value;
    std::string error;
    EXPECT_FALSE(ParseJson(text, value, &error)) << text;
    EXPECT_NE(error.find("at byte"), std::string::npos)
        << "error lacks byte offset for: " << text << " -> " << error;
  }
}

TEST(JsonTest, RejectsMalformedInputWithOffset) {
  const char* bad[] = {
      "",                      // empty
      "{",                     // unterminated object
      "[1, 2",                 // unterminated array
      "{\"a\" 1}",             // missing colon
      "{\"a\": 1,}",           // trailing comma
      "\"unterminated",        // unterminated string
      "nul",                   // bad literal
      "1 2",                   // trailing garbage
      "{\"a\": 1} x",          // trailing garbage after object
  };
  for (const char* text : bad) {
    JsonValue value;
    std::string error;
    EXPECT_FALSE(ParseJson(text, value, &error)) << text;
    EXPECT_NE(error.find("at byte"), std::string::npos)
        << "error lacks byte offset for: " << text << " -> " << error;
  }
}

// Nesting `depth` arrays, or objects under key "k", around a 0.
std::string Nested(int depth, bool objects) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += objects ? "{\"k\":" : "[";
  text += "0";
  for (int i = 0; i < depth; ++i) text += objects ? "}" : "]";
  return text;
}

TEST(JsonTest, AcceptsNestingUpToTheCap) {
  for (const bool objects : {false, true}) {
    const JsonValue value = ParseOrDie(Nested(kMaxJsonDepth, objects));
    EXPECT_EQ(value.type, objects ? JsonValue::Type::kObject
                                  : JsonValue::Type::kArray);
  }
}

TEST(JsonTest, RejectsNestingPastTheCapWithOffset) {
  for (const bool objects : {false, true}) {
    JsonValue value;
    std::string error;
    EXPECT_FALSE(ParseJson(Nested(kMaxJsonDepth + 1, objects), value, &error));
    EXPECT_NE(error.find("nesting too deep at byte"), std::string::npos)
        << error;
  }
  // Far past the cap, and unterminated: without the cap the reader's
  // recursion overflows the stack long before it reaches the end.
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson(std::string(200000, '['), value, &error));
  EXPECT_EQ(error, "nesting too deep at byte " +
                       std::to_string(kMaxJsonDepth + 1));
}

TEST(JsonTest, ErrorPointerIsOptional) {
  JsonValue value;
  EXPECT_FALSE(ParseJson("{", value));  // must not crash with null error.
}

TEST(JsonTest, JsonNumberSpellsIntegersWithoutDecimalPoint) {
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-7.0), "-7");
  EXPECT_EQ(JsonNumber(2.5), "2.5");
}

}  // namespace
}  // namespace campion::util
