// Tests for the minimal JSON reader in util/json: round-trips of the
// document shapes this repo emits (traces, metric dumps), key-order
// preservation, RFC 8259 string escapes, the nesting cap, and the
// malformed-input error paths the trace-diff tool and the daemon rely on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

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

// Appends code point `code` to `out` as UTF-8.
void AppendUtf8(std::uint32_t code, std::string& out) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | code >> 6);
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | code >> 12);
    out += static_cast<char>(0x80 | (code >> 6 & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | code >> 18);
    out += static_cast<char>(0x80 | (code >> 12 & 0x3F));
    out += static_cast<char>(0x80 | (code >> 6 & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

// Appends code point `code` as a JSON \u escape: one for the BMP, a
// surrogate pair above it.
void AppendEscaped(std::uint32_t code, std::string& out) {
  char buffer[16];
  if (code < 0x10000) {
    std::snprintf(buffer, sizeof(buffer), "\\u%04x", code);
  } else {
    code -= 0x10000;
    std::snprintf(buffer, sizeof(buffer), "\\u%04X\\u%04X",
                  0xD800 + (code >> 10), 0xDC00 + (code & 0x3FF));
  }
  out += buffer;
}

// Seeded strings of plain runs, control bytes, quotes, backslashes and
// multi-byte UTF-8 read back verbatim, whether written by JsonEscape (raw
// UTF-8) or with every non-ASCII code point as a \u escape (surrogate
// pairs above the BMP), alone or as values inside one document.
TEST(JsonTest, SeededStringsRoundTripThroughJsonEscape) {
  std::mt19937 rng(8259);
  auto pick = [&](std::uint32_t n) {
    return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng);
  };
  // A code point of each UTF-8 length, surrogates excluded.
  auto code_point = [&]() -> std::uint32_t {
    switch (pick(4)) {
      case 0: return 0x80 + pick(0x800 - 0x80);
      case 1: return 0x800 + pick(0xD800 - 0x800);
      case 2: return 0xE000 + pick(0x10000 - 0xE000);
      default: return 0x10000 + pick(0x110000 - 0x10000);
    }
  };
  std::string document = "[";
  std::vector<std::string> originals;
  for (int trial = 0; trial < 500; ++trial) {
    std::string original;  // The bytes the reader must give back.
    std::string escaped;   // The same, non-ASCII as \u escapes.
    const int pieces = static_cast<int>(pick(24));
    for (int i = 0; i < pieces; ++i) {
      switch (pick(5)) {
        case 0: {  // A plain run, long enough to cross any chunking.
          const std::string run(1 + pick(40),
                                static_cast<char>('a' + pick(26)));
          original += run;
          escaped += JsonEscape(run);
          break;
        }
        case 1: {  // A control byte.
          const std::string control(1, static_cast<char>(pick(0x20)));
          original += control;
          escaped += JsonEscape(control);
          break;
        }
        case 2: {  // Quotes, backslashes and a slash.
          const std::string special(1, "\"\\/"[pick(3)]);
          original += special;
          escaped += JsonEscape(special);
          break;
        }
        default: {  // Multi-byte UTF-8.
          const std::uint32_t code = code_point();
          AppendUtf8(code, original);
          AppendEscaped(code, escaped);
          break;
        }
      }
    }
    // Appends, not chained operator+: GCC 12 misreads the latter as an
    // overlapping copy (-Wrestrict).
    auto quoted = [](const std::string& body) {
      std::string text = "\"";
      text += body;
      text += '"';
      return text;
    };
    EXPECT_EQ(ParseOrDie(quoted(JsonEscape(original))).string, original)
        << "trial " << trial;
    EXPECT_EQ(ParseOrDie(quoted(escaped)).string, original)
        << "trial " << trial << ": " << escaped;
    document += trial > 0 ? ",{\"k\":" : "{\"k\":";
    document += quoted(escaped);
    document += ",\"raw\":";
    document += quoted(JsonEscape(original));
    document += '}';
    originals.push_back(std::move(original));
  }
  document += ']';
  const JsonValue parsed = ParseOrDie(document);
  ASSERT_EQ(parsed.array.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(parsed.array[i].Find("k")->string, originals[i]) << i;
    EXPECT_EQ(parsed.array[i].Find("raw")->string, originals[i]) << i;
  }
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
