#include "util/json.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace campion::util {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (value == static_cast<double>(static_cast<long long>(value))) {
    return std::to_string(static_cast<long long>(value));
  }
  std::ostringstream out;
  out << value;
  return out.str();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue* JsonValue::Find(const std::string& key) {
  return const_cast<JsonValue*>(std::as_const(*this).Find(key));
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->IsNumber() ? value->number : fallback;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue& out) {
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const char* what) {
    if (error_ != nullptr) {
      *error_ = std::string(what) + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue& out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return ParseString(out.string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  // Objects and arrays recurse once per level, so the nesting cap is what
  // keeps a hostile body from overflowing the stack.
  bool ParseObject(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!Consume('{')) return Fail("expected '{'");
    if (++depth_ > kMaxJsonDepth) return Fail("nesting too deep");
    if (Consume('}')) {
      --depth_;
      return true;
    }
    do {
      SkipSpace();
      std::string key;
      if (!ParseString(key)) return Fail("expected object key");
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
    } while (Consume(','));
    if (!Consume('}')) return Fail("expected '}'");
    --depth_;
    return true;
  }

  bool ParseArray(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!Consume('[')) return Fail("expected '['");
    if (++depth_ > kMaxJsonDepth) return Fail("nesting too deep");
    if (Consume(']')) {
      --depth_;
      return true;
    }
    do {
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.array.push_back(std::move(value));
    } while (Consume(','));
    if (!Consume(']')) return Fail("expected ']'");
    --depth_;
    return true;
  }

  bool ParseString(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    for (;;) {
      // The run of plain bytes up to the next quote, backslash or control
      // byte goes in with one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') break;
      if (c != '\\') return Fail("control character in string");
      if (++pos_ >= text_.size()) return Fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u':
          if (!ParseUnicodeEscape(out)) return false;
          break;
        default: return Fail("unknown escape");
      }
    }
    ++pos_;  // Closing quote.
    return true;
  }

  // Reads the four hex digits of a \u escape into `unit`.
  bool ParseHex4(std::uint32_t& unit) {
    if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
    unit = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_];
      std::uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return Fail("non-hex digit in \\u escape");
      }
      unit = unit << 4 | digit;
      ++pos_;
    }
    return true;
  }

  // Decodes a \u escape (the "\u" already read) to UTF-8: a code point
  // outside U+D800..U+DFFF, or a high surrogate followed by an escaped low
  // one. A lone surrogate is malformed.
  bool ParseUnicodeEscape(std::string& out) {
    std::uint32_t code = 0;
    if (!ParseHex4(code)) return false;
    if (code >= 0xDC00 && code <= 0xDFFF) return Fail("lone low surrogate");
    if (code >= 0xD800 && code <= 0xDBFF) {
      std::uint32_t low = 0;
      if (text_.compare(pos_, 2, "\\u") != 0) {
        return Fail("lone high surrogate");
      }
      pos_ += 2;
      if (!ParseHex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return Fail("lone high surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
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
    return true;
  }

  bool ParseNumber(JsonValue& out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    double value = std::strtod(start, &end);
    if (end == start) return Fail("expected value");
    pos_ += static_cast<std::size_t>(end - start);
    out.type = JsonValue::Type::kNumber;
    out.number = value;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // Open objects and arrays around pos_.
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue& out, std::string* error) {
  return Parser(text, error).Parse(out);
}

}  // namespace campion::util
