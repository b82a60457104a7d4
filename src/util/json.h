#pragma once

// Minimal JSON helpers shared by the report writers (core's diff reports,
// obs's trace files, bench's metric dumps) and the trace-consuming tools.
//
// Emission: JsonEscape / JsonNumber keep the writers dependency-free.
//
// Reading: JsonValue + ParseJson are a small recursive-descent reader for
// the documents this repo emits (campion traces, BENCH metric dumps) and
// the daemon's request bodies. Objects preserve key order so consumers can
// check emission-order guarantees. Strings follow RFC 8259: raw control
// characters are rejected, and \u escapes (surrogate pairs included)
// decode to UTF-8, so a client that escapes non-ASCII text sends the same
// bytes as one that does not. Numbers lean on strtod.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace campion::util {

// Escapes a string for embedding in a JSON string literal (quotes,
// backslashes, control characters).
std::string JsonEscape(const std::string& text);

// Formats a double the way our JSON files spell numbers: integral values
// without a decimal point (counters stay grep-friendly), everything else
// via the default ostream formatting.
std::string JsonNumber(double value);

// One parsed JSON value. Arrays/objects own their elements; objects keep
// key order as written.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsBool() const { return type == Type::kBool; }
  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }

  // First value under `key`, or nullptr (also when not an object). The
  // mutable form lets a reader move a large string out of the document.
  const JsonValue* Find(const std::string& key) const;
  JsonValue* Find(const std::string& key);
  // Find + number access with a default; sugar for metric lookups.
  double NumberOr(const std::string& key, double fallback) const;
};

// Deepest nesting of objects and arrays ParseJson accepts. The reader
// recurses once per level, and the daemon feeds it untrusted request
// bodies, so a deeper document is rejected rather than allowed to exhaust
// the stack. Everything this repo emits nests a handful of levels.
constexpr int kMaxJsonDepth = 256;

// Parses `text` into `out`. Returns false on malformed input, trailing
// garbage or nesting deeper than kMaxJsonDepth; `error`, when non-null,
// receives a one-line description with a byte offset.
bool ParseJson(const std::string& text, JsonValue& out,
               std::string* error = nullptr);

}  // namespace campion::util
