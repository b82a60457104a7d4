#include "util/source_span.h"

namespace campion::util {

std::string SourceSpan::LocationString() const {
  if (!HasLocation()) return "<generated>";
  std::string out = file.empty() ? "<input>" : file;
  out += ':';
  out += std::to_string(first_line);
  if (last_line > first_line) {
    out += '-';
    out += std::to_string(last_line);
  }
  return out;
}

}  // namespace campion::util
