#include "frontend/loader.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "cisco/cisco_parser.h"
#include "juniper/juniper_parser.h"
#include "obs/mem_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace campion::frontend {
namespace {

// What an occurrence of a DetectVendor marker says about the vendor.
enum class MarkerKind {
  kJuniper,      // One point for JunOS.
  kCisco,        // One point for IOS.
  kJuniperPair,  // One point for JunOS when both pair markers occur.
};

struct Marker {
  std::string_view text;
  MarkerKind kind;
};

constexpr Marker kMarkers[] = {
    // JunOS structure markers.
    {"policy-options", MarkerKind::kJuniper},
    {"routing-options", MarkerKind::kJuniper},
    {"host-name", MarkerKind::kJuniper},
    {"policy-statement", MarkerKind::kJuniper},
    {"family inet", MarkerKind::kJuniper},
    {"prefix-length-range", MarkerKind::kJuniper},
    // Braces with semicolons are a strong JunOS signal.
    {"{", MarkerKind::kJuniperPair},
    {";", MarkerKind::kJuniperPair},
    // IOS directives.
    {"hostname ", MarkerKind::kCisco},
    {"ip route ", MarkerKind::kCisco},
    {"router bgp", MarkerKind::kCisco},
    {"router ospf", MarkerKind::kCisco},
    {"route-map ", MarkerKind::kCisco},
    {"ip prefix-list", MarkerKind::kCisco},
    {"access-list", MarkerKind::kCisco},
    {"ip community-list", MarkerKind::kCisco},
};
constexpr int kMarkerCount = static_cast<int>(std::size(kMarkers));
constexpr std::uint32_t kAllMarkers = (1u << kMarkerCount) - 1;

// The markers of one kind, as bits of kMarkers.
constexpr std::uint32_t MarkersOf(MarkerKind kind) {
  std::uint32_t bits = 0;
  for (int marker = 0; marker < kMarkerCount; ++marker) {
    if (kMarkers[marker].kind == kind) bits |= 1u << marker;
  }
  return bits;
}

// For each byte, the markers that begin with it, as bits of kMarkers.
constexpr std::array<std::uint32_t, 256> kMarkersByFirstByte = [] {
  std::array<std::uint32_t, 256> table{};
  for (int marker = 0; marker < kMarkerCount; ++marker) {
    table[static_cast<unsigned char>(kMarkers[marker].text[0])] |=
        1u << marker;
  }
  return table;
}();

// Every marker but the one-byte pair is at least four bytes long. A 2^16-bit
// set holds a hash of each one's first four bytes; testing the four bytes at
// a position against it rejects nearly every position with one load and one
// multiply, leaving starts_with for the rare hits.
constexpr unsigned HashPrefix(std::uint32_t four_bytes) {
  return (four_bytes * 0x9E3779B1u) >> 16;
}

constexpr std::uint32_t LoadPrefix(const unsigned char* p) {
  return p[0] | p[1] << 8 | p[2] << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

constexpr std::array<std::uint64_t, 1024> kPrefixHashes = [] {
  std::array<std::uint64_t, 1024> bits{};
  for (const Marker& marker : kMarkers) {
    if (marker.text.size() < 4) continue;
    unsigned char prefix[4] = {};
    for (int k = 0; k < 4; ++k) {
      prefix[k] = static_cast<unsigned char>(marker.text[k]);
    }
    const unsigned hash = HashPrefix(LoadPrefix(prefix));
    bits[hash >> 6] |= std::uint64_t{1} << (hash & 63);
  }
  return bits;
}();

std::size_t CountLines(const std::string& text) {
  std::size_t newlines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  // A final line without a trailing newline still counts.
  return newlines + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

}  // namespace

std::optional<ir::Vendor> ParseVendorName(const std::string& name) {
  if (name == "cisco") return ir::Vendor::kCisco;
  if (name == "juniper") return ir::Vendor::kJuniper;
  if (name.empty() || name == "auto") return ir::Vendor::kUnknown;
  return std::nullopt;
}

ir::Vendor DetectVendor(const std::string& text) {
  // One pass over the text finds every marker at once. A marker scores when
  // it occurs anywhere, overlapping occurrences included.
  std::uint32_t found = 0;
  const std::string_view view(text);
  const auto* bytes = reinterpret_cast<const unsigned char*>(view.data());
  auto match_at = [&](std::size_t i) {
    std::uint32_t candidates = kMarkersByFirstByte[bytes[i]] & ~found;
    while (candidates != 0) {
      const int marker = std::countr_zero(candidates);
      candidates &= candidates - 1;
      if (view.substr(i).starts_with(kMarkers[marker].text)) {
        found |= 1u << marker;
      }
    }
  };
  constexpr std::uint32_t kPair = MarkersOf(MarkerKind::kJuniperPair);
  std::size_t i = 0;
  for (; i + 4 <= view.size() && found != kAllMarkers; ++i) {
    const unsigned hash = HashPrefix(LoadPrefix(bytes + i));
    if ((kPrefixHashes[hash >> 6] >> (hash & 63) & 1) != 0 ||
        ((found & kPair) != kPair && (bytes[i] == '{' || bytes[i] == ';'))) {
      match_at(i);
    }
  }
  // Only the one-byte markers fit in the last three bytes.
  for (; i < view.size() && found != kAllMarkers; ++i) match_at(i);
  const int juniper_score =
      std::popcount(found & MarkersOf(MarkerKind::kJuniper)) +
      ((found & kPair) == kPair ? 1 : 0);
  const int cisco_score = std::popcount(found & MarkersOf(MarkerKind::kCisco));

  if (juniper_score == 0 && cisco_score == 0) return ir::Vendor::kUnknown;
  return juniper_score > cisco_score ? ir::Vendor::kJuniper
                                     : ir::Vendor::kCisco;
}

LoadResult LoadConfig(const std::string& text, const std::string& filename,
                      ir::Vendor vendor) {
  obs::ScopedSpan span("parse", filename);
  if (vendor == ir::Vendor::kUnknown) {
    vendor = DetectVendor(text);
    if (vendor == ir::Vendor::kUnknown) {
      throw std::runtime_error(filename +
                               ": cannot detect configuration format");
    }
  }
  std::size_t lines = CountLines(text);
  span.AddAttr("lines", static_cast<double>(lines));
  span.AddAttr("bytes", static_cast<double>(text.size()));
  obs::Count("parse.files");
  obs::Count("parse.lines", static_cast<double>(lines));
  obs::Count("parse.bytes", static_cast<double>(text.size()));
  LoadResult result;
  if (vendor == ir::Vendor::kCisco) {
    auto parsed = cisco::ParseCiscoConfig(text, filename);
    result.config = std::move(parsed.config);
    result.diagnostics = std::move(parsed.diagnostics);
  } else {
    auto parsed = juniper::ParseJuniperConfig(text, filename);
    result.config = std::move(parsed.config);
    result.diagnostics = std::move(parsed.diagnostics);
  }
  span.AddAttr("diagnostics", static_cast<double>(result.diagnostics.size()));
  obs::RecordSpanMemory(span);
  return result;
}

LoadResult LoadConfigFile(const std::string& path, ir::Vendor vendor) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return LoadConfig(buffer.str(), path, vendor);
}

std::pair<LoadResult, LoadResult> LoadBoth(
    unsigned num_threads, const std::function<LoadResult()>& load1,
    const std::function<LoadResult()>& load2) {
  obs::MetricsSink* metrics_sink = &obs::CurrentMetrics();
  LoadResult results[2];
  std::vector<obs::Span> spans[2];
  util::RunParallel(num_threads, 2, [&](std::size_t i) {
    obs::MetricsScope metrics(*metrics_sink);
    obs::TaskCapture capture;
    results[i] = (i == 0 ? load1 : load2)();
    spans[i] = capture.Finish();
  });
  obs::AttachSpans(std::move(spans[0]));
  obs::AttachSpans(std::move(spans[1]));
  return {std::move(results[0]), std::move(results[1])};
}

}  // namespace campion::frontend
