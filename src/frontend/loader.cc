#include "frontend/loader.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

constexpr std::uint32_t kPairMarkers = MarkersOf(MarkerKind::kJuniperPair);
constexpr std::uint32_t kWordMarkers = kAllMarkers & ~kPairMarkers;

// Every marker but the one-byte pair is at least kMinWordMarker bytes long,
// so a kGram-byte window sampled every kStride bytes lies wholly inside any
// occurrence of one: the occurrence's windows start at the
// length - kGram + 1 >= kStride positions from its start on, and one of
// them is a multiple of kStride. Only those windows are looked up, and a
// hit is verified with starts_with.
constexpr std::size_t kGram = 4;
constexpr std::size_t kStride = 6;
constexpr std::size_t kMinWordMarker = [] {
  std::size_t shortest = SIZE_MAX;
  for (const Marker& marker : kMarkers) {
    if (marker.kind != MarkerKind::kJuniperPair) {
      shortest = std::min(shortest, marker.text.size());
    }
  }
  return shortest;
}();
static_assert(kStride + kGram - 1 <= kMinWordMarker);
static_assert(kMarkerCount <= 16);

constexpr std::uint32_t LoadGram(const unsigned char* p) {
  return p[0] | p[1] << 8 | p[2] << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

constexpr std::uint32_t LoadGram(std::string_view text, std::size_t at) {
  unsigned char gram[kGram] = {};
  for (std::size_t k = 0; k < kGram; ++k) {
    gram[k] = static_cast<unsigned char>(text[at + k]);
  }
  return LoadGram(gram);
}

constexpr unsigned kBucketBits = 12;
constexpr unsigned Bucket(std::uint32_t gram) {
  return (gram * 0x9E3779B1u) >> (32 - kBucketBits);
}

// One window of a marker: `gram` is the marker's bytes at `offset`.
struct GramEntry {
  std::uint32_t gram = 0;
  std::uint8_t offset = 0;
};

constexpr std::size_t kGramEntryCount = [] {
  std::size_t count = 0;
  for (const Marker& marker : kMarkers) {
    if (marker.kind != MarkerKind::kJuniperPair) {
      count += marker.text.size() - kGram + 1;
    }
  }
  return count;
}();

// Every window of every word marker, grouped by marker: marker m's windows
// are entries[first[m] .. first[m + 1]). Flat and constexpr: no heap, no
// static constructor.
struct GramTable {
  std::array<GramEntry, kGramEntryCount> entries{};
  std::array<std::uint16_t, kMarkerCount + 1> first{};
  // For each bucket, the markers that have a window hashing to it.
  std::array<std::uint16_t, 1u << kBucketBits> markers{};
};

constexpr GramTable kGrams = [] {
  GramTable table;
  std::size_t next = 0;
  for (int marker = 0; marker < kMarkerCount; ++marker) {
    table.first[marker] = static_cast<std::uint16_t>(next);
    const std::string_view text = kMarkers[marker].text;
    if (kMarkers[marker].kind == MarkerKind::kJuniperPair) continue;
    for (std::size_t offset = 0; offset + kGram <= text.size(); ++offset) {
      const std::uint32_t gram = LoadGram(text, offset);
      table.entries[next++] = {gram, static_cast<std::uint8_t>(offset)};
      table.markers[Bucket(gram)] |= static_cast<std::uint16_t>(1u << marker);
    }
  }
  table.first[kMarkerCount] = static_cast<std::uint16_t>(next);
  return table;
}();

}  // namespace

std::optional<ir::Vendor> ParseVendorName(const std::string& name) {
  if (name == "cisco") return ir::Vendor::kCisco;
  if (name == "juniper") return ir::Vendor::kJuniper;
  if (name.empty() || name == "auto") return ir::Vendor::kUnknown;
  return std::nullopt;
}

ir::Vendor DetectVendor(const std::string& text) {
  // A marker scores when it occurs anywhere, overlapping occurrences
  // included. The word markers are found on a stride of sampled windows,
  // the one-byte pair with memchr.
  std::uint32_t found = 0;
  const std::string_view view(text);
  const auto* bytes = reinterpret_cast<const unsigned char*>(view.data());
  for (std::size_t at = 0;
       at + kGram <= view.size() && found != kWordMarkers; at += kStride) {
    const std::uint32_t gram = LoadGram(bytes + at);
    std::uint32_t candidates = kGrams.markers[Bucket(gram)] & ~found;
    while (candidates != 0) {
      const int marker = std::countr_zero(candidates);
      candidates &= candidates - 1;
      for (int e = kGrams.first[marker]; e < kGrams.first[marker + 1]; ++e) {
        const GramEntry& entry = kGrams.entries[e];
        if (entry.gram == gram && entry.offset <= at &&
            view.substr(at - entry.offset)
                .starts_with(kMarkers[marker].text)) {
          found |= 1u << marker;
          break;
        }
      }
    }
  }
  const bool pair = std::memchr(view.data(), '{', view.size()) != nullptr &&
                    std::memchr(view.data(), ';', view.size()) != nullptr;
  const int juniper_score =
      std::popcount(found & MarkersOf(MarkerKind::kJuniper)) + (pair ? 1 : 0);
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
  LoadResult result;
  int lines = 0;
  if (vendor == ir::Vendor::kCisco) {
    auto parsed = cisco::ParseCiscoConfig(text, filename);
    result.config = std::move(parsed.config);
    result.diagnostics = std::move(parsed.diagnostics);
    lines = parsed.lines;
  } else {
    auto parsed = juniper::ParseJuniperConfig(text, filename);
    result.config = std::move(parsed.config);
    result.diagnostics = std::move(parsed.diagnostics);
    lines = parsed.lines;
  }
  // The parsers count the lines as they split them.
  span.AddAttr("lines", static_cast<double>(lines));
  span.AddAttr("bytes", static_cast<double>(text.size()));
  span.AddAttr("diagnostics", static_cast<double>(result.diagnostics.size()));
  obs::Count("parse.files");
  obs::Count("parse.lines", static_cast<double>(lines));
  obs::Count("parse.bytes", static_cast<double>(text.size()));
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
