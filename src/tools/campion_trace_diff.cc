// campion_trace_diff: the perf/memory regression gate over campion traces.
//
//   campion_trace_diff [options] <baseline.json> <current.json>
//
// Both inputs are campion-format trace files (`campion --trace_out=FILE`,
// schema in docs/trace_format.md). The tool aligns the two span trees by
// their deterministic structure (name + detail, in sibling order — the part
// of a trace that is guaranteed identical across runs and thread counts),
// then prints per-phase wall-time deltas, changed metrics, and memory
// deltas as tables. bench/run_bench.sh runs it after every local bench run
// and CI runs it against the committed baseline traces.
//
// Options:
//   --fail_if_slower_pct=N      Exit 2 when total wall time grew more
//                               than N percent over the baseline.
//   --fail_if_mem_growth_pct=N  Exit 2 when any memory metric (mem.* or
//                               *bytes*) grew more than N percent.
//   --fail_if_unmatched         Exit 2 when any span fails to align.
//   --quiet                     Print nothing; gate via exit status only.
//   --help                      Print usage and exit 0.
//
// Exit status: 0 aligned and within thresholds, 2 a regression gate
// tripped, 1 on usage errors or unreadable/invalid input.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_report.h"
#include "util/json.h"
#include "util/text_table.h"

namespace {

using campion::obs::PhaseTotal;
using campion::obs::Span;
using campion::util::JsonValue;

struct Options {
  std::string baseline_path;
  std::string current_path;
  std::optional<double> fail_if_slower_pct;
  std::optional<double> fail_if_mem_growth_pct;
  bool fail_if_unmatched = false;
  bool quiet = false;
};

struct Trace {
  std::vector<Span> roots;
  std::map<std::string, double> metrics;
};

void PrintUsage(std::ostream& out) {
  out << "usage: campion_trace_diff [options] <baseline.json> "
         "<current.json>\n"
         "  compares two campion-format trace files "
         "(docs/trace_format.md)\n"
         "  --fail_if_slower_pct=N      exit 2 when total wall time grew\n"
         "                              more than N percent\n"
         "  --fail_if_mem_growth_pct=N  exit 2 when a memory metric grew\n"
         "                              more than N percent\n"
         "  --fail_if_unmatched         exit 2 when any span fails to "
         "align\n"
         "  --quiet                     only set the exit status\n"
         "  --help                      print this message and exit 0\n"
         "exit status: 0 ok, 2 regression gate tripped, 1 error\n";
}

bool ParsePercent(const std::string& value, const char* flag,
                  std::optional<double>* out) {
  char* end = nullptr;
  double pct = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0' || pct < 0) {
    std::cerr << "error: " << flag << " needs a non-negative number, got '"
              << value << "'\n";
    return false;
  }
  *out = pct;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* options, int* exit_code) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::string {
      return arg.substr(std::strlen(flag));
    };
    if (arg == "--help") {
      PrintUsage(std::cout);
      *exit_code = 0;
      return false;
    } else if (arg.rfind("--fail_if_slower_pct=", 0) == 0) {
      if (!ParsePercent(value_of("--fail_if_slower_pct="),
                        "--fail_if_slower_pct",
                        &options->fail_if_slower_pct)) {
        return false;
      }
    } else if (arg.rfind("--fail_if_mem_growth_pct=", 0) == 0) {
      if (!ParsePercent(value_of("--fail_if_mem_growth_pct="),
                        "--fail_if_mem_growth_pct",
                        &options->fail_if_mem_growth_pct)) {
        return false;
      }
    } else if (arg == "--fail_if_unmatched") {
      options->fail_if_unmatched = true;
    } else if (arg == "--quiet") {
      options->quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown option '" << arg << "'\n";
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return false;
  options->baseline_path = positional[0];
  options->current_path = positional[1];
  return true;
}

// Rebuilds an obs::Span from its trace-file JSON object.
bool SpanFromJson(const JsonValue& value, Span& out) {
  if (!value.IsObject()) return false;
  const JsonValue* name = value.Find("name");
  if (name == nullptr || !name->IsString()) return false;
  out.name = name->string;
  if (const JsonValue* detail = value.Find("detail")) {
    out.detail = detail->string;
  }
  out.start_ns =
      static_cast<std::uint64_t>(value.NumberOr("start_ns", 0.0));
  out.duration_ns =
      static_cast<std::uint64_t>(value.NumberOr("duration_ns", 0.0));
  if (const JsonValue* attrs = value.Find("attrs")) {
    for (const auto& [key, attr] : attrs->object) {
      if (attr.IsNumber()) out.attrs.emplace_back(key, attr.number);
    }
  }
  if (const JsonValue* children = value.Find("children")) {
    for (const JsonValue& child : children->array) {
      Span parsed;
      if (!SpanFromJson(child, parsed)) return false;
      out.children.push_back(std::move(parsed));
    }
  }
  return true;
}

// Loads and validates one campion-format trace file. On failure prints a
// clear message to stderr and returns nullopt.
std::optional<Trace> LoadTrace(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "error: cannot read trace file '" << path << "'\n";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  JsonValue doc;
  std::string parse_error;
  if (!campion::util::ParseJson(buffer.str(), doc, &parse_error)) {
    std::cerr << "error: " << path << ": invalid JSON (" << parse_error
              << ")\n";
    return std::nullopt;
  }
  if (!doc.IsObject() || doc.Find("campion_trace_version") == nullptr) {
    std::cerr << "error: " << path
              << ": not a campion-format trace (missing "
                 "campion_trace_version; chrome-format traces cannot be "
                 "diffed — re-run with --trace_format=campion)\n";
    return std::nullopt;
  }
  Trace trace;
  if (const JsonValue* spans = doc.Find("spans")) {
    for (const JsonValue& span : spans->array) {
      Span parsed;
      if (!SpanFromJson(span, parsed)) {
        std::cerr << "error: " << path << ": malformed span object\n";
        return std::nullopt;
      }
      trace.roots.push_back(std::move(parsed));
    }
  }
  if (const JsonValue* metrics = doc.Find("metrics")) {
    for (const auto& [key, value] : metrics->object) {
      if (value.IsNumber()) trace.metrics[key] = value.number;
    }
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Structural alignment.

struct Alignment {
  std::size_t matched = 0;
  std::size_t baseline_only = 0;
  std::size_t current_only = 0;

  std::size_t BaselineTotal() const { return matched + baseline_only; }
  double MatchedPct() const {
    std::size_t denom =
        std::max(BaselineTotal(), matched + current_only);
    return denom == 0 ? 100.0
                      : 100.0 * static_cast<double>(matched) /
                            static_cast<double>(denom);
  }
};

std::string SpanKey(const Span& span) {
  return span.name + '\x1f' + span.detail;
}

std::size_t CountSpans(const std::vector<Span>& spans) {
  std::size_t count = spans.size();
  for (const Span& span : spans) count += CountSpans(span.children);
  return count;
}

// Matches two sibling lists in order: each baseline span takes the first
// not-yet-matched current span with the same (name, detail) key, and the
// pair's subtrees align recursively. Two traces of the same comparison
// have identical deterministic structure, so everything pairs positionally;
// divergent traces degrade to counting the unmatched subtrees.
void AlignSiblings(const std::vector<Span>& baseline,
                   const std::vector<Span>& current,
                   Alignment& alignment) {
  std::map<std::string, std::vector<std::size_t>> current_by_key;
  for (std::size_t i = 0; i < current.size(); ++i) {
    current_by_key[SpanKey(current[i])].push_back(i);
  }
  std::vector<bool> current_matched(current.size(), false);
  std::map<std::string, std::size_t> cursor;
  for (const Span& base_span : baseline) {
    const std::string key = SpanKey(base_span);
    auto it = current_by_key.find(key);
    std::size_t& next = cursor[key];
    if (it == current_by_key.end() || next >= it->second.size()) {
      alignment.baseline_only += 1 + CountSpans(base_span.children);
      continue;
    }
    std::size_t current_index = it->second[next++];
    current_matched[current_index] = true;
    alignment.matched += 1;
    AlignSiblings(base_span.children, current[current_index].children,
                  alignment);
  }
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (!current_matched[i]) {
      alignment.current_only += 1 + CountSpans(current[i].children);
    }
  }
}

// ---------------------------------------------------------------------------
// Delta rendering.

std::string FormatMs(std::uint64_t ns) {
  char buffer[32];
  snprintf(buffer, sizeof(buffer), "%.3f", static_cast<double>(ns) / 1e6);
  return buffer;
}

std::string FormatPct(double base, double current) {
  if (base == 0.0) return current == 0.0 ? "+0.0%" : "+inf%";
  char buffer[32];
  snprintf(buffer, sizeof(buffer), "%+.1f%%",
           100.0 * (current - base) / base);
  return buffer;
}

// Growth over the baseline in percent. A value appearing from a zero (or
// absent) baseline is infinite growth — it must trip any finite gate, not
// silently read as 0%: a zero-wall baseline usually means the baseline
// trace is truncated or doctored, the one case a regression gate exists
// to catch.
double GrowthPct(double base, double current) {
  if (base <= 0.0) {
    return current > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return 100.0 * (current - base) / base;
}

bool IsMemoryMetric(const std::string& name) {
  return name.rfind("mem.", 0) == 0 ||
         name.find("bytes") != std::string::npos;
}

std::uint64_t TotalWallNs(const std::vector<Span>& roots) {
  std::uint64_t total = 0;
  for (const Span& root : roots) total += root.duration_ns;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  int exit_code = 1;
  if (!ParseArgs(argc, argv, &options, &exit_code)) {
    if (exit_code == 0) return 0;
    PrintUsage(std::cerr);
    return 1;
  }

  std::optional<Trace> baseline = LoadTrace(options.baseline_path);
  if (!baseline.has_value()) return 1;
  std::optional<Trace> current = LoadTrace(options.current_path);
  if (!current.has_value()) return 1;

  // Structural alignment over the whole forest.
  Alignment alignment;
  AlignSiblings(baseline->roots, current->roots, alignment);

  // Per-phase wall-time deltas, aggregated by span name like --stats.
  std::vector<PhaseTotal> base_phases =
      campion::obs::PhaseTotals(baseline->roots);
  std::vector<PhaseTotal> cur_phases =
      campion::obs::PhaseTotals(current->roots);
  auto phase_named = [](const std::vector<PhaseTotal>& phases,
                        const std::string& name) -> const PhaseTotal* {
    for (const PhaseTotal& phase : phases) {
      if (phase.name == name) return &phase;
    }
    return nullptr;
  };

  std::uint64_t base_wall = TotalWallNs(baseline->roots);
  std::uint64_t cur_wall = TotalWallNs(current->roots);

  if (!options.quiet) {
    char pct[32];
    snprintf(pct, sizeof(pct), "%.1f", alignment.MatchedPct());
    std::cout << "Trace alignment: " << alignment.matched << " span(s) "
              << "matched (" << pct << "%), " << alignment.baseline_only
              << " baseline-only, " << alignment.current_only
              << " current-only\n\n";

    std::cout << "Phase wall-time deltas (aggregated by span name):\n";
    campion::util::TextTable phases(
        {"Phase", "Count", "Base (ms)", "Cur (ms)", "Delta"});
    for (const PhaseTotal& base_phase : base_phases) {
      const PhaseTotal* cur_phase = phase_named(cur_phases, base_phase.name);
      std::uint64_t cur_ns = cur_phase == nullptr ? 0 : cur_phase->total_ns;
      std::uint64_t cur_count = cur_phase == nullptr ? 0 : cur_phase->count;
      phases.AddRow({base_phase.name,
                     std::to_string(base_phase.count) + " -> " +
                         std::to_string(cur_count),
                     FormatMs(base_phase.total_ns), FormatMs(cur_ns),
                     FormatPct(static_cast<double>(base_phase.total_ns),
                               static_cast<double>(cur_ns))});
    }
    for (const PhaseTotal& cur_phase : cur_phases) {
      if (phase_named(base_phases, cur_phase.name) != nullptr) continue;
      phases.AddRow({cur_phase.name, "0 -> " + std::to_string(cur_phase.count),
                     "0.000", FormatMs(cur_phase.total_ns), "new"});
    }
    phases.AddRow({"(total wall)", "", FormatMs(base_wall),
                   FormatMs(cur_wall),
                   FormatPct(static_cast<double>(base_wall),
                             static_cast<double>(cur_wall))});
    std::cout << phases.Render();

    // Metric deltas: changed values only, memory metrics always (they are
    // what --fail_if_mem_growth_pct gates on).
    campion::util::TextTable metrics({"Metric", "Base", "Cur", "Delta"});
    std::size_t unchanged = 0;
    std::map<std::string, double> all_keys = baseline->metrics;
    all_keys.insert(current->metrics.begin(), current->metrics.end());
    for (const auto& [name, unused] : all_keys) {
      auto base_it = baseline->metrics.find(name);
      auto cur_it = current->metrics.find(name);
      double base_value =
          base_it == baseline->metrics.end() ? 0.0 : base_it->second;
      double cur_value =
          cur_it == current->metrics.end() ? 0.0 : cur_it->second;
      if (base_value == cur_value && !IsMemoryMetric(name)) {
        ++unchanged;
        continue;
      }
      metrics.AddRow({name, campion::util::JsonNumber(base_value),
                      campion::util::JsonNumber(cur_value),
                      FormatPct(base_value, cur_value)});
    }
    std::cout << "\nMetric deltas (changed values and memory metrics; "
              << unchanged << " unchanged hidden):\n"
              << metrics.Render();
  }

  // Regression gates.
  std::vector<std::string> tripped;
  if (options.fail_if_unmatched &&
      alignment.baseline_only + alignment.current_only > 0) {
    tripped.push_back(
        "unaligned spans: " + std::to_string(alignment.baseline_only) +
        " baseline-only, " + std::to_string(alignment.current_only) +
        " current-only");
  }
  if (options.fail_if_slower_pct.has_value()) {
    double growth = GrowthPct(static_cast<double>(base_wall),
                              static_cast<double>(cur_wall));
    if (growth > *options.fail_if_slower_pct) {
      char buffer[192];
      if (std::isinf(growth)) {
        snprintf(buffer, sizeof(buffer),
                 "total wall time grew from a zero-wall baseline to %s ms "
                 "(limit %.1f%%); the baseline trace looks truncated or "
                 "doctored",
                 FormatMs(cur_wall).c_str(), *options.fail_if_slower_pct);
      } else {
        snprintf(buffer, sizeof(buffer),
                 "total wall time grew %.1f%% (limit %.1f%%)", growth,
                 *options.fail_if_slower_pct);
      }
      tripped.push_back(buffer);
    }
  }
  if (options.fail_if_mem_growth_pct.has_value()) {
    for (const auto& [name, base_value] : baseline->metrics) {
      if (!IsMemoryMetric(name)) continue;
      auto cur_it = current->metrics.find(name);
      if (cur_it == current->metrics.end()) continue;
      double growth = GrowthPct(base_value, cur_it->second);
      if (growth > *options.fail_if_mem_growth_pct) {
        char buffer[192];
        if (std::isinf(growth)) {
          snprintf(buffer, sizeof(buffer),
                   "%s grew from a zero baseline to %s (limit %.1f%%)",
                   name.c_str(),
                   campion::util::JsonNumber(cur_it->second).c_str(),
                   *options.fail_if_mem_growth_pct);
        } else {
          snprintf(buffer, sizeof(buffer), "%s grew %.1f%% (limit %.1f%%)",
                   name.c_str(), growth, *options.fail_if_mem_growth_pct);
        }
        tripped.push_back(buffer);
      }
    }
  }

  if (!tripped.empty()) {
    for (const std::string& reason : tripped) {
      std::cerr << "regression: " << reason << "\n";
    }
    return 2;
  }
  return 0;
}
