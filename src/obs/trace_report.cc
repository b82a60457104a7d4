#include "obs/trace_report.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "util/json.h"
#include "util/text_table.h"

namespace campion::obs {
namespace {

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  out += util::JsonEscape(text);
  out += '"';
  return out;
}

void SpanToJson(const Span& span, int indent, std::string& out) {
  std::string pad(static_cast<std::size_t>(indent), ' ');
  out += pad + "{\n";
  out += pad + "  \"name\": " + Quoted(span.name) + ",\n";
  if (!span.detail.empty()) {
    out += pad + "  \"detail\": " + Quoted(span.detail) + ",\n";
  }
  out += pad + "  \"start_ns\": " + std::to_string(span.start_ns) + ",\n";
  out += pad + "  \"duration_ns\": " + std::to_string(span.duration_ns) +
         ",\n";
  if (!span.attrs.empty()) {
    out += pad + "  \"attrs\": {";
    for (std::size_t i = 0; i < span.attrs.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quoted(span.attrs[i].first) + ": " +
             util::JsonNumber(span.attrs[i].second);
    }
    out += "},\n";
  }
  out += pad + "  \"children\": [";
  for (std::size_t i = 0; i < span.children.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    SpanToJson(span.children[i], indent + 4, out);
  }
  out += span.children.empty() ? "]\n" : "\n" + pad + "  ]\n";
  out += pad + "}";
}

void AccumulatePhases(const Span& span, std::vector<PhaseTotal>& totals) {
  PhaseTotal* total = nullptr;
  for (auto& existing : totals) {
    if (existing.name == span.name) {
      total = &existing;
      break;
    }
  }
  if (total == nullptr) {
    totals.push_back({span.name, 0, 0, 0});
    total = &totals.back();
  }
  std::uint64_t child_ns = 0;
  for (const Span& child : span.children) child_ns += child.duration_ns;
  total->count += 1;
  total->total_ns += span.duration_ns;
  total->self_ns +=
      span.duration_ns > child_ns ? span.duration_ns - child_ns : 0;
  for (const Span& child : span.children) AccumulatePhases(child, totals);
}

std::string Milliseconds(std::uint64_t ns) {
  char buffer[32];
  snprintf(buffer, sizeof(buffer), "%.3f", static_cast<double>(ns) / 1e6);
  return buffer;
}

std::string MetricValue(double value) { return util::JsonNumber(value); }

// Looks up a metric by name; returns 0 when absent.
double Metric(const std::vector<std::pair<std::string, double>>& metrics,
              const std::string& name) {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Chrome Trace Event export.

// Span names that mark the root of one pooled per-pair task. Each gets its
// own synthetic thread lane, numbered in pair-declaration order — the
// declaration order is what the deterministic tree preserves, so the lane
// assignment is identical at any actual thread count.
bool IsWorkerSpanName(const std::string& name) {
  return name == "route_map_pair" || name == "acl_pair";
}

struct ChromeEvent {
  const Span* span;
  int tid;
};

// Pre-order walk assigning lanes: worker task roots open a fresh lane,
// their subtrees inherit it, everything else stays on the caller's lane.
void CollectChromeEvents(const Span& span, int tid, int& next_worker_tid,
                         std::vector<ChromeEvent>& events) {
  if (IsWorkerSpanName(span.name)) tid = next_worker_tid++;
  events.push_back({&span, tid});
  for (const Span& child : span.children) {
    CollectChromeEvents(child, tid, next_worker_tid, events);
  }
}

std::string Microseconds(std::uint64_t ns) {
  char buffer[40];
  snprintf(buffer, sizeof(buffer), "%.3f", static_cast<double>(ns) / 1e3);
  return buffer;
}

void AppendChromeMetadata(int tid, const std::string& thread_name,
                          std::string& out) {
  out += "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": " +
         std::to_string(tid) + ", \"args\": {\"name\": " + Quoted(thread_name) +
         "}},\n";
}

void StructureLines(const Span& span, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += span.name;
  if (!span.detail.empty()) out += " [" + span.detail + "]";
  out += "\n";
  for (const Span& child : span.children) {
    StructureLines(child, depth + 1, out);
  }
}

}  // namespace

std::string TraceToJson(
    const std::vector<Span>& roots,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::string out = "{\n";
  out += "  \"campion_trace_version\": 1,\n";
  out += "  \"spans\": [";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    SpanToJson(roots[i], 4, out);
  }
  out += roots.empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + Quoted(metrics[i].first) + ": " +
           util::JsonNumber(metrics[i].second);
  }
  out += metrics.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string TraceToChromeJson(
    const std::vector<Span>& roots,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::vector<ChromeEvent> events;
  int next_worker_tid = 1;  // 0 is the main lane.
  for (const Span& root : roots) {
    CollectChromeEvents(root, 0, next_worker_tid, events);
  }
  // Viewers expect events in timestamp order; under the pool, sibling
  // spans can finish out of start order. stable_sort keeps the pre-order
  // (parent before child) for equal timestamps.
  std::stable_sort(events.begin(), events.end(),
                   [](const ChromeEvent& a, const ChromeEvent& b) {
                     return a.span->start_ns < b.span->start_ns;
                   });

  std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"traceEvents\": [\n";
  out += "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 0, \"args\": {\"name\": \"campion\"}},\n";
  AppendChromeMetadata(0, "main", out);
  for (int tid = 1; tid < next_worker_tid; ++tid) {
    AppendChromeMetadata(tid, "pair-" + std::to_string(tid), out);
  }
  // The metadata lines above always end ",\n"; with no span events the
  // last comma would dangle before the closing bracket.
  if (events.empty()) out.erase(out.size() - 2, 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Span& span = *events[i].span;
    out += "    {\"name\": " + Quoted(span.name) +
           ", \"cat\": \"campion\", \"ph\": \"X\", \"ts\": " +
           Microseconds(span.start_ns) +
           ", \"dur\": " + Microseconds(span.duration_ns) +
           ", \"pid\": 1, \"tid\": " + std::to_string(events[i].tid);
    out += ", \"args\": {";
    bool first_arg = true;
    if (!span.detail.empty()) {
      out += "\"detail\": " + Quoted(span.detail);
      first_arg = false;
    }
    for (const auto& [key, value] : span.attrs) {
      if (!first_arg) out += ", ";
      out += Quoted(key) + ": " + util::JsonNumber(value);
      first_arg = false;
    }
    out += "}}";
    out += i + 1 < events.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"otherData\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + Quoted(metrics[i].first) + ": " +
           util::JsonNumber(metrics[i].second);
  }
  out += metrics.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::vector<PhaseTotal> PhaseTotals(const std::vector<Span>& roots) {
  std::vector<PhaseTotal> totals;
  for (const Span& root : roots) AccumulatePhases(root, totals);
  return totals;
}

std::string RenderStatsSummary(
    const std::vector<Span>& roots,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::string out = "Phase timings (wall clock, aggregated by span name):\n";
  util::TextTable phases({"Phase", "Count", "Total (ms)", "Self (ms)"});
  for (const PhaseTotal& total : PhaseTotals(roots)) {
    phases.AddRow({total.name, std::to_string(total.count),
                   Milliseconds(total.total_ns),
                   Milliseconds(total.self_ns)});
  }
  out += phases.Render();

  util::TextTable table({"Metric", "Value"});
  for (const auto& [name, value] : metrics) {
    table.AddRow({name, MetricValue(value)});
  }
  // Derived BDD rates, when the raw counters were collected.
  double cache_lookups = Metric(metrics, "bdd.cache_lookups");
  if (cache_lookups > 0) {
    char buffer[32];
    snprintf(buffer, sizeof(buffer), "%.4f",
             Metric(metrics, "bdd.cache_hits") / cache_lookups);
    table.AddRow({"bdd.cache_hit_rate (derived)", buffer});
  }
  double unique_lookups = Metric(metrics, "bdd.unique_lookups");
  if (unique_lookups > 0) {
    char buffer[32];
    snprintf(buffer, sizeof(buffer), "%.4f",
             Metric(metrics, "bdd.unique_hits") / unique_lookups);
    table.AddRow({"bdd.unique_hit_rate (derived)", buffer});
    snprintf(buffer, sizeof(buffer), "%.4f",
             Metric(metrics, "bdd.unique_probes") / unique_lookups);
    table.AddRow({"bdd.unique_avg_probe_len (derived)", buffer});
  }
  out += "\nMetrics (counters and watermarks):\n";
  out += table.Render();
  return out;
}

std::string TraceStructure(const std::vector<Span>& roots) {
  std::string out;
  for (const Span& root : roots) StructureLines(root, 0, out);
  return out;
}

}  // namespace campion::obs
