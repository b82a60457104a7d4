// The metric catalogue, the statistics behind it, and the per-layer
// metrics derived from a traced pass.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>

#include "bench/e2e/e2e.h"
#include "obs/trace_report.h"

namespace campion::bench_e2e {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"throughput_per_s", "pairs/s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"frontend.parse_ms", "ms"},
      {"frontend.parse_mb_per_s", "MB/s"},
      {"encode.template_ms", "ms"},
      {"encode.encode_ms", "ms"},
      {"encode.template_hits", "count"},
      {"core.diff_ms", "ms"},
      {"core.match_policies_ms", "ms"},
      {"core.pair_self_ms", "ms"},
      {"core.class_intersect_ms", "ms"},
      {"core.structural_ms", "ms"},
      {"core.render_ms", "ms"},
      {"core.header_localize_share", "ratio"},
      {"core.header_localize_calls", "count"},
      {"core.header_localize_dag_nodes", "count"},
      {"util.pair_parallelism", "ratio"},
      {"bdd.ite_cache_hit_rate", "ratio"},
      {"bdd.unique_probe_len", "ratio"},
      {"bdd.arena_nodes", "count"},
      {"bdd.peak_live_nodes", "count"},
      {"bdd.sift_passes", "count"},
      {"server.wait_share", "ratio"},
      {"server.result_cache_hit_ratio", "ratio"},
      {"server.template_cache_hit_ratio", "ratio"},
      {"server.result_cache_resident_mb", "MiB"},
      {"server.template_cache_resident_mb", "MiB"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return specs;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(position);
  if (low + 1 >= values.size()) return values.back();
  const double fraction = position - static_cast<double>(low);
  return values[low] + fraction * (values[low + 1] - values[low]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::pair<double, double> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  auto quartile = [&](long i) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {quartile(1), quartile(3)};
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

void RunResult::Fail(const std::string& what, bool counts_as_op) {
  if (counts_as_op) ++failed;
  constexpr std::size_t kKeptErrors = 8;
  if (errors.size() < kKeptErrors) errors.push_back(what);
}

void AddLatencyMetrics(const std::vector<double>& latencies_ms,
                       double pairs_completed, double wall_seconds,
                       RunResult* result) {
  result->end_to_end["latency_p50_ms"] = Quantile(latencies_ms, 0.50);
  result->end_to_end["latency_p95_ms"] = Quantile(latencies_ms, 0.95);
  result->end_to_end["throughput_per_s"] =
      wall_seconds > 0 ? pairs_completed / wall_seconds : 0.0;
  result->notes.push_back(
      "latency samples: " + std::to_string(latencies_ms.size()) + " (" +
      FormatNumber(0.05 * static_cast<double>(latencies_ms.size())) +
      " beyond p95); measured wall " + FormatNumber(wall_seconds) + " s");
}

void FoldTraceMetrics(
    const std::vector<std::pair<std::string, double>>& snapshot,
    TracedPass* pass) {
  for (const auto& [name, value] : snapshot) {
    double& slot = pass->metrics[name];
    if (name.find("peak") != std::string::npos ||
        name.find("load_factor") != std::string::npos ||
        name.find("resident_bytes") != std::string::npos) {
      slot = std::max(slot, value);
    } else {
      slot += value;
    }
  }
}

void AddTracedLayerMetrics(const TracedPass& pass, MetricValues* out) {
  std::map<std::string, obs::PhaseTotal> phases;
  for (obs::PhaseTotal& phase : obs::PhaseTotals(pass.roots)) {
    phases[phase.name] = std::move(phase);
  }
  auto total_ms = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0
                              : static_cast<double>(it->second.total_ns) / 1e6;
  };
  auto self_ms = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0
                              : static_cast<double>(it->second.self_ns) / 1e6;
  };
  auto metric = [&](const char* name) {
    const auto it = pass.metrics.find(name);
    return it == pass.metrics.end() ? 0.0 : it->second;
  };
  auto ratio = [](double numerator, double denominator) {
    return denominator > 0 ? numerator / denominator : 0.0;
  };
  const double pairs = std::max(pass.pairs, 1.0);

  // Pair tasks run in parallel, so a layer's share of a comparison is taken
  // against the summed self time of every span inside config_diff (the
  // comparison's work), not against its wall time.
  double diff_work_ns = 0;
  double localize_ns = 0;
  double localize_calls = 0;
  double dag_nodes = 0;
  std::function<void(const obs::Span&, bool)> walk =
      [&](const obs::Span& span, bool in_diff) {
        in_diff = in_diff || span.name == "config_diff";
        std::uint64_t child_ns = 0;
        for (const obs::Span& child : span.children) {
          child_ns += child.duration_ns;
        }
        const double self_ns =
            span.duration_ns > child_ns
                ? static_cast<double>(span.duration_ns - child_ns)
                : 0.0;
        if (in_diff) diff_work_ns += self_ns;
        if (span.name == "header_localize") {
          ++localize_calls;
          localize_ns += self_ns;
          for (const auto& [key, value] : span.attrs) {
            if (key == "dag_nodes") dag_nodes += value;
          }
        }
        for (const obs::Span& child : span.children) walk(child, in_diff);
      };
  for (const obs::Span& root : pass.roots) walk(root, false);

  const double diff_ms = total_ms("config_diff");
  MetricValues& m = *out;
  m["encode.template_ms"] = total_ms("encode_template") / pairs;
  m["encode.encode_ms"] = self_ms("encode") / pairs;
  m["encode.template_hits"] = metric("encode.template_hits") / pairs;
  m["core.match_policies_ms"] = total_ms("match_policies") / pairs;
  m["core.pair_self_ms"] =
      (self_ms("route_map_pair") + self_ms("acl_pair")) / pairs;
  m["core.class_intersect_ms"] = self_ms("class_intersect") / pairs;
  m["core.structural_ms"] = total_ms("structural") / pairs;
  m["core.header_localize_share"] = ratio(localize_ns, diff_work_ns);
  m["core.header_localize_calls"] = localize_calls / pairs;
  m["core.header_localize_dag_nodes"] = dag_nodes / pairs;
  // Summed pair-task time over the config_diff wall: how many pairs ran at
  // once, on average, including the serial parts of ConfigDiff.
  m["util.pair_parallelism"] =
      ratio(total_ms("route_map_pair") + total_ms("acl_pair"), diff_ms);
  m["bdd.ite_cache_hit_rate"] =
      ratio(metric("bdd.cache_hits"), metric("bdd.cache_lookups"));
  m["bdd.unique_probe_len"] =
      ratio(metric("bdd.unique_probes"), metric("bdd.unique_lookups"));
  m["bdd.arena_nodes"] = metric("bdd.arena_nodes") / pairs;
  m["bdd.peak_live_nodes"] = metric("bdd.peak_live_nodes");
  m["bdd.sift_passes"] = metric("bdd.sift_passes") / pairs;
}

void AddNoDaemonLayerMetrics(MetricValues* out) {
  for (const char* name :
       {"server.wait_share", "server.result_cache_hit_ratio",
        "server.template_cache_hit_ratio", "server.result_cache_resident_mb",
        "server.template_cache_resident_mb"}) {
    (*out)[name] = 0.0;
  }
}

}  // namespace campion::bench_e2e
