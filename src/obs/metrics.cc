#include "obs/metrics.h"

#include <algorithm>

#include "obs/trace.h"

namespace campion::obs {
namespace {

// The calling thread's installed sink; null = use ProcessMetrics().
thread_local MetricsSink* t_current_sink = nullptr;

}  // namespace

void MetricsSink::RecordLocked(const std::string& name, double value,
                               MetricKind kind) {
  auto [it, inserted] = metrics_.try_emplace(name, Metric{value, kind});
  if (inserted) return;
  Metric& metric = it->second;
  metric.value = metric.kind == MetricKind::kCounter
                     ? metric.value + value
                     : std::max(metric.value, value);
}

void MetricsSink::Add(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  RecordLocked(name, delta, MetricKind::kCounter);
}

void MetricsSink::Max(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  RecordLocked(name, value, MetricKind::kWatermark);
}

void MetricsSink::Merge(const MetricsSink& other) {
  // Copy first, so the two sinks' locks are never held together.
  const std::vector<std::pair<std::string, Metric>> incoming = other.Metrics();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, metric] : incoming) {
    RecordLocked(name, metric.value, metric.kind);
  }
}

std::vector<std::pair<std::string, Metric>> MetricsSink::Metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {metrics_.begin(), metrics_.end()};  // std::map is name-sorted.
}

std::vector<std::pair<std::string, double>> MetricsSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> snapshot;
  snapshot.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) {
    snapshot.emplace_back(name, metric.value);
  }
  return snapshot;
}

void MetricsSink::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_.clear();
}

MetricsSink& ProcessMetrics() {
  static MetricsSink sink;
  return sink;
}

MetricsSink& CurrentMetrics() {
  return t_current_sink != nullptr ? *t_current_sink : ProcessMetrics();
}

MetricsScope::MetricsScope(MetricsSink& sink) : previous_(t_current_sink) {
  t_current_sink = &sink;
}

MetricsScope::~MetricsScope() { t_current_sink = previous_; }

void Count(const std::string& name, double delta) {
  if (!Enabled()) return;
  CurrentMetrics().Add(name, delta);
}

void MaxGauge(const std::string& name, double value) {
  if (!Enabled()) return;
  CurrentMetrics().Max(name, value);
}

}  // namespace campion::obs
