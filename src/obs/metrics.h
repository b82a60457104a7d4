#pragma once

// Named numeric metrics, the companion to the span tree in obs/trace.h.
// Counters accumulate deltas and watermarks keep maxima — both are
// order-independent, so concurrent updates from the worker pool produce
// the same snapshot regardless of scheduling, keeping `--trace_out`
// deterministic in everything but the timing values.
//
// Capture is SCOPED, not process-global: a MetricsSink is a plain
// container, and every recording helper routes through the calling
// thread's *current* sink. The process keeps one default sink
// (ProcessMetrics()) for the one-shot CLI and the bench binaries; a
// long-lived embedder — the campion_serve daemon — instead installs a
// private per-request sink with MetricsScope, so two requests in flight
// on different connection threads record into disjoint arenas and never
// serialize on (or contaminate) shared state. ConfigDiff installs the
// calling thread's current sink on each of its worker-pool tasks, so the
// capture is complete at any `--threads` value.
//
//   obs::MetricsSink sink;                // this request's arena
//   obs::MetricsScope scope(sink);        // install on this thread
//   ... run the pipeline ...
//   auto snapshot = sink.Snapshot();      // only THIS request's metrics
//   totals.Merge(sink);                   // fold into the daemon's totals
//
// Updates are coarse-grained by design: the BDD kernel keeps its own plain
// counters (bdd::BddStats) and exports them here once per differencing
// task (obs/bdd_metrics.h), parsers record once per file, and so on. A
// mutex-protected map is therefore plenty; nothing here sits on a hot
// path. As with spans, every entry point is a no-op while tracing is
// disabled.
//
// Counter naming: dotted lowercase paths, "<subsystem>.<counter>"
// (e.g. "bdd.cache_hits", "parse.lines"). docs/trace_format.md documents
// the stable vocabulary.

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace campion::obs {

// How a metric folds: a counter sums its deltas, a watermark keeps its
// maximum. The first Add or Max that records a name fixes its kind, so the
// recording site is the one place that decides it.
enum class MetricKind { kCounter, kWatermark };

struct Metric {
  double value = 0.0;
  MetricKind kind = MetricKind::kCounter;
};

// One metrics arena. The mutex covers concurrent updates from a request's
// *internal* worker pool; distinct sinks share nothing.
class MetricsSink {
 public:
  MetricsSink() = default;
  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

  // Adds `delta` to the named counter (creating it at zero).
  void Add(const std::string& name, double delta);
  // Raises the named watermark to at least `value`.
  void Max(const std::string& name, double value);
  // Folds every metric of `other` into this sink by its recorded kind.
  void Merge(const MetricsSink& other);

  // All metrics with their kinds, sorted by name.
  std::vector<std::pair<std::string, Metric>> Metrics() const;
  // All metric values, sorted by name.
  std::vector<std::pair<std::string, double>> Snapshot() const;

  void Reset();

 private:
  // Folds one recording into `metrics_`; the caller holds `mutex_`.
  void RecordLocked(const std::string& name, double value, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Metric> metrics_;
};

// The process-default sink: what records when no MetricsScope is
// installed on the calling thread. The CLI and the bench binaries sample
// and reset it between runs; the daemon never touches it.
MetricsSink& ProcessMetrics();

// The calling thread's effective sink: the innermost installed
// MetricsScope's, falling back to ProcessMetrics().
MetricsSink& CurrentMetrics();

// RAII: installs `sink` as the calling thread's current sink, restoring
// the previous one (possibly another scope's) on destruction. Scopes
// nest; installation is thread-local, so concurrent scopes on different
// threads are fully independent.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsSink& sink);
  ~MetricsScope();

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  MetricsSink* previous_;
};

// Convenience wrappers, gated on obs::Enabled(); they record into
// CurrentMetrics().
void Count(const std::string& name, double delta = 1.0);
void MaxGauge(const std::string& name, double value);

}  // namespace campion::obs
