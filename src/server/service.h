#pragma once

// DiffService: the campion_serve daemon's request brain (docs/daemon.md is
// the API reference; this header documents the implementation contract).
//
// Endpoints:
//   GET  /healthz                       liveness probe
//   GET  /metrics                       cumulative daemon metrics, text
//                                       (?format=prometheus for scrapers)
//   POST /diff                          one-shot comparison (JSON body)
//   POST /batch                         many named pairs in one request,
//                                       responses merged in declaration
//                                       order (byte-identical at any
//                                       --http_threads/--threads)
//   GET  /sessions                      list sessions (JSON)
//   PUT  /sessions/<name>/running       upload the running config (raw text)
//   PUT  /sessions/<name>/candidate     upload the candidate config
//   GET  /sessions/<name>               session status (JSON)
//   GET  /sessions/<name>/diff          diff running vs candidate
//   POST /sessions/<name>/commit        promote candidate to running
//   POST /sessions/<name>/rollback      discard the candidate
//   DELETE /sessions/<name>             drop the session
//   GET  /debug/requests                flight recorder: last-N summaries
//   GET  /debug/requests/<id>           one entry, with trace when retained
//   GET  /debug/result_cache            per-entry result-cache view
//   GET  /debug/sessions                session detail (sizes, vendors)
//
// Determinism contract: a /diff (or session diff) response body is the
// EXACT byte sequence the one-shot CLI writes to stdout for the same two
// configs and format, at every `--threads` value — request metadata
// travels in X-Campion-* headers, never in the body, so `curl | diff -`
// against the CLI is the CI smoke check. The optional obs envelope
// (`"obs": true` / `?obs=1`) is the one deliberate exception: it wraps the
// report in JSON together with the request's span tree and metrics.
//
// Routing: Dispatch matches the path once. The branch that serves an
// endpoint names its latency histogram (session diffs count as `diff`),
// and Handle counts every response with status >= 400 in `server.errors`;
// /batch adds one per failed pair, since those ride inside a 200. Framing
// errors that HttpServer answers itself never reach the service.
// /diff, session diffs and every /batch pair fill one PairTask and run
// through ExecutePair.
//
// Concurrency model: requests run the full parse→diff→render pipeline
// CONCURRENTLY, one per connection worker, each still fanning out inside
// ConfigDiff, at most `--threads` tasks at once. /batch fans its pairs out
// the same way, and each pair's ConfigDiff fans out again: every fan-out
// is a util::RunParallel call on the one process-wide pool, whose callers
// run their own tasks, so the nesting needs no special case and the
// compute threads stay fixed. What makes that sound is scoped
// observability capture: every pair task records into its own
// obs::MetricsSink (installed with obs::MetricsScope; ConfigDiff installs
// the caller's sink on its pooled pair tasks too) and captures its own
// spans with obs::TaskCapture on whichever thread runs it, and the service
// merges the private sink into the daemon totals only at task completion.
// No lock is held across a pipeline run: each request's pair tasks encode
// into their own fresh BDD managers inside ConfigDiff, exactly as the
// one-shot CLI does.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/config_diff.h"
#include "ir/config.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "server/flight_recorder.h"
#include "server/http.h"
#include "server/result_cache.h"

namespace campion::server {

struct ServiceOptions {
  // Baseline diff options for every request: the thread count.
  // Per-request JSON fields override checks/format only,
  // never the performance knobs (those are fleet configuration).
  core::DiffOptions diff;
  // Incremental result cache (src/server/result_cache.h): rendered pair
  // responses keyed by both config texts and vendors plus the
  // diff-relevant options, looked up before parsing, LRU-evicted past this
  // many resident bytes.
  std::size_t result_cache_watermark_bytes = 64 * 1024 * 1024;
  // Flight recorder (src/server/flight_recorder.h): ring of the last
  // `flight_recorder_entries` diff executions, span trees retained for the
  // FlightRecorder::kTraceSlots slowest.
  std::size_t flight_recorder_entries = 64;
};

class DiffService {
 public:
  explicit DiffService(ServiceOptions options);

  // Thread-safe: called concurrently by HttpServer's connection workers.
  HttpResponse Handle(const HttpRequest& request);

  ResultCache::Stats ResultCacheStats() const {
    return result_cache_.GetStats();
  }
  const FlightRecorder& Recorder() const { return flight_; }

  // Wires the transport's keep-alive reuse counter into /metrics
  // (`server.keepalive_reuses`). The service cannot own the HttpServer —
  // the server owns the handler that calls the service — so the binary
  // connects them after both exist. Unset reads as 0.
  void SetKeepaliveReuses(std::function<std::uint64_t()> fn) {
    keepalive_reuses_ = std::move(fn);
  }

 private:
  struct Session {
    // Configs are stored as text: a repeated diff of unchanged texts is a
    // result-cache hit with no parse, a changed pair is re-parsed (cheap
    // next to the semantic diff), and storing text keeps commit/rollback
    // trivially exact (no IR round-trip).
    std::string running;
    std::string candidate;
    std::string running_vendor = "auto";    // As uploaded (?vendor=).
    std::string candidate_vendor = "auto";
  };

  // Per-endpoint wall-time histograms plus one aggregate, all recorded in
  // Handle; Dispatch names the endpoint's. The set is fixed so the record
  // path is a lock-free array update — no map lookups or allocation while
  // requests are in flight.
  struct EndpointLatency {
    obs::LatencyHistogram request;   // Every request, any endpoint.
    obs::LatencyHistogram healthz;
    obs::LatencyHistogram metrics;
    obs::LatencyHistogram diff;      // POST /diff and session diffs.
    obs::LatencyHistogram batch;     // POST /batch, whole-request wall.
    obs::LatencyHistogram sessions;  // Session CRUD (non-diff verbs).
    obs::LatencyHistogram debug;
    obs::LatencyHistogram other;     // 404s and anything unclassified.
  };
  // Pipeline-phase histograms, recorded in ExecutePair for each phase that
  // ran: a result-cache hit records none.
  struct PhaseLatency {
    obs::LatencyHistogram parse;
    obs::LatencyHistogram diff;  // ConfigDiff.
    obs::LatencyHistogram render;
  };

  // Routes the request and points `endpoint` at the latency histogram of
  // the branch that served it (left alone for a 404).
  HttpResponse Dispatch(const HttpRequest& request,
                        obs::LatencyHistogram** endpoint);
  HttpResponse HandleDiff(const HttpRequest& request);
  HttpResponse HandleBatch(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleSessions(const HttpRequest& request,
                              obs::LatencyHistogram** endpoint);
  HttpResponse HandleDebug(const HttpRequest& request);

  // One comparison, described transport-free so /diff, session diffs, and
  // every pair of a /batch share the execution path.
  struct PairTask {
    std::string endpoint;  // Flight-recorder label ("/diff", "/batch#a").
    std::string text1;
    std::string vendor1 = "auto";
    std::string text2;
    std::string vendor2 = "auto";
    core::DiffOptions options;
    bool json_format = false;
    bool want_obs = false;  // Obs envelope; bypasses the result cache.
  };
  struct PairOutcome {
    int status = 200;
    std::string body;  // Report body (or obs envelope); error JSON on !ok.
    std::string content_type;
    bool equivalent = false;
    std::size_t differences = 0;
    std::string result_cache;            // "hit", "miss" or "bypass".
    std::uint64_t result_key_hash = 0;   // FNV-1a of the result-cache key.
    std::string error;                   // Non-empty when status != 200.
  };

  // Parses, diffs, and renders one comparison with task-private
  // observability capture (no cross-request lock — safe to call
  // concurrently from batch workers). Consults the result cache first
  // (a hit skips parse, diff and render), merges the task's metrics, and
  // leaves one flight-recorder entry behind.
  PairOutcome ExecutePair(const PairTask& task);

  // The response of /diff and session diffs: the outcome's body, plus its
  // X-Campion-* headers on success.
  static HttpResponse PairResponse(PairOutcome outcome);

  // /metrics in the plain-text or the Prometheus format.
  std::string RenderMetrics(bool prometheus);

  ServiceOptions options_;
  ResultCache result_cache_;
  FlightRecorder flight_;
  EndpointLatency endpoint_latency_;
  PhaseLatency phase_latency_;
  std::function<std::uint64_t()> keepalive_reuses_;

  std::mutex sessions_mutex_;
  std::map<std::string, Session> sessions_;

  // Daemon totals: the server.* counters plus every completed request's
  // sink merged in, each metric folded by the kind it was recorded with.
  // /metrics renders it.
  obs::MetricsSink metrics_;
};

}  // namespace campion::server
