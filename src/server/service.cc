#include "server/service.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "core/json_report.h"
#include "frontend/loader.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_report.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace campion::server {

namespace {

HttpResponse JsonError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\":\"" + util::JsonEscape(message) + "\"}\n";
  return response;
}

HttpResponse JsonOk(const std::string& body) {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = body;
  return response;
}

// Vendor names are validated on the way in (ReadVendors, session
// uploads), so every stored name parses.
ir::Vendor ParseVendor(const std::string& value) {
  return frontend::ParseVendorName(value).value_or(ir::Vendor::kUnknown);
}

// Copies the optional string field `key` of `object` into `out`, which
// keeps its default when the field is absent. Any other JSON type is a
// client error: false, with `error` set.
bool ReadStringField(const util::JsonValue& object, const std::string& key,
                     std::string* out, std::string* error) {
  const util::JsonValue* value = object.Find(key);
  if (value == nullptr) return true;
  if (!value->IsString()) {
    *error = "field '" + key + "' must be a string";
    return false;
  }
  *out = value->string;
  return true;
}

// The optional "vendor1"/"vendor2" fields of a /diff body or /batch pair.
bool ReadVendors(const util::JsonValue& object, std::string* vendor1,
                 std::string* vendor2, std::string* error) {
  if (!ReadStringField(object, "vendor1", vendor1, error) ||
      !ReadStringField(object, "vendor2", vendor2, error)) {
    return false;
  }
  if (!frontend::ParseVendorName(*vendor1) ||
      !frontend::ParseVendorName(*vendor2)) {
    *error = "vendor must be auto, cisco, or juniper";
    return false;
  }
  return true;
}

// The optional "format" and "checks" fields shared by /diff and /batch.
bool ReadFormatAndChecks(const util::JsonValue& object, bool* json_format,
                         core::DiffOptions* checks, std::string* error) {
  std::string format = "text";
  if (!ReadStringField(object, "format", &format, error)) return false;
  if (format != "text" && format != "json") {
    *error = "format must be text or json";
    return false;
  }
  *json_format = format == "json";
  const util::JsonValue* list = object.Find("checks");
  if (list == nullptr) return true;
  if (!list->IsString()) {
    *error = "field 'checks' must be a string";
    return false;
  }
  return core::ParseChecks(list->string, checks, error);
}

bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

// Prometheus metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*. The repo's
// dotted names map by '.' -> '_' (everything else in use is already
// legal); the exposition prefixes "campion_".
std::string PrometheusName(const std::string& name) {
  std::string out = "campion_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

// One histogram family in Prometheus text format: cumulative _bucket
// lines for the non-empty buckets (plus +Inf), then _sum and _count.
// `label` is one 'key="value"' pair or empty; it rides in front of le, so
// a grep for `_bucket{le=` selects exactly the unlabeled aggregate family.
void AppendPrometheusHistogram(std::ostringstream& out,
                               const std::string& name,
                               const std::string& label,
                               const obs::HistogramSnapshot& snapshot) {
  const std::string le_open = label.empty() ? "{le=\"" : "{" + label + ",le=\"";
  const std::string plain = label.empty() ? "" : "{" + label + "}";
  std::uint64_t cumulative = 0;
  for (int i = 0; i < obs::HistogramSnapshot::kBucketCount; ++i) {
    const std::uint64_t bucket = snapshot.counts[static_cast<std::size_t>(i)];
    if (bucket == 0) continue;
    cumulative += bucket;
    out << name << "_bucket" << le_open
        << obs::LatencyHistogram::BucketUpperNs(i) << "\"} " << cumulative
        << '\n';
  }
  out << name << "_bucket" << le_open << "+Inf\"} " << snapshot.count << '\n';
  out << name << "_sum" << plain << ' ' << snapshot.sum_ns << '\n';
  out << name << "_count" << plain << ' ' << snapshot.count << '\n';
}

// One /metrics entry in the list both formats walk: a scalar row, or one
// member of a latency-histogram family.
struct MetricsEntry {
  std::string name;            // Dotted; a scalar's Prometheus name too.
  const char* type = nullptr;  // Scalar: "counter" or "gauge".
  std::string value;           // Scalar: the rendered value.
  const obs::LatencyHistogram* histogram = nullptr;
  const char* family = nullptr;  // Histogram: Prometheus family name
  std::string label;             // and label pair, "" when unlabeled.
};

// The plain-text quantile block for one histogram family.
void AppendTextQuantiles(std::ostringstream& out, const std::string& prefix,
                         const obs::HistogramSnapshot& snapshot) {
  out << prefix << ".count " << snapshot.count << '\n';
  out << prefix << ".mean_ns "
      << static_cast<std::uint64_t>(snapshot.MeanNs()) << '\n';
  out << prefix << ".p50_ns " << snapshot.QuantileNs(0.50) << '\n';
  out << prefix << ".p95_ns " << snapshot.QuantileNs(0.95) << '\n';
  out << prefix << ".p99_ns " << snapshot.QuantileNs(0.99) << '\n';
}

// One side of the result-cache key: the vendor as the loader will see it
// (so "" and "auto" share an entry), then the length-prefixed raw text.
void AppendKeySide(std::string& key, const std::string& vendor,
                   const std::string& text) {
  key += std::to_string(static_cast<int>(ParseVendor(vendor)));
  key += ':';
  key += std::to_string(text.size());
  key += ':';
  key += text;
}

// The result-cache key: both sides' vendors and raw config texts plus every
// option the response bytes depend on — exactly what parse, diff and
// render consume, so it is known before any of them runs. The thread count
// is deliberately absent — the determinism contract pins the body as
// byte-identical across all thread counts.
std::string ResultCacheKeyFor(const std::string& text1,
                              const std::string& vendor1,
                              const std::string& text2,
                              const std::string& vendor2,
                              const core::DiffOptions& options,
                              bool json_format) {
  std::string key;
  key.reserve(text1.size() + text2.size() + 64);
  AppendKeySide(key, vendor1, text1);
  AppendKeySide(key, vendor2, text2);
  key += "checks=";
  key += options.check_route_maps ? 'r' : '-';
  key += options.check_acls ? 'a' : '-';
  key += options.check_static_routes ? 's' : '-';
  key += options.check_connected_routes ? 'c' : '-';
  key += options.check_ospf ? 'o' : '-';
  key += options.check_bgp_properties ? 'b' : '-';
  key += options.check_admin_distances ? 'd' : '-';
  key += ";format=";
  key += json_format ? "json" : "text";
  return key;
}

}  // namespace

DiffService::DiffService(ServiceOptions options)
    : options_(std::move(options)),
      result_cache_([&] {
        ResultCache::Options result_options;
        result_options.max_resident_bytes =
            options_.result_cache_watermark_bytes;
        return result_options;
      }()),
      flight_(options_.flight_recorder_entries) {
  // Tracing stays on for the daemon's lifetime. Toggling it per request —
  // what the serialized pipeline used to do — is a race once requests run
  // concurrently, and leaving it on is free for correctness: the capture
  // is purely observational and every response body stays CLI
  // byte-identical (pinned by tests/server/server_test.cc).
  obs::SetEnabled(true);
}

HttpResponse DiffService::Handle(const HttpRequest& request) {
  const std::uint64_t start_ns = obs::NowNs();
  obs::LatencyHistogram* endpoint = &endpoint_latency_.other;
  HttpResponse response = Dispatch(request, &endpoint);
  // The one place a failed response is counted; /batch adds its failed
  // pairs, which travel inside a 200.
  if (response.status >= 400) metrics_.Add("server.errors", 1);
  const std::uint64_t wall_ns = obs::NowNs() - start_ns;
  endpoint_latency_.request.Record(wall_ns);
  endpoint->Record(wall_ns);
  return response;
}

HttpResponse DiffService::Dispatch(const HttpRequest& request,
                                   obs::LatencyHistogram** endpoint) {
  metrics_.Add("server.requests_total", 1);
  if (request.path == "/healthz") {
    *endpoint = &endpoint_latency_.healthz;
    if (request.method != "GET") return JsonError(405, "use GET");
    HttpResponse response;
    response.body = "ok\n";
    return response;
  }
  if (request.path == "/metrics") {
    *endpoint = &endpoint_latency_.metrics;
    if (request.method != "GET") return JsonError(405, "use GET");
    return HandleMetrics(request);
  }
  if (request.path == "/diff") {
    *endpoint = &endpoint_latency_.diff;
    if (request.method != "POST") return JsonError(405, "use POST");
    return HandleDiff(request);
  }
  if (request.path == "/batch") {
    *endpoint = &endpoint_latency_.batch;
    if (request.method != "POST") return JsonError(405, "use POST");
    return HandleBatch(request);
  }
  if (request.path == "/sessions" || request.path.rfind("/sessions/", 0) == 0) {
    *endpoint = &endpoint_latency_.sessions;
    return HandleSessions(request, endpoint);
  }
  if (request.path.rfind("/debug/", 0) == 0) {
    *endpoint = &endpoint_latency_.debug;
    return HandleDebug(request);
  }
  return JsonError(404, "unknown endpoint " + request.path);
}

HttpResponse DiffService::HandleDiff(const HttpRequest& request) {
  util::JsonValue body;
  std::string parse_error;
  if (!util::ParseJson(request.body, body, &parse_error) || !body.IsObject()) {
    return JsonError(400, "request body must be a JSON object: " +
                              parse_error);
  }
  util::JsonValue* config1 = body.Find("config1");
  util::JsonValue* config2 = body.Find("config2");
  if (config1 == nullptr || !config1->IsString() || config2 == nullptr ||
      !config2->IsString()) {
    return JsonError(400, "fields 'config1' and 'config2' (strings) are required");
  }
  PairTask task;
  task.endpoint = "/diff";
  task.options = options_.diff;
  std::string error;
  if (!ReadVendors(body, &task.vendor1, &task.vendor2, &error) ||
      !ReadFormatAndChecks(body, &task.json_format, &task.options, &error)) {
    return JsonError(400, error);
  }
  if (const util::JsonValue* v = body.Find("obs"); v != nullptr) {
    if (!v->IsBool()) return JsonError(400, "field 'obs' must be a boolean");
    task.want_obs = v->boolean;
  }
  // The configs are the bulk of the body: move them out, not copy.
  task.text1 = std::move(config1->string);
  task.text2 = std::move(config2->string);
  metrics_.Add("server.diff_requests", 1);
  return PairResponse(ExecutePair(task));
}

DiffService::PairOutcome DiffService::ExecutePair(const PairTask& task) {
  // Task-private capture: this sink collects every metric the task
  // produces — on this thread via the scope below, and on ConfigDiff's
  // pooled pair tasks, which ConfigDiff hands the current sink. No
  // cross-request lock; concurrent tasks each fold their own snapshot at
  // the end. The span capture takes this task's spans whichever thread
  // runs it, and drops them when the task fails before taking them.
  obs::MetricsSink sink;
  obs::MetricsScope metrics_scope(sink);
  obs::TaskCapture span_capture;

  FlightRecord record;
  record.endpoint = task.endpoint;
  PairOutcome outcome;
  const std::uint64_t wall_start = obs::NowNs();
  auto finish = [&] {
    // Only a completed comparison counts in the daemon totals, phase
    // histograms included, so `server.phase.parse.count` and `parse.files`
    // count the same comparisons; a failed task's partial metrics are
    // dropped (its flight record keeps its phase times).
    if (outcome.status == 200) {
      metrics_.Merge(sink);
      record.metrics = sink.Snapshot();
      if (record.parse_ns > 0) phase_latency_.parse.Record(record.parse_ns);
      if (record.diff_ns > 0) phase_latency_.diff.Record(record.diff_ns);
      if (record.render_ns > 0) {
        phase_latency_.render.Record(record.render_ns);
      }
    }
    record.result_cache = outcome.result_cache;
    record.result_key_hash = outcome.result_key_hash;
    record.status = outcome.status;
    record.wall_ns = obs::NowNs() - wall_start;
    flight_.Record(std::move(record));
    return outcome;
  };
  auto fail = [&](int status, const std::string& message) {
    outcome.status = status;
    outcome.error = message;
    outcome.content_type = "application/json";
    outcome.body = "{\"error\":\"" + util::JsonEscape(message) + "\"}\n";
    return finish();
  };

  // Result-cache consult, before any parse: a hit replays the rendered
  // response and runs no part of the pipeline — the incremental re-diff
  // shortcut. Obs requests bypass: their envelope carries this request's
  // live trace.
  std::string result_key;
  if (task.want_obs) {
    outcome.result_cache = "bypass";
  } else {
    result_key = ResultCacheKeyFor(task.text1, task.vendor1, task.text2,
                                   task.vendor2, task.options,
                                   task.json_format);
    std::uint64_t key_hash = 0;
    if (std::shared_ptr<const ResultCache::Result> cached =
            result_cache_.Get(result_key, &key_hash)) {
      outcome.result_cache = "hit";
      outcome.result_key_hash = key_hash;
      outcome.body = cached->body;
      outcome.content_type = cached->content_type;
      outcome.equivalent = cached->equivalent;
      outcome.differences = cached->differences;
      record.equivalent = cached->equivalent;
      record.differences = cached->differences;
      record.spans = span_capture.Finish();
      return finish();
    }
    outcome.result_cache = "miss";
    outcome.result_key_hash = key_hash;
  }

  frontend::LoadResult loaded1;
  frontend::LoadResult loaded2;
  const std::uint64_t parse_start = obs::NowNs();
  try {
    std::tie(loaded1, loaded2) = frontend::LoadBoth(
        task.options.num_threads,
        [&] {
          return frontend::LoadConfig(task.text1, "config1",
                                      ParseVendor(task.vendor1));
        },
        [&] {
          return frontend::LoadConfig(task.text2, "config2",
                                      ParseVendor(task.vendor2));
        });
  } catch (const std::exception& error) {
    record.parse_ns = obs::NowNs() - parse_start;
    metrics_.Add("server.parse_failures", 1);
    return fail(422, error.what());
  }
  record.parse_ns = obs::NowNs() - parse_start;

  core::DiffReport report;
  const std::uint64_t diff_start = obs::NowNs();
  try {
    report = core::ConfigDiff(loaded1.config, loaded2.config, task.options);
  } catch (const std::exception& error) {
    record.diff_ns = obs::NowNs() - diff_start;
    return fail(500, error.what());
  }
  record.diff_ns = obs::NowNs() - diff_start;

  std::vector<obs::Span> spans = span_capture.Finish();

  const std::uint64_t render_start = obs::NowNs();
  const std::string report_body =
      task.json_format ? core::ReportToJson(report, loaded1.config.hostname,
                                            loaded2.config.hostname)
                       : report.Render();
  record.render_ns = obs::NowNs() - render_start;
  record.equivalent = report.Equivalent();
  record.differences = report.entries.size();
  outcome.equivalent = report.Equivalent();
  outcome.differences = report.entries.size();

  if (task.want_obs) {
    // The one response shape that is NOT CLI byte-identical, by request:
    // the report plus this request's span tree and metrics snapshot.
    outcome.content_type = "application/json";
    std::ostringstream out;
    out << "{\"report\":"
        << core::ReportJsonFragment(report_body, task.json_format)
        << ",\"equivalent\":" << (report.Equivalent() ? "true" : "false")
        << ",\"obs\":" << obs::TraceToJson(spans, sink.Snapshot()) << "}\n";
    outcome.body = out.str();
  } else {
    outcome.content_type =
        task.json_format ? "application/json" : "text/plain; charset=utf-8";
    outcome.body = report_body;
    auto cached = std::make_shared<ResultCache::Result>();
    cached->body = outcome.body;
    cached->content_type = outcome.content_type;
    cached->equivalent = outcome.equivalent;
    cached->differences = outcome.differences;
    result_cache_.Put(result_key, std::move(cached));
  }

  // Hand the trace to the recorder last: it sheds the spans again unless
  // this request ranks among the slowest K in the ring.
  record.spans = std::move(spans);
  return finish();
}

HttpResponse DiffService::PairResponse(PairOutcome outcome) {
  HttpResponse response;
  response.status = outcome.status;
  response.content_type = std::move(outcome.content_type);
  response.body = std::move(outcome.body);
  if (outcome.status == 200) {
    response.headers.emplace_back("X-Campion-Equivalent",
                                  outcome.equivalent ? "true" : "false");
    response.headers.emplace_back("X-Campion-Differences",
                                  std::to_string(outcome.differences));
    response.headers.emplace_back("X-Campion-Result-Cache",
                                  outcome.result_cache);
  }
  return response;
}

HttpResponse DiffService::HandleBatch(const HttpRequest& request) {
  util::JsonValue body;
  std::string parse_error;
  if (!util::ParseJson(request.body, body, &parse_error)) {
    return JsonError(400, "request body must be JSON: " + parse_error);
  }
  // Either {"pairs": [...], "format": ..., "checks": ...} or a bare array
  // of pair objects.
  util::JsonValue* pairs_json = nullptr;
  bool json_format = false;
  core::DiffOptions diff_options = options_.diff;
  if (body.IsArray()) {
    pairs_json = &body;
  } else if (body.IsObject()) {
    pairs_json = body.Find("pairs");
    std::string error;
    if (!ReadFormatAndChecks(body, &json_format, &diff_options, &error)) {
      return JsonError(400, error);
    }
  }
  if (pairs_json == nullptr || !pairs_json->IsArray() ||
      pairs_json->array.empty()) {
    return JsonError(400,
                     "field 'pairs' (non-empty array of pair objects) is "
                     "required");
  }

  std::vector<PairTask> tasks;
  tasks.reserve(pairs_json->array.size());
  for (util::JsonValue& pair : pairs_json->array) {
    if (!pair.IsObject()) {
      return JsonError(400, "each pair must be a JSON object");
    }
    const util::JsonValue* name = pair.Find("name");
    util::JsonValue* config1 = pair.Find("config1");
    util::JsonValue* config2 = pair.Find("config2");
    if (name == nullptr || !name->IsString() || name->string.empty() ||
        config1 == nullptr || !config1->IsString() || config2 == nullptr ||
        !config2->IsString()) {
      return JsonError(400,
                       "each pair requires 'name', 'config1', and 'config2' "
                       "(strings)");
    }
    PairTask task;
    task.endpoint = "/batch#" + name->string;
    // Moved out of the body; the merge below reads only the names.
    task.text1 = std::move(config1->string);
    task.text2 = std::move(config2->string);
    std::string error;
    if (!ReadVendors(pair, &task.vendor1, &task.vendor2, &error)) {
      return JsonError(400, error);
    }
    task.options = diff_options;
    task.json_format = json_format;
    tasks.push_back(std::move(task));
  }
  metrics_.Add("server.batch_requests", 1);
  metrics_.Add("server.batch_pairs", static_cast<double>(tasks.size()));

  // Largest-first schedule: RunParallel starts indices in order, so
  // sorting the index permutation by total config bytes (descending) keeps
  // the biggest pairs from landing last and serializing the batch tail.
  // Each pair's ConfigDiff fans out again on the same shared pool. Results
  // land in declaration-order slots, so the merged response is
  // byte-identical at any worker count.
  std::vector<std::size_t> schedule(tasks.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) schedule[i] = i;
  std::sort(schedule.begin(), schedule.end(),
            [&](std::size_t a, std::size_t b) {
              const std::size_t size_a = tasks[a].text1.size() +
                                         tasks[a].text2.size();
              const std::size_t size_b = tasks[b].text1.size() +
                                         tasks[b].text2.size();
              if (size_a != size_b) return size_a > size_b;
              return a < b;
            });
  std::vector<PairOutcome> outcomes(tasks.size());
  util::RunParallel(options_.diff.num_threads, tasks.size(),
                    [&](std::size_t i) {
                      const std::size_t pair_index = schedule[i];
                      outcomes[pair_index] = ExecutePair(tasks[pair_index]);
                    });

  // Merge in declaration order.
  bool all_ok = true;
  bool all_equivalent = true;
  bool all_hits = true;
  std::size_t total_differences = 0;
  std::ostringstream out;
  out << "{\"pairs\":[";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const PairOutcome& outcome = outcomes[i];
    const util::JsonValue& pair = pairs_json->array[i];
    if (i > 0) out << ',';
    out << "\n{\"name\":\"" << util::JsonEscape(pair.Find("name")->string)
        << "\",\"status\":" << outcome.status;
    if (outcome.status != 200) {
      metrics_.Add("server.errors", 1);
      out << ",\"error\":\"" << util::JsonEscape(outcome.error) << "\"}";
      all_ok = false;
      all_equivalent = false;
      all_hits = false;
      continue;
    }
    // Cache dispositions deliberately stay OUT of the body: the batch
    // response must be byte-identical cold or warm and at any worker
    // count. Dispositions live in the X-Campion-Result-Cache header,
    // /metrics, and the flight recorder.
    out << ",\"equivalent\":" << (outcome.equivalent ? "true" : "false")
        << ",\"differences\":" << outcome.differences << ",\"report\":"
        << core::ReportJsonFragment(outcome.body, json_format) << '}';
    all_equivalent = all_equivalent && outcome.equivalent;
    all_hits = all_hits && outcome.result_cache == "hit";
    total_differences += outcome.differences;
  }
  out << "\n],\"pairs_total\":" << tasks.size()
      << ",\"equivalent\":" << (all_ok && all_equivalent ? "true" : "false")
      << "}\n";

  HttpResponse response;
  response.content_type = "application/json";
  response.body = out.str();
  response.headers.emplace_back("X-Campion-Batch-Pairs",
                                std::to_string(tasks.size()));
  response.headers.emplace_back(
      "X-Campion-Equivalent", all_ok && all_equivalent ? "true" : "false");
  response.headers.emplace_back("X-Campion-Differences",
                                std::to_string(total_differences));
  response.headers.emplace_back("X-Campion-Result-Cache",
                                all_hits ? "hit" : "miss");
  return response;
}

HttpResponse DiffService::HandleMetrics(const HttpRequest& request) {
  const std::string format = request.QueryParam("format", "text");
  if (format != "text" && format != "prometheus") {
    return JsonError(400, "format must be text or prometheus");
  }
  HttpResponse response;
  if (format == "prometheus") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  }
  response.body = RenderMetrics(format == "prometheus");
  return response;
}

std::string DiffService::RenderMetrics(bool prometheus) {
  // The one list both formats walk: the daemon totals (a watermark is a
  // gauge, a counter a counter, as each was recorded), the transport,
  // result-cache and session rows, then the latency histograms with the
  // unlabeled aggregate first.
  std::vector<MetricsEntry> entries;
  const auto row = [&](const std::string& name, const char* type,
                       std::string value) {
    MetricsEntry entry;
    entry.name = name;
    entry.type = type;
    entry.value = std::move(value);
    entries.push_back(std::move(entry));
  };
  for (const auto& [name, metric] : metrics_.Metrics()) {
    row(name, metric.kind == obs::MetricKind::kWatermark ? "gauge" : "counter",
        util::JsonNumber(metric.value));
  }
  const auto count = [](std::uint64_t value) { return std::to_string(value); };
  row("server.keepalive_reuses", "counter",
      count(keepalive_reuses_ ? keepalive_reuses_() : 0));
  const ResultCache::Stats results = result_cache_.GetStats();
  row("server.result_cache_hits", "counter", count(results.hits));
  row("server.result_cache_misses", "counter", count(results.misses));
  row("server.result_cache_evictions", "counter", count(results.evictions));
  row("server.result_cache_entries", "gauge", count(results.entries));
  row("server.result_cache_resident_bytes", "gauge",
      count(results.resident_bytes));
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    row("server.sessions", "gauge", count(sessions_.size()));
  }
  const auto histograms =
      [&](const char* prefix, const char* family, const char* label_key,
          std::initializer_list<
              std::pair<const char*, const obs::LatencyHistogram*>>
              members) {
        for (const auto& [name, histogram] : members) {
          MetricsEntry entry;
          entry.name = std::string(prefix) + name;
          entry.histogram = histogram;
          entry.family = family;
          if (label_key != nullptr) {
            entry.label = std::string(label_key) + "=\"" + name + "\"";
          }
          entries.push_back(std::move(entry));
        }
      };
  histograms("server.latency.", "campion_request_duration_ns", nullptr,
             {{"request", &endpoint_latency_.request}});
  histograms("server.latency.", "campion_endpoint_duration_ns", "endpoint",
             {{"healthz", &endpoint_latency_.healthz},
              {"metrics", &endpoint_latency_.metrics},
              {"diff", &endpoint_latency_.diff},
              {"batch", &endpoint_latency_.batch},
              {"sessions", &endpoint_latency_.sessions},
              {"debug", &endpoint_latency_.debug},
              {"other", &endpoint_latency_.other}});
  histograms("server.phase.", "campion_phase_duration_ns", "phase",
             {{"parse", &phase_latency_.parse},
              {"diff", &phase_latency_.diff},
              {"render", &phase_latency_.render}});

  std::ostringstream out;
  std::string family;
  for (const MetricsEntry& entry : entries) {
    if (entry.histogram == nullptr) {
      if (prometheus) {
        const std::string name = PrometheusName(entry.name);
        out << "# TYPE " << name << ' ' << entry.type << '\n' << name;
      } else {
        out << entry.name;
      }
      out << ' ' << entry.value << '\n';
    } else if (!prometheus) {
      AppendTextQuantiles(out, entry.name, entry.histogram->Snapshot());
    } else {
      // The labeled members of one family share its # TYPE line.
      if (entry.family != family) {
        family = entry.family;
        out << "# TYPE " << family << " histogram\n";
      }
      AppendPrometheusHistogram(out, family, entry.label,
                                entry.histogram->Snapshot());
    }
  }
  return out.str();
}

HttpResponse DiffService::HandleDebug(const HttpRequest& request) {
  if (request.method != "GET") return JsonError(405, "use GET");
  metrics_.Add("server.debug_requests", 1);
  if (request.path == "/debug/requests" ||
      request.path.rfind("/debug/requests/", 0) == 0) {
    if (request.path == "/debug/requests") {
      return JsonOk(flight_.ListJson());
    }
    const std::string id_text =
        request.path.substr(std::string("/debug/requests/").size());
    char* end = nullptr;
    const std::uint64_t id = std::strtoull(id_text.c_str(), &end, 10);
    if (id_text.empty() || end == nullptr || *end != '\0') {
      return JsonError(400, "request id must be a decimal integer");
    }
    std::string body;
    if (!flight_.EntryJson(id, &body)) {
      return JsonError(404, "no request " + id_text + " in the ring");
    }
    return JsonOk(body);
  }
  if (request.path == "/debug/result_cache") {
    std::ostringstream out;
    const ResultCache::Stats stats = result_cache_.GetStats();
    out << "{\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
        << ",\"evictions\":" << stats.evictions
        << ",\"resident_bytes\":" << stats.resident_bytes << ",\"entries\":[";
    bool first = true;
    for (const ResultCache::EntryInfo& info : result_cache_.EntryInfos()) {
      if (!first) out << ',';
      first = false;
      out << "{\"key\":\"" << util::KeyHashHex(info.key_hash)
          << "\",\"resident_bytes\":" << info.resident_bytes
          << ",\"hits\":" << info.hits
          << ",\"equivalent\":" << (info.equivalent ? "true" : "false")
          << ",\"differences\":" << info.differences << '}';
    }
    out << "]}\n";
    return JsonOk(out.str());
  }
  if (request.path == "/debug/sessions") {
    std::ostringstream out;
    out << "{\"sessions\":[";
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    bool first = true;
    for (const auto& [name, session] : sessions_) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"" << util::JsonEscape(name)
          << "\",\"running_bytes\":" << session.running.size()
          << ",\"running_vendor\":\"" << util::JsonEscape(session.running_vendor)
          << "\",\"candidate_bytes\":" << session.candidate.size()
          << ",\"candidate_vendor\":\""
          << util::JsonEscape(session.candidate_vendor) << "\"}";
    }
    out << "]}\n";
    return JsonOk(out.str());
  }
  return JsonError(404, "unknown endpoint " + request.path);
}

HttpResponse DiffService::HandleSessions(const HttpRequest& request,
                                         obs::LatencyHistogram** endpoint) {
  metrics_.Add("server.session_requests", 1);
  if (request.path == "/sessions") {
    if (request.method != "GET") return JsonError(405, "use GET");
    std::ostringstream out;
    out << "{\"sessions\":[";
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    bool first = true;
    for (const auto& [name, session] : sessions_) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"" << util::JsonEscape(name) << "\",\"has_running\":"
          << (session.running.empty() ? "false" : "true")
          << ",\"has_candidate\":"
          << (session.candidate.empty() ? "false" : "true") << '}';
    }
    out << "]}\n";
    return JsonOk(out.str());
  }

  // /sessions/<name>[/<verb>]
  std::string rest = request.path.substr(std::string("/sessions/").size());
  std::string verb;
  if (const std::size_t slash = rest.find('/');
      slash != std::string::npos) {
    verb = rest.substr(slash + 1);
    rest = rest.substr(0, slash);
  }
  const std::string& name = rest;
  if (verb == "diff") *endpoint = &endpoint_latency_.diff;
  if (!ValidSessionName(name)) return JsonError(400, "invalid session name");

  if (verb == "running" || verb == "candidate") {
    if (request.method != "PUT") return JsonError(405, "use PUT");
    if (request.body.empty()) {
      return JsonError(400, "request body must be the raw config text");
    }
    const std::string vendor = request.QueryParam("vendor", "auto");
    if (!frontend::ParseVendorName(vendor)) {
      return JsonError(400, "vendor must be auto, cisco, or juniper");
    }
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    Session& session = sessions_[name];
    if (verb == "running") {
      session.running = request.body;
      session.running_vendor = vendor;
    } else {
      session.candidate = request.body;
      session.candidate_vendor = vendor;
    }
    return JsonOk("{\"session\":\"" + util::JsonEscape(name) +
                  "\",\"slot\":\"" + verb + "\",\"bytes\":" +
                  std::to_string(request.body.size()) + "}\n");
  }

  if (verb == "diff") {
    if (request.method != "GET") return JsonError(405, "use GET");
    PairTask task;
    task.endpoint = request.path;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      auto it = sessions_.find(name);
      if (it == sessions_.end()) {
        return JsonError(404, "no session named '" + name + "'");
      }
      if (it->second.running.empty()) {
        return JsonError(409, "session '" + name + "' has no running config");
      }
      if (it->second.candidate.empty()) {
        return JsonError(409,
                         "session '" + name + "' has no candidate config");
      }
      task.text1 = it->second.running;
      task.vendor1 = it->second.running_vendor;
      task.text2 = it->second.candidate;
      task.vendor2 = it->second.candidate_vendor;
    }
    const std::string format = request.QueryParam("format", "text");
    if (format != "text" && format != "json") {
      return JsonError(400, "format must be text or json");
    }
    task.json_format = format == "json";
    task.options = options_.diff;
    const std::string checks = request.QueryParam("checks");
    std::string error;
    if (!checks.empty() && !core::ParseChecks(checks, &task.options, &error)) {
      return JsonError(400, error);
    }
    task.want_obs = request.QueryParam("obs") == "1";
    metrics_.Add("server.diff_requests", 1);
    return PairResponse(ExecutePair(task));
  }

  if (verb == "commit" || verb == "rollback") {
    if (request.method != "POST") return JsonError(405, "use POST");
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      return JsonError(404, "no session named '" + name + "'");
    }
    if (it->second.candidate.empty()) {
      return JsonError(409, "session '" + name + "' has no candidate config");
    }
    if (verb == "commit") {
      it->second.running = std::move(it->second.candidate);
      it->second.running_vendor = it->second.candidate_vendor;
    }
    it->second.candidate.clear();
    it->second.candidate_vendor = "auto";
    return JsonOk("{\"session\":\"" + util::JsonEscape(name) + "\",\"" +
                  verb + "\":true}\n");
  }

  if (verb.empty()) {
    if (request.method == "DELETE") {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      if (sessions_.erase(name) == 0) {
        return JsonError(404, "no session named '" + name + "'");
      }
      return JsonOk("{\"deleted\":\"" + util::JsonEscape(name) + "\"}\n");
    }
    if (request.method == "GET") {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      auto it = sessions_.find(name);
      if (it == sessions_.end()) {
        return JsonError(404, "no session named '" + name + "'");
      }
      return JsonOk("{\"name\":\"" + util::JsonEscape(name) +
                    "\",\"has_running\":" +
                    (it->second.running.empty() ? "false" : "true") +
                    ",\"has_candidate\":" +
                    (it->second.candidate.empty() ? "false" : "true") +
                    "}\n");
    }
    return JsonError(405, "use GET or DELETE");
  }

  return JsonError(404, "unknown session operation '" + verb + "'");
}

}  // namespace campion::server
