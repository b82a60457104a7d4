// The daemon workloads: the shipped campion_serve binary, started with no
// flags but --port=0 and driven over loopback HTTP by closed-loop
// keep-alive clients, one thread per connection — the way fleet and CI
// tooling use it. Every request body is built during set-up, so the client
// does not compete with the daemon for cores while the clock runs; replies
// are stored and checked once the clock has stopped.

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <sstream>
#include <thread>

#include "bench/e2e/e2e.h"
#include "server/http.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace campion::bench_e2e {

namespace {

using server::HttpClientConnection;
using server::HttpClientResponse;

constexpr auto kDaemonTimeout = std::chrono::seconds(20);

// The daemon under test. Destruction stops it (SIGTERM, which drains
// in-flight requests) and waits for it to exit.
class Daemon {
 public:
  static std::unique_ptr<Daemon> Start(const std::string& binary,
                                       std::string* error);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  // The daemon's VmHWM.
  double PeakRssMb() const;

 private:
  Daemon() = default;

  Child child_;
  int port_ = 0;
};

std::unique_ptr<Daemon> Daemon::Start(const std::string& binary,
                                      std::string* error) {
  std::unique_ptr<Daemon> daemon(new Daemon());
  if (!SpawnWithStdoutPipe({binary, "--port=0"}, &daemon->child_, error)) {
    return nullptr;
  }
  // The kernel picks the port; the daemon prints it on its first line,
  // "campion_serve listening on http://127.0.0.1:<port>/".
  const Clock::time_point deadline = Clock::now() + kDaemonTimeout;
  std::string output;
  while (output.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd readable{daemon->child_.stdout_fd, POLLIN, 0};
    const int ready =
        left > 0 ? ::poll(&readable, 1, static_cast<int>(left)) : 0;
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      *error = "campion_serve printed no listening line";
      return nullptr;
    }
    char buffer[256];
    const ssize_t n = ::read(daemon->child_.stdout_fd, buffer, sizeof buffer);
    if (n <= 0) {
      *error = "campion_serve exited before listening";
      return nullptr;
    }
    output.append(buffer, static_cast<std::size_t>(n));
  }
  const std::string line = output.substr(0, output.find('\n'));
  const std::string marker = "listening on http://";
  const std::size_t at = line.find(marker);
  const std::size_t colon =
      at == std::string::npos ? at : line.find(':', at + marker.size());
  if (colon == std::string::npos) {
    *error = "unexpected campion_serve start-up line: " + line;
    return nullptr;
  }
  daemon->port_ = std::atoi(line.c_str() + colon + 1);
  while (true) {
    HttpClientResponse response;
    if (server::HttpFetch("127.0.0.1", daemon->port_, "GET", "/healthz", "",
                          &response) &&
        response.status == 200) {
      return daemon;
    }
    if (Clock::now() > deadline) {
      *error = "campion_serve /healthz never answered 200";
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Daemon::~Daemon() {
  if (child_.pid > 0) {
    ::kill(child_.pid, SIGTERM);
    const Clock::time_point deadline = Clock::now() + kDaemonTimeout;
    int status = 0;
    while (::waitpid(child_.pid, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(child_.pid, SIGKILL);
        ::waitpid(child_.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (child_.stdout_fd >= 0) ::close(child_.stdout_fd);
}

double Daemon::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(child_.pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// GET /metrics?format=prometheus as series -> value, histogram buckets
// left out.
MetricValues Scrape(int port, RunResult* result) {
  MetricValues values;
  HttpClientResponse response;
  std::string error;
  if (!server::HttpFetch("127.0.0.1", port, "GET",
                         "/metrics?format=prometheus", "", &response,
                         &error) ||
      response.status != 200) {
    result->Fail("metrics scrape failed: " + error, false);
    return values;
  }
  std::istringstream lines(response.body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string series = line.substr(0, space);
    if (series.find("_bucket") != std::string::npos) continue;
    values[std::move(series)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return values;
}

// Layer metrics from the daemon's own telemetry over the measured phase:
// phase means from the deltas of the phase histograms' _sum and _count,
// the cache hit ratios from counter deltas, residency from the gauges.
// `endpoint` names the histogram of the measured request.
void AddDaemonLayerMetrics(const MetricValues& before,
                           const MetricValues& after,
                           const std::string& endpoint,
                           double client_mean_ms, MetricValues* out) {
  auto value = [](const MetricValues& values, const std::string& series) {
    const auto it = values.find(series);
    return it == values.end() ? 0.0 : it->second;
  };
  auto delta = [&](const std::string& series) {
    return value(after, series) - value(before, series);
  };
  auto histogram_mean_ms = [&](const std::string& family,
                               const std::string& label) {
    const double count = delta(family + "_count{" + label + "}");
    return count > 0 ? delta(family + "_sum{" + label + "}") / count / 1e6
                     : 0.0;
  };
  auto phase_ms = [&](const char* phase) {
    return histogram_mean_ms("campion_phase_duration_ns",
                             std::string("phase=\"") + phase + "\"");
  };
  auto hit_ratio = [&](const std::string& cache) {
    const double hits = delta("campion_server_" + cache + "_hits");
    const double lookups = hits + delta("campion_server_" + cache + "_misses");
    return lookups > 0 ? hits / lookups : 0.0;
  };
  constexpr double kMiB = 1024.0 * 1024.0;

  MetricValues& m = *out;
  m["frontend.parse_ms"] = phase_ms("parse");
  const double parse_seconds =
      delta("campion_phase_duration_ns_sum{phase=\"parse\"}") / 1e9;
  m["frontend.parse_mb_per_s"] =
      parse_seconds > 0 ? delta("campion_parse_bytes") / 1e6 / parse_seconds
                        : 0.0;
  m["encode.template_ms"] = phase_ms("template");
  m["core.diff_ms"] = phase_ms("diff");
  m["core.render_ms"] = phase_ms("render");
  // The share of the client's round trip spent outside the daemon's
  // handler: socket transfer, HTTP framing, and waiting for a worker.
  const double daemon_ms = histogram_mean_ms(
      "campion_endpoint_duration_ns", "endpoint=\"" + endpoint + "\"");
  m["server.wait_share"] =
      client_mean_ms > 0 ? (client_mean_ms - daemon_ms) / client_mean_ms : 0.0;
  m["server.result_cache_hit_ratio"] = hit_ratio("result_cache");
  m["server.template_cache_hit_ratio"] = hit_ratio("template_cache");
  m["server.result_cache_resident_mb"] =
      value(after, "campion_server_result_cache_resident_bytes") / kMiB;
  m["server.template_cache_resident_mb"] =
      value(after, "campion_server_template_cache_resident_bytes") / kMiB;
  // The daemon traces every request; there is no untraced run to compare.
  m["obs.trace_overhead_ratio"] = 0.0;
}

obs::Span SpanFromJson(const util::JsonValue& json) {
  obs::Span span;
  if (const util::JsonValue* name = json.Find("name")) span.name = name->string;
  if (const util::JsonValue* detail = json.Find("detail")) {
    span.detail = detail->string;
  }
  span.start_ns = static_cast<std::uint64_t>(json.NumberOr("start_ns", 0));
  span.duration_ns =
      static_cast<std::uint64_t>(json.NumberOr("duration_ns", 0));
  if (const util::JsonValue* attrs = json.Find("attrs");
      attrs != nullptr && attrs->IsObject()) {
    for (const auto& [key, attr] : attrs->object) {
      span.attrs.emplace_back(key, attr.number);
    }
  }
  if (const util::JsonValue* children = json.Find("children");
      children != nullptr && children->IsArray()) {
    for (const util::JsonValue& child : children->array) {
      span.children.push_back(SpanFromJson(child));
    }
  }
  return span;
}

// Adds one obs-envelope reply (docs/daemon.md) to `pass`: the daemon's
// span tree under a client span of the measured round trip, and its
// metrics. False when `body` is not an envelope with the expected verdict.
bool AddEnvelope(const std::string& body, const std::string& target,
                 double roundtrip_ms, bool expect_equivalent,
                 TracedPass* pass) {
  util::JsonValue envelope;
  if (!util::ParseJson(body, envelope) || !envelope.IsObject()) return false;
  const util::JsonValue* equivalent = envelope.Find("equivalent");
  const util::JsonValue* obs_json = envelope.Find("obs");
  if (equivalent == nullptr || equivalent->boolean != expect_equivalent ||
      obs_json == nullptr) {
    return false;
  }
  obs::Span client;
  client.name = "client_request";
  client.detail = target;
  client.duration_ns = static_cast<std::uint64_t>(roundtrip_ms * 1e6);
  if (const util::JsonValue* spans = obs_json->Find("spans");
      spans != nullptr && spans->IsArray()) {
    for (const util::JsonValue& span : spans->array) {
      client.children.push_back(SpanFromJson(span));
    }
  }
  std::vector<std::pair<std::string, double>> snapshot;
  if (const util::JsonValue* metrics = obs_json->Find("metrics");
      metrics != nullptr && metrics->IsObject()) {
    for (const auto& [name, metric] : metrics->object) {
      snapshot.emplace_back(name, metric.number);
    }
  }
  FoldTraceMetrics(snapshot, pass);
  pass->roots.push_back(std::move(client));
  pass->pairs += 1;
  return true;
}

void FinishTrace(TracedPass pass, RunResult* result) {
  AddTracedLayerMetrics(pass, &result->per_layer);
  result->trace_metrics.assign(pass.metrics.begin(), pass.metrics.end());
  result->trace_spans = std::move(pass.roots);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// --- serve_fleet_batch ------------------------------------------------------

struct FleetSetup {
  std::vector<Reference> references;  // Per base pair (FleetBases order).
  std::vector<std::string> batches;   // One POST /batch body per op.
  std::vector<TextPair> traced_pairs;
  std::vector<std::string> errors;
  std::unique_ptr<Daemon> daemon;
};

// The base pair behind slot `slot` of batch `batch`: alternates between the
// slot's two bases from one batch to the next.
std::size_t BaseFor(std::size_t batch, std::size_t slot) {
  return 2 * slot + batch % 2;
}

std::string BatchBody(const std::vector<TextPair>& pairs) {
  std::string body = "{\"pairs\":[";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"name\":\"" + pairs[i].label + "\",\"config1\":\"" +
            util::JsonEscape(pairs[i].text1) + "\",\"config2\":\"" +
            util::JsonEscape(pairs[i].text2) + "\"}";
  }
  body += "]}";
  return body;
}

// Empty when a /batch reply carries, for every pair, the status, verdict
// and difference count of its base pair's serial reference.
std::string CheckBatchReply(const HttpClientResponse& reply, std::size_t batch,
                            const std::vector<Reference>& references) {
  if (reply.status != 200) {
    return "batch " + std::to_string(batch) + ": HTTP " +
           std::to_string(reply.status);
  }
  util::JsonValue json;
  const util::JsonValue* pairs = nullptr;
  if (util::ParseJson(reply.body, json)) pairs = json.Find("pairs");
  if (pairs == nullptr || !pairs->IsArray() ||
      pairs->array.size() != static_cast<std::size_t>(kBatchPairs)) {
    return "batch " + std::to_string(batch) + ": malformed reply";
  }
  for (std::size_t slot = 0; slot < pairs->array.size(); ++slot) {
    const util::JsonValue& item = pairs->array[slot];
    const Reference& expected = references[BaseFor(batch, slot)];
    const util::JsonValue* equivalent = item.Find("equivalent");
    if (item.NumberOr("status", 0) != 200 || equivalent == nullptr ||
        equivalent->boolean != expected.equivalent ||
        item.NumberOr("differences", -1) !=
            static_cast<double>(expected.entries)) {
      return "batch " + std::to_string(batch) + " pair " +
             std::to_string(slot) + ": verdict or difference count differs "
             "from the serial reference";
    }
  }
  return "";
}

std::unique_ptr<FleetSetup> BuildFleetSetup(const RunOptions& options,
                                            std::uint64_t ops) {
  auto setup = std::make_unique<FleetSetup>();
  const std::vector<AclBase> bases = FleetBases();
  Rng variants(options.seed ^ 0x76617269616e74ull);
  auto variant = [&](std::size_t base, const std::string& label) {
    return AclVariant(bases[base], variants.Next(), label);
  };
  // Reference and oracle per base pair, plus a second variant's reference
  // to confirm that variants keep the base's verdict and count.
  for (std::size_t i = 0; i < bases.size(); ++i) {
    Reference reference = ComputeReference(variant(i, "base"));
    const Reference check = ComputeReference(variant(i, "check"));
    if (!reference.error.empty()) setup->errors.push_back(reference.error);
    if (!check.error.empty()) setup->errors.push_back(check.error);
    if (check.entries != reference.entries ||
        check.equivalent != reference.equivalent) {
      setup->errors.push_back("fleet base " + std::to_string(i) +
                              ": address variants disagree");
    }
    setup->references.push_back(std::move(reference));
  }
  // Batch 0 is the warm-up; every pair of every batch is a fresh variant.
  for (std::uint64_t batch = 0; batch <= ops; ++batch) {
    std::vector<TextPair> pairs;
    for (int slot = 0; slot < kBatchPairs; ++slot) {
      // Appending, not "b" + to_string(...): GCC 12 -Wrestrict misfires on
      // that form.
      std::string label = "b";
      label += std::to_string(batch);
      label += 's';
      label += std::to_string(slot);
      pairs.push_back(variant(BaseFor(batch, slot), label));
    }
    setup->batches.push_back(BatchBody(pairs));
  }
  for (int slot = 0; slot < kBatchPairs; ++slot) {
    setup->traced_pairs.push_back(
        variant(BaseFor(0, slot), "traced" + std::to_string(slot)));
  }

  std::string error;
  setup->daemon = Daemon::Start(options.serve_binary, &error);
  if (!setup->daemon) {
    setup->errors.push_back(error);
    return setup;
  }
  HttpClientResponse warm_up;
  if (!server::HttpFetch("127.0.0.1", setup->daemon->port(), "POST", "/batch",
                         setup->batches.front(), &warm_up, &error)) {
    setup->errors.push_back("warm-up batch: " + error);
  } else if (std::string failure =
                 CheckBatchReply(warm_up, 0, setup->references);
             !failure.empty()) {
    setup->errors.push_back("warm-up " + failure);
  }
  return setup;
}

}  // namespace

RunResult RunServeFleetBatch(const RunOptions& options, std::uint64_t ops) {
  RunResult result;
  double setup_seconds = 0;
  const std::unique_ptr<FleetSetup> setup = RepeatSetup(
      options.setup_reps, [&] { return BuildFleetSetup(options, ops); },
      &setup_seconds);
  for (const std::string& error : setup->errors) result.Fail(error, false);
  if (!setup->daemon) return result;
  const int port = setup->daemon->port();

  HttpClientConnection connection;
  std::string error;
  if (!connection.Connect("127.0.0.1", port, &error)) {
    result.Fail("connect: " + error, false);
    return result;
  }
  const MetricValues before = Scrape(port, &result);
  std::vector<double> latencies;
  std::vector<std::pair<std::size_t, HttpClientResponse>> replies;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = PhaseDeadline(start, options.seconds);
  for (std::size_t batch = 1; batch <= ops && Clock::now() < deadline;
       ++batch) {
    HttpClientResponse reply;
    const Clock::time_point sent = Clock::now();
    const bool delivered = connection.Roundtrip("POST", "/batch",
                                                setup->batches[batch], &reply,
                                                &error);
    const double latency_ms = MsBetween(sent, Clock::now());
    ++result.attempted;
    if (!delivered) {
      result.Fail("batch " + std::to_string(batch) + ": " + error, true);
      connection.Connect("127.0.0.1", port, &error);
      continue;
    }
    latencies.push_back(latency_ms);
    replies.emplace_back(batch, std::move(reply));
  }
  const double wall_seconds = MsBetween(start, Clock::now()) / 1000.0;
  connection.Close();
  const MetricValues after = Scrape(port, &result);

  double pairs_completed = 0;
  for (const auto& [batch, reply] : replies) {
    if (std::string failure = CheckBatchReply(reply, batch, setup->references);
        !failure.empty()) {
      result.Fail(failure, true);
    } else {
      pairs_completed += kBatchPairs;
    }
  }
  AddLatencyMetrics(latencies, pairs_completed, wall_seconds, &result);
  result.end_to_end["setup_s"] = setup_seconds;
  result.end_to_end["peak_rss_mb"] = setup->daemon->PeakRssMb();
  if (!options.trace) return result;

  // The traced pass: fresh pairs as single POST /diff requests with the obs
  // envelope, which bypasses only the result cache — which every batch pair
  // missed anyway.
  TracedPass pass;
  for (std::size_t slot = 0; slot < setup->traced_pairs.size(); ++slot) {
    const TextPair& pair = setup->traced_pairs[slot];
    const std::string body = "{\"config1\":\"" + util::JsonEscape(pair.text1) +
                             "\",\"config2\":\"" +
                             util::JsonEscape(pair.text2) + "\",\"obs\":true}";
    HttpClientResponse reply;
    const Clock::time_point sent = Clock::now();
    const bool delivered =
        server::HttpFetch("127.0.0.1", port, "POST", "/diff", body, &reply);
    const double latency_ms = MsBetween(sent, Clock::now());
    if (!delivered ||
        !AddEnvelope(reply.body, "/diff", latency_ms,
                     setup->references[BaseFor(0, slot)].equivalent, &pass)) {
      result.Fail("traced " + pair.label + ": bad obs reply", false);
    }
  }
  FinishTrace(std::move(pass), &result);
  AddDaemonLayerMetrics(before, after, "batch", Mean(latencies),
                        &result.per_layer);
  return result;
}

// --- serve_session_edits ----------------------------------------------------

namespace {

constexpr int kSessions = 2;

struct SessionPlan {
  std::string name;
  std::vector<std::size_t> steps;  // The edit each measured step uploads.
};

struct SessionSetup {
  SessionScenario scenario;
  std::vector<std::string> edits;  // Candidate text per distinct edit.
  std::vector<SessionPlan> plans;
  std::vector<std::size_t> traced_edits;
  std::vector<std::string> errors;
  std::unique_ptr<Daemon> daemon;
};

// One measured step's outcome, checked after the clock stops.
struct StepReply {
  std::size_t edit = 0;
  HttpClientResponse reply;
};

std::unique_ptr<SessionSetup> BuildSessionSetup(const RunOptions& options,
                                                std::uint64_t ops) {
  auto setup = std::make_unique<SessionSetup>();
  setup->scenario = BuildSessionScenario(options.seed);
  Rng rng(options.seed ^ 0x65646974ull);
  // Local-preference values distinct per session and seed; never the
  // running router's 120, so every edit is a real difference.
  const std::uint32_t first_value =
      1000 + 4 * static_cast<std::uint32_t>(rng.Below(1u << 20));
  std::uint32_t next_value[kSessions];
  auto new_edit = [&](int session) {
    setup->edits.push_back(
        EditedCandidate(setup->scenario.candidate, next_value[session]));
    next_value[session] += 2 * kSessions;
    return setup->edits.size() - 1;
  };
  for (int session = 0; session < kSessions; ++session) {
    next_value[session] = first_value + 2 * static_cast<std::uint32_t>(session);
  }
  // Step 0 of each plan is the warm-up. After it, one step in four uploads
  // a never-seen edit and the rest re-upload one of the session's earlier
  // edits, drawn from the seed.
  const std::uint64_t steps_per_session = ops / kSessions;
  for (int session = 0; session < kSessions; ++session) {
    SessionPlan plan;
    plan.name = "s" + std::to_string(session);
    std::vector<std::size_t> mine = {new_edit(session)};
    plan.steps.push_back(mine.front());
    for (std::uint64_t step = 0; step < steps_per_session; ++step) {
      if (step % 4 == 0) {
        mine.push_back(new_edit(session));
        plan.steps.push_back(mine.back());
      } else {
        plan.steps.push_back(mine[rng.Below(mine.size())]);
      }
    }
    setup->plans.push_back(std::move(plan));
  }
  for (int session = 0; session < kSessions; ++session) {
    setup->traced_edits.push_back(new_edit(session));
  }

  std::string error;
  setup->daemon = Daemon::Start(options.serve_binary, &error);
  if (!setup->daemon) {
    setup->errors.push_back(error);
    return setup;
  }
  const int port = setup->daemon->port();
  for (const SessionPlan& plan : setup->plans) {
    const std::string prefix = "/sessions/" + plan.name;
    HttpClientResponse running;
    HttpClientResponse candidate;
    HttpClientResponse diff;
    if (!server::HttpFetch("127.0.0.1", port, "PUT", prefix + "/running",
                           setup->scenario.running, &running) ||
        !server::HttpFetch("127.0.0.1", port, "PUT", prefix + "/candidate",
                           setup->edits[plan.steps.front()], &candidate) ||
        !server::HttpFetch("127.0.0.1", port, "GET", prefix + "/diff", "",
                           &diff) ||
        running.status / 100 != 2 || candidate.status / 100 != 2 ||
        diff.status != 200) {
      setup->errors.push_back("warm-up of session " + plan.name + " failed");
    }
  }
  return setup;
}

}  // namespace

RunResult RunServeSessionEdits(const RunOptions& options, std::uint64_t ops) {
  RunResult result;
  double setup_seconds = 0;
  const std::unique_ptr<SessionSetup> setup = RepeatSetup(
      options.setup_reps, [&] { return BuildSessionSetup(options, ops); },
      &setup_seconds);
  for (const std::string& error : setup->errors) result.Fail(error, false);
  if (!setup->daemon) return result;
  const int port = setup->daemon->port();

  struct ClientLog {
    std::vector<double> latencies;
    std::vector<StepReply> replies;
    std::vector<std::string> transport_errors;
    std::uint64_t attempted = 0;
  };
  std::vector<ClientLog> logs(setup->plans.size());
  const MetricValues before = Scrape(port, &result);
  std::latch ready(static_cast<std::ptrdiff_t>(setup->plans.size()) + 1);
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < setup->plans.size(); ++c) {
    clients.emplace_back([&, c] {
      const SessionPlan& plan = setup->plans[c];
      ClientLog& log = logs[c];
      HttpClientConnection connection;
      std::string error;
      const bool connected = connection.Connect("127.0.0.1", port, &error);
      ready.arrive_and_wait();
      if (!connected) {
        log.transport_errors.push_back("connect: " + error);
        return;
      }
      const std::string prefix = "/sessions/" + plan.name;
      for (std::size_t step = 1;
           step < plan.steps.size() && Clock::now() < deadline; ++step) {
        ++log.attempted;
        HttpClientResponse put;
        StepReply diff{plan.steps[step], {}};
        if (!connection.Roundtrip("PUT", prefix + "/candidate",
                                  setup->edits[diff.edit], &put, &error) ||
            put.status / 100 != 2) {
          log.transport_errors.push_back(plan.name + " PUT: " + error);
          connection.Connect("127.0.0.1", port, &error);
          continue;
        }
        const Clock::time_point sent = Clock::now();
        if (!connection.Roundtrip("GET", prefix + "/diff", "", &diff.reply,
                                  &error)) {
          log.transport_errors.push_back(plan.name + " GET: " + error);
          connection.Connect("127.0.0.1", port, &error);
          continue;
        }
        log.latencies.push_back(MsBetween(sent, Clock::now()));
        log.replies.push_back(std::move(diff));
      }
    });
  }
  start = Clock::now();
  deadline = PhaseDeadline(start, options.seconds);
  ready.arrive_and_wait();
  for (std::thread& client : clients) client.join();
  const double wall_seconds = MsBetween(start, Clock::now()) / 1000.0;
  const MetricValues after = Scrape(port, &result);
  const double peak_rss_mb = setup->daemon->PeakRssMb();

  // Every reply must be byte-identical to the in-process serial render of
  // the same two texts named config1/config2 — the daemon's contract —
  // and the edit's report must agree with the oracle.
  std::vector<std::size_t> edits_used;
  for (const ClientLog& log : logs) {
    for (const StepReply& step : log.replies) edits_used.push_back(step.edit);
  }
  std::sort(edits_used.begin(), edits_used.end());
  edits_used.erase(std::unique(edits_used.begin(), edits_used.end()),
                   edits_used.end());
  std::vector<Reference> references(setup->edits.size());
  util::RunParallel(util::ResolveThreadCount(0), edits_used.size(),
                    [&](std::size_t i) {
                      const std::size_t edit = edits_used[i];
                      references[edit] = ComputeReference(
                          {"edit " + std::to_string(edit), "config1",
                           setup->scenario.running, "config2",
                           setup->edits[edit]});
                    });
  std::vector<double> latencies;
  double pairs_completed = 0;
  for (const ClientLog& log : logs) {
    result.attempted += log.attempted;
    for (const std::string& error : log.transport_errors) {
      result.Fail(error, true);
    }
    latencies.insert(latencies.end(), log.latencies.begin(),
                     log.latencies.end());
    for (const StepReply& step : log.replies) {
      const Reference& reference = references[step.edit];
      if (step.reply.status != 200) {
        result.Fail("session diff: HTTP " + std::to_string(step.reply.status),
                    true);
      } else if (!reference.error.empty()) {
        result.Fail(reference.error, true);
      } else if (step.reply.body != reference.rendered) {
        result.Fail("session diff of edit " + std::to_string(step.edit) +
                        ": body differs from the in-process render",
                    true);
      } else {
        ++pairs_completed;
      }
    }
  }
  AddLatencyMetrics(latencies, pairs_completed, wall_seconds, &result);
  result.end_to_end["setup_s"] = setup_seconds;
  result.end_to_end["peak_rss_mb"] = peak_rss_mb;
  if (!options.trace) return result;

  // The traced pass: a never-seen edit per session, diffed with ?obs=1
  // (which recomputes, as a fresh edit does).
  TracedPass pass;
  for (std::size_t c = 0; c < setup->plans.size(); ++c) {
    const std::string prefix = "/sessions/" + setup->plans[c].name;
    HttpClientResponse put;
    HttpClientResponse reply;
    const bool uploaded =
        server::HttpFetch("127.0.0.1", port, "PUT", prefix + "/candidate",
                          setup->edits[setup->traced_edits[c]], &put);
    const Clock::time_point sent = Clock::now();
    const bool delivered = uploaded && server::HttpFetch(
        "127.0.0.1", port, "GET", prefix + "/diff?obs=1", "", &reply);
    const double latency_ms = MsBetween(sent, Clock::now());
    if (!delivered || !AddEnvelope(reply.body, prefix + "/diff", latency_ms,
                                   /*expect_equivalent=*/false, &pass)) {
      result.Fail("traced diff of session " + setup->plans[c].name +
                      ": bad obs reply",
                  false);
    }
  }
  FinishTrace(std::move(pass), &result);
  AddDaemonLayerMetrics(before, after, "diff", Mean(latencies),
                        &result.per_layer);
  return result;
}

}  // namespace campion::bench_e2e
