// Daemon benchmark for campion_serve (src/server): what the resident
// service's own telemetry and concurrency cost and buy, measured on the
// university-core pair.
//
//   1. Latency quantiles as the daemon itself reports them: after a request
//      burst, server.latency.diff.{p50,p99}_ns are scraped from /metrics
//      and recorded — the daemon's own histogram, not a client-side
//      stopwatch.
//   2. Flight recorder on/off A/B: mean request wall over a burst with the
//      recorder enabled vs disabled. The recorder's Record() is one mutex
//      acquisition plus a summary copy per request; target overhead is
//      < 2% (noise-dominated on small configs).
//   3. HTTP-thread scaling: wall for a fixed request count pushed by 4
//      concurrent client connections against 1 vs 4 connection workers.
//      Requests run the pipeline concurrently (no serialization), so on
//      multi-core hosts the 4-worker wall should approach 1/4x; on a
//      single-CPU container the ratio stays ~1x — the recorded number is
//      honest about where it ran.
//
// Requests go over real loopback HTTP (in-process HttpServer + HttpFetch),
// so the timings include the transport the daemon's users actually see.
// With --bench_out=PATH the numbers land in BENCH_serve.json.

#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cisco/cisco_unparser.h"
#include "gen/scenarios.h"
#include "juniper/juniper_unparser.h"
#include "server/http.h"
#include "server/service.h"
#include "util/json.h"

namespace {

using campion::server::DiffService;
using campion::server::HttpClientResponse;
using campion::server::HttpFetch;
using campion::server::HttpServer;
using campion::server::ServiceOptions;

// An in-process daemon on an ephemeral loopback port.
struct Daemon {
  explicit Daemon(const ServiceOptions& options, int http_threads = 1)
      : service(options),
        server(
            "127.0.0.1", 0,
            [this](const campion::server::HttpRequest& request) {
              return service.Handle(request);
            },
            /*num_workers=*/http_threads) {
    std::string error;
    if (!server.Start(&error)) {
      std::cerr << "error: cannot start daemon: " << error << "\n";
      std::exit(1);
    }
  }
  ~Daemon() { server.Stop(); }

  HttpClientResponse Post(const std::string& target, const std::string& body) {
    HttpClientResponse response;
    std::string error;
    if (!HttpFetch("127.0.0.1", server.port(), "POST", target, body, &response,
                   &error)) {
      std::cerr << "error: request failed: " << error << "\n";
      std::exit(1);
    }
    return response;
  }

  HttpClientResponse Get(const std::string& target) {
    HttpClientResponse response;
    std::string error;
    if (!HttpFetch("127.0.0.1", server.port(), "GET", target, "", &response,
                   &error)) {
      std::cerr << "error: request failed: " << error << "\n";
      std::exit(1);
    }
    return response;
  }

  DiffService service;
  HttpServer server;
};

ServiceOptions DaemonDefaults() {
  // campion_serve's defaults, with serial diff execution so the wall times
  // stay comparable. The result cache is OFF here — every section measures
  // the full pipeline, and a result-cache replay would short-circuit it
  // (bench_fleet covers the cache).
  ServiceOptions options;
  options.diff.num_threads = 1;
  options.result_cache = false;
  return options;
}

// The /diff body for the university-core pair: Cisco text vs JunOS text.
std::string CoreBody() {
  campion::gen::UniversityScenario university =
      campion::gen::BuildUniversityScenario();
  return "{\"config1\":\"" +
         campion::util::JsonEscape(
             campion::cisco::UnparseCiscoConfig(university.core.config1)) +
         "\",\"config2\":\"" +
         campion::util::JsonEscape(
             campion::juniper::UnparseJuniperConfig(university.core.config2)) +
         "\"}";
}

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// Scrapes one "name value" line from the /metrics exposition.
double ScrapeMetric(const std::string& metrics, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = metrics.find(needle);
  if (pos == std::string::npos) return 0.0;
  // Guard against suffix collisions ("x.y" matching "prefix.x.y").
  while (pos != 0 && metrics[pos - 1] != '\n') {
    pos = metrics.find(needle, pos + 1);
    if (pos == std::string::npos) return 0.0;
  }
  return std::strtod(metrics.c_str() + pos + needle.size(), nullptr);
}

void PrintSummary() {
  auto& metrics = campion::benchutil::BenchMetrics::Instance();
  const std::string core_body = CoreBody();

  // --- 1. daemon-reported latency quantiles -----------------------------
  constexpr int kQuantileBurst = 50;
  std::cout << "daemon-reported diff latency over " << kQuantileBurst
            << " requests:\n";
  {
    Daemon daemon(DaemonDefaults());
    for (int i = 0; i < kQuantileBurst; ++i) daemon.Post("/diff", core_body);
    const std::string metrics_body = daemon.Get("/metrics").body;
    const double p50_ns = ScrapeMetric(metrics_body, "server.latency.diff.p50_ns");
    const double p99_ns = ScrapeMetric(metrics_body, "server.latency.diff.p99_ns");
    const double mean_ns =
        ScrapeMetric(metrics_body, "server.latency.diff.mean_ns");
    std::cout << "  p50 " << std::fixed << std::setprecision(4)
              << p50_ns / 1e6 << " ms, p99 " << p99_ns / 1e6 << " ms, mean "
              << mean_ns / 1e6 << " ms (server.latency.diff.*)\n";
    metrics.Record("diff_latency_p50_seconds", p50_ns / 1e9);
    metrics.RecordUnit("diff_latency_p50_seconds",
                       "server.latency.diff.p50_ns from the daemon's "
                       "log-scale histogram (<= 25% relative bucket width)");
    metrics.Record("diff_latency_p99_seconds", p99_ns / 1e9);
    metrics.Record("diff_latency_mean_seconds", mean_ns / 1e9);
  }

  // --- 2. flight recorder on/off A/B ------------------------------------
  constexpr int kRecorderBurst = 60;
  std::cout << "\nflight recorder on/off (" << kRecorderBurst
            << " requests each):\n";
  double recorder_on_seconds = 0.0;
  for (const bool recorder : {true, false}) {
    ServiceOptions options = DaemonDefaults();
    options.flight_recorder = recorder;
    Daemon daemon(options);
    daemon.Post("/diff", core_body);  // Warm allocators outside the burst.
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRecorderBurst; ++i) daemon.Post("/diff", core_body);
    auto t1 = std::chrono::steady_clock::now();
    const double mean_seconds = Seconds(t0, t1) / kRecorderBurst;
    const std::string tag =
        recorder ? "flight_recorder_on" : "flight_recorder_off";
    std::cout << "  " << (recorder ? "on:  " : "off: ") << std::fixed
              << std::setprecision(6) << mean_seconds << " s/request\n";
    metrics.Record(tag + "_request_seconds", mean_seconds);
    if (recorder) {
      recorder_on_seconds = mean_seconds;
    } else if (mean_seconds > 0.0) {
      const double overhead = recorder_on_seconds / mean_seconds - 1.0;
      std::cout << "  overhead: " << std::setprecision(2) << overhead * 100.0
                << "% (target < 2%; single-run walls on small configs are "
                   "noise-dominated)\n";
      metrics.Record("flight_recorder_overhead_ratio", overhead);
      metrics.RecordUnit("flight_recorder_overhead_ratio",
                         "mean request wall with recorder / without - 1 "
                         "(< 0.02 target)");
    }
  }

  // --- 3. HTTP-thread scaling -------------------------------------------
  if (std::thread::hardware_concurrency() <= 1) {
    // A 1-vs-4-worker wall ratio is meaningless without CPUs to scale
    // onto; recording the ~1x it produces would read as a scaling failure.
    std::cout << "\nHTTP-thread scaling: skipped "
                 "(hardware_concurrency == 1)\n";
    metrics.Record("http_threads_scaling_skipped", 1.0);
    metrics.RecordUnit("http_threads_scaling_skipped",
                       "1 = probe skipped on a single-CPU host instead of "
                       "recording a misleading ~1x speedup");
    metrics.Record("hardware_concurrency",
                   static_cast<double>(std::thread::hardware_concurrency()));
    return;
  }
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 15;
  std::cout << "\n" << kClients << " concurrent clients x "
            << kRequestsPerClient << " requests:\n";
  metrics.Record("http_threads_scaling_skipped", 0.0);
  double single_thread_seconds = 0.0;
  for (const int http_threads : {1, 4}) {
    Daemon daemon(DaemonDefaults(), http_threads);
    daemon.Post("/diff", core_body);  // Warm allocators first.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&daemon, &core_body] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          daemon.Post("/diff", core_body);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    auto t1 = std::chrono::steady_clock::now();
    const double wall = Seconds(t0, t1);
    std::cout << "  http_threads=" << http_threads << ": " << std::fixed
              << std::setprecision(4) << wall << " s\n";
    metrics.Record("http_threads_" + std::to_string(http_threads) +
                       "_wall_seconds",
                   wall);
    if (http_threads == 1) {
      single_thread_seconds = wall;
    } else if (wall > 0.0) {
      const double speedup = single_thread_seconds / wall;
      std::cout << "  speedup: " << std::setprecision(3) << speedup
                << "x over " << std::thread::hardware_concurrency()
                << " hardware threads (~1x expected on a single CPU — "
                   "requests are concurrent, not parallel, there)\n";
      metrics.Record("http_threads_speedup", speedup);
      metrics.RecordUnit("http_threads_speedup",
                         "4-client wall with 1 worker / with 4 workers "
                         "(bounded by available CPUs)");
      metrics.Record("hardware_concurrency",
                     static_cast<double>(std::thread::hardware_concurrency()));
    }
  }
}

void BM_WarmDiffRequest(benchmark::State& state) {
  const std::string body = CoreBody();
  Daemon daemon(DaemonDefaults());
  daemon.Post("/diff", body);  // Warm allocators.
  for (auto _ : state) {
    HttpClientResponse response = daemon.Post("/diff", body);
    benchmark::DoNotOptimize(response.body);
  }
}
BENCHMARK(BM_WarmDiffRequest)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv,
      "campion_serve daemon (latency, flight recorder, HTTP threads)",
      PrintSummary);
}
