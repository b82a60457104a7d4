// Fleet-scale batch benchmark for campion_serve's POST /batch and the
// incremental result cache (src/server/result_cache.h).
//
//   1. Cold batch: a generated 64-pair fleet POSTed as one /batch request
//      against a fresh daemon — every pair pays parse + diff + render.
//   2. Warm batch: the identical fleet re-POSTed — every pair replays from
//      the result cache (X-Campion-Result-Cache: hit), byte-identical.
//   3. Incremental re-diff: one pair of the fleet regenerated, the batch
//      re-POSTed — 63 replays + 1 recompute. The acceptance bar is
//      cold / incremental >= --fleet_min_speedup (default 3: a generated
//      ACL pair diffs in under a millisecond, so the replays' parse and
//      transfer bound the ratio).
//   4. Parity: the incremental response must be byte-identical to a
//      result-cache-OFF daemon's response to the same batch at
//      http_threads 1 and 4 (the batch merge is declaration-ordered, so
//      neither the cache nor any worker count may change a byte).
//
// Requests go over real loopback HTTP; with --bench_out=PATH the numbers
// land in BENCH_fleet.json. Exits 1 when the speedup bar or parity fails.

#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cisco/cisco_unparser.h"
#include "gen/acl_gen.h"
#include "server/http.h"
#include "server/service.h"
#include "util/json.h"

namespace {

using campion::server::DiffService;
using campion::server::HttpClientResponse;
using campion::server::HttpFetch;
using campion::server::HttpServer;
using campion::server::ServiceOptions;

double g_min_speedup = 3.0;

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

constexpr int kFleetPairs = 64;

struct FleetPair {
  std::string name;
  std::string config1;
  std::string config2;
};

FleetPair BuildPair(int index, std::uint64_t seed) {
  campion::gen::AclGenOptions options;
  // Varying rule counts and seeds: distinct structural keys per pair, a
  // spread of sizes for the largest-first scheduler to chew on.
  options.rules = 30 + (index % 8) * 10;
  options.seed = seed;
  options.differences = index % 4;  // Some pairs are equivalent.
  options.name = "FLEET_ACL_" + std::to_string(index);
  campion::gen::GeneratedAclPair acls = campion::gen::GenerateAclPair(options);
  const std::string host = "fleet" + std::to_string(index);
  FleetPair pair;
  pair.name = "pair" + std::to_string(index);
  pair.config1 = campion::cisco::UnparseCiscoConfig(campion::gen::WrapAclInConfig(
      acls.acl1, host + "a", campion::ir::Vendor::kCisco));
  pair.config2 = campion::cisco::UnparseCiscoConfig(campion::gen::WrapAclInConfig(
      acls.acl2, host + "b", campion::ir::Vendor::kCisco));
  return pair;
}

std::vector<FleetPair> BuildFleet() {
  std::vector<FleetPair> fleet;
  fleet.reserve(kFleetPairs);
  for (int i = 0; i < kFleetPairs; ++i) {
    fleet.push_back(BuildPair(i, /*seed=*/1000 + i));
  }
  return fleet;
}

std::string BatchBody(const std::vector<FleetPair>& fleet) {
  std::string body = "{\"pairs\":[";
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"name\":\"" + fleet[i].name + "\",\"config1\":\"" +
            campion::util::JsonEscape(fleet[i].config1) +
            "\",\"config2\":\"" +
            campion::util::JsonEscape(fleet[i].config2) + "\"}";
  }
  body += "]}";
  return body;
}

// campion_serve's defaults, with the result cache switched per A/B arm.
ServiceOptions FleetDefaults(bool result_cache) {
  ServiceOptions options;
  options.result_cache = result_cache;
  return options;
}

std::string HeaderValue(const HttpClientResponse& response,
                        const std::string& name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return value;
  }
  return "";
}

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double ScrapeMetric(const std::string& metrics, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = metrics.find(needle);
  if (pos == std::string::npos) return 0.0;
  while (pos != 0 && metrics[pos - 1] != '\n') {
    pos = metrics.find(needle, pos + 1);
    if (pos == std::string::npos) return 0.0;
  }
  return std::strtod(metrics.c_str() + pos + needle.size(), nullptr);
}

void PrintSummary() {
  auto& metrics = campion::benchutil::BenchMetrics::Instance();
  std::vector<FleetPair> fleet = BuildFleet();
  const std::string body_full = BatchBody(fleet);
  // The "one router changed" push: pair 0 regenerated from a fresh seed.
  fleet[0] = BuildPair(0, /*seed=*/977001);
  const std::string body_changed = BatchBody(fleet);

  std::cout << kFleetPairs << "-pair fleet, one POST /batch per push:\n";
  metrics.Record("fleet_pairs", kFleetPairs);

  Daemon daemon(FleetDefaults(/*result_cache=*/true));
  auto t0 = std::chrono::steady_clock::now();
  const HttpClientResponse cold = daemon.Post("/batch", body_full);
  auto t1 = std::chrono::steady_clock::now();
  const double cold_seconds = Seconds(t0, t1);

  t0 = std::chrono::steady_clock::now();
  const HttpClientResponse warm = daemon.Post("/batch", body_full);
  t1 = std::chrono::steady_clock::now();
  const double warm_seconds = Seconds(t0, t1);
  const bool warm_parity = warm.body == cold.body;
  const bool warm_all_hits = HeaderValue(warm, "x-campion-result-cache") ==
                             "hit";  // HttpFetch lower-cases header names.

  t0 = std::chrono::steady_clock::now();
  const HttpClientResponse incremental = daemon.Post("/batch", body_changed);
  t1 = std::chrono::steady_clock::now();
  const double incremental_seconds = Seconds(t0, t1);

  const double speedup =
      incremental_seconds > 0 ? cold_seconds / incremental_seconds : 0.0;
  const bool speedup_ok = speedup >= g_min_speedup;
  std::cout << "  cold batch (64 full pipelines):      " << std::fixed
            << std::setprecision(4) << cold_seconds << " s\n"
            << "  warm batch (64 replays):             " << warm_seconds
            << " s, parity "
            << (warm_parity ? "OK" : "BROKEN") << ", header "
            << (warm_all_hits ? "hit" : "NOT-hit") << "\n"
            << "  incremental (1 changed, 63 replays): "
            << incremental_seconds << " s\n"
            << "  cold/incremental speedup: " << std::setprecision(2)
            << speedup << "x (>= " << g_min_speedup << " required: "
            << (speedup_ok ? "PASS" : "FAIL") << ")\n";

  const std::string metrics_body = daemon.Get("/metrics").body;
  const double cache_hits =
      ScrapeMetric(metrics_body, "server.result_cache_hits");
  const double cache_misses =
      ScrapeMetric(metrics_body, "server.result_cache_misses");
  std::cout << "  result cache: " << static_cast<long long>(cache_hits)
            << " hits / " << static_cast<long long>(cache_misses)
            << " misses across the three pushes\n";

  metrics.Record("cold_batch_seconds", cold_seconds);
  metrics.RecordUnit("cold_batch_seconds",
                     "one 64-pair POST /batch against an empty result cache");
  metrics.Record("warm_batch_seconds", warm_seconds);
  metrics.Record("incremental_batch_seconds", incremental_seconds);
  metrics.RecordUnit("incremental_batch_seconds",
                     "the same fleet with 1 of 64 pairs changed: 63 cache "
                     "replays + 1 recompute");
  metrics.Record("incremental_speedup", speedup);
  metrics.RecordUnit("incremental_speedup",
                     "cold batch wall / incremental re-diff wall (>= "
                     "--fleet_min_speedup required)");
  metrics.Record("warm_parity", warm_parity ? 1.0 : 0.0);
  metrics.Record("warm_all_hits", warm_all_hits ? 1.0 : 0.0);
  metrics.Record("result_cache_hits", cache_hits);
  metrics.Record("result_cache_misses", cache_misses);

  // --- parity vs a cache-off daemon at http_threads 1 and 4 -------------
  bool parity_ok = true;
  for (const int http_threads : {1, 4}) {
    Daemon baseline(FleetDefaults(/*result_cache=*/false), http_threads);
    const HttpClientResponse reference =
        baseline.Post("/batch", body_changed);
    const bool parity = reference.body == incremental.body;
    parity_ok = parity_ok && parity;
    std::cout << "  parity vs cache-off @ http_threads=" << http_threads
              << ": " << (parity ? "OK (byte-identical)" : "BROKEN") << "\n";
    metrics.Record(
        "parity_http_threads_" + std::to_string(http_threads),
        parity ? 1.0 : 0.0);
  }

  if (!warm_parity || !warm_all_hits || !parity_ok || !speedup_ok) {
    std::cerr << "bench_fleet: acceptance FAILED (parity or speedup)\n";
    std::exit(1);
  }
}

void BM_WarmBatchRequest(benchmark::State& state) {
  const std::vector<FleetPair> fleet = BuildFleet();
  const std::string body = BatchBody(fleet);
  Daemon daemon(FleetDefaults(/*result_cache=*/true));
  daemon.Post("/batch", body);  // Populate the result cache.
  for (auto _ : state) {
    HttpClientResponse response = daemon.Post("/batch", body);
    benchmark::DoNotOptimize(response.body);
  }
}
BENCHMARK(BM_WarmBatchRequest)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip --fleet_min_speedup=X (the acceptance bar; CI passes a generous
  // value so shared-runner noise cannot flake the gate).
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--fleet_min_speedup=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      g_min_speedup = std::strtod(argv[i] + std::strlen(kFlag), nullptr);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return campion::benchutil::RunBench(
      argc, argv,
      "campion_serve fleet batch + incremental result-cache re-diff",
      PrintSummary);
}
