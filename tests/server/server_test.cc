// End-to-end daemon tests: HTTP responses byte-identical to the one-shot
// CLI (text and JSON, --threads 1 and 4, first and repeated request,
// caches on and off), the session commit/rollback lifecycle, the /metrics
// exposition, the debug views, the obs envelope, and the API's error
// statuses. The server runs in-process on an ephemeral loopback port; the
// CLI reference output comes from the real `campion` binary via
// CAMPION_CLI_PATH, so this is a genuine cross-binary determinism check.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/http.h"
#include "server/service.h"
#include "tests/testdata.h"
#include "util/json.h"

#ifndef CAMPION_CLI_PATH
#error "CAMPION_CLI_PATH must be defined by the build"
#endif

namespace campion::server {
namespace {

std::string RunCommandStdout(const std::string& command_line,
                             int* exit_code = nullptr) {
  std::string command = command_line + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  std::string output;
  if (pipe == nullptr) return output;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  if (exit_code != nullptr) {
    *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return output;
}

std::string RunCliStdout(const std::string& args, int* exit_code = nullptr) {
  return RunCommandStdout(std::string(CAMPION_CLI_PATH) + " " + args,
                          exit_code);
}

std::string JsonString(const std::string& text) {
  return "\"" + util::JsonEscape(text) + "\"";
}

std::string DiffRequestBody(const std::string& config1,
                            const std::string& config2,
                            const std::string& extra = "") {
  return "{\"config1\":" + JsonString(config1) +
         ",\"config2\":" + JsonString(config2) + extra + "}";
}

// One server per fixture instantiation, torn down with the test.
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServiceOptions options) {
    service_ = std::make_unique<DiffService>(options);
    server_ = std::make_unique<HttpServer>(
        "127.0.0.1", 0,
        [this](const HttpRequest& request) {
          return service_->Handle(request);
        },
        /*num_workers=*/2);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    // The same wiring campion_serve_main does: /metrics reads the
    // transport's keep-alive reuse counter through the service.
    service_->SetKeepaliveReuses(
        [this] { return server_->keepalive_reuses(); });
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  HttpClientResponse Fetch(const std::string& method,
                           const std::string& target,
                           const std::string& body = "") {
    HttpClientResponse response;
    std::string error;
    EXPECT_TRUE(HttpFetch("127.0.0.1", server_->port(), method, target, body,
                          &response, &error))
        << error;
    return response;
  }

  std::unique_ptr<DiffService> service_;
  std::unique_ptr<HttpServer> server_;
};

// Writes the fig1 pair to disk once so the CLI can read it.
class ServerCliParityTest : public ServerTest {
 protected:
  static void SetUpTestSuite() {
    dir_ = std::filesystem::temp_directory_path() /
           ("campion-server-test-" + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
    Write("cisco.cfg", testing::kFig1Cisco);
    Write("juniper.conf", testing::kFig1Juniper);
    // The daemon loads POSTed bodies under the synthetic filenames
    // "config1"/"config2" (it has no file paths). JSON reports cite
    // structural locations as <filename>:<line>, so byte-parity for
    // --format=json needs the CLI run against files with those names.
    Write("config1", testing::kFig1Cisco);
    Write("config2", testing::kFig1Juniper);
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static void Write(const std::string& name, const std::string& text) {
    std::ofstream out(dir_ / name);
    out << text;
  }

  static std::string Path(const std::string& name) {
    return (dir_ / name).string();
  }

  static std::filesystem::path dir_;
};

std::filesystem::path ServerCliParityTest::dir_;

TEST_F(ServerCliParityTest, DiffBodyMatchesCliAtThreads1And4) {
  for (const unsigned threads : {1u, 4u}) {
    ServiceOptions options;
    options.diff.num_threads = threads;
    // Reordering is a performance knob: the bytes must not change with it.
    options.diff.reorder = core::DiffOptions::ReorderMode::kSift;
    // Both requests must run the full pipeline; with the result cache on,
    // the second would replay (result_cache_test covers that path).
    options.result_cache = false;
    StartServer(options);

    int cli_exit = 0;
    const std::string cli = RunCliStdout("--threads=" +
                                             std::to_string(threads) + " " +
                                             Path("cisco.cfg") + " " +
                                             Path("juniper.conf"),
                                         &cli_exit);
    ASSERT_EQ(cli_exit, 2);  // fig1 has differences.
    ASSERT_FALSE(cli.empty());

    // The first request and a repeat must both match the CLI byte for
    // byte.
    const std::string body =
        DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
    HttpClientResponse first = Fetch("POST", "/diff", body);
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(first.headers["x-campion-equivalent"], "false");
    EXPECT_EQ(first.body, cli) << "threads=" << threads << " (first)";

    HttpClientResponse repeat = Fetch("POST", "/diff", body);
    ASSERT_EQ(repeat.status, 200);
    EXPECT_EQ(repeat.body, cli) << "threads=" << threads << " (repeat)";

    server_->Stop();
    server_.reset();
    service_.reset();
  }
}

TEST_F(ServerCliParityTest, JsonFormatMatchesCli) {
  StartServer(ServiceOptions{});
  const std::string cli =
      RunCommandStdout("cd " + dir_.string() + " && " + CAMPION_CLI_PATH +
                       " --format=json config1 config2");
  HttpClientResponse response = Fetch(
      "POST", "/diff",
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper,
                      ",\"format\":\"json\""));
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["content-type"], "application/json");
  EXPECT_EQ(response.body, cli);
}

TEST_F(ServerCliParityTest, SessionDiffMatchesOneShotDiff) {
  StartServer(ServiceOptions{});
  ASSERT_EQ(Fetch("PUT", "/sessions/r1/running", testing::kFig1Cisco).status,
            200);
  ASSERT_EQ(
      Fetch("PUT", "/sessions/r1/candidate", testing::kFig1Juniper).status,
      200);
  HttpClientResponse session_diff = Fetch("GET", "/sessions/r1/diff");
  HttpClientResponse oneshot = Fetch(
      "POST", "/diff",
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper));
  ASSERT_EQ(session_diff.status, 200);
  EXPECT_EQ(session_diff.body, oneshot.body);
}

TEST_F(ServerTest, SessionLifecycleCommitAndRollback) {
  StartServer(ServiceOptions{});
  // Missing pieces -> 404 / 409 in order.
  EXPECT_EQ(Fetch("GET", "/sessions/edge/diff").status, 404);
  ASSERT_EQ(Fetch("PUT", "/sessions/edge/running", testing::kFig1Cisco).status,
            200);
  EXPECT_EQ(Fetch("GET", "/sessions/edge/diff").status, 409);
  EXPECT_EQ(Fetch("POST", "/sessions/edge/commit", "").status, 409);

  // Candidate uploaded: diff works, commit promotes, candidate is gone.
  ASSERT_EQ(
      Fetch("PUT", "/sessions/edge/candidate", testing::kFig1Juniper).status,
      200);
  EXPECT_EQ(Fetch("GET", "/sessions/edge/diff").status, 200);
  EXPECT_EQ(Fetch("POST", "/sessions/edge/commit", "").status, 200);
  HttpClientResponse status = Fetch("GET", "/sessions/edge");
  EXPECT_NE(status.body.find("\"has_running\":true"), std::string::npos);
  EXPECT_NE(status.body.find("\"has_candidate\":false"), std::string::npos);

  // After commit, running==old candidate: diffing against the same text is
  // equivalent.
  ASSERT_EQ(
      Fetch("PUT", "/sessions/edge/candidate", testing::kFig1Juniper).status,
      200);
  HttpClientResponse same = Fetch("GET", "/sessions/edge/diff");
  EXPECT_EQ(same.headers["x-campion-equivalent"], "true");

  // Rollback discards the candidate; a second rollback conflicts.
  EXPECT_EQ(Fetch("POST", "/sessions/edge/rollback", "").status, 200);
  EXPECT_EQ(Fetch("POST", "/sessions/edge/rollback", "").status, 409);

  // Listing and deletion.
  HttpClientResponse list = Fetch("GET", "/sessions");
  EXPECT_NE(list.body.find("\"name\":\"edge\""), std::string::npos);
  EXPECT_EQ(Fetch("DELETE", "/sessions/edge").status, 200);
  EXPECT_EQ(Fetch("DELETE", "/sessions/edge").status, 404);
}

TEST_F(ServerTest, MetricsExposesCacheAndRequestCounters) {
  ServiceOptions options;
  StartServer(options);
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);

  HttpClientResponse metrics = Fetch("GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("server.diff_requests 2"), std::string::npos);
  // The second identical request replays from the result cache.
  EXPECT_NE(metrics.body.find("server.result_cache_hits 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("server.result_cache_misses 1"),
            std::string::npos);
  // Per-request obs metrics folded into the daemon totals.
  EXPECT_NE(metrics.body.find("diff.route_map_pairs"), std::string::npos);
  EXPECT_EQ(metrics.body.find("template_cache"), std::string::npos);
}

// Every form of reuse off — no result cache, no shared encoding template —
// must change nothing but the cache header.
TEST_F(ServerTest, CacheOffReportsOffAndStillMatches) {
  StartServer(ServiceOptions{});
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  const std::string with_cache = Fetch("POST", "/diff", body).body;
  server_->Stop();
  server_.reset();
  service_.reset();

  ServiceOptions uncached;
  uncached.result_cache = false;
  uncached.diff.use_encoding_template = false;
  StartServer(uncached);
  HttpClientResponse response = Fetch("POST", "/diff", body);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["x-campion-result-cache"], "off");
  EXPECT_EQ(response.body, with_cache);
}

TEST_F(ServerTest, ObsEnvelopeCarriesSpansAndMetrics) {
  StartServer(ServiceOptions{});
  HttpClientResponse response = Fetch(
      "POST", "/diff",
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper,
                      ",\"obs\":true"));
  ASSERT_EQ(response.status, 200);
  util::JsonValue envelope;
  std::string error;
  ASSERT_TRUE(util::ParseJson(response.body, envelope, &error)) << error;
  ASSERT_TRUE(envelope.Find("report") != nullptr);
  const util::JsonValue* obs = envelope.Find("obs");
  ASSERT_TRUE(obs != nullptr);
  EXPECT_TRUE(obs->Find("spans") != nullptr);
  EXPECT_TRUE(obs->Find("metrics") != nullptr);
}

// The concurrency tentpole: with the pipeline no longer serialized,
// simultaneous /diff requests must still each return the exact CLI bytes —
// scoped metrics capture is what keeps concurrent requests from perturbing
// each other (or the report).
TEST_F(ServerCliParityTest, ConcurrentDiffRequestsMatchCliByteParity) {
  ServiceOptions options;
  options.diff.num_threads = 2;  // Fan out inside requests too.
  // Every request must run the whole pipeline concurrently; a result-cache
  // replay would short-circuit the race this test is about.
  options.result_cache = false;
  StartServer(options);

  int cli_exit = 0;
  const std::string cli = RunCliStdout(
      "--threads=1 " + Path("cisco.cfg") + " " + Path("juniper.conf"),
      &cli_exit);
  ASSERT_EQ(cli_exit, 2);
  ASSERT_FALSE(cli.empty());

  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  constexpr int kClients = 4;
  std::vector<std::string> bodies(kClients);
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      HttpClientResponse response;
      std::string error;
      if (HttpFetch("127.0.0.1", server_->port(), "POST", "/diff", body,
                    &response, &error)) {
        statuses[i] = response.status;
        bodies[i] = response.body;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(statuses[i], 200) << "client " << i;
    EXPECT_EQ(bodies[i], cli) << "client " << i;
  }
  // Every request's metrics were captured: 4 diffs folded.
  HttpClientResponse metrics = Fetch("GET", "/metrics");
  EXPECT_NE(metrics.body.find("server.diff_requests 4"), std::string::npos);
}

TEST_F(ServerTest, KeepAliveConnectionReuseIsCountedAndExposed) {
  StartServer(ServiceOptions{});
  HttpClientConnection connection;
  std::string error;
  ASSERT_TRUE(connection.Connect("127.0.0.1", server_->port(), &error))
      << error;
  HttpClientResponse response;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(connection.Roundtrip("GET", "/healthz", "", &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "ok\n");
  }
  // Request 4 on the same connection: three reuses so far, and this
  // request's own reuse is counted before the handler renders /metrics.
  ASSERT_TRUE(connection.Roundtrip("GET", "/metrics", "", &response, &error))
      << error;
  EXPECT_NE(response.body.find("server.keepalive_reuses 3"),
            std::string::npos)
      << response.body;
  EXPECT_EQ(server_->keepalive_reuses(), 3u);
}

TEST_F(ServerTest, PrometheusFormatExposesTypedFamiliesAndHistograms) {
  StartServer(ServiceOptions{});
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);

  HttpClientResponse metrics = Fetch("GET", "/metrics?format=prometheus");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers["content-type"].find("version=0.0.4"),
            std::string::npos);
  const std::string& text = metrics.body;
  EXPECT_NE(text.find("# TYPE campion_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE campion_request_duration_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("campion_request_duration_ns_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("campion_phase_duration_ns_bucket{phase=\"diff\",le="),
            std::string::npos);
  // Watermark-style metrics expose as gauges, counters as counters.
  EXPECT_NE(text.find("# TYPE campion_bdd_mem_peak_bytes gauge"),
            std::string::npos);

  // Cumulative bucket counts must be non-decreasing in le order, ending at
  // _count (the same invariant the CI smoke job greps for).
  std::uint64_t previous = 0;
  std::uint64_t final_count = 0;
  std::size_t bucket_lines = 0;
  std::istringstream lines(text);
  std::string line;
  const std::string prefix = "campion_request_duration_ns_bucket{le=";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t space = line.rfind(' ');
      const std::uint64_t value =
          std::strtoull(line.substr(space + 1).c_str(), nullptr, 10);
      EXPECT_GE(value, previous) << line;
      previous = value;
      ++bucket_lines;
    }
    if (line.rfind("campion_request_duration_ns_count ", 0) == 0) {
      final_count =
          std::strtoull(line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10);
    }
  }
  EXPECT_GE(bucket_lines, 2u);  // At least one real bucket plus +Inf.
  EXPECT_EQ(previous, final_count);  // +Inf bucket == total count.
  // The two diffs; the scrape itself records only after rendering.
  EXPECT_EQ(final_count, 2u);

  EXPECT_EQ(Fetch("GET", "/metrics?format=yaml").status, 400);
}

TEST_F(ServerTest, PlainMetricsExposeLatencyQuantiles) {
  StartServer(ServiceOptions{});
  ASSERT_EQ(Fetch("POST", "/diff",
                  DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper))
                .status,
            200);
  HttpClientResponse metrics = Fetch("GET", "/metrics");
  for (const char* line :
       {"server.latency.diff.count 1", "server.latency.diff.p50_ns ",
        "server.latency.diff.p95_ns ", "server.latency.diff.p99_ns ",
        "server.phase.parse.count 1", "server.phase.diff.p50_ns ",
        "server.latency.request.count "}) {
    EXPECT_NE(metrics.body.find(line), std::string::npos) << line;
  }
}

TEST_F(ServerTest, DebugRequestsExposeFlightRecorderRing) {
  ServiceOptions options;
  // Both requests must run the full pipeline so both records carry phase
  // timings (the replay path is covered by result_cache_test's
  // FlightRecorderReplaysStoredDisposition).
  options.result_cache = false;
  StartServer(options);
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);

  HttpClientResponse list = Fetch("GET", "/debug/requests");
  ASSERT_EQ(list.status, 200);
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::ParseJson(list.body, parsed, &error)) << error;
  const util::JsonValue* requests = parsed.Find("requests");
  ASSERT_TRUE(requests != nullptr);
  ASSERT_EQ(requests->array.size(), 2u);
  // Newest first; both diffs retained with phase breakdown and cache
  // disposition.
  const util::JsonValue& newest = requests->array[0];
  EXPECT_EQ(newest.Find("id")->number, 2.0);
  EXPECT_EQ(newest.Find("endpoint")->string, "/diff");
  EXPECT_EQ(newest.Find("result_cache")->string, "off");
  EXPECT_EQ(requests->array[1].Find("id")->number, 1.0);
  EXPECT_GT(newest.Find("wall_ns")->number, 0.0);
  EXPECT_GT(newest.Find("phases")->Find("diff_ns")->number, 0.0);

  // Detail view carries the span tree while the entry ranks in the
  // slowest-K.
  HttpClientResponse detail = Fetch("GET", "/debug/requests/1");
  ASSERT_EQ(detail.status, 200);
  util::JsonValue entry;
  ASSERT_TRUE(util::ParseJson(detail.body, entry, &error)) << error;
  const util::JsonValue* trace = entry.Find("trace");
  ASSERT_TRUE(trace != nullptr);
  EXPECT_TRUE(trace->Find("spans") != nullptr);

  EXPECT_EQ(Fetch("GET", "/debug/requests/999").status, 404);
  EXPECT_EQ(Fetch("GET", "/debug/requests/bogus").status, 400);
}

TEST_F(ServerTest, DebugCacheAndSessionsViews) {
  StartServer(ServiceOptions{});
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  ASSERT_EQ(Fetch("PUT", "/sessions/core1/running", testing::kFig1Cisco).status,
            200);

  HttpClientResponse cache = Fetch("GET", "/debug/result_cache");
  ASSERT_EQ(cache.status, 200);
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::ParseJson(cache.body, parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("misses")->number, 1.0);
  EXPECT_EQ(parsed.Find("hits")->number, 1.0);
  const util::JsonValue* entries = parsed.Find("entries");
  ASSERT_TRUE(entries != nullptr);
  ASSERT_EQ(entries->array.size(), 1u);
  EXPECT_EQ(entries->array[0].Find("key")->string.size(), 16u);  // Hex FNV64.
  EXPECT_EQ(entries->array[0].Find("hits")->number, 1.0);
  EXPECT_GT(entries->array[0].Find("resident_bytes")->number, 0.0);

  HttpClientResponse sessions = Fetch("GET", "/debug/sessions");
  ASSERT_EQ(sessions.status, 200);
  ASSERT_TRUE(util::ParseJson(sessions.body, parsed, &error)) << error;
  const util::JsonValue* list = parsed.Find("sessions");
  ASSERT_TRUE(list != nullptr);
  ASSERT_EQ(list->array.size(), 1u);
  EXPECT_EQ(list->array[0].Find("name")->string, "core1");
  EXPECT_GT(list->array[0].Find("running_bytes")->number, 0.0);
  EXPECT_EQ(list->array[0].Find("candidate_bytes")->number, 0.0);
}

TEST_F(ServerTest, FlightRecorderOffAnswers404) {
  ServiceOptions options;
  options.flight_recorder = false;
  StartServer(options);
  ASSERT_EQ(Fetch("POST", "/diff",
                  DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper))
                .status,
            200);
  EXPECT_EQ(Fetch("GET", "/debug/requests").status, 404);
  EXPECT_EQ(service_->Recorder().size(), 0u);
}

TEST_F(ServerTest, FlightRecorderMemoryStaysBoundedOver200Requests) {
  ServiceOptions options;
  options.flight_recorder_entries = 16;
  options.flight_recorder_spans = 4;
  // The slowest-K assertion needs the repeated requests to actually run
  // the pipeline; with the result cache on, replays would be uniformly
  // fast and the final full diff would not rank.
  options.result_cache = false;
  StartServer(options);
  // Cheap diff executions (static routes only: no BDD work) still flow
  // through the recorder; a couple of full ones salt the slowest-K pool.
  const std::string cheap =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper,
                      ",\"checks\":\"static\"");
  const std::string full =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  ASSERT_EQ(Fetch("POST", "/diff", full).status, 200);
  for (int i = 0; i < 198; ++i) {
    ASSERT_EQ(Fetch("POST", "/diff", cheap).status, 200);
  }
  ASSERT_EQ(Fetch("POST", "/diff", full).status, 200);

  // The ring holds exactly N entries with at most K traces, regardless of
  // how many requests flowed through.
  EXPECT_EQ(service_->Recorder().size(), 16u);
  EXPECT_LE(service_->Recorder().TraceCount(), 4u);

  HttpClientResponse list = Fetch("GET", "/debug/requests");
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::ParseJson(list.body, parsed, &error)) << error;
  const util::JsonValue* requests = parsed.Find("requests");
  ASSERT_EQ(requests->array.size(), 16u);
  EXPECT_EQ(requests->array[0].Find("id")->number, 200.0);  // Newest first.
  // The final full diff is the slowest thing in the ring: its trace
  // survived the shedding.
  EXPECT_EQ(requests->array[0].Find("trace_retained")->boolean, true);
}

TEST_F(ServerTest, ErrorStatuses) {
  StartServer(ServiceOptions{});
  EXPECT_EQ(Fetch("GET", "/nope").status, 404);
  EXPECT_EQ(Fetch("GET", "/debug/cache").status, 404);
  EXPECT_EQ(Fetch("GET", "/diff").status, 405);
  EXPECT_EQ(Fetch("POST", "/diff", "not json").status, 400);
  EXPECT_EQ(Fetch("POST", "/diff", "{\"config1\":\"x\"}").status, 400);
  // Present but unparseable config text.
  EXPECT_EQ(Fetch("POST", "/diff",
                  DiffRequestBody("garbage that is neither vendor", "also"))
                .status,
            422);
  EXPECT_EQ(Fetch("POST", "/diff",
                  DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper,
                                  ",\"format\":\"yaml\""))
                .status,
            400);
  EXPECT_EQ(Fetch("PUT", "/sessions/bad!name/running", "x").status, 400);
  EXPECT_EQ(Fetch("GET", "/healthz").status, 200);
}

}  // namespace
}  // namespace campion::server
