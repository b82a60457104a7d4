// End-to-end daemon tests: HTTP responses byte-identical to the one-shot
// CLI (text and JSON, --threads 1 and 4, computed and replayed from the
// result cache), the session commit/rollback lifecycle, the /metrics
// exposition, the debug views, the obs envelope, the API's error statuses,
// and HTTP framing errors. The server runs in-process on an ephemeral
// loopback port; the CLI reference output comes from the real `campion`
// binary via CAMPION_CLI_PATH, so this is a genuine cross-binary
// determinism check.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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
  std::string out = "\"";
  out += util::JsonEscape(text);
  out += '"';
  return out;
}

std::string DiffRequestBody(const std::string& config1,
                            const std::string& config2,
                            const std::string& extra = "") {
  return "{\"config1\":" + JsonString(config1) +
         ",\"config2\":" + JsonString(config2) + extra + "}";
}

// The fig1 Cisco config plus `n` trailing blank lines: its own result-cache
// key with the same report (ResultCacheServerTest's
// TrailingWhitespaceEditMissesWithSameBody), so every variant runs the
// whole pipeline.
std::string Fig1CiscoVariant(int n) {
  return std::string(testing::kFig1Cisco) + std::string(n, '\n');
}

// What one raw connection got back: every byte the daemon sent, and
// whether it closed the connection (as opposed to the read timing out).
struct RawReply {
  std::string text;
  bool closed = false;
};

// Sends `raw` on a fresh loopback connection, bypassing HttpFetch's
// well-formed framing, and reads until the daemon closes the connection or
// two seconds pass without a byte.
RawReply RawExchange(int port, const std::string& raw) {
  RawReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return reply;
  }
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
  std::array<char, 4096> chunk;
  ssize_t n;
  while ((n = ::recv(fd, chunk.data(), chunk.size(), 0)) > 0) {
    reply.text.append(chunk.data(), static_cast<std::size_t>(n));
  }
  // A close with unread request bytes still queued arrives as a reset.
  reply.closed = n == 0 || (n < 0 && errno == ECONNRESET);
  ::close(fd);
  return reply;
}

std::size_t CountOf(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
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
    StartServer(options);

    int cli_exit = 0;
    const std::string cli = RunCliStdout("--threads=" +
                                             std::to_string(threads) + " " +
                                             Path("cisco.cfg") + " " +
                                             Path("juniper.conf"),
                                         &cli_exit);
    ASSERT_EQ(cli_exit, 2);  // fig1 has differences.
    ASSERT_FALSE(cli.empty());

    // The first request computes and the repeat replays from the result
    // cache; both must match the CLI byte for byte.
    const std::string body =
        DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
    HttpClientResponse first = Fetch("POST", "/diff", body);
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(first.headers["x-campion-equivalent"], "false");
    EXPECT_EQ(first.headers["x-campion-result-cache"], "miss");
    EXPECT_EQ(first.body, cli) << "threads=" << threads << " (first)";

    HttpClientResponse repeat = Fetch("POST", "/diff", body);
    ASSERT_EQ(repeat.status, 200);
    EXPECT_EQ(repeat.headers["x-campion-result-cache"], "hit");
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
// Concurrent /diff requests and a concurrent /batch, at 1, 2 and 4
// threads: every request, and every /batch pair (whose ConfigDiff fans out
// again inside the batch's fan-out), answers byte-identically to the CLI.
TEST_F(ServerCliParityTest, ConcurrentDiffRequestsMatchCliByteParity) {
  int cli_exit = 0;
  const std::string cli = RunCliStdout(
      "--threads=1 " + Path("cisco.cfg") + " " + Path("juniper.conf"),
      &cli_exit);
  ASSERT_EQ(cli_exit, 2);
  ASSERT_FALSE(cli.empty());

  // One key per /diff client and per /batch pair, so every request and
  // pair runs the whole pipeline concurrently; a result-cache replay would
  // short-circuit the race this test is about.
  constexpr int kClients = 4;
  std::string batch = "{\"pairs\":[";
  for (int i = 0; i < kClients; ++i) {
    if (i > 0) batch += ',';
    batch += "{\"name\":\"p" + std::to_string(i) + "\",\"config1\":" +
             JsonString(Fig1CiscoVariant(kClients + i + 1)) +
             ",\"config2\":" + JsonString(testing::kFig1Juniper) + "}";
  }
  batch += "]}";

  for (const unsigned threads : {1u, 2u, 4u}) {
    ServiceOptions options;
    options.diff.num_threads = threads;
    StartServer(options);
    std::vector<std::string> bodies(kClients + 1);
    std::vector<int> statuses(kClients + 1, 0);
    std::vector<std::thread> clients;
    for (int i = 0; i <= kClients; ++i) {
      clients.emplace_back([&, i] {
        const bool is_batch = i == kClients;
        HttpClientResponse response;
        std::string error;
        if (HttpFetch("127.0.0.1", server_->port(), "POST",
                      is_batch ? "/batch" : "/diff",
                      is_batch ? batch
                               : DiffRequestBody(Fig1CiscoVariant(i + 1),
                                                 testing::kFig1Juniper),
                      &response, &error)) {
          statuses[i] = response.status;
          bodies[i] = response.body;
        }
      });
    }
    for (std::thread& client : clients) client.join();
    for (int i = 0; i < kClients; ++i) {
      EXPECT_EQ(statuses[i], 200) << "threads=" << threads << " client " << i;
      EXPECT_EQ(bodies[i], cli) << "threads=" << threads << " client " << i;
    }
    ASSERT_EQ(statuses[kClients], 200) << "threads=" << threads;
    util::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(util::ParseJson(bodies[kClients], parsed, &error)) << error;
    const util::JsonValue* pairs = parsed.Find("pairs");
    ASSERT_TRUE(pairs != nullptr && pairs->IsArray());
    ASSERT_EQ(pairs->array.size(), static_cast<std::size_t>(kClients));
    for (const util::JsonValue& pair : pairs->array) {
      EXPECT_EQ(pair.Find("report")->string, cli)
          << "threads=" << threads << " " << pair.Find("name")->string;
    }
    // Every request's metrics were captured: 4 diffs folded, and all 4
    // diffs and 4 batch pairs computed.
    HttpClientResponse metrics = Fetch("GET", "/metrics");
    EXPECT_NE(metrics.body.find("server.diff_requests 4"), std::string::npos);
    EXPECT_NE(metrics.body.find("server.result_cache_misses 8\n"),
              std::string::npos);
    server_->Stop();
    server_.reset();
    service_.reset();
  }
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
  EXPECT_NE(text.find("# TYPE campion_bdd_peak_live_nodes gauge"),
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

// The daemon folds each request's metrics by the kind they were recorded
// with. mem.rss_bytes is a watermark whose name says nothing of it: summed
// over three requests it would overtake the process's peak RSS.
TEST_F(ServerTest, MetricsFoldByRecordedKind) {
  StartServer(ServiceOptions{});
  for (int n = 0; n < 3; ++n) {
    ASSERT_EQ(Fetch("POST", "/diff",
                    DiffRequestBody(Fig1CiscoVariant(n), testing::kFig1Juniper))
                  .status,
              200);
  }
  std::string text = "\n";
  text += Fetch("GET", "/metrics").body;
  const auto value = [&](const std::string& name) {
    std::string needle = "\n";
    needle += name;
    needle += ' ';
    const std::size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << name;
    return pos == std::string::npos
               ? 0.0
               : std::strtod(text.c_str() + pos + name.size() + 2, nullptr);
  };
  const double rss = value("mem.rss_bytes");
  EXPECT_GT(rss, 0.0);
  EXPECT_LE(rss, value("mem.peak_rss_bytes"));

  const std::string prometheus =
      Fetch("GET", "/metrics?format=prometheus").body;
  EXPECT_NE(prometheus.find("# TYPE campion_mem_rss_bytes gauge\n"),
            std::string::npos);
  EXPECT_NE(prometheus.find("# TYPE campion_parse_bytes counter\n"),
            std::string::npos);
}

// Phase histograms count only the comparisons whose metrics the daemon
// keeps: a /diff that fails to parse must not add a parse sample that no
// `parse.files` matches, or `frontend.parse_mb_per_s` skews.
TEST_F(ServerTest, PhaseHistogramsCountOnlyCompletedComparisons) {
  StartServer(ServiceOptions{});
  for (int n = 0; n < 3; ++n) {
    ASSERT_EQ(Fetch("POST", "/diff",
                    DiffRequestBody(Fig1CiscoVariant(n), testing::kFig1Juniper))
                  .status,
              200);
    if (n == 1) {
      ASSERT_EQ(Fetch("POST", "/diff",
                      DiffRequestBody("garbage that is neither vendor", "also"))
                    .status,
                422);
    }
  }
  std::string text = "\n";
  text += Fetch("GET", "/metrics").body;
  const auto value = [&](const std::string& name) {
    std::string needle = "\n";
    needle += name;
    needle += ' ';
    const std::size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << name;
    return pos == std::string::npos
               ? 0.0
               : std::strtod(text.c_str() + pos + needle.size(), nullptr);
  };
  EXPECT_EQ(value("server.phase.parse.count") * 2, value("parse.files"));
  EXPECT_EQ(value("server.phase.parse.count"), 3.0);
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
  StartServer(ServiceOptions{});
  // Two keys, so both requests run the full pipeline and both records
  // carry phase timings (the replay path is covered by result_cache_test's
  // FlightRecorderReplaysStoredDisposition).
  for (int n : {1, 2}) {
    ASSERT_EQ(Fetch("POST", "/diff",
                    DiffRequestBody(Fig1CiscoVariant(n), testing::kFig1Juniper))
                  .status,
              200);
  }

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
  EXPECT_EQ(requests->array[1].Find("id")->number, 1.0);
  EXPECT_GT(newest.Find("wall_ns")->number, 0.0);
  for (const util::JsonValue& record : requests->array) {
    EXPECT_EQ(record.Find("result_cache")->string, "miss");
    EXPECT_GT(record.Find("phases")->Find("diff_ns")->number, 0.0);
  }

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

TEST_F(ServerTest, FlightRecorderMemoryStaysBoundedOver200Requests) {
  ServiceOptions options;
  options.flight_recorder_entries = 16;
  StartServer(options);
  // Cheap diff executions (static routes only: no BDD work) flow through
  // the recorder, each with its own key so each computes and carries a
  // span tree; two full ones salt the slowest-K pool.
  const std::string full =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  ASSERT_EQ(Fetch("POST", "/diff", full).status, 200);
  for (int i = 0; i < 198; ++i) {
    ASSERT_EQ(Fetch("POST", "/diff",
                    DiffRequestBody(Fig1CiscoVariant(i + 2),
                                    testing::kFig1Juniper,
                                    ",\"checks\":\"static\""))
                  .status,
              200);
  }
  // A new key, so the final full diff computes instead of replaying.
  ASSERT_EQ(Fetch("POST", "/diff",
                  DiffRequestBody(Fig1CiscoVariant(1), testing::kFig1Juniper))
                .status,
            200);

  // The ring holds exactly N entries and exactly K = kTraceSlots traces,
  // regardless of how many requests flowed through: every request computed
  // and carried spans, so the slowest-K shedding had to run.
  static_assert(FlightRecorder::kTraceSlots == 8);
  EXPECT_EQ(service_->Recorder().size(), 16u);
  EXPECT_EQ(service_->Recorder().TraceCount(), 8u);
  HttpClientResponse metrics = Fetch("GET", "/metrics");
  EXPECT_NE(metrics.body.find("server.result_cache_misses 200\n"),
            std::string::npos);

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
  // A checks list naming no check would report every pair equivalent.
  for (const char* checks : {",\"checks\":\"\"", ",\"checks\":\",\""}) {
    EXPECT_EQ(Fetch("POST", "/diff",
                    DiffRequestBody(testing::kFig1Cisco,
                                    testing::kFig1Juniper, checks))
                  .status,
              400)
        << checks;
  }
  EXPECT_EQ(Fetch("PUT", "/sessions/bad!name/running", "x").status, 400);
  // A body nested far past util::kMaxJsonDepth is a 400, not a stack
  // overflow, on both JSON endpoints.
  const std::string deep(200000, '[');
  EXPECT_EQ(Fetch("POST", "/diff", deep).status, 400);
  EXPECT_EQ(Fetch("POST", "/batch", deep).status, 400);
  EXPECT_EQ(Fetch("GET", "/healthz").status, 200);
}

// server.errors counts each failed response once, whichever branch
// produced it, and each failed /batch pair once inside its 200. The 405s
// used to be counted nowhere.
TEST_F(ServerTest, ErrorsCountOncePerFailedResponse) {
  StartServer(ServiceOptions{});
  const auto errors = [&] {
    const std::string key = "\nserver.errors ";
    std::string text = "\n";
    text += Fetch("GET", "/metrics").body;
    const std::size_t at = text.find(key);
    if (at == std::string::npos) return 0.0;
    return std::strtod(text.c_str() + at + key.size(), nullptr);
  };
  ASSERT_EQ(Fetch("PUT", "/sessions/edge/running", testing::kFig1Cisco).status,
            200);
  struct Case {
    std::string method;
    std::string target;
    std::string body;
    int status;
  };
  const Case cases[] = {
      {"POST", "/diff", "not json", 400},
      {"GET", "/nope", "", 404},
      {"GET", "/diff", "", 405},
      {"GET", "/sessions/edge/diff", "", 409},
      {"POST", "/diff",
       DiffRequestBody("garbage that is neither vendor", "also"), 422},
  };
  for (const Case& c : cases) {
    const double before = errors();
    EXPECT_EQ(Fetch(c.method, c.target, c.body).status, c.status) << c.target;
    EXPECT_EQ(errors() - before, 1.0) << c.status << ' ' << c.target;
  }

  const std::string batch =
      "{\"pairs\":[{\"name\":\"ok\",\"config1\":" +
      JsonString(testing::kFig1Cisco) +
      ",\"config2\":" + JsonString(testing::kFig1Juniper) +
      "},{\"name\":\"bad\",\"config1\":\"garbage that is neither vendor\","
      "\"config2\":\"also\"}]}";
  double before = errors();
  const HttpClientResponse response = Fetch("POST", "/batch", batch);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":422"), std::string::npos);
  EXPECT_EQ(errors() - before, 1.0) << "one failed /batch pair";

  before = errors();
  EXPECT_EQ(Fetch("GET", "/healthz").status, 200);
  EXPECT_EQ(errors() - before, 0.0) << "successful responses";
}

// Optional request fields of the wrong JSON type are client errors, not
// silently read as their defaults (auto vendor, every check, no envelope).
TEST_F(ServerTest, MistypedRequestFieldsAreRejected) {
  StartServer(ServiceOptions{});
  const char* extras[] = {
      ",\"vendor1\":7",       ",\"vendor2\":null",
      ",\"checks\":[\"acls\"]", ",\"format\":true",
      ",\"obs\":\"true\"",      ",\"obs\":1",
  };
  for (const char* extra : extras) {
    HttpClientResponse response = Fetch(
        "POST", "/diff",
        DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper, extra));
    EXPECT_EQ(response.status, 400) << extra;
    EXPECT_NE(response.body.find("must be"), std::string::npos)
        << extra << ": " << response.body;
  }
  const std::string pair = "{\"name\":\"a\",\"config1\":" +
                           JsonString(testing::kFig1Cisco) +
                           ",\"config2\":" +
                           JsonString(testing::kFig1Juniper);
  EXPECT_EQ(
      Fetch("POST", "/batch", "{\"pairs\":[" + pair + ",\"vendor1\":7}]}")
          .status,
      400);
  EXPECT_EQ(Fetch("POST", "/batch",
                  "{\"pairs\":[" + pair + "}],\"checks\":false}")
                .status,
            400);
  // The well-typed spellings of the same fields still work.
  EXPECT_EQ(Fetch("POST", "/diff",
                  DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper,
                                  ",\"vendor1\":\"cisco\",\"checks\":"
                                  "\"acls\",\"obs\":false"))
                .status,
            200);
  EXPECT_EQ(Fetch("GET", "/healthz").status, 200);
}

// A chunked body used to read as an empty one: a misleading 400 with
// Connection: keep-alive, then the chunk bytes parsed as the next request.
TEST_F(ServerTest, ChunkedRequestGets400AndConnectionClose) {
  StartServer(ServiceOptions{});
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  std::ostringstream chunk_size;
  chunk_size << std::hex << body.size();
  const RawReply reply = RawExchange(
      server_->port(),
      "POST /diff HTTP/1.1\r\nHost: localhost\r\n"
      "Transfer-Encoding: chunked\r\n\r\n" +
          chunk_size.str() + "\r\n" + body + "\r\n0\r\n\r\n");
  EXPECT_EQ(reply.text.rfind("HTTP/1.1 400 ", 0), 0u) << reply.text;
  EXPECT_NE(reply.text.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(reply.text.find("Transfer-Encoding"), std::string::npos);
  EXPECT_EQ(CountOf(reply.text, "HTTP/1.1 "), 1u) << reply.text;
  EXPECT_TRUE(reply.closed);
}

// Ambiguous Content-Length framing used to desync the connection: "12abc"
// read as 12, "Content-Length : 25" was stored under the name
// "content-length " and read as no body, and of repeated Content-Length
// headers the last one silently won. The bytes after the head, here a
// complete GET, were then answered as the next request, or the daemon
// waited for bytes that never came.
TEST_F(ServerTest, NonNumericContentLengthGets400AndConnectionClose) {
  StartServer(ServiceOptions{});
  const std::string next = "GET /healthz HTTP/1.1\r\n\r\n";
  const std::string n = std::to_string(next.size());
  const std::pair<std::string, std::string> cases[] = {
      {"Content-Length: 12abc", "Content-Length must be"},
      {"Content-Length: -1", "Content-Length must be"},
      {"Content-Length: 0x10", "Content-Length must be"},
      {"Content-Length: ", "Content-Length must be"},
      {"Content-Length : " + n, "malformed request"},
      {"Content-Length\t: " + n, "malformed request"},
      {"Content-Length: 2\r\nContent-Length: 200", "malformed request"},
      {"Content-Length: " + n + "\r\nContent-Length: 2", "malformed request"},
      {"Content-Length: " + n + "\r\ncontent-length: " + n,
       "malformed request"},
  };
  for (const auto& [headers, message] : cases) {
    const RawReply reply = RawExchange(
        server_->port(),
        "POST /diff HTTP/1.1\r\n" + headers + "\r\n\r\n" + next);
    EXPECT_EQ(reply.text.rfind("HTTP/1.1 400 ", 0), 0u)
        << headers << ": " << reply.text;
    EXPECT_NE(reply.text.find("Connection: close\r\n"), std::string::npos)
        << headers;
    EXPECT_NE(reply.text.find(message), std::string::npos) << headers;
    EXPECT_EQ(CountOf(reply.text, "HTTP/1.1 "), 1u) << headers;
    EXPECT_TRUE(reply.closed) << headers;
  }
  EXPECT_EQ(Fetch("GET", "/healthz").status, 200);
}

// A NUL byte inside a JunOS word used to stall the tokenizer: it appended
// empty tokens until the daemon ran out of memory, so one request could
// take the daemon down. A raw NUL inside a JSON string is malformed JSON
// (RFC 8259) and gets a 400; sent escaped as \u0000, it decodes to a real
// NUL that reaches the JunOS lexer, and the answer must still be prompt.
TEST_F(ServerTest, RawNulInConfigGetsPromptAnswerAndDaemonKeepsServing) {
  StartServer(ServiceOptions{});
  std::string body = "{\"config1\":\"system { host-name a";
  body += '\0';
  body += "b; }\",\"config2\":\"system { host-name ab; }\"}";
  const auto start = std::chrono::steady_clock::now();
  const RawReply reply = RawExchange(
      server_->port(), "POST /diff HTTP/1.1\r\nConnection: close\r\n"
                       "Content-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_EQ(reply.text.rfind("HTTP/1.1 400 ", 0), 0u) << reply.text;
  EXPECT_NE(reply.text.find("control character in string"), std::string::npos)
      << reply.text;
  EXPECT_TRUE(reply.closed);
  EXPECT_EQ(Fetch("GET", "/healthz").status, 200);
}

TEST_F(ServerTest, EscapedNulInConfigReachesTheLexerAndGetsPromptAnswer) {
  StartServer(ServiceOptions{});
  const std::string body =
      "{\"config1\":\"system { host-name a\\u0000b; }\","
      "\"config2\":\"system { host-name ab; }\",\"format\":\"json\"}";
  const auto start = std::chrono::steady_clock::now();
  HttpClientResponse reply = Fetch("POST", "/diff", body);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_EQ(reply.status, 200) << reply.body;
  // The host name the lexer read carries the NUL, escaped again on output.
  EXPECT_NE(reply.body.find("\"router1\": \"a\\u0000b\""), std::string::npos)
      << reply.body;
  EXPECT_EQ(Fetch("GET", "/healthz").status, 200);
}

// After framing errors the daemon keeps serving, and well-framed pipelined
// requests on one connection stay in sync.
TEST_F(ServerTest, DaemonServesHealthzAfterFramingErrors) {
  StartServer(ServiceOptions{});
  RawExchange(server_->port(),
              "POST /diff HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
              "0\r\n\r\n");
  RawExchange(server_->port(),
              "POST /diff HTTP/1.1\r\nContent-Length: 1x\r\n\r\n");
  const std::string body = "not json";
  const RawReply reply = RawExchange(
      server_->port(),
      "POST /diff HTTP/1.1\r\nContent-Length:  " +
          std::to_string(body.size()) + " \r\n\r\n" + body +
          "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(reply.text.rfind("HTTP/1.1 400 ", 0), 0u) << reply.text;
  EXPECT_EQ(CountOf(reply.text, "HTTP/1.1 "), 2u) << reply.text;
  EXPECT_NE(reply.text.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_EQ(reply.text.substr(reply.text.size() - 3), "ok\n");
  EXPECT_TRUE(reply.closed);
  EXPECT_EQ(Fetch("GET", "/healthz").status, 200);
}

}  // namespace
}  // namespace campion::server
