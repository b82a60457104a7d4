// Result-cache tests: the incremental re-diff cache must be SOUND (a hit
// replays byte-identical output — same-match, different-action ACLs
// included), looked up before parsing (a hit runs no parse), bounded (LRU
// eviction under the bytes watermark), invisible in the response body
// (batch output byte-identical cold or warm at any worker count), and
// incremental (a batch with one changed pair recomputes only that pair).

#include "server/result_cache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "server/http.h"
#include "server/service.h"
#include "tests/testdata.h"
#include "util/json.h"

namespace campion::server {
namespace {

std::string JsonString(const std::string& text) {
  return "\"" + util::JsonEscape(text) + "\"";
}

std::string DiffRequestBody(const std::string& config1,
                            const std::string& config2,
                            const std::string& extra = "") {
  return "{\"config1\":" + JsonString(config1) +
         ",\"config2\":" + JsonString(config2) + extra + "}";
}

// A /batch body naming its pairs pair0, pair1, ... in order.
std::string BatchBody(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string batch = "{\"pairs\":[";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) batch += ',';
    batch += "{\"name\":\"pair" + std::to_string(i) +
             "\",\"config1\":" + JsonString(pairs[i].first) +
             ",\"config2\":" + JsonString(pairs[i].second) + "}";
  }
  return batch + "]}";
}

// The value of the "name value" line of a plain /metrics scrape; 0 when
// absent.
double MetricValue(const std::string& metrics, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t pos = ("\n" + metrics).find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(metrics.c_str() + pos + needle.size() - 1, nullptr);
}

std::shared_ptr<ResultCache::Result> MakeResult(const std::string& body) {
  auto result = std::make_shared<ResultCache::Result>();
  result->body = body;
  result->content_type = "text/plain; charset=utf-8";
  return result;
}

// --- unit level -----------------------------------------------------------

TEST(ResultCacheTest, HitReplaysAndMissRecords) {
  ResultCache cache{ResultCache::Options{}};
  std::uint64_t hash1 = 0;
  EXPECT_EQ(cache.Get("key-a", &hash1), nullptr);
  cache.Put("key-a", MakeResult("report-a"));
  std::uint64_t hash2 = 0;
  std::shared_ptr<const ResultCache::Result> hit = cache.Get("key-a", &hash2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->body, "report-a");
  EXPECT_EQ(hash1, hash2);  // Same key, same digest, miss or hit.
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(ResultCacheTest, EvictsLruUnderBytesWatermarkButNeverTheNewest) {
  ResultCache::Options options;
  options.max_resident_bytes = 1;  // Tighter than any single entry.
  ResultCache cache{options};
  cache.Put("key-a", MakeResult(std::string(256, 'a')));
  cache.Put("key-b", MakeResult(std::string(256, 'b')));
  cache.Put("key-c", MakeResult(std::string(256, 'c')));

  // Each Put evicted the incumbent: the newest entry always survives, so
  // a hot loop over one oversized pair still caches it.
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(cache.Get("key-a"), nullptr);
  EXPECT_EQ(cache.Get("key-b"), nullptr);
  ASSERT_NE(cache.Get("key-c"), nullptr);
}

TEST(ResultCacheTest, LruOrderRespectsHits) {
  // A watermark that fits exactly two of the equal-size entries below.
  ResultCache probe{ResultCache::Options{}};
  probe.Put("key-a", MakeResult("a"));
  ResultCache::Options options;
  options.max_resident_bytes = 2 * probe.GetStats().resident_bytes;
  ResultCache cache{options};
  cache.Put("key-a", MakeResult("a"));
  cache.Put("key-b", MakeResult("b"));
  ASSERT_NE(cache.Get("key-a"), nullptr);  // Bump a to MRU.
  cache.Put("key-c", MakeResult("c"));     // Evicts b, the LRU.
  EXPECT_NE(cache.Get("key-a"), nullptr);
  EXPECT_EQ(cache.Get("key-b"), nullptr);
  EXPECT_NE(cache.Get("key-c"), nullptr);
}

// --- daemon level ---------------------------------------------------------

class ResultCacheServerTest : public ::testing::Test {
 protected:
  void StartServer(ServiceOptions options, int http_threads = 2) {
    service_ = std::make_unique<DiffService>(options);
    server_ = std::make_unique<HttpServer>(
        "127.0.0.1", 0,
        [this](const HttpRequest& request) {
          return service_->Handle(request);
        },
        /*num_workers=*/http_threads);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void StopServer() {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    service_.reset();
  }

  void TearDown() override { StopServer(); }

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

TEST_F(ResultCacheServerTest, WarmDiffReplaysByteIdentical) {
  StartServer(ServiceOptions{});
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  HttpClientResponse cold = Fetch("POST", "/diff", body);
  ASSERT_EQ(cold.status, 200);
  EXPECT_EQ(cold.headers["x-campion-result-cache"], "miss");
  HttpClientResponse warm = Fetch("POST", "/diff", body);
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(warm.headers["x-campion-result-cache"], "hit");
  EXPECT_EQ(warm.body, cold.body);
  // Replayed metadata matches the computed request's.
  EXPECT_EQ(warm.headers["x-campion-equivalent"],
            cold.headers["x-campion-equivalent"]);
  EXPECT_EQ(warm.headers["x-campion-differences"],
            cold.headers["x-campion-differences"]);

  HttpClientResponse metrics = Fetch("GET", "/metrics");
  EXPECT_NE(metrics.body.find("server.result_cache_hits 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("server.result_cache_misses 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("diff.result_cache_hits 1"), std::string::npos);
}

// Two configs whose ACL lines match the same packets but whose actions
// differ. They must occupy TWO result-cache entries with distinct bodies —
// a key that captured only what each line matches would replay the wrong
// report here.
TEST_F(ResultCacheServerTest, StructuralCollisionDoesNotCrossReplay) {
  constexpr const char* kPermitSide =
      "hostname left\n"
      "ip access-list extended FILTER\n"
      " permit tcp 10.0.0.0 0.0.0.255 any eq 80\n"
      " deny ip any any\n"
      "interface GigabitEthernet0/0\n"
      " ip address 192.168.1.1 255.255.255.0\n"
      " ip access-group FILTER in\n";
  constexpr const char* kOtherSide =
      "hostname right\n"
      "ip access-list extended FILTER\n"
      " permit tcp 10.0.0.0 0.0.0.255 any eq 443\n"
      " deny ip any any\n"
      "interface GigabitEthernet0/0\n"
      " ip address 192.168.1.1 255.255.255.0\n"
      " ip access-group FILTER in\n";
  std::string deny_side = kPermitSide;
  deny_side.replace(deny_side.find(" permit tcp"), 11, " deny   tcp");

  StartServer(ServiceOptions{});
  HttpClientResponse first =
      Fetch("POST", "/diff", DiffRequestBody(kPermitSide, kOtherSide));
  HttpClientResponse second =
      Fetch("POST", "/diff", DiffRequestBody(deny_side, kOtherSide));
  ASSERT_EQ(first.status, 200);
  ASSERT_EQ(second.status, 200);
  // Both requests were computed (no cross-replay), and the reports differ:
  // permit-vs-deny flips which packets disagree.
  EXPECT_EQ(second.headers["x-campion-result-cache"], "miss");
  EXPECT_NE(first.body, second.body);

  // Different texts -> two result entries.
  const ResultCache::Stats result_stats = service_->ResultCacheStats();
  EXPECT_EQ(result_stats.entries, 2u);
  EXPECT_EQ(result_stats.misses, 2u);

  // Replays stay distinct per key.
  HttpClientResponse replay_first =
      Fetch("POST", "/diff", DiffRequestBody(kPermitSide, kOtherSide));
  EXPECT_EQ(replay_first.headers["x-campion-result-cache"], "hit");
  EXPECT_EQ(replay_first.body, first.body);
}

TEST_F(ResultCacheServerTest, SessionDiffSharesTheResultCache) {
  StartServer(ServiceOptions{});
  ASSERT_EQ(Fetch("PUT", "/sessions/r1/running", testing::kFig1Cisco).status,
            200);
  ASSERT_EQ(
      Fetch("PUT", "/sessions/r1/candidate", testing::kFig1Juniper).status,
      200);
  HttpClientResponse first = Fetch("GET", "/sessions/r1/diff");
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(first.headers["x-campion-result-cache"], "miss");
  HttpClientResponse again = Fetch("GET", "/sessions/r1/diff");
  EXPECT_EQ(again.headers["x-campion-result-cache"], "hit");
  EXPECT_EQ(again.body, first.body);
  // The one-shot endpoint computes the same pair: same cache entry.
  HttpClientResponse oneshot = Fetch(
      "POST", "/diff",
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper));
  EXPECT_EQ(oneshot.headers["x-campion-result-cache"], "hit");
  EXPECT_EQ(oneshot.body, first.body);
}

TEST_F(ResultCacheServerTest, ObsRequestsBypassTheCache) {
  StartServer(ServiceOptions{});
  const std::string body = DiffRequestBody(
      testing::kFig1Cisco, testing::kFig1Juniper, ",\"obs\":true");
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  HttpClientResponse second = Fetch("POST", "/diff", body);
  // Never served from cache: the envelope must carry THIS request's trace.
  EXPECT_EQ(second.headers["x-campion-result-cache"], "bypass");
  EXPECT_EQ(service_->ResultCacheStats().entries, 0u);
}

TEST_F(ResultCacheServerTest, FlightRecorderReplaysStoredDisposition) {
  StartServer(ServiceOptions{});
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  HttpClientResponse list = Fetch("GET", "/debug/requests");
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::ParseJson(list.body, parsed, &error)) << error;
  const util::JsonValue* requests = parsed.Find("requests");
  ASSERT_TRUE(requests != nullptr);
  ASSERT_EQ(requests->array.size(), 2u);
  const util::JsonValue& replay = requests->array[0];   // Newest first.
  const util::JsonValue& computed = requests->array[1];
  EXPECT_EQ(computed.Find("result_cache")->string, "miss");
  EXPECT_EQ(replay.Find("result_cache")->string, "hit");
  // The verdict is REPLAYED from the computed request; the hit ran no
  // diff.
  EXPECT_EQ(replay.Find("equivalent")->boolean,
            computed.Find("equivalent")->boolean);
  EXPECT_EQ(replay.Find("differences")->number,
            computed.Find("differences")->number);
  EXPECT_EQ(replay.Find("phases")->Find("diff_ns")->number, 0.0);
  EXPECT_GT(computed.Find("phases")->Find("diff_ns")->number, 0.0);
  EXPECT_EQ(replay.Find("result_key")->string,
            computed.Find("result_key")->string);
  EXPECT_FALSE(replay.Find("result_key")->string.empty());
}

// The key is the request's own texts, vendors and options, so a hit is
// looked up before parsing and runs no parse at all.
TEST_F(ResultCacheServerTest, HitRunsNoParse) {
  StartServer(ServiceOptions{});
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  }
  const ResultCache::Stats stats = service_->ResultCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  // One parse-phase sample per miss; hits record none.
  HttpClientResponse metrics = Fetch("GET", "/metrics");
  EXPECT_NE(metrics.body.find("server.phase.parse.count 1\n"),
            std::string::npos)
      << metrics.body;
  HttpClientResponse prometheus = Fetch("GET", "/metrics?format=prometheus");
  EXPECT_NE(prometheus.body.find(
                "campion_phase_duration_ns_count{phase=\"parse\"} 1\n"),
            std::string::npos);

  HttpClientResponse list = Fetch("GET", "/debug/requests");
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::ParseJson(list.body, parsed, &error)) << error;
  const util::JsonValue* requests = parsed.Find("requests");
  ASSERT_TRUE(requests != nullptr);
  ASSERT_EQ(requests->array.size(), 3u);
  for (int i = 0; i < 2; ++i) {  // Newest first: the two hits.
    const util::JsonValue& hit = requests->array[i];
    EXPECT_EQ(hit.Find("result_cache")->string, "hit");
    EXPECT_EQ(hit.Find("phases")->Find("parse_ns")->number, 0.0);
  }
  const util::JsonValue& computed = requests->array[2];
  EXPECT_EQ(computed.Find("result_cache")->string, "miss");
  EXPECT_GT(computed.Find("phases")->Find("parse_ns")->number, 0.0);
}

// The vendor enters the key as the loader reads it: "" and "auto" both
// mean auto-detect and share an entry; an explicit vendor is its own entry
// even when it names what auto-detection would have found.
TEST_F(ResultCacheServerTest, VendorKeysOnWhatTheLoaderSees) {
  StartServer(ServiceOptions{});
  const auto diff = [&](const std::string& vendor1_field) {
    return Fetch("POST", "/diff",
                 DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper,
                                 vendor1_field));
  };
  HttpClientResponse empty = diff(",\"vendor1\":\"\"");
  ASSERT_EQ(empty.status, 200);
  EXPECT_EQ(empty.headers["x-campion-result-cache"], "miss");
  HttpClientResponse automatic = diff(",\"vendor1\":\"auto\"");
  EXPECT_EQ(automatic.headers["x-campion-result-cache"], "hit");
  HttpClientResponse absent = diff("");
  EXPECT_EQ(absent.headers["x-campion-result-cache"], "hit");
  HttpClientResponse cisco = diff(",\"vendor1\":\"cisco\"");
  ASSERT_EQ(cisco.status, 200);
  EXPECT_EQ(cisco.headers["x-campion-result-cache"], "miss");
  EXPECT_EQ(cisco.body, empty.body);
  EXPECT_EQ(automatic.body, empty.body);
  EXPECT_EQ(service_->ResultCacheStats().entries, 2u);
}

// The deliberate trade of a text key: an edit the parser ignores still
// misses, and the recomputed body is the same bytes.
TEST_F(ResultCacheServerTest, TrailingWhitespaceEditMissesWithSameBody) {
  StartServer(ServiceOptions{});
  HttpClientResponse original = Fetch(
      "POST", "/diff",
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper));
  ASSERT_EQ(original.status, 200);
  HttpClientResponse edited = Fetch(
      "POST", "/diff",
      DiffRequestBody(std::string(testing::kFig1Cisco) + "  \n\n",
                      testing::kFig1Juniper));
  ASSERT_EQ(edited.status, 200);
  EXPECT_EQ(edited.headers["x-campion-result-cache"], "miss");
  EXPECT_EQ(edited.body, original.body);
  EXPECT_EQ(service_->ResultCacheStats().entries, 2u);
}

// Errors are never cached: a pair that fails to parse is looked up (and
// counted as a miss) every time, and parsed again every time.
TEST_F(ResultCacheServerTest, ParseFailureIsNeverCached) {
  StartServer(ServiceOptions{});
  const std::string body =
      DiffRequestBody("garbage that is neither vendor", "likewise");
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(Fetch("POST", "/diff", body).status, 422);
  }
  const ResultCache::Stats stats = service_->ResultCacheStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  HttpClientResponse metrics = Fetch("GET", "/metrics");
  EXPECT_NE(metrics.body.find("server.parse_failures 2\n"), std::string::npos);
  EXPECT_NE(metrics.body.find("server.phase.parse.count 2\n"),
            std::string::npos);
}

TEST_F(ResultCacheServerTest, DebugResultCacheViewListsEntries) {
  StartServer(ServiceOptions{});
  const std::string body =
      DiffRequestBody(testing::kFig1Cisco, testing::kFig1Juniper);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  ASSERT_EQ(Fetch("POST", "/diff", body).status, 200);
  HttpClientResponse view = Fetch("GET", "/debug/result_cache");
  ASSERT_EQ(view.status, 200);
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::ParseJson(view.body, parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("hits")->number, 1.0);
  EXPECT_EQ(parsed.Find("misses")->number, 1.0);
  const util::JsonValue* entries = parsed.Find("entries");
  ASSERT_TRUE(entries != nullptr);
  ASSERT_EQ(entries->array.size(), 1u);
  EXPECT_EQ(entries->array[0].Find("key")->string.size(), 16u);  // Hex FNV64.
  EXPECT_EQ(entries->array[0].Find("hits")->number, 1.0);
  EXPECT_GT(entries->array[0].Find("resident_bytes")->number, 0.0);
}

// Batch responses must be byte-identical across worker counts, cold (every
// pair computed) and warm (every pair replayed): the merge is
// declaration-ordered and dispositions live only in headers.
TEST_F(ResultCacheServerTest, BatchParityAcrossThreadsAndCacheModes) {
  const std::string batch = BatchBody({
      {testing::kFig1Cisco, testing::kFig1Juniper},
      {testing::kFig1Juniper, testing::kFig1Cisco},
      {testing::kFig1Cisco, testing::kFig1Cisco},
  });

  std::string reference;
  for (const unsigned threads : {1u, 4u}) {
    ServiceOptions options;
    options.diff.num_threads = threads;
    StartServer(options);
    HttpClientResponse cold = Fetch("POST", "/batch", batch);
    ASSERT_EQ(cold.status, 200);
    EXPECT_EQ(cold.headers["x-campion-batch-pairs"], "3");
    EXPECT_EQ(cold.headers["x-campion-result-cache"], "miss");
    if (reference.empty()) {
      reference = cold.body;
    } else {
      EXPECT_EQ(cold.body, reference) << "threads=" << threads;
    }
    // Warm replay: all pairs hit, byte-identical.
    HttpClientResponse warm = Fetch("POST", "/batch", batch);
    EXPECT_EQ(warm.headers["x-campion-result-cache"], "hit");
    EXPECT_EQ(warm.body, reference) << "threads=" << threads;
    EXPECT_EQ(service_->ResultCacheStats().misses, 3u);
    EXPECT_EQ(service_->ResultCacheStats().hits, 3u);
    StopServer();
  }
  ASSERT_FALSE(reference.empty());

  // The merged body is structurally sound JSON-with-text-reports.
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::ParseJson(reference, parsed, &error)) << error;
  ASSERT_EQ(parsed.Find("pairs")->array.size(), 3u);
  EXPECT_EQ(parsed.Find("pairs")->array[2].Find("equivalent")->boolean, true);
  EXPECT_EQ(parsed.Find("pairs_total")->number, 3.0);
}

// The fleet workflow the cache exists for: re-POST an 8-pair batch with one
// pair changed. Exactly that pair is looked up, parsed and diffed again;
// the other 7 replay. The answer is byte-identical to a fresh daemon's cold
// answer for the changed batch, at 1 and 4 connection and batch workers.
TEST_F(ResultCacheServerTest, OneChangedPairRecomputesOnlyThatPair) {
  // Eight distinct keys: trailing blank lines change the key, not the
  // report. Pairs alternate direction so the reports differ too.
  std::vector<std::pair<std::string, std::string>> fleet;
  for (int i = 0; i < 8; ++i) {
    const std::string padding(static_cast<std::size_t>(i), '\n');
    if (i % 2 == 0) {
      fleet.emplace_back(testing::kFig1Cisco + padding, testing::kFig1Juniper);
    } else {
      fleet.emplace_back(testing::kFig1Juniper + padding, testing::kFig1Cisco);
    }
  }
  const std::string original = BatchBody(fleet);
  // Only config2 changes, and the change flips the verdict: a key that
  // ignored either side would replay the stale report.
  fleet[5].second = testing::kFig1Juniper;
  const std::string changed = BatchBody(fleet);

  StartServer(ServiceOptions{});
  HttpClientResponse first = Fetch("POST", "/batch", original);
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(first.headers["x-campion-result-cache"], "miss");
  const std::string before = Fetch("GET", "/metrics").body;
  HttpClientResponse incremental = Fetch("POST", "/batch", changed);
  ASSERT_EQ(incremental.status, 200);
  EXPECT_EQ(incremental.headers["x-campion-result-cache"], "miss");
  const std::string after = Fetch("GET", "/metrics").body;
  const auto delta = [&](const std::string& name) {
    return MetricValue(after, name) - MetricValue(before, name);
  };
  EXPECT_EQ(delta("server.result_cache_misses"), 1.0);
  EXPECT_EQ(delta("server.result_cache_hits"), 7.0);
  EXPECT_EQ(delta("server.phase.parse.count"), 1.0);
  EXPECT_EQ(delta("server.phase.diff.count"), 1.0);
  EXPECT_NE(incremental.body, first.body);
  StopServer();

  for (const unsigned threads : {1u, 4u}) {
    ServiceOptions options;
    options.diff.num_threads = threads;
    StartServer(options, static_cast<int>(threads));
    HttpClientResponse cold = Fetch("POST", "/batch", changed);
    ASSERT_EQ(cold.status, 200);
    EXPECT_EQ(service_->ResultCacheStats().misses, 8u);
    EXPECT_EQ(cold.body, incremental.body) << "threads=" << threads;
    StopServer();
  }
}

TEST_F(ResultCacheServerTest, BatchErrorStatuses) {
  StartServer(ServiceOptions{});
  EXPECT_EQ(Fetch("GET", "/batch").status, 405);
  EXPECT_EQ(Fetch("POST", "/batch", "not json").status, 400);
  EXPECT_EQ(Fetch("POST", "/batch", "{\"pairs\":[]}").status, 400);
  EXPECT_EQ(Fetch("POST", "/batch", "{\"pairs\":[{\"name\":\"x\"}]}").status,
            400);
  // A pair that fails to parse reports per-pair, not whole-batch.
  const std::string mixed =
      "{\"pairs\":[{\"name\":\"ok\",\"config1\":" +
      JsonString(testing::kFig1Cisco) +
      ",\"config2\":" + JsonString(testing::kFig1Juniper) +
      "},{\"name\":\"broken\",\"config1\":\"garbage neither vendor\","
      "\"config2\":\"likewise\"}]}";
  HttpClientResponse response = Fetch("POST", "/batch", mixed);
  ASSERT_EQ(response.status, 200);
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::ParseJson(response.body, parsed, &error)) << error;
  const util::JsonValue* pairs = parsed.Find("pairs");
  ASSERT_EQ(pairs->array.size(), 2u);
  EXPECT_EQ(pairs->array[0].Find("status")->number, 200.0);
  EXPECT_EQ(pairs->array[1].Find("status")->number, 422.0);
  EXPECT_FALSE(pairs->array[1].Find("error")->string.empty());
  EXPECT_EQ(parsed.Find("equivalent")->boolean, false);
}

}  // namespace
}  // namespace campion::server
