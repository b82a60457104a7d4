// Microbenchmarks for the BDD substrate (an ablation: the paper's
// SemanticDiff cost is dominated by BDD operations, so these bound what
// the higher layers can achieve). Covers node construction, ITE, prefix
// range encoding, quantification, and satisfying-assignment extraction.
//
// With --bench_out=PATH the summary also records kernel counters (arena
// size, unique-table probe lengths, computed-cache hit rate) and ITE
// throughput numbers as JSON, so the perf trajectory across PRs is
// machine-diffable.

#include <chrono>

#include "bench/bench_util.h"
#include "bdd/bdd.h"
#include "encode/route_adv.h"

namespace {

using campion::bdd::BddManager;
using campion::bdd::BddRef;

void BM_VarAndChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BddManager mgr(static_cast<campion::bdd::Var>(n));
    BddRef f = mgr.True();
    for (int i = 0; i < n; ++i) f = mgr.And(f, mgr.VarTrue(i));
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_VarAndChain)->Arg(64)->Arg(512);

void BM_IteDeep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BddManager mgr(static_cast<campion::bdd::Var>(n));
  // A parity function: the classic worst case without complement edges.
  BddRef f = mgr.False();
  for (int i = 0; i < n; ++i) f = mgr.Xor(f, mgr.VarTrue(i));
  for (auto _ : state) {
    BddRef g = mgr.Not(f);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_IteDeep)->Arg(32)->Arg(128);

void BM_IteParityBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // Rebuilds parity in a fresh manager each iteration: cold caches, so
  // this measures real ITE recursion + node interning rather than the
  // warm top-level cache hit BM_IteDeep degenerates to.
  for (auto _ : state) {
    BddManager mgr(static_cast<campion::bdd::Var>(n));
    BddRef f = mgr.False();
    for (int i = 0; i < n; ++i) f = mgr.Xor(f, mgr.VarTrue(i));
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_IteParityBuild)->Arg(32)->Arg(96);

void BM_PrefixRangeEncode(benchmark::State& state) {
  BddManager mgr;
  campion::encode::RouteAdvLayout layout(mgr, {});
  for (auto _ : state) {
    for (int octet = 0; octet < 64; ++octet) {
      BddRef f = layout.MatchPrefixRange(campion::util::PrefixRange(
          campion::util::IpPrefix(
              campion::util::Ipv4Address(
                  10, static_cast<std::uint8_t>(octet), 0, 0),
              16),
          16, 24));
      benchmark::DoNotOptimize(f);
    }
  }
}
BENCHMARK(BM_PrefixRangeEncode);

void BM_ExistsProjection(benchmark::State& state) {
  BddManager mgr;
  campion::encode::RouteAdvLayout layout(
      mgr, {campion::util::Community(10, 10), campion::util::Community(10, 11)});
  BddRef f = mgr.And(
      layout.MatchPrefixRange(campion::util::PrefixRange(
          campion::util::IpPrefix(campion::util::Ipv4Address(10, 9, 0, 0), 16),
          16, 32)),
      layout.HasCommunity(campion::util::Community(10, 10)));
  auto mask = layout.NonPrefixVarMask();
  for (auto _ : state) {
    BddRef g = mgr.Exists(f, mask);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_ExistsProjection);

void BM_SatCount(benchmark::State& state) {
  BddManager mgr(64);
  BddRef f = mgr.False();
  for (int i = 0; i < 64; i += 2) {
    f = mgr.Or(f, mgr.And(mgr.VarTrue(i), mgr.VarTrue(i + 1)));
  }
  for (auto _ : state) {
    double count = mgr.SatCount(f);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SatCount);

// Times `reps` runs of `workload` and records ops/sec under `name`.
// `unit` says what one "op" is — the workloads differ by orders of
// magnitude in per-op work (a 512-variable manager build vs a single cached
// negation), so every rate carries its unit descriptor into the JSON.
template <typename Fn>
double TimeWorkload(const std::string& name, int reps, const std::string& unit,
                    Fn&& workload) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) workload();
  auto stop = std::chrono::steady_clock::now();
  double seconds = std::chrono::duration<double>(stop - start).count();
  double ops_per_sec = seconds > 0 ? reps / seconds : 0.0;
  campion::benchutil::BenchMetrics::Instance().RecordRate(
      name + "_ops_per_sec", ops_per_sec, "1 op = " + unit);
  std::cout << "  " << name << ": " << ops_per_sec << " ops/s (1 op = "
            << unit << ")\n";
  return ops_per_sec;
}

void PrintSummary() {
  auto& metrics = campion::benchutil::BenchMetrics::Instance();

  BddManager mgr(64);
  BddRef f = mgr.False();
  for (int i = 0; i < 64; i += 2) {
    f = mgr.Or(f, mgr.And(mgr.VarTrue(i), mgr.VarTrue(i + 1)));
  }
  std::cout << "64-variable pairwise-AND union: " << mgr.NodeCount(f)
            << " nodes, satcount=" << mgr.SatCount(f) << "\n";

  std::cout << "ITE throughput (kernel hot path):\n";
  // Workload 1: fresh-manager conjunction chain — exercises MakeNode and
  // the unique table's growth path.
  TimeWorkload("var_and_chain_512", 200,
               "one fresh 512-variable manager + 512-term AND chain", [] {
    BddManager m(512);
    BddRef g = m.True();
    for (int i = 0; i < 512; ++i) g = m.And(g, m.VarTrue(i));
    benchmark::DoNotOptimize(g);
  });
  // Workload 2: parity negation in a warm manager — exercises the ITE
  // computed cache and recursion machinery.
  BddManager parity_mgr(128);
  BddRef parity = parity_mgr.False();
  for (int i = 0; i < 128; ++i) {
    parity = parity_mgr.Xor(parity, parity_mgr.VarTrue(i));
  }
  BddRef sink = campion::bdd::kFalse;
  TimeWorkload("parity_not_128", 200000,
               "one Not() of a 128-variable parity (warm cache)", [&] {
    sink = parity_mgr.Not(parity);
    benchmark::DoNotOptimize(sink);
  });
  // Workload 3: prefix-range encoding — the encoder's dominant primitive.
  TimeWorkload("prefix_range_encode_64", 500,
               "one fresh manager + 64 prefix-range encodings", [] {
    BddManager m;
    campion::encode::RouteAdvLayout layout(m, {});
    for (int octet = 0; octet < 64; ++octet) {
      BddRef g = layout.MatchPrefixRange(campion::util::PrefixRange(
          campion::util::IpPrefix(
              campion::util::Ipv4Address(
                  10, static_cast<std::uint8_t>(octet), 0, 0),
              16),
          16, 24));
      benchmark::DoNotOptimize(g);
    }
  });

  // Workload 4: NAND chain — negation interleaved with conjunction. This is
  // the shape complement edges exist for: every Not is a bit flip, and each
  // intermediate function shares its node DAG with its complement, so the
  // chain allocates half the nodes a plain-edge kernel needs.
  TimeWorkload("not_chain_96", 2000,
               "one fresh 96-variable manager + 95-step NAND chain", [] {
    BddManager m(96);
    BddRef g = m.VarTrue(0);
    for (int i = 1; i < 96; ++i) g = m.Not(m.And(g, m.VarTrue(i)));
    benchmark::DoNotOptimize(g);
  });
  {
    BddManager m(96);
    BddRef g = m.VarTrue(0);
    for (int i = 1; i < 96; ++i) g = m.Not(m.And(g, m.VarTrue(i)));
    metrics.Record("not_chain_96_nodes", static_cast<double>(m.NodeCount(g)));
    metrics.Record("not_chain_96_arena",
                   static_cast<double>(m.Stats().arena_size));
  }
  // Workload 5: pairwise difference probes over a pool of prefix-range
  // sets — Campion's semantic-diff pattern (A ∧ ¬B for every route-map
  // clause pair). Standardized triples let Diff(a, b) and Subset(b, a)
  // share computed-cache entries.
  TimeWorkload("diff_pairs_16", 100,
               "one fresh manager + 16x16 Diff/Subset pair sweep", [] {
    BddManager m;
    campion::encode::RouteAdvLayout layout(m, {});
    std::vector<BddRef> pool;
    for (int i = 0; i < 16; ++i) {
      pool.push_back(layout.MatchPrefixRange(campion::util::PrefixRange(
          campion::util::IpPrefix(
              campion::util::Ipv4Address(
                  10, static_cast<std::uint8_t>(i * 8), 0, 0),
              16),
          16, static_cast<std::uint8_t>(17 + (i % 8)))));
    }
    for (BddRef a : pool) {
      for (BddRef b : pool) {
        BddRef d = m.Diff(a, b);
        benchmark::DoNotOptimize(d);
        bool sub = m.Subset(a, b);
        benchmark::DoNotOptimize(sub);
      }
    }
  });
  {
    BddManager m;
    campion::encode::RouteAdvLayout layout(m, {});
    std::vector<BddRef> pool;
    for (int i = 0; i < 16; ++i) {
      pool.push_back(layout.MatchPrefixRange(campion::util::PrefixRange(
          campion::util::IpPrefix(
              campion::util::Ipv4Address(
                  10, static_cast<std::uint8_t>(i * 8), 0, 0),
              16),
          16, static_cast<std::uint8_t>(17 + (i % 8)))));
    }
    for (BddRef a : pool) {
      for (BddRef b : pool) benchmark::DoNotOptimize(m.Diff(a, b));
    }
    metrics.Record("diff_pairs_16_arena",
                   static_cast<double>(m.Stats().arena_size));
  }

  // Kernel counters from a representative ITE-heavy manager.
  campion::bdd::BddStats stats = parity_mgr.Stats();
  std::cout << "parity manager kernel stats:\n"
            << "  arena size:        " << stats.arena_size << " nodes\n"
            << "  unique capacity:   " << stats.unique_capacity << " slots\n"
            << "  avg probe length:  " << stats.AvgProbeLength() << "\n"
            << "  cache capacity:    " << stats.cache_capacity << " slots\n"
            << "  cache hit rate:    " << stats.CacheHitRate() << "\n";
  metrics.Record("arena_size", static_cast<double>(stats.arena_size));
  metrics.Record("unique_capacity", static_cast<double>(stats.unique_capacity));
  metrics.Record("unique_probes", static_cast<double>(stats.unique_probes));
  metrics.Record("unique_lookups", static_cast<double>(stats.unique_lookups));
  metrics.Record("avg_probe_length", stats.AvgProbeLength());
  metrics.Record("cache_capacity", static_cast<double>(stats.cache_capacity));
  metrics.Record("cache_lookups", static_cast<double>(stats.cache_lookups));
  metrics.Record("cache_hits", static_cast<double>(stats.cache_hits));
  metrics.Record("cache_hit_rate", stats.CacheHitRate());
}

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(argc, argv,
                                      "BDD substrate microbenchmarks",
                                      PrintSummary);
}
