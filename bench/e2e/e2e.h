#pragma once

// Internal interfaces of campion_bench, the repository's end-to-end
// benchmark (README.md in this directory).
//
// The benchmark reaches the system only through its public entry points —
// frontend::LoadConfig, core::ConfigDiff with the CLI's default options,
// DiffReport::Render, and the shipped campion_serve binary (run as a child
// process with no flags but --port=0, driven over loopback HTTP) — and
// times each layer from outside: spans it records around those calls, the
// spans and counters the pipeline already emits, and the daemon's
// /metrics exposition.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config_diff.h"
#include "obs/trace.h"

namespace campion::bench_e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// When a measured phase that started at `start` gives up on its remaining
// ops: at twice the run length, so a slow host still ends in bounded time.
inline Clock::time_point PhaseDeadline(Clock::time_point start,
                                       double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(2 * seconds));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The fixed catalogue. Every run reports every end-to-end metric, and every
// traced run every per-layer metric; BENCHMARK.json at the repository root
// lists the same names and units (the smoke test checks they agree).
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

using MetricValues = std::map<std::string, double>;

// Interpolated quantile of `values` (q in [0, 1]), as numpy's default.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// First and third quartile as Python's statistics.quantiles(values, n=4)
// computes them (the "exclusive" method); needs at least two values.
std::pair<double, double> Quartiles(std::vector<double> values);

// Shortest text that reads back as exactly `value`.
std::string FormatNumber(double value);

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct RunOptions {
  std::uint64_t seed = 1;
  // The op count is the workload's calibrated rate times this, so a run
  // lasts about this long on the reference host while both sides of an A/B
  // do identical work.
  double seconds = 15;
  bool trace = false;    // Add the traced pass and the per-layer metrics.
  int setup_reps = 3;    // setup_s is the median of this many set-ups.
  int trace_rounds = 2;  // Traced passes over each distinct one-shot input.
  std::string serve_binary;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // Check failures, first few kept.
  MetricValues end_to_end;
  MetricValues per_layer;
  std::vector<std::string> notes;   // Printed as "# ..." lines.
  // The traced pass, for --trace_out.
  std::vector<obs::Span> trace_spans;
  std::vector<std::pair<std::string, double>> trace_metrics;

  // Records a failed check; `counts_as_op` adds it to `failed`.
  void Fail(const std::string& what, bool counts_as_op);
};

struct Workload {
  const char* name;
  // Ops per second of --seconds, calibrated on the reference host.
  double ops_per_second;
  // Ops are rounded up to a multiple of this (one cycle over the inputs).
  std::uint64_t op_multiple;
  RunResult (*run)(const RunOptions& options, std::uint64_t ops);
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);
std::uint64_t OpCount(const Workload& workload, double seconds);

RunResult RunOneshotRoutemap(const RunOptions& options, std::uint64_t ops);
RunResult RunOneshotEquivalent(const RunOptions& options, std::uint64_t ops);
RunResult RunServeFleetBatch(const RunOptions& options, std::uint64_t ops);
RunResult RunServeSessionEdits(const RunOptions& options, std::uint64_t ops);

// Adds latency_p50_ms, latency_p95_ms and throughput_per_s, plus a note
// with the sample count behind the percentiles.
void AddLatencyMetrics(const std::vector<double>& latencies_ms,
                       double pairs_completed, double wall_seconds,
                       RunResult* result);

// Runs `setup` `reps` times, keeping the last result. Each earlier result
// is destroyed before the next set-up starts, so a set-up that owns a
// daemon stops it first. Stores the median set-up time in seconds.
template <typename Setup>
auto RepeatSetup(int reps, Setup&& setup, double* median_seconds)
    -> decltype(setup()) {
  decltype(setup()) state;
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = setup();
    seconds.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  *median_seconds = Median(seconds);
  return state;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from a traced pass
// ---------------------------------------------------------------------------

// One traced pass: a root span per compared pair (with the pipeline's own
// spans below it) and the pipeline's counters, summed over the pass.
struct TracedPass {
  std::vector<obs::Span> roots;
  std::map<std::string, double> metrics;
  double pairs = 0;
};

// Folds one comparison's metric snapshot into `pass` by the daemon's
// /metrics rule: counters add, watermarks (names containing "peak",
// "load_factor" or "resident_bytes") keep their maximum.
void FoldTraceMetrics(const std::vector<std::pair<std::string, double>>& snapshot,
                      TracedPass* pass);

// The span- and counter-derived per-layer metrics: layer self times per
// compared pair, header-localization share and work, pair parallelism and
// the BDD kernel's rates.
void AddTracedLayerMetrics(const TracedPass& pass, MetricValues* out);

// Per-layer metrics that only a daemon workload has, set to zero for the
// one-shot workloads so that every traced run reports the full catalogue.
void AddNoDaemonLayerMetrics(MetricValues* out);

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

// A child process whose standard output is a pipe to this process.
struct Child {
  pid_t pid = -1;
  int stdout_fd = -1;
};

// Starts `argv[0]` with `argv`. False (with `error`) when it cannot start.
bool SpawnWithStdoutPipe(const std::vector<std::string>& argv, Child* child,
                         std::string* error);

// Reads everything the child writes until it closes its output, echoing it
// to our standard output when `echo`, then waits for it. Returns the exit
// status from waitpid.
int CollectChild(Child* child, bool echo, std::string* output);

// ---------------------------------------------------------------------------
// Inputs, oracles and references (inputs.cc)
// ---------------------------------------------------------------------------

// Deterministic 64-bit generator (SplitMix64), so a seed gives the same
// inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  // Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

// Two configuration texts and the file names passed to LoadConfig.
struct TextPair {
  std::string label;
  std::string file1;
  std::string text1;
  std::string file2;
  std::string text2;
};

// The independent oracle's verdict on one matched policy pair: whether
// Campion must report at least one difference for it.
struct PolicyVerdict {
  core::DifferenceEntry::Kind kind = core::DifferenceEntry::Kind::kAclSemantic;
  std::string title;  // Entry title (ACL) or title prefix (route map).
  bool differs = false;
};

// What a correct run must reproduce for one distinct input.
struct Reference {
  std::string rendered;  // Render() of ConfigDiff at num_threads=1.
  std::size_t entries = 0;
  bool equivalent = false;
  std::vector<PolicyVerdict> verdicts;
  std::string error;  // Non-empty when parsing or the oracle check failed.
};

// Parses both texts, asks the src/baseline monolithic checkers for a
// verdict on every matched ACL and route-map pair, and diffs serially.
Reference ComputeReference(const TextPair& pair);

// Empty when `report` has a difference for exactly the policy pairs the
// oracle says differ; otherwise a description of the first disagreement.
std::string CheckAgainstOracle(const core::DiffReport& report,
                               const std::vector<PolicyVerdict>& verdicts);

// The seed changes the texts of every workload but not the amount of work
// in it, so that runs with different seeds measure the same thing. Where a
// seed renumbers addresses, it XORs each ACL address with a constant: that
// maps every prefix or wildcard to one of the same shape, so verdicts,
// difference counts and BDD sizes stay those of the original.

// oneshot_routemap: university core and border pairs (Cisco vs JunOS) at
// four filler sizes spread over [600, 1200], each moved by the seed.
std::vector<TextPair> UniversityPairs(std::uint64_t seed);
// oneshot_equivalent: eight whole routers, each as Cisco vs JunOS, their
// ACL addresses renumbered by the seed.
std::vector<TextPair> GeneratedRouterPairs(std::uint64_t seed);

// serve_fleet_batch: base ACL pairs that batches draw fresh variants from.
struct AclBase {
  ir::Acl acl1;
  ir::Acl acl2;
};
constexpr int kBatchPairs = 8;
// kBatchPairs slots x 2 alternates; rule counts rise with the slot from 50
// to 400, every fourth slot is IPv6, and one base in four is equivalent.
std::vector<AclBase> FleetBases();
// A never-seen variant of `base`: its ACL addresses renumbered by a
// constant drawn from `variant_seed`, so it keeps the base's verdicts and
// difference count while its text — and so both daemon cache keys — is
// new. Config 1 is Cisco, config 2 JunOS.
TextPair AclVariant(const AclBase& base, std::uint64_t variant_seed,
                    const std::string& label);

// serve_session_edits: the university core pair at a seeded filler size.
struct SessionScenario {
  std::string running;        // The Cisco router, unparsed.
  ir::RouterConfig candidate;  // Its JunOS replacement, as IR.
};
SessionScenario BuildSessionScenario(std::uint64_t seed);
// The JunOS replacement with the local-preference set by IMPORT-CORE
// replaced, unparsed.
std::string EditedCandidate(const ir::RouterConfig& candidate,
                            std::uint32_t local_preference);

}  // namespace campion::bench_e2e
