// campion_bench: the end-to-end benchmark. README.md in this directory
// explains the workloads, the metrics and how to A/B two builds.
//
//   campion_bench [--seed=N] [--seconds=S] [--repeat=N]
//       Runs every workload (each in its own child process) and prints
//       every metric; with --repeat, the median and quartiles of N runs,
//       rotating the workload order between rounds.
//   campion_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                 [--trace_out=PATH]
//       Runs one workload. The last line of output is one JSON object:
//       {"correct", "attempted", "failed", "metrics"}, the metrics being the
//       end-to-end ones, or with --trace=1 the per-layer ones.
//   campion_bench --smoke
//       Every workload at 1/50 of its op count; fails unless no op failed
//       and every metric BENCHMARK.json names is reported with its unit.
//   campion_bench --ab_parent=BIN --ab_change=BIN [--pairs=N] [--seed=N]
//       Alternating A/B of two builds with a verdict per metric and
//       workload (ab.sh wraps this).
//
// Exit status: 0 when every check passed, 1 on a failed check or run,
// 2 on usage errors.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench/e2e/e2e.h"
#include "obs/trace_report.h"
#include "util/json.h"

#ifndef CAMPION_SERVE_BINARY
#error "CAMPION_SERVE_BINARY must name the campion_serve build output"
#endif

namespace campion::bench_e2e {

const std::vector<Workload>& Workloads() {
  // Rates from Release builds on a 4-CPU x86-64 host; see README.md.
  static const std::vector<Workload> workloads = {
      {"oneshot_routemap", 16.0, 8, RunOneshotRoutemap},
      {"oneshot_equivalent", 14.0, 8, RunOneshotEquivalent},
      {"serve_fleet_batch", 16.0, 2, RunServeFleetBatch},
      {"serve_session_edits", 80.0, 8, RunServeSessionEdits},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::uint64_t OpCount(const Workload& workload, double seconds) {
  const double cycles =
      std::ceil(workload.ops_per_second * seconds /
                static_cast<double>(workload.op_multiple));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cycles)) *
         workload.op_multiple;
}

namespace {

struct Flags {
  std::string workload;
  RunOptions run;
  int repeat = 1;
  bool smoke = false;
  std::string trace_out;
  std::string ab_parent;
  std::string ab_change;
  int pairs = 10;
};

int Usage(const std::string& message) {
  std::cerr << "campion_bench: " << message << "\n"
            << "usage: campion_bench [--workload=NAME] [--seed=N] "
               "[--seconds=S] [--trace=0|1]\n"
               "                     [--trace_out=PATH] [--repeat=N] "
               "[--smoke]\n"
               "                     [--ab_parent=BIN --ab_change=BIN "
               "[--pairs=N]]\n"
               "workloads:";
  for (const Workload& workload : Workloads()) {
    std::cerr << ' ' << workload.name;
  }
  std::cerr << "\n";
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t equals = arg.find('=');
    const std::string key = arg.substr(0, equals);
    const std::string value =
        equals == std::string::npos ? "" : arg.substr(equals + 1);
    char* end = nullptr;
    auto number = [&] {
      const double parsed = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(parsed >= 0)) {
        *error = "invalid value for " + key + ": '" + value + "'";
      }
      return parsed;
    };
    if (key == "--workload") {
      flags->workload = value;
    } else if (key == "--seed") {
      flags->run.seed = static_cast<std::uint64_t>(number());
    } else if (key == "--seconds") {
      flags->run.seconds = number();
      if (error->empty() && flags->run.seconds <= 0) {
        *error = "--seconds must be positive";
      }
    } else if (key == "--trace") {
      flags->run.trace = number() != 0;
    } else if (key == "--repeat") {
      flags->repeat = static_cast<int>(number());
    } else if (key == "--pairs") {
      flags->pairs = static_cast<int>(number());
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else if (key == "--trace_out") {
      flags->trace_out = value;
    } else if (key == "--ab_parent") {
      flags->ab_parent = value;
    } else if (key == "--ab_change") {
      flags->ab_change = value;
    } else {
      *error = "unknown option '" + arg + "'";
    }
    if (!error->empty()) return false;
  }
  if (flags->repeat < 1 || flags->pairs < 1) {
    *error = "--repeat and --pairs must be at least 1";
    return false;
  }
  return true;
}

// --- one workload -------------------------------------------------------

void PrintMetricLine(const char* kind, const MetricSpec& spec, double value) {
  std::cout << std::left << std::setw(6) << kind << ' ' << std::setw(34)
            << spec.name << ' ' << FormatNumber(value) << ' ' << spec.unit
            << '\n';
}

int RunOneWorkload(const Workload& workload, const Flags& flags) {
  RunOptions options = flags.run;
  options.serve_binary = CAMPION_SERVE_BINARY;
  if (flags.smoke) {
    options.seconds /= 50;
    options.setup_reps = 1;
    options.trace_rounds = 1;
  }
  const std::uint64_t ops = OpCount(workload, options.seconds);
  std::cout << "# campion_bench workload=" << workload.name
            << " seed=" << options.seed
            << " seconds=" << FormatNumber(options.seconds) << " ops=" << ops
            << " trace=" << (options.trace ? 1 : 0)
            << " git_sha=" << CAMPION_GIT_SHA
            << " build_type=" << CAMPION_BUILD_TYPE
            << " hardware_concurrency=" << std::thread::hardware_concurrency()
            << "\n"
            << std::flush;

  RunResult result = workload.run(options, ops);
  if (!flags.trace_out.empty() && options.trace) {
    std::ofstream file(flags.trace_out);
    file << obs::TraceToJson(result.trace_spans, result.trace_metrics);
    if (!file) result.Fail("cannot write " + flags.trace_out, false);
  }

  struct Section {
    const char* kind;
    const std::vector<MetricSpec>& specs;
    const MetricValues& values;
  };
  std::vector<Section> sections = {
      {"e2e", EndToEndMetrics(), result.end_to_end}};
  if (options.trace) {
    sections.push_back({"layer", PerLayerMetrics(), result.per_layer});
  }
  auto value_of = [](const Section& section, const MetricSpec& spec) {
    const auto it = section.values.find(spec.name);
    return it == section.values.end() ? 0.0 : it->second;
  };
  for (const Section& section : sections) {
    for (const MetricSpec& spec : section.specs) {
      if (section.values.count(spec.name) == 0) {
        result.Fail(std::string("metric not measured: ") + spec.name, false);
      }
    }
  }
  for (const std::string& note : result.notes) std::cout << "# " << note << "\n";
  for (const std::string& error : result.errors) {
    std::cout << "# error: " << error << "\n";
  }
  std::cout << "# error_rate "
            << FormatNumber(result.attempted > 0
                                ? static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted)
                                : 0.0)
            << " (" << result.failed << " of " << result.attempted
            << " ops failed)\n";
  for (const Section& section : sections) {
    for (const MetricSpec& spec : section.specs) {
      PrintMetricLine(section.kind, spec, value_of(section, spec));
    }
  }

  // The result line: the end-to-end metrics, or in a traced run the
  // per-layer ones.
  const bool correct =
      result.errors.empty() && result.failed == 0 && result.attempted > 0;
  const Section& reported = sections.back();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* separator = "";
  for (const MetricSpec& spec : reported.specs) {
    std::cout << separator << "\"" << spec.name << "\": {\"value\": "
              << FormatNumber(value_of(reported, spec)) << ", \"unit\": \""
              << spec.unit << "\"}";
    separator = ", ";
  }
  std::cout << "}}\n" << std::flush;
  return correct ? 0 : 1;
}

// --- child runs ------------------------------------------------------------

struct Measured {
  double value = 0;
  std::string unit;
};

struct ChildRun {
  std::string workload;
  bool ok = false;  // Exited 0 and reported "correct": true.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Measured> metrics;  // e2e and layer lines.
};

std::string SelfPath() {
  char path[4096];
  const ssize_t n = ::readlink("/proc/self/exe", path, sizeof path - 1);
  return n > 0 ? std::string(path, static_cast<std::size_t>(n)) : "";
}

ChildRun RunChild(const std::string& binary, const std::string& workload,
                  const Flags& flags, bool trace, bool echo) {
  ChildRun run;
  run.workload = workload;
  std::vector<std::string> argv = {
      binary, "--workload=" + workload,
      "--seed=" + std::to_string(flags.run.seed),
      "--seconds=" + FormatNumber(flags.run.seconds),
      std::string("--trace=") + (trace ? "1" : "0")};
  if (flags.smoke) argv.push_back("--smoke");
  Child child;
  std::string error;
  if (!SpawnWithStdoutPipe(argv, &child, &error)) {
    std::cerr << "campion_bench: " << error << "\n";
    return run;
  }
  std::string output;
  const int status = CollectChild(&child, echo, &output);
  std::istringstream lines(output);
  std::string line;
  std::string last;
  while (std::getline(lines, line)) {
    if (!line.empty()) last = line;
    std::istringstream fields(line);
    std::string kind, name, value, unit;
    if (fields >> kind >> name >> value >> unit &&
        (kind == "e2e" || kind == "layer")) {
      run.metrics[name] = {std::strtod(value.c_str(), nullptr), unit};
    }
  }
  util::JsonValue json;
  if (util::ParseJson(last, json) && json.IsObject()) {
    const util::JsonValue* correct = json.Find("correct");
    run.attempted = static_cast<std::uint64_t>(json.NumberOr("attempted", 0));
    run.failed = static_cast<std::uint64_t>(json.NumberOr("failed", 0));
    run.ok = status == 0 && correct != nullptr && correct->boolean;
  }
  return run;
}

struct BenchmarkMetric {
  std::string name;
  std::string unit;
  std::string better;
  double bound = 0;
};

// The end_to_end and per_layer lists of BENCHMARK.json.
bool LoadBenchmarkJson(std::vector<BenchmarkMetric>* end_to_end,
                       std::vector<BenchmarkMetric>* per_layer) {
  std::ifstream file(CAMPION_BENCHMARK_JSON);
  std::stringstream text;
  text << file.rdbuf();
  util::JsonValue json;
  if (!file || !util::ParseJson(text.str(), json)) {
    std::cerr << "campion_bench: cannot read " << CAMPION_BENCHMARK_JSON
              << "\n";
    return false;
  }
  for (auto [key, out] : {std::pair{"end_to_end", end_to_end},
                          std::pair{"per_layer", per_layer}}) {
    const util::JsonValue* list = json.Find(key);
    if (list == nullptr || !list->IsArray()) return false;
    for (const util::JsonValue& item : list->array) {
      BenchmarkMetric metric;
      if (const util::JsonValue* v = item.Find("name")) metric.name = v->string;
      if (const util::JsonValue* v = item.Find("unit")) metric.unit = v->string;
      if (const util::JsonValue* v = item.Find("better")) {
        metric.better = v->string;
      }
      metric.bound = item.NumberOr("bound", 0);
      out->push_back(std::move(metric));
    }
  }
  return true;
}

std::string Summary(std::vector<double> values) {
  std::ostringstream out;
  out << FormatNumber(Median(values));
  if (values.size() >= 2) {
    const auto [q1, q3] = Quartiles(std::move(values));
    out << " [" << FormatNumber(q1) << ", " << FormatNumber(q3) << "]";
  }
  return out.str();
}

// Every workload, `repeat` rounds, each run in its own child process.
int RunAll(const Flags& flags) {
  const std::string self = SelfPath();
  const std::vector<Workload>& workloads = Workloads();
  std::vector<ChildRun> runs;
  for (int round = 0; round < flags.repeat; ++round) {
    for (std::size_t k = 0; k < workloads.size(); ++k) {
      const Workload& workload =
          workloads[(static_cast<std::size_t>(round) + k) % workloads.size()];
      runs.push_back(RunChild(self, workload.name, flags, /*trace=*/true,
                              /*echo=*/true));
    }
  }

  bool ok = true;
  std::cout << "\n== summary: " << flags.repeat << " run(s) per workload, "
            << (flags.repeat > 1 ? "median [q1, q3]" : "value") << " ==\n";
  for (const Workload& workload : workloads) {
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, std::string> units;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const ChildRun& run : runs) {
      if (run.workload != workload.name) continue;
      ok = ok && run.ok;
      attempted += run.attempted;
      failed += run.failed;
      for (const auto& [name, measured] : run.metrics) {
        values[name].push_back(measured.value);
        units[name] = measured.unit;
      }
    }
    std::cout << workload.name << ": error_rate "
              << FormatNumber(attempted > 0 ? static_cast<double>(failed) /
                                                  static_cast<double>(attempted)
                                            : 1.0)
              << " (" << failed << "/" << attempted << ")\n";
    for (const auto* specs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
      for (const MetricSpec& spec : *specs) {
        const auto it = values.find(spec.name);
        if (it == values.end()) continue;
        std::cout << "  " << std::left << std::setw(34) << spec.name << ' '
                  << Summary(it->second) << ' ' << units[spec.name] << "\n";
      }
    }
  }
  if (!flags.smoke) return ok ? 0 : 1;

  // The smoke checks: every run correct and every metric BENCHMARK.json
  // names reported by every workload, in the unit it states.
  std::vector<BenchmarkMetric> end_to_end;
  std::vector<BenchmarkMetric> per_layer;
  if (!LoadBenchmarkJson(&end_to_end, &per_layer)) return 1;
  for (const ChildRun& run : runs) {
    if (!run.ok || run.failed > 0) {
      std::cout << "smoke: " << run.workload << " failed or was incorrect\n";
      ok = false;
    }
    for (const auto* list : {&end_to_end, &per_layer}) {
      for (const BenchmarkMetric& metric : *list) {
        const auto it = run.metrics.find(metric.name);
        if (it == run.metrics.end() || it->second.unit != metric.unit) {
          std::cout << "smoke: " << run.workload << " did not report "
                    << metric.name << " in " << metric.unit << "\n";
          ok = false;
        }
      }
    }
  }
  std::cout << (ok ? "smoke: OK\n" : "smoke: FAILED\n");
  return ok ? 0 : 1;
}

// --- A/B ---------------------------------------------------------------------

struct Judgement {
  std::size_t wins = 0;  // Pairs in which the change read better.
  std::string verdict;
};

// The verdict rules: a gain needs the change to win at least 9 in 10 pairs
// and the medians to differ by more than the parent's interquartile range;
// a metric whose own spread exceeds its bound is unresolved unless every
// change run beats every parent run; otherwise the change must not be worse
// than the parent by more than the bound.
Judgement Judge(const BenchmarkMetric& metric,
                const std::vector<double>& parent,
                const std::vector<double>& change) {
  const bool lower = metric.better == "lower";
  auto better = [&](double a, double b) { return lower ? a < b : a > b; };
  Judgement judgement;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (better(change[i], parent[i])) ++judgement.wins;
  }
  if (parent.size() < 2) {
    judgement.verdict = "unresolved";
    return judgement;
  }
  const double parent_median = Median(parent);
  const double change_median = Median(change);
  const auto [q1, q3] = Quartiles(parent);
  const double worse_by =
      (lower ? change_median - parent_median : parent_median - change_median) /
      parent_median;
  const auto [change_min, change_max] =
      std::minmax_element(change.begin(), change.end());
  const auto [parent_min, parent_max] =
      std::minmax_element(parent.begin(), parent.end());
  const bool all_better = lower ? better(*change_max, *parent_min)
                                : better(*change_min, *parent_max);
  if (worse_by < 0 && 10 * judgement.wins >= 9 * parent.size() &&
      std::abs(change_median - parent_median) > q3 - q1) {
    judgement.verdict = "improved";
  } else if ((q3 - q1) / parent_median > metric.bound && !all_better) {
    judgement.verdict = "unresolved";
  } else {
    judgement.verdict = worse_by > metric.bound ? "regressed" : "no worse";
  }
  return judgement;
}

int RunAb(const Flags& flags) {
  std::vector<BenchmarkMetric> end_to_end;
  std::vector<BenchmarkMetric> per_layer;
  if (!LoadBenchmarkJson(&end_to_end, &per_layer)) return 1;
  bool ok = true;
  // runs[workload][side] in pair order; side 0 = parent, 1 = change.
  std::map<std::string, std::array<std::vector<ChildRun>, 2>> runs;
  for (int pair = 0; pair < flags.pairs; ++pair) {
    for (const Workload& workload : Workloads()) {
      const int first = pair % 2;  // Alternate which side runs first.
      for (int side : {first, 1 - first}) {
        std::cout << "# pair " << pair + 1 << "/" << flags.pairs << " "
                  << workload.name << " " << (side == 0 ? "parent" : "change")
                  << "\n"
                  << std::flush;
        ChildRun run = RunChild(side == 0 ? flags.ab_parent : flags.ab_change,
                                workload.name, flags, /*trace=*/false,
                                /*echo=*/false);
        if (!run.ok) {
          std::cout << "# run failed or was incorrect\n";
          ok = false;
        }
        runs[workload.name][side].push_back(std::move(run));
      }
    }
  }
  std::cout << "\nworkload metric: parent median [q1, q3] | change median "
               "[q1, q3] | change wins | verdict\n";
  for (const Workload& workload : Workloads()) {
    for (const BenchmarkMetric& metric : end_to_end) {
      std::array<std::vector<double>, 2> values;
      for (int side : {0, 1}) {
        for (const ChildRun& run : runs[workload.name][side]) {
          const auto it = run.metrics.find(metric.name);
          values[side].push_back(it == run.metrics.end() ? 0 : it->second.value);
        }
      }
      const Judgement judgement = Judge(metric, values[0], values[1]);
      std::cout << workload.name << ' ' << metric.name << ": "
                << Summary(values[0]) << " | " << Summary(values[1]) << " | "
                << judgement.wins << "/" << values[0].size() << " | "
                << judgement.verdict << "\n";
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace campion::bench_e2e

int main(int argc, char** argv) {
  using namespace campion::bench_e2e;
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) return Usage(error);
  if (!flags.ab_parent.empty() || !flags.ab_change.empty()) {
    if (flags.ab_parent.empty() || flags.ab_change.empty()) {
      return Usage("--ab_parent and --ab_change go together");
    }
    return RunAb(flags);
  }
  if (flags.workload.empty()) return RunAll(flags);
  const Workload* workload = FindWorkload(flags.workload);
  if (workload == nullptr) {
    return Usage("unknown workload '" + flags.workload + "'");
  }
  return RunOneWorkload(*workload, flags);
}
