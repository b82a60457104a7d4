// The one-shot workloads: the operator's `campion a.cfg b.conf`, run
// in-process through the public pipeline — LoadConfig twice, ConfigDiff
// with the CLI's default options, Render — by one closed-loop caller that
// cycles over a small set of distinct inputs.

#include <fstream>
#include <stdexcept>

#include "bench/e2e/e2e.h"
#include "frontend/loader.h"
#include "obs/metrics.h"
#include "util/rss.h"

namespace campion::bench_e2e {

namespace {

struct Input {
  TextPair texts;
  Reference reference;
};

struct Setup {
  std::vector<Input> inputs;
  std::vector<std::string> errors;
};

struct Timing {
  double parse_ms = 0;
  double diff_ms = 0;
  double render_ms = 0;
  double total_ms = 0;
  std::string error;  // Empty when the output matched the reference.
};

// One comparison, timed per layer, then checked against the input's
// serial reference bytes and oracle verdicts once the clock has stopped.
// The spans cost one relaxed load each unless tracing is on.
Timing Compare(const Input& input) {
  Timing timing;
  const TextPair& texts = input.texts;
  try {
    core::DiffReport report;
    std::string rendered;
    {
      obs::ScopedSpan op("op", texts.label);
      const Clock::time_point start = Clock::now();
      const frontend::LoadResult loaded1 =
          frontend::LoadConfig(texts.text1, texts.file1);
      const frontend::LoadResult loaded2 =
          frontend::LoadConfig(texts.text2, texts.file2);
      const Clock::time_point parsed = Clock::now();
      report = core::ConfigDiff(loaded1.config, loaded2.config,
                                core::DiffOptions{});
      const Clock::time_point diffed = Clock::now();
      {
        obs::ScopedSpan span("render");
        rendered = report.Render();
      }
      const Clock::time_point end = Clock::now();
      timing.parse_ms = MsBetween(start, parsed);
      timing.diff_ms = MsBetween(parsed, diffed);
      timing.render_ms = MsBetween(diffed, end);
      timing.total_ms = MsBetween(start, end);
    }
    if (rendered != input.reference.rendered) {
      timing.error = texts.label + ": report bytes differ from the serial "
                                   "reference";
    } else if (std::string disagreement =
                   CheckAgainstOracle(report, input.reference.verdicts);
               !disagreement.empty()) {
      timing.error = texts.label + ": " + disagreement;
    }
  } catch (const std::exception& error) {
    timing.error = texts.label + ": " + error.what();
  }
  return timing;
}

std::unique_ptr<Setup> BuildSetup(const RunOptions& options,
                                  std::vector<TextPair> (*make_pairs)(
                                      std::uint64_t),
                                  bool expect_equivalent) {
  auto setup = std::make_unique<Setup>();
  for (TextPair& texts : make_pairs(options.seed)) {
    Input input{std::move(texts), {}};
    input.reference = ComputeReference(input.texts);
    if (!input.reference.error.empty()) {
      setup->errors.push_back(input.reference.error);
    } else if (expect_equivalent && !input.reference.equivalent) {
      setup->errors.push_back(input.texts.label +
                              ": expected an equivalent pair");
    }
    setup->inputs.push_back(std::move(input));
  }
  // Warm-up: one untimed, uncounted comparison per distinct input.
  for (const Input& input : setup->inputs) {
    const Timing warm_up = Compare(input);
    if (!warm_up.error.empty()) {
      setup->errors.push_back("warm-up " + warm_up.error);
    }
  }
  return setup;
}

// Restarts this process's VmHWM at its current RSS (Linux 4.0+), so the
// reported peak belongs to the measured phase rather than to set-up.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

RunResult RunOneshot(const RunOptions& options, std::uint64_t ops,
                     std::vector<TextPair> (*make_pairs)(std::uint64_t),
                     bool expect_equivalent) {
  RunResult result;
  double setup_seconds = 0;
  const std::unique_ptr<Setup> setup = RepeatSetup(
      options.setup_reps,
      [&] { return BuildSetup(options, make_pairs, expect_equivalent); },
      &setup_seconds);
  for (const std::string& error : setup->errors) result.Fail(error, false);

  if (!ResetPeakRss()) {
    result.notes.push_back("VmHWM reset unavailable: peak_rss_mb includes "
                           "set-up");
  }
  std::vector<double> latencies;
  latencies.reserve(ops);
  double parse_ms = 0;
  double diff_ms = 0;
  double render_ms = 0;
  double parsed_bytes = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = PhaseDeadline(start, options.seconds);
  for (std::uint64_t i = 0; i < ops && Clock::now() < deadline; ++i) {
    const Input& input = setup->inputs[i % setup->inputs.size()];
    const Timing timing = Compare(input);
    ++result.attempted;
    if (!timing.error.empty()) {
      result.Fail(timing.error, true);
      continue;
    }
    latencies.push_back(timing.total_ms);
    parse_ms += timing.parse_ms;
    diff_ms += timing.diff_ms;
    render_ms += timing.render_ms;
    parsed_bytes += static_cast<double>(input.texts.text1.size() +
                                        input.texts.text2.size());
  }
  const double wall_seconds = MsBetween(start, Clock::now()) / 1000.0;
  const double peak_rss_mb =
      static_cast<double>(util::SampleProcessMemory().peak_rss_bytes) /
      (1024.0 * 1024.0);

  AddLatencyMetrics(latencies, static_cast<double>(latencies.size()),
                    wall_seconds, &result);
  result.end_to_end["setup_s"] = setup_seconds;
  result.end_to_end["peak_rss_mb"] = peak_rss_mb;
  if (!options.trace) return result;

  MetricValues& layers = result.per_layer;
  const double completed = std::max<double>(1.0, latencies.size());
  layers["frontend.parse_ms"] = parse_ms / completed;
  layers["frontend.parse_mb_per_s"] =
      parse_ms > 0 ? parsed_bytes / 1e6 / (parse_ms / 1000.0) : 0.0;
  layers["core.diff_ms"] = diff_ms / completed;
  layers["core.render_ms"] = render_ms / completed;

  // The traced pass, separate from the timed phase: every distinct input
  // `trace_rounds` times with the pipeline's own spans and counters on,
  // each right after an untraced comparison of the same input, so that the
  // overhead ratio compares like with like even while the host drifts.
  obs::ResetThreadTrace();
  obs::ProcessMetrics().Reset();
  double untraced_ms = 0;
  double traced_ms = 0;
  for (int round = 0; round < options.trace_rounds; ++round) {
    for (const Input& input : setup->inputs) {
      untraced_ms += Compare(input).total_ms;
      obs::SetEnabled(true);
      const Timing timing = Compare(input);
      obs::SetEnabled(false);
      if (!timing.error.empty()) result.Fail("traced " + timing.error, false);
      traced_ms += timing.total_ms;
    }
  }
  TracedPass pass;
  pass.roots = obs::TakeThreadSpans();
  pass.pairs =
      static_cast<double>(options.trace_rounds * setup->inputs.size());
  result.trace_metrics = obs::ProcessMetrics().Snapshot();
  FoldTraceMetrics(result.trace_metrics, &pass);
  AddTracedLayerMetrics(pass, &layers);
  AddNoDaemonLayerMetrics(&layers);
  layers["obs.trace_overhead_ratio"] =
      untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0.0;
  result.trace_spans = std::move(pass.roots);
  return result;
}

}  // namespace

RunResult RunOneshotRoutemap(const RunOptions& options, std::uint64_t ops) {
  return RunOneshot(options, ops, UniversityPairs,
                    /*expect_equivalent=*/false);
}

RunResult RunOneshotEquivalent(const RunOptions& options, std::uint64_t ops) {
  return RunOneshot(options, ops, GeneratedRouterPairs,
                    /*expect_equivalent=*/true);
}

}  // namespace campion::bench_e2e
