// Regenerates the §5.4 scalability experiment: SemanticDiff on randomly
// generated near-equivalent ACL pairs with 10 injected differences, at
// increasing rule counts. The paper (2.2 GHz CPU): 1000 rules -> under a
// second; 10,000 rules -> ~15 s, with Batfish's parse time (13 s)
// comparable to the diff time. We print the measured diff and parse times
// for the same sweep (absolute numbers differ with hardware; the shape —
// superlinear-but-tractable growth, parse comparable to diff — is the
// reproduced result).

#include <chrono>

#include "bench/bench_util.h"
#include "cisco/cisco_parser.h"
#include "cisco/cisco_unparser.h"
#include "core/semantic_diff.h"
#include "gen/acl_gen.h"
#include "juniper/juniper_parser.h"
#include "juniper/juniper_unparser.h"
#include "obs/trace.h"
#include "util/text_table.h"

namespace {

double DiffSeconds(const campion::ir::Acl& acl1,
                   const campion::ir::Acl& acl2, std::size_t* diffs_found) {
  auto start = std::chrono::steady_clock::now();
  campion::bdd::BddManager mgr;
  campion::encode::PacketLayout layout(mgr, acl1.family);
  auto diffs = campion::core::SemanticDiffAcls(layout, acl1, acl2);
  auto stop = std::chrono::steady_clock::now();
  *diffs_found = diffs.size();
  return std::chrono::duration<double>(stop - start).count();
}

void PrintSweep() {
  campion::util::TextTable table({"Rules", "Injected diffs", "Found diffs",
                                  "SemanticDiff (s)", "Parse both (s)"});
  for (int rules : {100, 500, 1000, 5000, 10000}) {
    campion::gen::AclGenOptions options;
    options.rules = rules;
    options.differences = 10;
    options.seed = 42;
    campion::gen::GeneratedAclPair pair = campion::gen::GenerateAclPair(options);

    std::size_t found = 0;
    double diff_seconds = DiffSeconds(pair.acl1, pair.acl2, &found);
    campion::benchutil::BenchMetrics::Instance().Record(
        "v4_diff_seconds_" + std::to_string(rules), diff_seconds);

    // Parse time: unparse both ACLs to native configs, then re-parse —
    // the analogue of the paper's Batfish parse-time comparison.
    auto cisco_config = campion::gen::WrapAclInConfig(
        pair.acl1, "gw-c", campion::ir::Vendor::kCisco);
    auto juniper_config = campion::gen::WrapAclInConfig(
        pair.acl2, "gw-j", campion::ir::Vendor::kJuniper);
    std::string cisco_text = campion::cisco::UnparseCiscoConfig(cisco_config);
    std::string juniper_text =
        campion::juniper::UnparseJuniperConfig(juniper_config);
    auto start = std::chrono::steady_clock::now();
    auto parsed_cisco = campion::cisco::ParseCiscoConfig(cisco_text);
    auto parsed_juniper = campion::juniper::ParseJuniperConfig(juniper_text);
    auto stop = std::chrono::steady_clock::now();
    double parse_seconds =
        std::chrono::duration<double>(stop - start).count();
    benchmark::DoNotOptimize(parsed_cisco);
    benchmark::DoNotOptimize(parsed_juniper);

    char diff_buffer[32];
    char parse_buffer[32];
    snprintf(diff_buffer, sizeof(diff_buffer), "%.3f", diff_seconds);
    snprintf(parse_buffer, sizeof(parse_buffer), "%.3f", parse_seconds);
    table.AddRow({std::to_string(rules), "10", std::to_string(found),
                  diff_buffer, parse_buffer});
  }
  std::cout << table.Render();
  std::cout << "\nPaper (2.2 GHz): 1000 rules < 1 s; 10,000 rules ~15 s; "
               "Batfish parse ~13 s for the 10,000 case.\n";

  // The same sweep on IPv6 ACLs: the symbolic address fields widen from 32
  // to 128 bits (the paper's experiment is v4-only; this quantifies the
  // width-parametric encoding's cost on the same rule counts).
  campion::util::TextTable table6({"Rules (IPv6)", "Injected diffs",
                                   "Found diffs", "SemanticDiff (s)"});
  for (int rules : {100, 500, 1000, 5000}) {
    campion::gen::AclGenOptions options;
    options.rules = rules;
    options.differences = 10;
    options.seed = 42;
    options.family = campion::util::AddressFamily::kIpv6;
    campion::gen::GeneratedAclPair pair =
        campion::gen::GenerateAclPair(options);
    std::size_t found = 0;
    double diff_seconds = DiffSeconds(pair.acl1, pair.acl2, &found);
    campion::benchutil::BenchMetrics::Instance().Record(
        "v6_diff_seconds_" + std::to_string(rules), diff_seconds);
    char diff_buffer[32];
    snprintf(diff_buffer, sizeof(diff_buffer), "%.3f", diff_seconds);
    table6.AddRow({std::to_string(rules), "10", std::to_string(found),
                   diff_buffer});
  }
  std::cout << "\n" << table6.Render();
}

// ITE cache lookups per ACL line, summed over the `encode` spans of one
// traced run on a fresh manager: the line predicates, the two permit-set
// folds (the shared suffix folded once) and the class walks. It counts
// work, not time, so one run gives the figure.
double IteLookupsPerLine(const campion::gen::GeneratedAclPair& pair) {
  campion::bdd::BddManager mgr;
  campion::encode::PacketLayout layout(mgr, pair.acl1.family);
  campion::obs::ResetThreadTrace();
  campion::obs::SetEnabled(true);
  auto diffs = campion::core::SemanticDiffAcls(layout, pair.acl1, pair.acl2);
  campion::obs::SetEnabled(false);
  benchmark::DoNotOptimize(diffs);
  double lookups = 0;
  for (const campion::obs::Span& span : campion::obs::TakeThreadSpans()) {
    if (span.name != "encode") continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == "ite_lookups") lookups += value;
    }
  }
  return lookups /
         static_cast<double>(pair.acl1.lines.size() + pair.acl2.lines.size());
}

void BM_SemanticDiffAcl(benchmark::State& state) {
  campion::gen::AclGenOptions options;
  options.rules = static_cast<int>(state.range(0));
  options.differences = 10;
  options.seed = 42;
  campion::gen::GeneratedAclPair pair = campion::gen::GenerateAclPair(options);
  for (auto _ : state) {
    campion::bdd::BddManager mgr;
    campion::encode::PacketLayout layout(mgr);
    auto diffs =
        campion::core::SemanticDiffAcls(layout, pair.acl1, pair.acl2);
    benchmark::DoNotOptimize(diffs);
  }
  state.counters["ite_lookups_per_line"] = IteLookupsPerLine(pair);
}
BENCHMARK(BM_SemanticDiffAcl)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_SemanticDiffAclV6(benchmark::State& state) {
  campion::gen::AclGenOptions options;
  options.rules = static_cast<int>(state.range(0));
  options.differences = 10;
  options.seed = 42;
  options.family = campion::util::AddressFamily::kIpv6;
  campion::gen::GeneratedAclPair pair = campion::gen::GenerateAclPair(options);
  for (auto _ : state) {
    campion::bdd::BddManager mgr;
    campion::encode::PacketLayout layout(mgr,
                                         campion::util::AddressFamily::kIpv6);
    auto diffs =
        campion::core::SemanticDiffAcls(layout, pair.acl1, pair.acl2);
    benchmark::DoNotOptimize(diffs);
  }
  state.counters["ite_lookups_per_line"] = IteLookupsPerLine(pair);
}
BENCHMARK(BM_SemanticDiffAclV6)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv, "S5.4 scalability: SemanticDiff on generated ACLs",
      PrintSweep);
}
