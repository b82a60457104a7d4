// The campion command-line tool: compare two router configurations and
// report every behavioral difference, localized to the affected header
// space and the responsible configuration lines.
//
//   campion [options] <config1> <config2>
//
// Options (docs/cli.md is the authoritative reference):
//   --vendor1=cisco|juniper|auto   Format of the first config (default auto)
//   --vendor2=cisco|juniper|auto   Format of the second config
//   --checks=LIST                  Comma list of checks to run; default all.
//                                  (route-maps, acls, static, connected,
//                                   ospf, bgp, admin)
//   --route-map=NAME               Compare only the named route map pair.
//   --acl=NAME                     Compare only the named ACL pair.
//   --format=text|json             Output format (default text).
//   --threads=N                    Most per-pair diffs run at once
//                                  (0 = hardware concurrency, 1 = serial).
//   --trace_out=FILE               Write a JSON trace (phase spans + metrics,
//                                  see docs/trace_format.md) to FILE.
//   --trace_format=campion|chrome  Trace file format: the versioned campion
//                                  span tree (default) or Chrome Trace Event
//                                  JSON for Perfetto / chrome://tracing.
//   --stats                        Print a phase-timing and metrics summary
//                                  to stderr after the report.
//   --batch                        Treat the two arguments as directories and
//                                  compare files with matching stems pairwise.
//   --quiet                        Only set the exit status.
//   --help                         Print usage and exit 0.
//
// Exit status: 0 when behaviorally equivalent, 2 when differences were
// found, 1 on usage or parse failures.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/config_diff.h"
#include "core/json_report.h"
#include "frontend/loader.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_report.h"

namespace {

struct Options {
  std::string path1;
  std::string path2;
  campion::ir::Vendor vendor1 = campion::ir::Vendor::kUnknown;
  campion::ir::Vendor vendor2 = campion::ir::Vendor::kUnknown;
  campion::core::DiffOptions checks;
  std::string route_map;
  std::string acl;
  std::string trace_out;  // Empty = no trace file.
  bool trace_chrome = false;  // --trace_format=chrome
  bool stats = false;
  bool json = false;
  bool quiet = false;
  // Batch mode: the two positional arguments are directories; files with
  // matching stems are compared pairwise (the §5.1 "check all backup
  // pairs" workflow).
  bool batch = false;
};

bool ParseVendorFlag(const std::string& value, campion::ir::Vendor* out) {
  const std::optional<campion::ir::Vendor> vendor =
      campion::frontend::ParseVendorName(value);
  if (!vendor) {
    std::cerr << "error: unknown vendor '" << value
              << "' (expected cisco, juniper, or auto)\n";
    return false;
  }
  *out = *vendor;
  return true;
}

void PrintUsage(std::ostream& out) {
  out << "usage: campion [options] <config1> <config2>\n"
         "  --vendor1=cisco|juniper|auto  format of config1 (default auto)\n"
         "  --vendor2=cisco|juniper|auto  format of config2\n"
         "  --checks=LIST   comma list: route-maps,acls,static,connected,\n"
         "                  ospf,bgp,admin (default: all)\n"
         "  --route-map=N   compare only the named route map pair\n"
         "  --acl=N         compare only the named ACL pair\n"
         "  --format=text|json\n"
         "  --threads=N     most per-pair diffs run at once\n"
         "                  (0 = hardware concurrency, 1 = serial)\n"
         "  --trace_out=F   write a JSON trace of the run (phase spans +\n"
         "                  metrics, docs/trace_format.md) to file F\n"
         "  --trace_format=campion|chrome\n"
         "                  trace file format: campion span tree (default)\n"
         "                  or Chrome Trace Event JSON (Perfetto)\n"
         "  --stats         print a phase-timing and metrics summary to\n"
         "                  stderr after the report\n"
         "  --batch         treat the two arguments as directories and\n"
         "                  compare files with matching stems pairwise\n"
         "  --quiet         only set the exit status\n"
         "  --help          print this message and exit 0\n"
         "exit status: 0 equivalent, 2 differences found, 1 error\n";
}

int Usage() {
  PrintUsage(std::cerr);
  return 1;
}

// Batch mode: pair files across two directories by stem (filename without
// extension) and compare each pair. Returns the process exit status.
int RunBatch(const Options& options) {
  namespace fs = std::filesystem;
  auto stems = [](const std::string& dir) {
    std::vector<std::pair<std::string, fs::path>> out;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      out.emplace_back(entry.path().stem().string(), entry.path());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::pair<std::string, fs::path>> left;
  std::vector<std::pair<std::string, fs::path>> right;
  try {
    left = stems(options.path1);
    right = stems(options.path2);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  int compared = 0;
  int differing = 0;
  int failures = 0;
  for (const auto& [stem, path] : left) {
    auto match = std::find_if(right.begin(), right.end(),
                              [&](const auto& r) { return r.first == stem; });
    if (match == right.end()) {
      std::cerr << "warning: no counterpart for " << path << "\n";
      continue;
    }
    ++compared;
    try {
      auto loaded1 = campion::frontend::LoadConfigFile(path.string(),
                                                       options.vendor1);
      auto loaded2 = campion::frontend::LoadConfigFile(
          match->second.string(), options.vendor2);
      campion::core::DiffReport report = campion::core::ConfigDiff(
          loaded1.config, loaded2.config, options.checks);
      if (report.Equivalent()) {
        if (!options.quiet) std::cout << stem << ": equivalent\n";
      } else {
        ++differing;
        if (!options.quiet) {
          std::cout << stem << ": " << report.entries.size()
                    << " reported item(s)\n";
          std::cout << report.Render();
        }
      }
    } catch (const std::exception& error) {
      ++failures;
      std::cerr << "error: " << stem << ": " << error.what() << "\n";
    }
  }
  if (!options.quiet) {
    std::cout << compared << " pair(s) compared, " << differing
              << " with differences, " << failures << " failed to load\n";
  }
  if (failures > 0) return 1;
  return differing == 0 ? 0 : 2;
}

bool ParseArgs(int argc, char** argv, Options* options, int* exit_code) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::string {
      return arg.substr(std::strlen(flag));
    };
    if (arg == "--help") {
      PrintUsage(std::cout);
      *exit_code = 0;
      return false;
    } else if (arg.rfind("--vendor1=", 0) == 0) {
      if (!ParseVendorFlag(value_of("--vendor1="), &options->vendor1)) {
        return false;
      }
    } else if (arg.rfind("--vendor2=", 0) == 0) {
      if (!ParseVendorFlag(value_of("--vendor2="), &options->vendor2)) {
        return false;
      }
    } else if (arg.rfind("--checks=", 0) == 0) {
      std::string error;
      if (!campion::core::ParseChecks(value_of("--checks="), &options->checks,
                                      &error)) {
        std::cerr << "error: " << error << "\n";
        return false;
      }
    } else if (arg.rfind("--route-map=", 0) == 0) {
      options->route_map = value_of("--route-map=");
    } else if (arg.rfind("--acl=", 0) == 0) {
      options->acl = value_of("--acl=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      std::string value = value_of("--threads=");
      char* end = nullptr;
      unsigned long threads = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0') {
        std::cerr << "error: invalid thread count '" << value << "'\n";
        return false;
      }
      options->checks.num_threads = static_cast<unsigned>(threads);
    } else if (arg.rfind("--trace_out=", 0) == 0) {
      options->trace_out = value_of("--trace_out=");
      if (options->trace_out.empty()) {
        std::cerr << "error: --trace_out needs a file path\n";
        return false;
      }
    } else if (arg.rfind("--trace_format=", 0) == 0) {
      std::string format = value_of("--trace_format=");
      if (format == "chrome") {
        options->trace_chrome = true;
      } else if (format != "campion") {
        std::cerr << "error: unknown trace format '" << format
                  << "' (expected campion or chrome)\n";
        return false;
      }
    } else if (arg == "--stats") {
      options->stats = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      std::string format = value_of("--format=");
      if (format == "json") {
        options->json = true;
      } else if (format != "text") {
        std::cerr << "error: unknown format '" << format << "'\n";
        return false;
      }
    } else if (arg == "--quiet") {
      options->quiet = true;
    } else if (arg == "--batch") {
      options->batch = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown option '" << arg << "'\n";
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return false;
  options->path1 = positional[0];
  options->path2 = positional[1];
  return true;
}

// Emits the collected trace (file and/or stderr summary). The report has
// already been written to stdout, so tracing can never perturb it. Returns
// false when the trace file cannot be written.
bool EmitObservability(const Options& options) {
  if (!campion::obs::Enabled()) return true;
  std::vector<campion::obs::Span> spans = campion::obs::TakeThreadSpans();
  auto metrics = campion::obs::ProcessMetrics().Snapshot();
  if (options.stats) {
    std::cerr << campion::obs::RenderStatsSummary(spans, metrics);
  }
  if (!options.trace_out.empty()) {
    std::ofstream file(options.trace_out);
    if (!file) {
      std::cerr << "error: cannot open trace output file '"
                << options.trace_out << "' for writing\n";
      return false;
    }
    file << (options.trace_chrome
                 ? campion::obs::TraceToChromeJson(spans, metrics)
                 : campion::obs::TraceToJson(spans, metrics));
    file.flush();
    if (!file) {
      std::cerr << "error: failed writing trace output file '"
                << options.trace_out << "'\n";
      return false;
    }
  }
  return true;
}

int Run(const Options& options) {
  if (options.batch) return RunBatch(options);

  campion::frontend::LoadResult loaded1;
  campion::frontend::LoadResult loaded2;
  try {
    std::tie(loaded1, loaded2) = campion::frontend::LoadBoth(
        options.checks.num_threads,
        [&] {
          return campion::frontend::LoadConfigFile(options.path1,
                                                   options.vendor1);
        },
        [&] {
          return campion::frontend::LoadConfigFile(options.path2,
                                                   options.vendor2);
        });
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  if (!options.quiet) {
    for (const auto& d : loaded1.diagnostics) std::cerr << "warning: " << d << "\n";
    for (const auto& d : loaded2.diagnostics) std::cerr << "warning: " << d << "\n";
  }

  // Single-component modes.
  if (!options.route_map.empty()) {
    auto diffs = campion::core::DiffRouteMapPair(
        loaded1.config, options.route_map, loaded2.config, options.route_map);
    if (!options.quiet) {
      for (const auto& d : diffs) std::cout << d.table << "\n";
      std::cout << diffs.size() << " difference(s)\n";
    }
    return diffs.empty() ? 0 : 2;
  }
  if (!options.acl.empty()) {
    auto diffs = campion::core::DiffAclPair(loaded1.config, loaded2.config,
                                            options.acl);
    if (!options.quiet) {
      for (const auto& d : diffs) std::cout << d.table << "\n";
      std::cout << diffs.size() << " difference(s)\n";
    }
    return diffs.empty() ? 0 : 2;
  }

  campion::core::DiffReport report =
      campion::core::ConfigDiff(loaded1.config, loaded2.config, options.checks);
  if (!options.quiet) {
    if (options.json) {
      std::cout << campion::core::ReportToJson(report,
                                               loaded1.config.hostname,
                                               loaded2.config.hostname);
    } else {
      std::cout << report.Render();
    }
  }
  return report.Equivalent() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  int exit_code = 1;
  if (!ParseArgs(argc, argv, &options, &exit_code)) {
    return exit_code == 0 ? 0 : Usage();
  }
  if (!options.trace_out.empty() || options.stats) {
    campion::obs::SetEnabled(true);
  }
  int status = Run(options);
  if (!EmitObservability(options)) return 1;
  return status;
}
