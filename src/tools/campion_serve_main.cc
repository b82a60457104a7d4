// campion_serve: the resident comparison daemon. Accepts diff requests
// over HTTP, runs each through the same pipeline as the one-shot CLI, and
// replays unchanged pairs from a result cache. docs/daemon.md is the
// authoritative API reference.
//
//   campion_serve [options]
//
// Options:
//   --port=N                 Listen port (default 8080; 0 = ephemeral,
//                            printed on startup).
//   --bind=ADDR              Bind address (default 127.0.0.1).
//   --threads=N              Most per-pair diffs (or /batch pairs) one
//                            request runs at once
//                            (0 = hardware concurrency, 1 = serial).
//   --http_threads=N         Connection-handling threads (default 4).
//   --result_cache_mb=N      Cached response bytes before LRU eviction
//                            (default 64; 0 = unlimited).
//   --flight_recorder_entries=N  Flight-recorder ring capacity behind
//                            /debug/requests: last N diff executions
//                            (default 64).
//   --help                   Print usage and exit 0.
//
// Shutdown: SIGTERM or SIGINT stops accepting, drains in-flight requests,
// and exits 0 (the CI smoke job asserts this).
//
// Exit status: 0 clean shutdown, 1 on usage or bind failures.

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

#include "server/http.h"
#include "server/service.h"

namespace {

struct Options {
  int port = 8080;
  std::string bind = "127.0.0.1";
  unsigned http_threads = 4;
  campion::server::ServiceOptions service;
};

void PrintUsage(std::ostream& out) {
  out << "usage: campion_serve [options]\n"
         "  --port=N        listen port (default 8080; 0 = ephemeral,\n"
         "                  printed on startup)\n"
         "  --bind=ADDR     bind address (default 127.0.0.1)\n"
         "  --threads=N     most per-pair diffs (or /batch pairs) one\n"
         "                  request runs at once\n"
         "                  (0 = hardware concurrency, 1 = serial)\n"
         "  --http_threads=N\n"
         "                  connection-handling threads (default 4)\n"
         "  --result_cache_mb=N\n"
         "                  result cache: rendered responses keyed by both\n"
         "                  config texts and vendors plus the options, so\n"
         "                  re-diffing an unchanged pair is a byte-identical\n"
         "                  replay; cached bytes before least-recently-used\n"
         "                  eviction (default 64; 0 = unlimited)\n"
         "  --flight_recorder_entries=N\n"
         "                  flight recorder: the last N diff executions\n"
         "                  (wall time, phase breakdown, cache disposition)\n"
         "                  for GET /debug/requests, span trees retained for\n"
         "                  the slowest 8 (default 64)\n"
         "  --help          print this message and exit 0\n"
         "exit status: 0 clean shutdown, 1 error\n";
}

int Usage() {
  PrintUsage(std::cerr);
  return 1;
}

bool ParseUnsigned(const std::string& value, const char* flag,
                   unsigned long* out) {
  char* end = nullptr;
  *out = std::strtoul(value.c_str(), &end, 10);
  if (value.empty() || end == nullptr || *end != '\0') {
    std::cerr << "error: invalid value for " << flag << ": '" << value
              << "'\n";
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Options* options, int* exit_code) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::string {
      return arg.substr(std::strlen(flag));
    };
    unsigned long number = 0;
    if (arg == "--help") {
      PrintUsage(std::cout);
      *exit_code = 0;
      return false;
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!ParseUnsigned(value_of("--port="), "--port", &number)) return false;
      if (number > 65535) {
        std::cerr << "error: port out of range\n";
        return false;
      }
      options->port = static_cast<int>(number);
    } else if (arg.rfind("--bind=", 0) == 0) {
      options->bind = value_of("--bind=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseUnsigned(value_of("--threads="), "--threads", &number)) {
        return false;
      }
      options->service.diff.num_threads = static_cast<unsigned>(number);
    } else if (arg.rfind("--http_threads=", 0) == 0) {
      if (!ParseUnsigned(value_of("--http_threads="), "--http_threads",
                         &number) ||
          number == 0) {
        std::cerr << "error: --http_threads must be >= 1\n";
        return false;
      }
      options->http_threads = static_cast<unsigned>(number);
    } else if (arg.rfind("--result_cache_mb=", 0) == 0) {
      if (!ParseUnsigned(value_of("--result_cache_mb="), "--result_cache_mb",
                         &number)) {
        return false;
      }
      options->service.result_cache_watermark_bytes = number * 1024 * 1024;
    } else if (arg.rfind("--flight_recorder_entries=", 0) == 0) {
      if (!ParseUnsigned(value_of("--flight_recorder_entries="),
                         "--flight_recorder_entries", &number) ||
          number == 0) {
        std::cerr << "error: --flight_recorder_entries must be >= 1\n";
        return false;
      }
      options->service.flight_recorder_entries = number;
    } else {
      std::cerr << "error: unknown option '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

volatile std::sig_atomic_t g_shutdown = 0;
int g_wakeup_pipe[2] = {-1, -1};

void HandleSignal(int) {
  g_shutdown = 1;
  // Self-pipe: the only async-signal-safe way to wake the main thread.
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_wakeup_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  int exit_code = 1;
  if (!ParseArgs(argc, argv, &options, &exit_code)) {
    return exit_code == 0 ? 0 : Usage();
  }

  if (::pipe(g_wakeup_pipe) != 0) {
    std::cerr << "error: pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  campion::server::DiffService service(options.service);
  campion::server::HttpServer server(
      options.bind, options.port,
      [&service](const campion::server::HttpRequest& request) {
        return service.Handle(request);
      },
      options.http_threads);
  service.SetKeepaliveReuses([&server] { return server.keepalive_reuses(); });
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "error: cannot listen on " << options.bind << ":"
              << options.port << ": " << error << "\n";
    return 1;
  }
  std::cout << "campion_serve listening on http://" << options.bind << ":"
            << server.port() << "/\n"
            << std::flush;

  // Block until a shutdown signal lands on the self-pipe.
  char byte;
  while (!g_shutdown) {
    if (::read(g_wakeup_pipe[0], &byte, 1) > 0) break;
    if (errno != EINTR) break;
  }
  std::cout << "campion_serve shutting down\n" << std::flush;
  server.Stop();
  return 0;
}
