#pragma once

// Minimal HTTP/1.1 transport for the campion_serve daemon (docs/daemon.md).
//
// The repo takes no third-party dependencies, so this is a small,
// self-contained server over POSIX sockets: one acceptor thread, a
// `util::ThreadPool` of connection workers, Content-Length framed bodies,
// and keep-alive connections with a receive timeout so an idle client
// cannot pin a worker forever. It deliberately implements only what the
// daemon's API needs — no chunked transfer, no TLS, no compression; put a
// real reverse proxy in front for anything internet-facing. A request with
// a Transfer-Encoding header or a Content-Length that is not a plain
// decimal count gets a 400 and the connection closes, so body bytes are
// never read as the next request.
//
// Shutdown is graceful: Stop() marks the server stopping so keep-alive
// loops finish their in-flight request and exit, shuts the listening
// socket down (unblocking the acceptor), closes it once the acceptor has
// exited, and drains the worker pool. The SIGTERM
// handler in campion_serve_main.cc funnels into Stop(), which is what the
// CI smoke job exercises.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace campion::server {

struct HttpRequest {
  std::string method;  // "GET", "POST", ... (uppercase as received).
  std::string path;    // Request target before '?', percent-decoded NOT
                       // applied (the API uses plain ASCII paths).
  std::string query;   // Raw query string after '?', empty when absent.
  // Header names lowercased; last occurrence wins (none of the API's
  // headers are list-valued), except that a repeated Content-Length is a
  // malformed request.
  std::map<std::string, std::string> headers;
  std::string body;

  // Value of `name` in the query string ("a=1&b=2"), or `fallback`.
  std::string QueryParam(const std::string& name,
                         const std::string& fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  // Extra response headers (e.g. the X-Campion-* metadata), emitted in
  // insertion order after the standard ones.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

// Standard reason phrase for the handful of status codes the API uses.
const char* StatusReason(int status);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  // `port` 0 asks the kernel for an ephemeral port (tests); port() reports
  // the bound one. `num_workers` is the connection-handling pool size —
  // requests on distinct connections are handled concurrently, one
  // in-flight request per connection.
  HttpServer(std::string bind_address, int port, HttpHandler handler,
             unsigned num_workers);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, and starts the acceptor thread. False (with `error`
  // set) when the address cannot be bound.
  bool Start(std::string* error);

  // Graceful shutdown; idempotent. Blocks until the acceptor has exited
  // and every in-flight request has been answered.
  void Stop();

  int port() const { return port_; }
  bool running() const { return running_; }

  // Requests served on an already-used connection — i.e. every request
  // after the first on each keep-alive connection. A persistent client
  // doing R requests over one connection adds R-1. /metrics surfaces this
  // as `server.keepalive_reuses`.
  std::uint64_t keepalive_reuses() const {
    return keepalive_reuses_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  std::string bind_address_;
  int port_;
  HttpHandler handler_;
  unsigned num_workers_;
  int listen_fd_ = -1;
  bool running_ = false;
  // Set before the listen fd closes; keep-alive loops check it between
  // requests so draining never waits on an idle connection's timeout.
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> keepalive_reuses_{0};
  std::thread acceptor_;
  std::unique_ptr<util::ThreadPool> workers_;
};

// Tiny blocking client for tests and bench/e2e: one request on its own
// connection, a Connect plus one Roundtrip of an HttpClientConnection.
// Returns false (with `error`) on connect/protocol failures; HTTP error
// statuses are returned in `out`.
struct HttpClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // Lowercased names.
  std::string body;
};
bool HttpFetch(const std::string& host, int port, const std::string& method,
               const std::string& target, const std::string& body,
               HttpClientResponse* out, std::string* error = nullptr);

// Persistent keep-alive client: one TCP connection, many requests. Used by
// the keep-alive tests and by bench/e2e, where reconnect latency would
// otherwise pollute the per-request numbers. Not thread-safe; one
// connection per thread.
class HttpClientConnection {
 public:
  HttpClientConnection() = default;
  ~HttpClientConnection();

  HttpClientConnection(const HttpClientConnection&) = delete;
  HttpClientConnection& operator=(const HttpClientConnection&) = delete;

  bool Connect(const std::string& host, int port, std::string* error = nullptr);
  bool connected() const { return fd_ >= 0; }

  // Sends one request and reads one Content-Length framed response on the
  // open connection. False (with `error`) on transport failures — the
  // connection is closed and must be Connect()ed again.
  bool Roundtrip(const std::string& method, const std::string& target,
                 const std::string& body, HttpClientResponse* out,
                 std::string* error = nullptr);

  void Close();

 private:
  int fd_ = -1;
  std::string host_;
  std::string buffer_;  // Bytes read past the previous response.
};

}  // namespace campion::server
