#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace campion::server {

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
// Config files are small; 32 MiB leaves two full configs plus JSON quoting
// headroom while bounding what one connection can make the daemon buffer.
constexpr std::size_t kMaxBodyBytes = 32 * 1024 * 1024;
constexpr int kRecvTimeoutSeconds = 30;

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Reads until the socket delivers `want` more bytes into `buffer` or the
// peer closes / errors out.
bool ReadMore(int fd, std::string& buffer, std::size_t want) {
  char chunk[16 * 1024];
  while (want > 0) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;  // Closed, timeout, or error.
    buffer.append(chunk, static_cast<std::size_t>(n));
    want -= std::min(want, static_cast<std::size_t>(n));
  }
  return true;
}

bool WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a client that disconnected mid-response must not kill
    // the daemon with SIGPIPE.
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Parses the header fields of `head`, from `pos` through the blank line,
// into `headers` under lowercased names. Strict for both directions: no
// whitespace in a field name ("Content-Length : 5" would be stored under
// another name and read as no body) and at most one Content-Length,
// otherwise the body's length is in doubt. Optional whitespace around a
// value is not part of it.
bool ParseHeaderFields(const std::string& head, std::size_t pos,
                       std::map<std::string, std::string>* headers) {
  headers->clear();
  while (pos < head.size()) {
    std::size_t line_end = head.find("\r\n", pos);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(pos, line_end - pos);
    pos = line_end + 2;
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) return false;
    std::string name = ToLower(line.substr(0, colon));
    if (name.find_first_of(" \t") != std::string::npos) return false;
    if (name == "content-length" && headers->count(name) != 0) return false;
    const std::size_t value_start = line.find_first_not_of(" \t", colon + 1);
    const std::size_t value_end = line.find_last_not_of(" \t");
    (*headers)[name] = value_start == std::string::npos
                           ? ""
                           : line.substr(value_start,
                                         value_end - value_start + 1);
  }
  return true;
}

// Parses a request line plus headers out of `head` (which runs through
// the blank line). False on malformed input.
bool ParseRequestHead(const std::string& head, HttpRequest* out) {
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) return false;
  const std::string request_line = head.substr(0, line_end);
  std::size_t sp1 = request_line.find(' ');
  std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  out->method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return false;
  const std::size_t qmark = target.find('?');
  out->path = target.substr(0, qmark);
  out->query = qmark == std::string::npos ? "" : target.substr(qmark + 1);
  return ParseHeaderFields(head, line_end + 2, &out->headers);
}

// Parses a response status line plus headers out of `head` (which runs
// through the blank line). False on malformed input.
bool ParseResponseHead(const std::string& head, HttpClientResponse* out) {
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) return false;
  const std::string status_line = head.substr(0, line_end);
  if (status_line.size() < 12 || status_line.rfind("HTTP/1.", 0) != 0) {
    return false;
  }
  out->status = std::atoi(status_line.substr(9, 3).c_str());
  return ParseHeaderFields(head, line_end + 2, &out->headers);
}

std::string RenderResponse(const HttpResponse& response, bool keep_alive) {
  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << ' '
      << StatusReason(response.status) << "\r\n";
  out << "Content-Type: " << response.content_type << "\r\n";
  out << "Content-Length: " << response.body.size() << "\r\n";
  out << "Connection: " << (keep_alive ? "keep-alive" : "close") << "\r\n";
  for (const auto& [name, value] : response.headers) {
    out << name << ": " << value << "\r\n";
  }
  out << "\r\n";
  out << response.body;
  return out.str();
}

}  // namespace

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

std::string HttpRequest::QueryParam(const std::string& name,
                                    const std::string& fallback) const {
  std::size_t pos = 0;
  while (pos <= query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == name) {
      return pair.substr(eq + 1);
    }
    if (eq == std::string::npos && pair == name) return "";
    if (amp == query.size()) break;
    pos = amp + 1;
  }
  return fallback;
}

HttpServer::HttpServer(std::string bind_address, int port,
                       HttpHandler handler, unsigned num_workers)
    : bind_address_(std::move(bind_address)),
      port_(port),
      handler_(std::move(handler)),
      num_workers_(num_workers == 0 ? 1 : num_workers) {}

HttpServer::~HttpServer() { Stop(); }

bool HttpServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::inet_pton(AF_INET, bind_address_.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "invalid bind address: " + bind_address_;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (port_ == 0) {  // Report the kernel-assigned ephemeral port.
    socklen_t len = sizeof addr;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
        0) {
      port_ = ntohs(addr.sin_port);
    }
  }
  workers_ = std::make_unique<util::ThreadPool>(num_workers_);
  stopping_ = false;
  running_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void HttpServer::Stop() {
  if (!running_) return;
  stopping_ = true;
  // Shutting the listening socket down unblocks the acceptor's accept().
  // The descriptor closes only once the acceptor has exited, so accept()
  // never runs on a closed (or already reused) descriptor.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  workers_.reset();  // Drains and joins the connection workers.
  running_ = false;
}

void HttpServer::AcceptLoop() {
  while (!stopping_) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_) break;
      if (errno == EINTR) continue;
      break;  // Listening socket is gone; shut down.
    }
    timeval timeout{};
    timeout.tv_sec = kRecvTimeoutSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
    workers_->Submit([this, fd] { ServeConnection(fd); });
  }
}

void HttpServer::ServeConnection(int fd) {
  // Answers a framing error and drops the connection: once the framing is
  // in doubt, the bytes after the head cannot be trusted as the next
  // request.
  const auto reject = [fd](int status, const char* message) {
    WriteAll(fd, RenderResponse({status, "text/plain; charset=utf-8", {},
                                 message},
                                false));
    ::close(fd);
  };
  std::string buffer;
  bool first_request = true;
  while (!stopping_) {
    // Accumulate through the end of the header block.
    std::size_t header_end;
    while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      if (buffer.size() > kMaxHeaderBytes) {
        reject(400, "header block too large\n");
        return;
      }
      if (!ReadMore(fd, buffer, 1)) {  // Idle close or timeout.
        ::close(fd);
        return;
      }
    }

    HttpRequest request;
    if (!ParseRequestHead(buffer.substr(0, header_end + 2), &request)) {
      reject(400, "malformed request\n");
      return;
    }
    // Bodies are Content-Length framed only. A chunked body read as
    // Content-Length 0 would be parsed as the next request.
    if (request.headers.count("transfer-encoding") != 0) {
      reject(400, "Transfer-Encoding is not supported; send Content-Length\n");
      return;
    }
    std::size_t content_length = 0;
    if (auto it = request.headers.find("content-length");
        it != request.headers.end()) {
      const std::string& value = it->second;
      if (value.empty() ||
          !std::all_of(value.begin(), value.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
          })) {
        reject(400, "Content-Length must be a decimal byte count\n");
        return;
      }
      content_length = static_cast<std::size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
    }
    if (content_length > kMaxBodyBytes) {
      reject(413, "body too large\n");
      return;
    }
    const std::size_t have = buffer.size() - (header_end + 4);
    if (have < content_length && !ReadMore(fd, buffer, content_length - have)) {
      ::close(fd);
      return;
    }
    request.body = buffer.substr(header_end + 4, content_length);
    buffer.erase(0, header_end + 4 + content_length);
    if (!first_request) {
      keepalive_reuses_.fetch_add(1, std::memory_order_relaxed);
    }
    first_request = false;

    bool keep_alive = true;
    if (auto it = request.headers.find("connection");
        it != request.headers.end() && ToLower(it->second) == "close") {
      keep_alive = false;
    }
    if (stopping_) keep_alive = false;

    HttpResponse response;
    try {
      response = handler_(request);
    } catch (const std::exception& error) {
      response.status = 500;
      response.body = std::string("internal error: ") + error.what() + "\n";
    }
    if (!WriteAll(fd, RenderResponse(response, keep_alive)) || !keep_alive) {
      break;
    }
  }
  ::close(fd);
}

bool HttpFetch(const std::string& host, int port, const std::string& method,
               const std::string& target, const std::string& body,
               HttpClientResponse* out, std::string* error) {
  HttpClientConnection connection;
  return connection.Connect(host, port, error) &&
         connection.Roundtrip(method, target, body, out, error);
}

HttpClientConnection::~HttpClientConnection() { Close(); }

void HttpClientConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool HttpClientConnection::Connect(const std::string& host, int port,
                                   std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "invalid host address: " + host;
    Close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    Close();
    return false;
  }
  int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
  host_ = host;
  return true;
}

bool HttpClientConnection::Roundtrip(const std::string& method,
                                     const std::string& target,
                                     const std::string& body,
                                     HttpClientResponse* out,
                                     std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "not connected";
    return false;
  }
  std::ostringstream request;
  // No Connection header: HTTP/1.1 defaults to keep-alive, which is the
  // whole point of this client.
  request << method << ' ' << target << " HTTP/1.1\r\n"
          << "Host: " << host_ << "\r\n"
          << "Content-Length: " << body.size() << "\r\n\r\n"
          << body;
  if (!WriteAll(fd_, request.str())) {
    if (error != nullptr) *error = "send failed";
    Close();
    return false;
  }
  std::size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!ReadMore(fd_, buffer_, 1)) {
      if (error != nullptr) *error = "truncated response";
      Close();
      return false;
    }
  }
  if (!ParseResponseHead(buffer_.substr(0, header_end + 2), out)) {
    if (error != nullptr) *error = "malformed response head";
    Close();
    return false;
  }
  std::size_t content_length = 0;
  if (auto it = out->headers.find("content-length");
      it != out->headers.end()) {
    content_length = static_cast<std::size_t>(
        std::strtoull(it->second.c_str(), nullptr, 10));
  }
  const std::size_t have = buffer_.size() - (header_end + 4);
  if (have < content_length &&
      !ReadMore(fd_, buffer_, content_length - have)) {
    if (error != nullptr) *error = "truncated body";
    Close();
    return false;
  }
  out->body = buffer_.substr(header_end + 4, content_length);
  buffer_.erase(0, header_end + 4 + content_length);
  if (auto it = out->headers.find("connection");
      it != out->headers.end() && ToLower(it->second) == "close") {
    Close();  // Server is done with this connection (e.g. shutdown).
  }
  return true;
}

}  // namespace campion::server
