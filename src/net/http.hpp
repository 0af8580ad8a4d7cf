#pragma once
// Minimal HTTP/1.1 plumbing shared by every control-plane endpoint in the
// repo: the rank-0 metrics peephole (obs::MetricsServer) and the campaign
// service front end (svc::Service). Extracted from obs/metrics_server so
// one socket loop, one request parser and one client exist instead of a
// copy per subsystem.
//
// Server: a background accept thread dispatches each request to one
// user-supplied handler. One request per connection (Connection: close),
// loopback bind by default - these are control planes, not web servers.
// The handler runs on the server thread and must therefore not block on
// work that itself waits for an HTTP response from this server. Reading a
// request (head and body) has a 2 s deadline: a peer that connects and
// stalls is dropped, and a body shorter than its Content-Length is
// answered with 400, so one bad client cannot hold the serial loop.
//
// Client: blocking GET/POST with a wall-clock timeout covering connect,
// request write and response read (the seed implementation blocked forever
// on a stalled peer). timeout_s <= 0 restores the unbounded behaviour.
//
// Headers: request headers are parsed into HttpRequest::headers (folded
// obs-fold continuations joined with one space), and responses may carry
// custom headers - the trace-id propagation path (X-Psdns-Trace) rides on
// both. The whole request head is bounded (8 KiB, 100 headers); an
// oversized or malformed head is answered with 400, never a hang.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace psdns::net {

/// Ordered header name/value pairs, as received/emitted. Lookups are
/// case-insensitive (RFC 9110); duplicate names keep every occurrence.
using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// Case-insensitive lookup in `headers`; "" when absent (first match wins).
std::string header_get(const HttpHeaders& headers, std::string_view name);

struct HttpRequest {
  std::string method;   // "GET", "POST", ... (uppercase as received)
  std::string path;     // request target, e.g. "/jobs/3/result"
  std::string body;     // present on POST/PUT when Content-Length says so
  HttpHeaders headers;  // parsed request headers (folded lines joined)

  /// Case-insensitive header lookup; "" when absent.
  std::string header(std::string_view name) const {
    return header_get(headers, name);
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain";
  std::string body;
  HttpHeaders headers;  // extra response headers, emitted verbatim

  static HttpResponse json(std::string body, int status = 200) {
    return HttpResponse{status, "application/json", std::move(body), {}};
  }
  static HttpResponse text(std::string body, int status = 200) {
    return HttpResponse{status, "text/plain", std::move(body), {}};
  }
  static HttpResponse not_found() {
    return HttpResponse{404, "text/plain", "not found\n", {}};
  }
};

/// Serializes one response head + body ("HTTP/1.1 <status> ...").
std::string render_response(const HttpResponse& response);

class HttpServer {
 public:
  struct Options {
    int port = 0;  // 0 = ephemeral; port() reports the bound one
    std::string bind = "127.0.0.1";
  };

  /// Request handler; exceptions escaping it become a 500 response.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds, listens and starts the serving thread; throws util::Error
  /// (naming the port) when the socket cannot be bound.
  HttpServer(Options options, Handler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound TCP port (resolves ephemeral binds).
  int port() const { return port_; }

  /// Requests served so far (all routes, including 404s).
  std::int64_t requests() const { return requests_.load(); }

 private:
  void serve();
  void handle(int client_fd);

  Handler handler_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<std::int64_t> requests_{0};
  std::thread thread_;
};

/// Blocking HTTP GET: returns the response body; `status` (optional)
/// receives the HTTP status code. `timeout_s` bounds the whole exchange
/// (connect + write + read); <= 0 waits forever. `headers` are emitted
/// verbatim after Host; `response_headers` (optional) receives the parsed
/// response headers. Throws util::Error on connect/IO failure or timeout
/// (naming host:port).
std::string http_get(const std::string& host, int port,
                     const std::string& path, int* status = nullptr,
                     double timeout_s = 30.0, const HttpHeaders& headers = {},
                     HttpHeaders* response_headers = nullptr);

/// Blocking HTTP POST of `body` (Content-Type: application/json). Same
/// timeout, header and error contract as http_get.
std::string http_post(const std::string& host, int port,
                      const std::string& path, const std::string& body,
                      int* status = nullptr, double timeout_s = 30.0,
                      const HttpHeaders& headers = {},
                      HttpHeaders* response_headers = nullptr);

}  // namespace psdns::net
