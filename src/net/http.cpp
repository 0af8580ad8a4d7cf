#include "net/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <string_view>

#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace psdns::net {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Writes the whole buffer, retrying on short writes; false on error.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

const char* reason_of(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 409: return "Conflict";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Status";
  }
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string trimmed(const std::string& text, std::size_t b, std::size_t e) {
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

/// Server-side budget for reading one request, head and body together.
/// The server handles connections one at a time, so a peer that connects
/// and then stalls is dropped after this long instead of holding up every
/// other client.
constexpr double kRequestReadDeadlineS = 2.0;

constexpr std::size_t kMaxHeadBytes = 8192;
constexpr std::size_t kMaxHeaderCount = 100;
constexpr std::size_t kMaxBodyBytes = std::size_t{1} << 20;

/// Parses the "Name: value" lines of `head` between `pos` and `end`
/// (exclusive; lines are \r\n-terminated, the terminator of the last line
/// may be absent). Folded continuations (lines starting with SP/HT, the
/// deprecated RFC 9112 obs-fold) are joined onto the previous header's
/// value with a single space. Returns false (naming the problem in
/// *error) on a line without a colon, an empty or whitespace-carrying
/// name, a continuation with no header to continue, or too many headers.
bool parse_header_lines(const std::string& head, std::size_t pos,
                        std::size_t end, HttpHeaders* out,
                        std::string* error) {
  while (pos < end) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos || eol > end) eol = end;
    if (eol == pos) {  // blank line inside the head
      pos = eol + 2;
      continue;
    }
    if (head[pos] == ' ' || head[pos] == '\t') {
      if (out->empty()) {
        *error = "folded header line with nothing to continue";
        return false;
      }
      const std::string continuation = trimmed(head, pos, eol);
      if (!continuation.empty()) {
        std::string& value = out->back().second;
        if (!value.empty()) value += ' ';
        value += continuation;
      }
      pos = eol + 2;
      continue;
    }
    const std::size_t colon = head.find(':', pos);
    if (colon == std::string::npos || colon >= eol) {
      *error = "malformed header line (no colon)";
      return false;
    }
    const std::string name = head.substr(pos, colon - pos);
    if (name.empty() ||
        name.find_first_of(" \t") != std::string::npos) {
      *error = "malformed header name";
      return false;
    }
    if (out->size() >= kMaxHeaderCount) {
      *error = "too many headers";
      return false;
    }
    out->emplace_back(name, trimmed(head, colon + 1, eol));
    pos = eol + 2;
  }
  return true;
}

/// Remaining budget in milliseconds for poll(); -1 when unbounded.
int remaining_ms(const util::Stopwatch& watch, double timeout_s) {
  if (timeout_s <= 0.0) return -1;
  const double left = timeout_s - watch.seconds();
  if (left <= 0.0) return 0;
  return static_cast<int>(left * 1e3) + 1;
}

/// One read() of at most `size` bytes once `fd` is readable within the
/// request deadline counted from `watch`; <= 0 on EOF, error or timeout.
ssize_t read_within_deadline(int fd, char* buf, std::size_t size,
                             const util::Stopwatch& watch) {
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, remaining_ms(watch, kRequestReadDeadlineS));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return -1;
    return ::read(fd, buf, size);
  }
}

/// Connects to host:port within the timeout budget; returns the fd.
int connect_with_timeout(const std::string& host, int port, double timeout_s,
                         const util::Stopwatch& watch) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) util::raise("http client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    util::raise("http client: bad host " + host);
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, remaining_ms(watch, timeout_s));
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (ready <= 0 || err != 0) {
      ::close(fd);
      util::raise("http client: cannot connect to " + host + ":" +
                  std::to_string(port) +
                  (ready <= 0 ? " (timeout)" : " (refused)"));
    }
  } else if (rc != 0) {
    ::close(fd);
    util::raise("http client: cannot connect to " + host + ":" +
                std::to_string(port));
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; IO is poll-gated below
  return fd;
}

std::string exchange(const std::string& host, int port,
                     const std::string& request, int* status,
                     double timeout_s,
                     HttpHeaders* response_headers = nullptr) {
  const util::Stopwatch watch;
  const int fd = connect_with_timeout(host, port, timeout_s, watch);
  if (!write_all(fd, request.data(), request.size())) {
    ::close(fd);
    util::raise("http client: request write failed to " + host + ":" +
                std::to_string(port));
  }
  std::string response;
  char buf[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int budget = remaining_ms(watch, timeout_s);
    const int ready = ::poll(&pfd, 1, budget);
    if (ready == 0) {
      ::close(fd);
      util::raise("http client: response timed out after " +
                  std::to_string(timeout_s) + "s from " + host + ":" +
                  std::to_string(port));
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      util::raise("http client: poll() failed reading from " + host);
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      ::close(fd);
      util::raise("http client: read failed from " + host + ":" +
                  std::to_string(port));
    }
    if (n == 0) break;  // peer closed: response complete
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    util::raise("http client: malformed response from " + host + ":" +
                std::to_string(port));
  }
  if (status != nullptr) {
    *status = 0;
    const std::size_t sp = response.find(' ');
    if (sp != std::string::npos) {
      *status = std::atoi(response.c_str() + sp + 1);
    }
  }
  if (response_headers != nullptr) {
    response_headers->clear();
    const std::size_t line_end = response.find("\r\n");
    if (line_end != std::string::npos && line_end < head_end) {
      std::string error;
      if (!parse_header_lines(response, line_end + 2, head_end,
                              response_headers, &error)) {
        util::raise("http client: " + error + " in response from " + host +
                    ":" + std::to_string(port));
      }
    }
  }
  return response.substr(head_end + 4);
}

std::string render_request(const std::string& method, const std::string& host,
                           const std::string& path, const HttpHeaders& headers,
                           const std::string* body) {
  std::ostringstream os;
  os << method << " " << path << " HTTP/1.1\r\nHost: " << host << "\r\n";
  for (const auto& [name, value] : headers) {
    os << name << ": " << value << "\r\n";
  }
  if (body != nullptr) {
    os << "Content-Type: application/json\r\nContent-Length: " << body->size()
       << "\r\n";
  }
  os << "Connection: close\r\n\r\n";
  if (body != nullptr) os << *body;
  return os.str();
}

}  // namespace

std::string header_get(const HttpHeaders& headers, std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return value;
  }
  return "";
}

std::string render_response(const HttpResponse& response) {
  std::ostringstream os;
  os << "HTTP/1.1 " << response.status << " " << reason_of(response.status)
     << "\r\n"
     << "Content-Type: " << response.content_type << "\r\n"
     << "Content-Length: " << response.body.size() << "\r\n";
  for (const auto& [name, value] : response.headers) {
    os << name << ": " << value << "\r\n";
  }
  os << "Connection: close\r\n\r\n" << response.body;
  return os.str();
}

HttpServer::HttpServer(Options options, Handler handler)
    : handler_(std::move(handler)) {
  PSDNS_REQUIRE(options.port >= 0 && options.port <= 65535,
                "http port out of range");
  PSDNS_REQUIRE(handler_ != nullptr, "http server needs a handler");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) util::raise("http server: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    util::raise("http server: bad bind address " + options.bind);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    close_fd(listen_fd_);
    util::raise("http server: cannot bind port " +
                std::to_string(options.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  // Self-pipe so the destructor can wake the poll() loop without closing
  // a descriptor another thread is blocked on.
  if (::pipe(stop_pipe_) != 0) {
    close_fd(listen_fd_);
    util::raise("http server: pipe() failed");
  }
  thread_ = std::thread([this] { serve(); });
}

HttpServer::~HttpServer() {
  const char wake = 'x';
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &wake, 1);
  if (thread_.joinable()) thread_.join();
  close_fd(listen_fd_);
  close_fd(stop_pipe_[0]);
  close_fd(stop_pipe_[1]);
}

void HttpServer::serve() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // destructor woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle(client);
    ::close(client);
  }
}

void HttpServer::handle(int client_fd) {
  // Read the request head; cap the read so a garbage peer cannot grow the
  // buffer without bound. POST bodies are read up to Content-Length. Both
  // reads share one deadline, so a silent or stalled peer is dropped.
  const util::Stopwatch watch;
  std::string raw;
  char buf[1024];
  std::size_t head_end = std::string::npos;
  while (raw.size() < kMaxHeadBytes) {
    head_end = raw.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    const ssize_t n = read_within_deadline(client_fd, buf, sizeof(buf), watch);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  requests_.fetch_add(1);
  const auto refuse = [&](const std::string& why) {
    const HttpResponse bad{400, "text/plain", why + "\n", {}};
    const std::string wire = render_response(bad);
    write_all(client_fd, wire.data(), wire.size());
  };
  if (head_end == std::string::npos) {
    // A head that filled the whole budget without terminating is a peer
    // problem worth a diagnosis; a short read is just a dead connection.
    if (raw.size() >= kMaxHeadBytes) refuse("request head too large");
    return;
  }

  HttpRequest request;
  const std::string head = raw.substr(0, head_end);
  const std::size_t sp1 = head.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : head.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    refuse("malformed request line");
    return;
  }
  request.method = head.substr(0, sp1);
  request.path = head.substr(sp1 + 1, sp2 - sp1 - 1);

  std::size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) line_end = head.size();
  std::string header_error;
  if (!parse_header_lines(head, std::min(line_end + 2, head.size()),
                          head.size(), &request.headers, &header_error)) {
    refuse(header_error);
    return;
  }

  const std::string length_text = request.header("Content-Length");
  std::size_t body_size = 0;
  if (!length_text.empty()) {
    const char* end = length_text.data() + length_text.size();
    const auto [stop, err] =
        std::from_chars(length_text.data(), end, body_size);
    if (err != std::errc{} || stop != end || body_size > kMaxBodyBytes) {
      refuse("Content-Length must be a decimal byte count up to 1 MiB");
      return;
    }
  }
  request.body = raw.substr(head_end + 4);
  while (request.body.size() < body_size) {
    const ssize_t n = read_within_deadline(client_fd, buf, sizeof(buf), watch);
    if (n <= 0) {
      refuse("request body shorter than Content-Length");
      return;
    }
    request.body.append(buf, static_cast<std::size_t>(n));
  }
  request.body.resize(body_size);

  HttpResponse response;
  try {
    response = handler_(request);
  } catch (const std::exception& e) {
    response = HttpResponse{500, "text/plain",
                            std::string("internal error: ") + e.what() + "\n"};
  }
  const std::string wire = render_response(response);
  write_all(client_fd, wire.data(), wire.size());
}

std::string http_get(const std::string& host, int port,
                     const std::string& path, int* status, double timeout_s,
                     const HttpHeaders& headers,
                     HttpHeaders* response_headers) {
  const std::string request =
      render_request("GET", host, path, headers, nullptr);
  return exchange(host, port, request, status, timeout_s, response_headers);
}

std::string http_post(const std::string& host, int port,
                      const std::string& path, const std::string& body,
                      int* status, double timeout_s,
                      const HttpHeaders& headers,
                      HttpHeaders* response_headers) {
  const std::string request =
      render_request("POST", host, path, headers, &body);
  return exchange(host, port, request, status, timeout_s, response_headers);
}

}  // namespace psdns::net
