// Minimal blocking-socket HTTP/1.1 server + client for the exporter. One
// short-lived connection at a time, Connection: close — the endpoints serve
// pre-rendered strings, so there is nothing to gain from concurrency and
// everything to lose (a slow scraper must never hold telemetry locks). Each
// connection gets a fixed time budget for its request, so a client that
// connects and sends nothing costs one budget, not the server; the client
// likewise gives a server that accepts and never answers one budget.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "ncnas/obs/exporter.hpp"

namespace ncnas::obs {

namespace {

/// How long a connection may take to deliver its request head before the
/// server drops it. Scrapers send their GET in one packet at once; the bound
/// only has to stay below their own timeouts.
constexpr std::chrono::milliseconds kRequestBudget{500};
/// Poll slice while waiting on the listener or a connection, so stop() is
/// prompt.
constexpr int kPollSliceMs = 50;
/// A request head larger than this is answered from what has arrived.
constexpr std::size_t kMaxRequestBytes = 16384;
/// http_get refuses a response larger than this.
constexpr std::size_t kMaxResponseBytes = std::size_t{8} << 20;

void count_error(Counter* counter) {
  if (counter != nullptr) counter->inc();
}

bool send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "OK";
  }
}

/// Appends what `fd` delivers to `out` until `done(out)` holds, the peer
/// closes, or `out` reaches `cap` bytes. Waits in kPollSliceMs slices so a
/// set `stop` (optional) ends it promptly. Returns false when `budget` runs
/// out or `stop` is set first.
template <class Done>
bool recv_within(int fd, std::chrono::milliseconds budget, std::size_t cap,
                 const std::atomic<bool>* stop, Done done, std::string& out) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  char buf[4096];
  while (!done(out) && out.size() < cap) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0 || (stop != nullptr && stop->load(std::memory_order_relaxed))) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(left, kPollSliceMs)));
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // the peer closed (or failed): keep what arrived
    out.append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

std::string http_response(std::string_view request, const HttpHandler& handler) {
  int status = 400;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body = "bad request\n";
  if (request.starts_with("GET ")) {
    const std::size_t path_end = request.find(' ', 4);
    if (path_end != std::string_view::npos) {
      std::tie(status, content_type, body) =
          handler(std::string(request.substr(4, path_end - 4)));
    }
  } else if (!request.empty()) {
    status = 405;
    body = "only GET is supported\n";
  }
  std::ostringstream out;
  out << "HTTP/1.1 " << status << ' ' << status_text(status) << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

HttpExporter::HttpExporter(const std::string& bind_address, int port, Handler handler,
                           Counter* error_counter)
    : handler_(std::move(handler)), errors_(error_counter) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "ncnas exporter: socket() failed (" << std::strerror(errno)
              << "); live endpoints disabled, search continues\n";
    count_error(errors_);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    std::cerr << "ncnas exporter: bad bind address '" << bind_address
              << "'; live endpoints disabled, search continues\n";
    count_error(errors_);
    ::close(fd);
    return;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    std::cerr << "ncnas exporter: cannot serve on " << bind_address << ':' << port << " ("
              << std::strerror(errno) << "); live endpoints disabled, search continues\n";
    count_error(errors_);
    ::close(fd);
    return;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    count_error(errors_);
    ::close(fd);
    return;
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  thread_ = std::make_unique<std::thread>([this] { serve(); });
}

HttpExporter::~HttpExporter() { stop(); }

void HttpExporter::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_ && thread_->joinable()) thread_->join();
  thread_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpExporter::serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (!stop_.load(std::memory_order_relaxed)) count_error(errors_);
      continue;
    }
    // Read until the request head is complete; a head that reaches
    // kMaxRequestBytes is answered from what has arrived.
    std::string request;
    const auto head_done = [](const std::string& r) {
      return r.find("\r\n\r\n") != std::string::npos;
    };
    if (!recv_within(conn, kRequestBudget, kMaxRequestBytes, &stop_, head_done, request)) {
      if (!stop_.load(std::memory_order_relaxed)) count_error(errors_);
      ::close(conn);
      continue;
    }
    const std::string response = http_response(request, handler_);
    if (!send_all(conn, response.data(), response.size())) count_error(errors_);
    ::close(conn);
  }
}

std::optional<std::string> http_get(const std::string& host, int port, const std::string& path,
                                    int* status_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request.data(), request.size())) {
    ::close(fd);
    return std::nullopt;
  }
  // Connection: close, so the response ends when the server closes.
  std::string response;
  const bool closed = recv_within(
      fd, kHttpGetBudget, kMaxResponseBytes, nullptr, [](const std::string&) { return false; },
      response);
  ::close(fd);
  if (!closed || response.size() >= kMaxResponseBytes) return std::nullopt;
  if (response.rfind("HTTP/", 0) != 0) return std::nullopt;
  if (status_out != nullptr) {
    const std::size_t sp = response.find(' ');
    *status_out = sp == std::string::npos ? 0 : std::atoi(response.c_str() + sp + 1);
  }
  const std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) return std::nullopt;
  return response.substr(body_at + 4);
}

}  // namespace ncnas::obs
