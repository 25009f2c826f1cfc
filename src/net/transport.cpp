#include "net/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"

namespace pardon::net {

namespace {

std::string ErrnoText(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Builds the sockaddr for `endpoint`; returns the usable length.
socklen_t FillSockaddr(const Endpoint& endpoint, sockaddr_storage& storage) {
  std::memset(&storage, 0, sizeof(storage));
  if (endpoint.backend == Backend::kTcp) {
    auto* addr = reinterpret_cast<sockaddr_in*>(&storage);
    addr->sin_family = AF_INET;
    addr->sin_port = htons(endpoint.port);
    if (inet_pton(AF_INET, endpoint.host.c_str(), &addr->sin_addr) != 1) {
      throw NetError("net: invalid IPv4 address '" + endpoint.host + "'");
    }
    return sizeof(sockaddr_in);
  }
  auto* addr = reinterpret_cast<sockaddr_un*>(&storage);
  addr->sun_family = AF_UNIX;
  if (endpoint.path.empty() ||
      endpoint.path.size() >= sizeof(addr->sun_path)) {
    throw NetError("net: unix socket path empty or too long: '" +
                   endpoint.path + "'");
  }
  std::memcpy(addr->sun_path, endpoint.path.c_str(), endpoint.path.size() + 1);
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                endpoint.path.size() + 1);
}

int OpenSocket(Backend backend) {
  const int fd =
      ::socket(backend == Backend::kTcp ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw NetError(ErrnoText("net: socket"));
  return fd;
}

// Waits until `fd` is readable; throws TimeoutError once the deadline has
// passed. `what` names the wait in error messages.
void PollReadable(int fd, std::chrono::steady_clock::time_point deadline,
                  const char* what) {
  for (;;) {
    const auto remaining = deadline - std::chrono::steady_clock::now();
    const auto remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count();
    if (remaining_ms <= 0) {
      throw TimeoutError(std::string("net: timeout waiting for ") + what);
    }
    pollfd entry{.fd = fd, .events = POLLIN, .revents = 0};
    const int ready = ::poll(&entry, 1,
                             static_cast<int>(std::min<long long>(
                                 remaining_ms, 1000 * 60 * 60)));
    if (ready > 0) return;
    if (ready < 0 && errno != EINTR) throw NetError(ErrnoText("net: poll"));
  }
}

std::chrono::steady_clock::time_point DeadlineAfter(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

}  // namespace

Endpoint Endpoint::Tcp(std::string host, std::uint16_t port) {
  Endpoint endpoint;
  endpoint.backend = Backend::kTcp;
  endpoint.host = std::move(host);
  endpoint.port = port;
  return endpoint;
}

Endpoint Endpoint::UnixSocket(std::string path) {
  Endpoint endpoint;
  endpoint.backend = Backend::kUnix;
  endpoint.path = std::move(path);
  return endpoint;
}

std::string Endpoint::ToString() const {
  if (backend == Backend::kTcp) {
    return "tcp:" + host + ":" + std::to_string(port);
  }
  return "unix:" + path;
}

std::optional<Endpoint> Endpoint::Parse(std::string_view text) {
  if (text.rfind("unix:", 0) == 0) {
    const std::string path(text.substr(5));
    if (path.empty()) return std::nullopt;
    return UnixSocket(path);
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string_view rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon == 0) return std::nullopt;
    const std::string host(rest.substr(0, colon));
    const std::string port_text(rest.substr(colon + 1));
    char* end = nullptr;
    const long port = std::strtol(port_text.c_str(), &end, 10);
    if (end == port_text.c_str() || *end != '\0' || port <= 0 ||
        port > 65535) {
      return std::nullopt;
    }
    return Tcp(host, static_cast<std::uint16_t>(port));
  }
  return std::nullopt;
}

Connection::Connection(int fd, double io_timeout_seconds,
                       std::size_t max_frame_payload)
    : fd_(fd),
      io_timeout_seconds_(io_timeout_seconds),
      reader_(max_frame_payload) {}

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      io_timeout_seconds_(other.io_timeout_seconds_),
      reader_(std::move(other.reader_)),
      bytes_sent_(other.bytes_sent_),
      bytes_received_(other.bytes_received_) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    io_timeout_seconds_ = other.io_timeout_seconds_;
    reader_ = std::move(other.reader_);
    bytes_sent_ = other.bytes_sent_;
    bytes_received_ = other.bytes_received_;
  }
  return *this;
}

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Connection::SendFrame(std::span<const std::uint8_t> payload) {
  if (fd_ < 0) throw NetError("net: SendFrame on a closed connection");
  const std::vector<std::uint8_t> framed = fl::FrameMessage(payload);
  std::size_t written = 0;
  while (written < framed.size()) {
    // MSG_NOSIGNAL: a peer that died mid-round must surface as EPIPE, not
    // kill the whole process with SIGPIPE.
    const ssize_t n = ::send(fd_, framed.data() + written,
                             framed.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError(ErrnoText("net: send"));
    }
    written += static_cast<std::size_t>(n);
  }
  bytes_sent_ += static_cast<std::int64_t>(framed.size());
  obs::AddCounter(obs::kNetBytesSentTotal,
                  static_cast<double>(framed.size()));
}

std::vector<std::uint8_t> Connection::RecvFrame() {
  if (fd_ < 0) throw NetError("net: RecvFrame on a closed connection");
  // A previous read burst may have delivered more than one frame.
  try {
    if (auto ready = reader_.Next(); ready.has_value()) return *ready;
  } catch (const fl::FramingError& error) {
    throw NetError(std::string("net: ") + error.what());
  }
  const auto deadline = DeadlineAfter(io_timeout_seconds_);
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    PollReadable(fd_, deadline, "frame");
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError(ErrnoText("net: recv"));
    }
    if (n == 0) {
      if (reader_.buffered() > 0) {
        throw NetError("net: connection closed mid-frame (" +
                       std::to_string(reader_.buffered()) +
                       " bytes buffered)");
      }
      throw NetError("net: connection closed by peer");
    }
    bytes_received_ += static_cast<std::int64_t>(n);
    obs::AddCounter(obs::kNetBytesReceivedTotal, static_cast<double>(n));
    reader_.Feed({chunk, static_cast<std::size_t>(n)});
    try {
      if (auto ready = reader_.Next(); ready.has_value()) return *ready;
    } catch (const fl::FramingError& error) {
      throw NetError(std::string("net: ") + error.what());
    }
  }
}

Listener Listener::Bind(const Endpoint& endpoint, double io_timeout_seconds) {
  const int fd = OpenSocket(endpoint.backend);
  if (endpoint.backend == Backend::kTcp) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    // A stale path from a killed predecessor would fail the bind.
    ::unlink(endpoint.path.c_str());
  }
  sockaddr_storage storage{};
  socklen_t len = 0;
  try {
    len = FillSockaddr(endpoint, storage);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0) {
    const std::string text = ErrnoText("net: bind " + endpoint.ToString());
    ::close(fd);
    throw NetError(text);
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const std::string text = ErrnoText("net: listen");
    ::close(fd);
    throw NetError(text);
  }
  Endpoint bound = endpoint;
  if (endpoint.backend == Backend::kTcp && endpoint.port == 0) {
    sockaddr_in resolved{};
    socklen_t resolved_len = sizeof(resolved);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&resolved),
                      &resolved_len) != 0) {
      const std::string text = ErrnoText("net: getsockname");
      ::close(fd);
      throw NetError(text);
    }
    bound.port = ntohs(resolved.sin_port);
  }
  return Listener(fd, std::move(bound), io_timeout_seconds);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      bound_(std::move(other.bound_)),
      io_timeout_seconds_(other.io_timeout_seconds_) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    CloseImpl();
    fd_ = std::exchange(other.fd_, -1);
    bound_ = std::move(other.bound_);
    io_timeout_seconds_ = other.io_timeout_seconds_;
  }
  return *this;
}

Listener::~Listener() { CloseImpl(); }

void Listener::CloseImpl() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (bound_.backend == Backend::kUnix) ::unlink(bound_.path.c_str());
  }
}

Connection Listener::Accept() {
  if (fd_ < 0) throw NetError("net: Accept on a closed listener");
  const auto deadline = DeadlineAfter(io_timeout_seconds_);
  for (;;) {
    PollReadable(fd_, deadline, "accept");
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return Connection(client, io_timeout_seconds_);
    if (errno == EINTR || errno == ECONNABORTED) continue;
    throw NetError(ErrnoText("net: accept"));
  }
}

Connection Connect(const Endpoint& endpoint, const RetryPolicy& retry) {
  double backoff = retry.initial_backoff_seconds;
  std::string last_error;
  int attempts = 0;
  while (attempts < std::max(retry.max_connect_attempts, 1)) {
    if (attempts++ > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * retry.backoff_multiplier,
                         retry.max_backoff_seconds);
    }
    const int fd = OpenSocket(endpoint.backend);
    sockaddr_storage storage{};
    socklen_t len = 0;
    try {
      len = FillSockaddr(endpoint, storage);
    } catch (...) {
      ::close(fd);
      throw;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&storage), len) == 0) {
      if (endpoint.backend == Backend::kTcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      return Connection(fd, retry.io_timeout_seconds);
    }
    // Saved before close(), which may itself set errno.
    const int connect_errno = errno;
    last_error = ErrnoText("connect");
    ::close(fd);
    // ECONNREFUSED / ENOENT: the server is not listening yet — the exact
    // race the backoff exists for. Anything else is unlikely to heal.
    if (connect_errno != ECONNREFUSED && connect_errno != ENOENT &&
        connect_errno != EAGAIN) {
      break;
    }
  }
  throw NetError("net: connect to " + endpoint.ToString() + " failed after " +
                 std::to_string(attempts) +
                 (attempts == 1 ? " attempt (" : " attempts (") + last_error +
                 ")");
}

void WriteEndpointFile(const std::string& path, const Endpoint& endpoint) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw NetError("net: cannot write endpoint file " + tmp);
    out << endpoint.ToString() << "\n";
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw NetError("net: cannot publish endpoint file " + path + ": " +
                   ec.message());
  }
}

Endpoint WaitForEndpointFile(const std::string& path,
                             double timeout_seconds) {
  const auto deadline = DeadlineAfter(timeout_seconds);
  for (;;) {
    {
      std::ifstream in(path);
      std::string line;
      if (in && std::getline(in, line) && !line.empty()) {
        const std::optional<Endpoint> endpoint = Endpoint::Parse(line);
        if (endpoint.has_value()) return *endpoint;
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw TimeoutError("net: endpoint file " + path + " did not appear");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace pardon::net
