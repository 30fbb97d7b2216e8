#include "util/socket.hpp"

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

#ifdef FLARE_HAVE_UNIX_SOCKETS
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace flare::util {

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
#ifdef FLARE_HAVE_UNIX_SOCKETS
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
}

IoDeadline io_deadline_in(std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}

#ifdef FLARE_HAVE_UNIX_SOCKETS

namespace {

/// Remaining poll budget in ms; -1 for a never-deadline, 0 when expired.
int poll_budget_ms(IoDeadline deadline) {
  if (deadline == IoDeadline::max()) return -1;
  const auto now = std::chrono::steady_clock::now();
  if (deadline <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
  // Round up so a sub-millisecond remainder still polls instead of spinning.
  return static_cast<int>(ms.count()) + 1;
}

/// Waits for `events` on fd until the deadline. True = ready.
bool poll_one(int fd, short events, IoDeadline deadline) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int budget = poll_budget_ms(deadline);
    if (budget == 0) return false;
    const int rc = ::poll(&pfd, 1, budget);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw ServeError("unix socket path too long (" +
                     std::to_string(path.size()) + " bytes, max " +
                     std::to_string(sizeof(addr.sun_path) - 1) + "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw ServeError("cannot set O_NONBLOCK: " +
                     std::string(std::strerror(errno)));
  }
}

Fd listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = make_addr(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw ServeError("socket(AF_UNIX): " + std::string(std::strerror(errno)));
  }
  ::unlink(path.c_str());  // a stale socket file from a crashed daemon
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    throw ServeError("bind(" + path + "): " +
                     std::string(std::strerror(errno)));
  }
  if (::listen(fd.get(), backlog) < 0) {
    throw ServeError("listen(" + path + "): " +
                     std::string(std::strerror(errno)));
  }
  set_nonblocking(fd.get());
  return fd;
}

Fd accept_unix(int listener_fd) {
  for (;;) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd >= 0) {
      Fd conn(fd);
      set_nonblocking(conn.get());
      return conn;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Fd();
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Resource exhaustion is a load condition, not a daemon bug: report
      // "nothing accepted" so the caller's loop survives and retries. The
      // brief sleep keeps a still-readable listener from turning the
      // caller's poll loop into a busy spin while the limit persists.
      (void)::poll(nullptr, 0, 10);
      return Fd();
    }
    throw ServeError("accept: " + std::string(std::strerror(errno)));
  }
}

Fd connect_unix(const std::string& path, IoDeadline deadline) {
  const sockaddr_un addr = make_addr(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw ServeError("socket(AF_UNIX): " + std::string(std::strerror(errno)));
  }
  set_nonblocking(fd.get());
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS || errno == EAGAIN) {
      if (!poll_one(fd.get(), POLLOUT, deadline)) {
        throw ServeError("connect(" + path + "): timed out");
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
          err != 0) {
        throw ServeError("connect(" + path +
                         "): " + std::string(std::strerror(err ? err : errno)));
      }
      return fd;
    }
    throw ServeError("connect(" + path +
                     "): " + std::string(std::strerror(errno)) +
                     " (is the daemon running?)");
  }
}

IoStatus send_all(int fd, const void* data, std::size_t len,
                  IoDeadline deadline) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < len) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, p + sent, len - sent, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, p + sent, len - sent, 0);
#endif
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!poll_one(fd, POLLOUT, deadline)) return IoStatus::kTimeout;
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return IoStatus::kClosed;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus recv_all(int fd, void* data, std::size_t len, IoDeadline deadline) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_one(fd, POLLIN, deadline)) return IoStatus::kTimeout;
      continue;
    }
    if (errno == ECONNRESET) return IoStatus::kClosed;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

#else  // !FLARE_HAVE_UNIX_SOCKETS

void set_nonblocking(int) {
  throw ServeError("unix sockets are not available on this platform");
}
Fd listen_unix(const std::string&, int) {
  throw ServeError("unix sockets are not available on this platform");
}
Fd accept_unix(int) {
  throw ServeError("unix sockets are not available on this platform");
}
Fd connect_unix(const std::string&, IoDeadline) {
  throw ServeError("unix sockets are not available on this platform");
}
IoStatus send_all(int, const void*, std::size_t, IoDeadline) {
  return IoStatus::kError;
}
IoStatus recv_all(int, void*, std::size_t, IoDeadline) {
  return IoStatus::kError;
}

#endif  // FLARE_HAVE_UNIX_SOCKETS

}  // namespace flare::util
