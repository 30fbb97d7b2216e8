// Minimal Unix-domain socket helpers for the service plane (DESIGN.md §16).
//
// The daemon and client both speak a small length-prefixed frame protocol
// (serve/protocol.hpp) over SOCK_STREAM Unix sockets. These wrappers keep the
// platform noise (fcntl, poll, EINTR, SIGPIPE) in one place and expose
// deadline-aware whole-buffer send/recv — the primitives the daemon's
// stall watchdog and the client's response timeout are built on. Everything
// is gated on FLARE_HAVE_UNIX_SOCKETS so non-POSIX builds still compile the
// rest of the tree (the serve subsystem refuses to start there).
#pragma once

#if defined(__unix__) || defined(__APPLE__)
#define FLARE_HAVE_UNIX_SOCKETS 1
#endif

#include <chrono>
#include <cstddef>
#include <string>

namespace flare::util {

/// Owning file-descriptor wrapper (move-only; -1 = empty).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// How a deadline-bounded whole-buffer IO call ended.
enum class IoStatus : unsigned char {
  kOk,       ///< every byte moved
  kTimeout,  ///< the deadline passed with bytes still outstanding
  kClosed,   ///< peer closed (recv) or connection reset (send)
  kError,    ///< unrecoverable socket error
};

using IoDeadline = std::chrono::steady_clock::time_point;

/// `timeout` from now.
[[nodiscard]] IoDeadline io_deadline_in(std::chrono::milliseconds timeout);

/// Marks `fd` non-blocking; throws flare::ServeError on failure.
void set_nonblocking(int fd);

/// Binds and listens on a Unix-domain socket at `path` (unlinking any stale
/// socket file first). Returns the non-blocking listener fd. Throws
/// flare::ServeError on failure (path too long for sockaddr_un, bind/listen
/// errors, or platforms without Unix sockets).
[[nodiscard]] Fd listen_unix(const std::string& path, int backlog = 64);

/// Accepts one pending connection; returns an empty Fd when none is pending.
/// The accepted fd is non-blocking. Throws flare::ServeError on hard errors.
[[nodiscard]] Fd accept_unix(int listener_fd);

/// Connects to the daemon socket at `path`, waiting up to the deadline for
/// the connection to be accepted. Returns a non-blocking connected fd.
/// Throws flare::ServeError on refusal, timeout, or absence of the socket.
[[nodiscard]] Fd connect_unix(const std::string& path, IoDeadline deadline);

/// Sends exactly `len` bytes (SIGPIPE suppressed), polling until `deadline`.
[[nodiscard]] IoStatus send_all(int fd, const void* data, std::size_t len,
                                IoDeadline deadline);

/// Receives exactly `len` bytes, polling until `deadline`. A clean EOF before
/// the first byte — or mid-buffer — reports kClosed.
[[nodiscard]] IoStatus recv_all(int fd, void* data, std::size_t len,
                                IoDeadline deadline);

}  // namespace flare::util
