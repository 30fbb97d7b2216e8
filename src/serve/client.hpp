// Client side of the serve protocol — used by `flare client`, the serve
// tests, and the soak/bench harnesses. One request per connection: the
// protocol allows pipelining, but a fresh connection per call keeps client
// failure modes independent (a malformed frame closes only its own
// connection) and is cheap over a Unix socket.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "serve/protocol.hpp"

namespace flare::serve {

/// A client-side fault for call_with_fault to inject.
enum class ClientFaultKind : unsigned char {
  kNone,       ///< send the frame normally
  kStall,      ///< send a prefix, sleep stall_ms, send the rest
  kMalformed,  ///< send a corrupted frame instead
};

class ServeClient {
 public:
  /// `timeout` bounds every transport step (connect, send, response read).
  /// Throws nothing here; errors surface on call().
  explicit ServeClient(std::string socket_path,
                       std::chrono::milliseconds timeout =
                           std::chrono::milliseconds(10000));

  /// Sends one request over a fresh connection and reads its response.
  /// Throws flare::ServeError on transport failure (daemon absent, timeout,
  /// connection reset, malformed response) — a *protocol-level* non-ok
  /// outcome is returned, not thrown: shed/timeout are answers, not errors.
  [[nodiscard]] ResponseFrame call(const RequestFrame& request);

  /// call() with an injected client fault (test harness): kStall sends a
  /// frame prefix, sleeps `stall_ms`, then completes it; kMalformed corrupts
  /// the frame magic and expects the daemon's typed kFailed answer.
  [[nodiscard]] ResponseFrame call_with_fault(const RequestFrame& request,
                                              ClientFaultKind kind,
                                              std::uint32_t stall_ms);

  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }

 private:
  std::string socket_path_;
  std::chrono::milliseconds timeout_;
};

/// Request builders for the five verbs.
[[nodiscard]] RequestFrame make_status_request();
[[nodiscard]] RequestFrame make_shutdown_request();
[[nodiscard]] RequestFrame make_ingest_request(std::string scenario_csv,
                                               std::uint32_t deadline_ms = 0);
[[nodiscard]] RequestFrame make_evaluate_request(const std::string& feature_spec,
                                                 bool validate = false,
                                                 std::uint32_t deadline_ms = 0);
[[nodiscard]] RequestFrame make_report_request(const std::string& feature_specs,
                                               std::uint32_t deadline_ms = 0);

}  // namespace flare::serve
