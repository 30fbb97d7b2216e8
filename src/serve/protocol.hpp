// Wire protocol of the `flare serve` daemon (DESIGN.md §16).
//
// Both directions speak length-prefixed binary frames over a SOCK_STREAM
// Unix socket; payloads are UTF-8 text (CSV for scenario batches, key=value
// lines for everything else) so frames stay greppable in a capture.
//
//   request:   magic u16 | type u8 | deadline_ms u32 | len u32 | payload
//   response:  magic u16 | outcome u8 | type u8 | epoch u64 | len u32 | payload
//
// All integers little-endian. `deadline_ms` is the client's patience budget
// (0 = server default); the daemon's watchdog answers a typed kTimeout once
// it passes instead of leaving the request wedged in the queue. Every
// response carries the model epoch it was served from (snapshot-consistent
// reads: an evaluate running concurrently with a refit reports the epoch it
// actually read). A frame that fails to parse — wrong magic, unknown type,
// oversized length — is answered with kFailed + an error payload, never
// silently dropped.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace flare::serve {

inline constexpr std::uint16_t kFrameMagic = 0xF17A;
/// Hard cap on a single frame's payload; larger lengths are malformed (a
/// corrupted length field would otherwise make the daemon try to buffer
/// gigabytes for one client).
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;

/// Request kinds a client can send.
enum class RequestType : std::uint8_t {
  kIngest = 1,    ///< payload: scenario CSV batch (trace/scenario_io format)
  kEvaluate = 2,  ///< payload: "feature=SPEC\n" [+ "validate=1\n"]
  kReport = 3,    ///< payload: "features=SPEC;SPEC;...\n" (may be empty)
  kStatus = 4,    ///< payload empty; answered inline, never queued
  kShutdown = 5,  ///< payload empty; acks then stops the daemon
};

[[nodiscard]] bool is_known_request_type(std::uint8_t raw);

/// Terminal outcome of a request — every request gets exactly one.
enum class Outcome : std::uint8_t {
  kOk = 0,           ///< served; payload is the answer
  kShed = 1,         ///< load-shedding refusal; payload names the limit hit
  kFailed = 2,       ///< typed error; payload: "error=<class>\nmessage=..."
  kTimeout = 3,      ///< deadline passed before service; watchdog answered
  kShuttingDown = 4, ///< daemon stopping; request not served
};

[[nodiscard]] std::string_view to_string(Outcome outcome);

struct RequestFrame {
  RequestType type = RequestType::kStatus;
  std::uint32_t deadline_ms = 0;  ///< 0 = server default
  std::string payload;
};

struct ResponseFrame {
  Outcome outcome = Outcome::kOk;
  RequestType type = RequestType::kStatus;  ///< echoes the request kind
  std::uint64_t epoch = 0;  ///< model epoch the answer was served from
  std::string payload;
};

/// Fixed header sizes (frames are header + payload).
inline constexpr std::size_t kRequestHeaderBytes = 2 + 1 + 4 + 4;
inline constexpr std::size_t kResponseHeaderBytes = 2 + 1 + 1 + 8 + 4;

/// Serialises a frame to wire bytes.
[[nodiscard]] std::string encode_request(const RequestFrame& frame);
[[nodiscard]] std::string encode_response(const ResponseFrame& frame);

/// What a header parse found. On kOk, `payload_len` tells the caller how many
/// payload bytes follow. Parse failures carry a diagnostic — the daemon
/// answers kFailed with it and closes the connection (the stream offset is
/// unrecoverable after a malformed header).
struct HeaderParse {
  bool ok = false;
  std::string error;          ///< set when !ok
  std::uint32_t payload_len = 0;
};

/// Parses a request header from exactly kRequestHeaderBytes bytes; fills
/// `frame.type` / `frame.deadline_ms`.
[[nodiscard]] HeaderParse parse_request_header(std::string_view bytes,
                                               RequestFrame& frame);

/// Parses a response header from exactly kResponseHeaderBytes bytes.
[[nodiscard]] HeaderParse parse_response_header(std::string_view bytes,
                                                ResponseFrame& frame);

/// key=value payload helpers (one pair per line; later keys win).
[[nodiscard]] std::map<std::string, std::string> parse_kv_payload(
    std::string_view payload);
[[nodiscard]] std::optional<std::string> kv_get(
    const std::map<std::string, std::string>& kv, const std::string& key);

/// Builds the kFailed payload for a typed error: "error=<class>\nmessage=…".
[[nodiscard]] std::string error_payload(std::string_view error_class,
                                        std::string_view message);

}  // namespace flare::serve
