#include "serve/client.hpp"

#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/socket.hpp"

namespace flare::serve {
namespace {

void require_ok(util::IoStatus status, const char* step) {
  switch (status) {
    case util::IoStatus::kOk:
      return;
    case util::IoStatus::kTimeout:
      throw ServeError(std::string("serve client: ") + step + " timed out");
    case util::IoStatus::kClosed:
      throw ServeError(std::string("serve client: connection closed during ") +
                       step);
    case util::IoStatus::kError:
      throw ServeError(std::string("serve client: socket error during ") + step);
  }
}

ResponseFrame read_response(int fd, util::IoDeadline deadline) {
  char header[kResponseHeaderBytes];
  require_ok(util::recv_all(fd, header, sizeof(header), deadline),
             "response header read");
  ResponseFrame response;
  const HeaderParse parsed = parse_response_header(
      std::string_view(header, sizeof(header)), response);
  if (!parsed.ok) {
    throw ServeError("serve client: " + parsed.error);
  }
  response.payload.resize(parsed.payload_len);
  if (parsed.payload_len > 0) {
    require_ok(util::recv_all(fd, response.payload.data(), parsed.payload_len,
                              deadline),
               "response payload read");
  }
  return response;
}

}  // namespace

ServeClient::ServeClient(std::string socket_path,
                         std::chrono::milliseconds timeout)
    : socket_path_(std::move(socket_path)), timeout_(timeout) {}

ResponseFrame ServeClient::call(const RequestFrame& request) {
  return call_with_fault(request, ClientFaultKind::kNone, 0);
}

ResponseFrame ServeClient::call_with_fault(const RequestFrame& request,
                                           ClientFaultKind kind,
                                           std::uint32_t stall_ms) {
  const util::IoDeadline deadline = util::io_deadline_in(timeout_);
  util::Fd fd = util::connect_unix(socket_path_, deadline);
  std::string wire = encode_request(request);

  switch (kind) {
    case ClientFaultKind::kNone: {
      require_ok(util::send_all(fd.get(), wire.data(), wire.size(), deadline),
                 "request send");
      break;
    }
    case ClientFaultKind::kStall: {
      // Half the frame, a stall, then the rest — the daemon must assemble
      // the completed frame (its stall budget permitting), not misparse it.
      const std::size_t split = wire.size() / 2;
      require_ok(util::send_all(fd.get(), wire.data(), split, deadline),
                 "request send (stall prefix)");
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      require_ok(util::send_all(fd.get(), wire.data() + split,
                                wire.size() - split, deadline),
                 "request send (stall suffix)");
      break;
    }
    case ClientFaultKind::kMalformed: {
      // Corrupt the magic: the daemon answers a typed kFailed and closes.
      wire[0] = static_cast<char>(~wire[0]);
      require_ok(util::send_all(fd.get(), wire.data(), wire.size(), deadline),
                 "request send (malformed)");
      break;
    }
  }
  return read_response(fd.get(), deadline);
}

RequestFrame make_status_request() {
  RequestFrame frame;
  frame.type = RequestType::kStatus;
  return frame;
}

RequestFrame make_shutdown_request() {
  RequestFrame frame;
  frame.type = RequestType::kShutdown;
  return frame;
}

RequestFrame make_ingest_request(std::string scenario_csv,
                                 std::uint32_t deadline_ms) {
  RequestFrame frame;
  frame.type = RequestType::kIngest;
  frame.deadline_ms = deadline_ms;
  frame.payload = std::move(scenario_csv);
  return frame;
}

RequestFrame make_evaluate_request(const std::string& feature_spec,
                                   bool validate, std::uint32_t deadline_ms) {
  RequestFrame frame;
  frame.type = RequestType::kEvaluate;
  frame.deadline_ms = deadline_ms;
  frame.payload = "feature=" + feature_spec + "\n";
  if (validate) frame.payload += "validate=1\n";
  return frame;
}

RequestFrame make_report_request(const std::string& feature_specs,
                                 std::uint32_t deadline_ms) {
  RequestFrame frame;
  frame.type = RequestType::kReport;
  frame.deadline_ms = deadline_ms;
  if (!feature_specs.empty()) frame.payload = "features=" + feature_specs + "\n";
  return frame;
}

}  // namespace flare::serve
