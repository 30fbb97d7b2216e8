#include "serve/protocol.hpp"

namespace flare::serve {
namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint16_t get_u16(std::string_view b, std::size_t at) {
  return static_cast<std::uint16_t>(static_cast<unsigned char>(b[at]) |
                                    (static_cast<unsigned char>(b[at + 1]) << 8));
}

std::uint32_t get_u32(std::string_view b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(b[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint64_t get_u64(std::string_view b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(b[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

}  // namespace

bool is_known_request_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(RequestType::kIngest) &&
         raw <= static_cast<std::uint8_t>(RequestType::kShutdown);
}

std::string_view to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kShed: return "shed";
    case Outcome::kFailed: return "failed";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

std::string encode_request(const RequestFrame& frame) {
  std::string out;
  out.reserve(kRequestHeaderBytes + frame.payload.size());
  put_u16(out, kFrameMagic);
  out.push_back(static_cast<char>(frame.type));
  put_u32(out, frame.deadline_ms);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out += frame.payload;
  return out;
}

std::string encode_response(const ResponseFrame& frame) {
  std::string out;
  out.reserve(kResponseHeaderBytes + frame.payload.size());
  put_u16(out, kFrameMagic);
  out.push_back(static_cast<char>(frame.outcome));
  out.push_back(static_cast<char>(frame.type));
  put_u64(out, frame.epoch);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out += frame.payload;
  return out;
}

HeaderParse parse_request_header(std::string_view bytes, RequestFrame& frame) {
  HeaderParse result;
  if (bytes.size() != kRequestHeaderBytes) {
    result.error = "request header: expected " +
                   std::to_string(kRequestHeaderBytes) + " bytes, got " +
                   std::to_string(bytes.size());
    return result;
  }
  if (get_u16(bytes, 0) != kFrameMagic) {
    result.error = "request header: bad magic (not a flare-serve frame)";
    return result;
  }
  const std::uint8_t raw_type = static_cast<std::uint8_t>(bytes[2]);
  if (!is_known_request_type(raw_type)) {
    result.error = "request header: unknown request type " +
                   std::to_string(static_cast<int>(raw_type));
    return result;
  }
  const std::uint32_t len = get_u32(bytes, 7);
  if (len > kMaxPayloadBytes) {
    result.error = "request header: payload length " + std::to_string(len) +
                   " exceeds cap " + std::to_string(kMaxPayloadBytes);
    return result;
  }
  frame.type = static_cast<RequestType>(raw_type);
  frame.deadline_ms = get_u32(bytes, 3);
  result.ok = true;
  result.payload_len = len;
  return result;
}

HeaderParse parse_response_header(std::string_view bytes, ResponseFrame& frame) {
  HeaderParse result;
  if (bytes.size() != kResponseHeaderBytes) {
    result.error = "response header: expected " +
                   std::to_string(kResponseHeaderBytes) + " bytes, got " +
                   std::to_string(bytes.size());
    return result;
  }
  if (get_u16(bytes, 0) != kFrameMagic) {
    result.error = "response header: bad magic (not a flare-serve frame)";
    return result;
  }
  const std::uint8_t raw_outcome = static_cast<std::uint8_t>(bytes[2]);
  if (raw_outcome > static_cast<std::uint8_t>(Outcome::kShuttingDown)) {
    result.error = "response header: unknown outcome " +
                   std::to_string(static_cast<int>(raw_outcome));
    return result;
  }
  const std::uint8_t raw_type = static_cast<std::uint8_t>(bytes[3]);
  if (!is_known_request_type(raw_type)) {
    result.error = "response header: unknown request type " +
                   std::to_string(static_cast<int>(raw_type));
    return result;
  }
  const std::uint32_t len = get_u32(bytes, 12);
  if (len > kMaxPayloadBytes) {
    result.error = "response header: payload length " + std::to_string(len) +
                   " exceeds cap " + std::to_string(kMaxPayloadBytes);
    return result;
  }
  frame.outcome = static_cast<Outcome>(raw_outcome);
  frame.type = static_cast<RequestType>(raw_type);
  frame.epoch = get_u64(bytes, 4);
  result.ok = true;
  result.payload_len = len;
  return result;
}

std::map<std::string, std::string> parse_kv_payload(std::string_view payload) {
  std::map<std::string, std::string> kv;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t end = payload.find('\n', pos);
    if (end == std::string_view::npos) end = payload.size();
    std::string_view line = payload.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::size_t eq = line.find('=');
    if (eq != std::string_view::npos && eq > 0) {
      kv[std::string(line.substr(0, eq))] = std::string(line.substr(eq + 1));
    }
    pos = end + 1;
  }
  return kv;
}

std::optional<std::string> kv_get(const std::map<std::string, std::string>& kv,
                                  const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) return std::nullopt;
  return it->second;
}

std::string error_payload(std::string_view error_class, std::string_view message) {
  std::string out = "error=";
  out += error_class;
  out += "\nmessage=";
  // Keep the payload line-oriented: fold the message onto one line so the
  // key=value parse on the client side cannot split it.
  for (const char c : message) out.push_back(c == '\n' ? ' ' : c);
  out += "\n";
  return out;
}

}  // namespace flare::serve
