// Wire-protocol unit tests: frame round trips, every malformed-header class
// (bad magic, unknown type/outcome, oversized length, short reads), and the
// key=value payload helpers the daemon and client both parse with.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

namespace flare::serve {
namespace {

TEST(ServeProtocol, RequestFrameRoundTrips) {
  RequestFrame frame;
  frame.type = RequestType::kIngest;
  frame.deadline_ms = 1234567;
  frame.payload = "scenario_id,machine_type\n0,default\n";

  const std::string wire = encode_request(frame);
  ASSERT_EQ(wire.size(), kRequestHeaderBytes + frame.payload.size());

  RequestFrame parsed;
  const HeaderParse header =
      parse_request_header(wire.substr(0, kRequestHeaderBytes), parsed);
  ASSERT_TRUE(header.ok) << header.error;
  EXPECT_EQ(parsed.type, RequestType::kIngest);
  EXPECT_EQ(parsed.deadline_ms, 1234567u);
  EXPECT_EQ(header.payload_len, frame.payload.size());
  EXPECT_EQ(wire.substr(kRequestHeaderBytes), frame.payload);
}

TEST(ServeProtocol, ResponseFrameRoundTripsWithLargeEpoch) {
  ResponseFrame frame;
  frame.outcome = Outcome::kShed;
  frame.type = RequestType::kEvaluate;
  frame.epoch = 0x0123456789ABCDEFull;
  frame.payload = "reason=eval queue full (64)\n";

  const std::string wire = encode_response(frame);
  ASSERT_EQ(wire.size(), kResponseHeaderBytes + frame.payload.size());

  ResponseFrame parsed;
  const HeaderParse header =
      parse_response_header(wire.substr(0, kResponseHeaderBytes), parsed);
  ASSERT_TRUE(header.ok) << header.error;
  EXPECT_EQ(parsed.outcome, Outcome::kShed);
  EXPECT_EQ(parsed.type, RequestType::kEvaluate);
  EXPECT_EQ(parsed.epoch, 0x0123456789ABCDEFull);
  EXPECT_EQ(header.payload_len, frame.payload.size());
}

TEST(ServeProtocol, EmptyPayloadRoundTrips) {
  RequestFrame frame;  // defaults: status, no deadline, empty payload
  const std::string wire = encode_request(frame);
  ASSERT_EQ(wire.size(), kRequestHeaderBytes);
  RequestFrame parsed;
  const HeaderParse header = parse_request_header(wire, parsed);
  ASSERT_TRUE(header.ok) << header.error;
  EXPECT_EQ(parsed.type, RequestType::kStatus);
  EXPECT_EQ(parsed.deadline_ms, 0u);
  EXPECT_EQ(header.payload_len, 0u);
}

TEST(ServeProtocol, RequestHeaderRejectsBadMagic) {
  RequestFrame frame;
  frame.type = RequestType::kStatus;
  std::string wire = encode_request(frame).substr(0, kRequestHeaderBytes);
  wire[0] = static_cast<char>(~wire[0]);

  RequestFrame parsed;
  const HeaderParse header = parse_request_header(wire, parsed);
  EXPECT_FALSE(header.ok);
  EXPECT_NE(header.error.find("bad magic"), std::string::npos);
}

TEST(ServeProtocol, RequestHeaderRejectsUnknownType) {
  RequestFrame frame;
  frame.type = RequestType::kStatus;
  std::string wire = encode_request(frame).substr(0, kRequestHeaderBytes);
  wire[2] = static_cast<char>(99);

  RequestFrame parsed;
  const HeaderParse header = parse_request_header(wire, parsed);
  EXPECT_FALSE(header.ok);
  EXPECT_NE(header.error.find("unknown request type"), std::string::npos);
  EXPECT_FALSE(is_known_request_type(99));
  EXPECT_FALSE(is_known_request_type(0));
  EXPECT_TRUE(is_known_request_type(
      static_cast<std::uint8_t>(RequestType::kShutdown)));
}

TEST(ServeProtocol, RequestHeaderRejectsOversizedLength) {
  RequestFrame frame;
  frame.type = RequestType::kStatus;
  std::string wire = encode_request(frame).substr(0, kRequestHeaderBytes);
  // A corrupted length field must not make the daemon try to buffer 4 GiB.
  for (std::size_t i = 7; i < 11; ++i) wire[i] = static_cast<char>(0xFF);

  RequestFrame parsed;
  const HeaderParse header = parse_request_header(wire, parsed);
  EXPECT_FALSE(header.ok);
  EXPECT_NE(header.error.find("exceeds cap"), std::string::npos);
}

TEST(ServeProtocol, HeadersRejectWrongSizeInput) {
  RequestFrame request;
  EXPECT_FALSE(parse_request_header("short", request).ok);
  ResponseFrame response;
  EXPECT_FALSE(parse_response_header("short", response).ok);
}

TEST(ServeProtocol, ResponseHeaderRejectsUnknownOutcome) {
  ResponseFrame frame;
  std::string wire = encode_response(frame).substr(0, kResponseHeaderBytes);
  wire[2] = static_cast<char>(7);  // past kShuttingDown

  ResponseFrame parsed;
  const HeaderParse header = parse_response_header(wire, parsed);
  EXPECT_FALSE(header.ok);
  EXPECT_NE(header.error.find("unknown outcome"), std::string::npos);
}

TEST(ServeProtocol, KvPayloadParsesLinesLaterKeysWin) {
  const auto kv = parse_kv_payload(
      "epoch=3\nfeature=feature2\r\nepoch=4\nnot a pair\n=nokey\n");
  EXPECT_EQ(kv_get(kv, "epoch").value_or(""), "4");
  EXPECT_EQ(kv_get(kv, "feature").value_or(""), "feature2");  // \r stripped
  EXPECT_FALSE(kv_get(kv, "missing").has_value());
  EXPECT_FALSE(kv_get(kv, "").has_value());
}

TEST(ServeProtocol, ErrorPayloadFoldsNewlinesIntoOneLine) {
  const std::string payload =
      error_payload("parse", "line one\nline two\nline three");
  const auto kv = parse_kv_payload(payload);
  EXPECT_EQ(kv_get(kv, "error").value_or(""), "parse");
  EXPECT_EQ(kv_get(kv, "message").value_or(""),
            "line one line two line three");
}

TEST(ServeProtocol, EnumNamesAreStable) {
  EXPECT_EQ(to_string(Outcome::kOk), "ok");
  EXPECT_EQ(to_string(Outcome::kShed), "shed");
  EXPECT_EQ(to_string(Outcome::kFailed), "failed");
  EXPECT_EQ(to_string(Outcome::kTimeout), "timeout");
  EXPECT_EQ(to_string(Outcome::kShuttingDown), "shutting-down");
}

}  // namespace
}  // namespace flare::serve
