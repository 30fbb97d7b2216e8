// Seeded client-side fault plan for the serve tests: which requests a test
// client stalls mid-frame, sends malformed, or fires as a burst. Decisions
// are a pure function of (seed, client key, request index), so a test's
// fault pattern is bit-reproducible across runs and thread schedules.
// Rates are probabilities in [0, 1]; stall and malformed partition one
// uniform draw per request, so streams stay layout-stable when one rate
// changes. ServeClient::call_with_fault carries out the decision.
#pragma once

#include <cstdint>
#include <string_view>

#include "serve/client.hpp"
#include "util/seed_stream.hpp"

namespace flare::testing {

struct ClientFaultOptions {
  double stall_rate = 0.0;
  double malformed_rate = 0.0;
  double burst_rate = 0.0;
  std::uint64_t seed = 0x5E27EEull;
};

class ClientFaultModel {
 public:
  ClientFaultModel() = default;
  explicit ClientFaultModel(ClientFaultOptions options) : options_(options) {}

  /// Per-request client fault (stall / malformed partition one draw).
  [[nodiscard]] serve::ClientFaultKind client_fault(
      std::string_view client_key, std::uint64_t request_index) const {
    const double draw = uniform(client_key, request_index, 0x11u);
    if (draw < options_.stall_rate) return serve::ClientFaultKind::kStall;
    if (draw < options_.stall_rate + options_.malformed_rate) {
      return serve::ClientFaultKind::kMalformed;
    }
    return serve::ClientFaultKind::kNone;
  }

  /// Per-request burst decision (independent draw — a burst can also stall).
  [[nodiscard]] bool burst(std::string_view client_key,
                           std::uint64_t request_index) const {
    if (options_.burst_rate <= 0.0) return false;
    return uniform(client_key, request_index, 0x22u) < options_.burst_rate;
  }

 private:
  [[nodiscard]] double uniform(std::string_view client_key,
                               std::uint64_t request_index,
                               std::uint64_t salt) const {
    // Top 53 bits of the derived stream -> uniform double in [0, 1).
    return util::uniform_from_stream(
        util::derive_stream(client_key, options_.seed ^ salt, request_index));
  }

  ClientFaultOptions options_{};
};

}  // namespace flare::testing
