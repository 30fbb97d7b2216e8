// Seeded substream derivation shared by every fault/noise model that needs
// "one independent RNG stream per (keyed entity, salt)" semantics. The three
// historical copies (dcsim CounterFaultModel, dcsim ReplayFaultModel and the
// serve client fault plan) all hashed a string key with FNV-1a under a model seed
// and then splitmix-finalised a salt on top; they now share this header so
// the formula can never drift between subsystems. The regression test in
// tests/util/seed_stream_test.cpp pins the outputs bit-for-bit to the
// original inlined expressions.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/hash.hpp"

namespace flare::util {

/// Derives a decorrelated 64-bit stream id for (key, seed, salt): FNV-1a of
/// the key under `seed`, then one splitmix64 finalisation of `salt`. Streams
/// with distinct salts are independent even for identical keys.
[[nodiscard]] constexpr std::uint64_t derive_stream(std::string_view key,
                                                    std::uint64_t seed,
                                                    std::uint64_t salt) {
  return hash_mix(fnv1a(key, seed), salt);
}

/// Maps a derived stream id to a uniform double in [0, 1) using the top 53
/// bits — the exact conversion the serve fault model has always used.
[[nodiscard]] constexpr double uniform_from_stream(std::uint64_t stream) {
  return static_cast<double>(stream >> 11) * 0x1.0p-53;
}

}  // namespace flare::util
