// Co-membership agreement between two clusterings of the same rows, the
// partition comparison the coreset, scale and shard suites certify against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.hpp"
#include "util/error.hpp"

namespace flare::testing {

/// Pair-sampled co-membership agreement (Rand-index style): the fraction of
/// sampled pairs (i, j) on which the two assignments agree about "same
/// cluster vs different cluster". Enumerates all pairs exactly when there are
/// at most `sample_pairs` of them. 1.0 = identical partitions (up to label
/// permutation).
inline double comembership_agreement(const std::vector<std::size_t>& a,
                                     const std::vector<std::size_t>& b,
                                     std::size_t sample_pairs = 200000,
                                     std::uint64_t seed = 42) {
  ensure(a.size() == b.size(),
         "comembership_agreement: assignments must cover the same rows");
  const std::size_t n = a.size();
  if (n < 2) return 1.0;
  const auto agree = [&](std::size_t i, std::size_t j) {
    return (a[i] == a[j]) == (b[i] == b[j]);
  };
  const std::size_t total_pairs = n * (n - 1) / 2;
  std::size_t agreeing = 0;
  if (total_pairs <= sample_pairs) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (agree(i, j)) ++agreeing;
      }
    }
    return static_cast<double>(agreeing) / static_cast<double>(total_pairs);
  }
  stats::Rng rng(seed);
  for (std::size_t s = 0; s < sample_pairs; ++s) {
    const std::size_t i = rng.uniform_int(0, n - 1);
    std::size_t j = rng.uniform_int(0, n - 2);
    if (j >= i) ++j;  // uniform over j ≠ i
    if (agree(i, j)) ++agreeing;
  }
  return static_cast<double>(agreeing) / static_cast<double>(sample_pairs);
}

}  // namespace flare::testing
