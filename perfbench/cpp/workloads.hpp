// The four benchmark workloads. Each builds its inputs from the seed, times
// its own operations, checks its outputs, and fills a RunResult.
//
// Every workload reports the same end-to-end metrics (see perfbench/README.md
// for what "write" and "read" mean on each):
//   setup_s       median of several set-ups
//   write_ms_*    latency of the operation that takes new data in
//   read_ms_*     latency of the operation that answers the user
//   rows_per_s    rows taken in per second at the workload's own load
//   peak_rss_mb   peak RSS of the process doing the work
#pragma once

#include <cstdint>
#include <string>

#include "metrics.hpp"

namespace flarebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string run_dir;    ///< scratch directory for this run (removed at exit)
  std::string flare_bin;  ///< the `flare` CLI (serve_mixed forks it)
  /// serve_mixed phase 1: offered requests per second (open loop), and the
  /// tail-latency limit per verb; a request over its limit counts as a
  /// failed operation. BENCHMARK.json's command sets all four; serve_mixed
  /// requires them.
  double serve_rate = 0.0;
  double limit_evaluate_ms = 0.0;
  double limit_ingest_ack_ms = 0.0;
  double limit_status_ms = 0.0;
};

void run_paper_eval(const Options& options, RunResult& result);
void run_fleet_stream(const Options& options, RunResult& result);
void run_serve_mixed(const Options& options, RunResult& result);
void run_scale_ooc(const Options& options, RunResult& result);

/// Workload seed → a derived stream seed (splitmix64), so one --seed fans out
/// into independent generator seeds.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace flarebench
