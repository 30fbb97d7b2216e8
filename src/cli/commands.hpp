// The `flare` CLI commands. Each takes parsed Args, does its work against
// CSV traces on disk, writes human-readable results to `out`, and returns a
// process exit code. `flare help` (run_help) documents every flag.
//
//   simulate  archive a simulated datacenter's co-location scenarios
//             (--shapes: one scheduler per machine shape, shape-tagged rows)
//   profile   collect the two-level raw metric database per scenario
//   analyze   refinement -> PCA -> clustering -> representative scenarios
//   evaluate  a feature's impact from the representatives' replays
//   campaign  those replays scheduled on a simulated testbed farm
//   report    Markdown report from a trace or a --campaign-state archive
//   drift     triage representative validity between two metric archives
//   ingest    absorb a batch of fresh scenarios with the cheapest action
//   serve     resident daemon on a Unix socket; `client` is its caller
//
// analyze, evaluate, campaign, report and ingest have one data plane: a
// ShardedPipeline over the --shapes fleet, or without --shapes a one-shape
// fleet of --machine (bit-identical to a plain FlarePipeline).
#pragma once

#include <iosfwd>

#include "cli/args.hpp"

namespace flare::cli {

[[nodiscard]] int run_simulate(const Args& args, std::ostream& out);
[[nodiscard]] int run_profile(const Args& args, std::ostream& out);
[[nodiscard]] int run_analyze(const Args& args, std::ostream& out);
[[nodiscard]] int run_evaluate(const Args& args, std::ostream& out);
[[nodiscard]] int run_report(const Args& args, std::ostream& out);
[[nodiscard]] int run_campaign(const Args& args, std::ostream& out);
[[nodiscard]] int run_drift(const Args& args, std::ostream& out);
[[nodiscard]] int run_ingest(const Args& args, std::ostream& out);
[[nodiscard]] int run_serve(const Args& args, std::ostream& out);
[[nodiscard]] int run_client(const Args& args, std::ostream& out);
[[nodiscard]] int run_help(std::ostream& out);

/// Dispatches to the command; converts typed flare errors into distinct,
/// documented exit codes with a message on `err`:
///   0 success          5 FaultError
///   1 other exception  6 QuarantineError
///   2 ParseError       7 ReplayError
///   3 NumericalError   8 JournalError
///   4 CapacityError    9 ServeError
/// (2 for ParseError is the historical catch-all, kept so existing callers
/// that only distinguish "usage error" keep working.)
[[nodiscard]] int run_cli(int argc, const char* const* argv, std::ostream& out,
                          std::ostream& err);

}  // namespace flare::cli
