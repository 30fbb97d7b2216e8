// flarebench — the repo benchmark program. perfbench/run.py builds it
// and runs one workload per invocation:
//
//   flarebench --workload paper_eval|fleet_stream|serve_mixed|scale_ooc
//              --seed N --seconds S --trace 0|1 --flare-bin PATH
//              [--run-dir DIR] [--trace-out FILE] [--git-sha SHA]
//              [--serve-rate R] [--limit-evaluate-ms X]
//              [--limit-ingest-ack-ms X] [--limit-status-ms X]
//
// Human-readable lines go to stdout first; the last stdout line is
// "RESULT {json}" with every metric the run measured. With --trace 1 every
// layer call is recorded as a span and written to --trace-out as Chrome
// trace-event JSON. Exits 1 when a correctness check fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "sysinfo.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace flarebench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// A seed no workload was tuned on, recorded so later gain claims can be
/// re-checked on it.
constexpr std::uint64_t kHeldOutSeed = 918273645;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "flarebench: %s\n", why.c_str());
  std::exit(2);
}

/// Probes taken before and after the workload (see host_probe_ms).
constexpr int kHostProbes = 5;

std::vector<double> host_probes() {
  std::vector<double> ms;
  for (int i = 0; i < kHostProbes; ++i) ms.push_back(host_probe_ms());
  return ms;
}

std::string metadata_json(const Options& o, const std::string& git_sha) {
  std::ostringstream out;
  out << "{\"build_type\": " << json_string(FLAREBENCH_BUILD_TYPE)
      << ", \"git_sha\": " << json_string(git_sha)
      << ", \"compiler\": " << json_string(compiler_id())
      << ", \"nproc\": " << hardware_threads()
      << ", \"run_dir_filesystem\": " << json_string(filesystem_of(o.run_dir))
      << ", \"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
      << ", \"held_out_seed\": " << kHeldOutSeed << ", \"seconds\": " << o.seconds
      << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"serve_rate\": " << json_number(o.serve_rate)
      << ", \"limit_evaluate_ms\": " << json_number(o.limit_evaluate_ms)
      << ", \"limit_ingest_ack_ms\": " << json_number(o.limit_ingest_ack_ms)
      << ", \"limit_status_ms\": " << json_number(o.limit_status_ms) << "}";
  return out.str();
}

double parse_number(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used == text.size()) return v;
  } catch (const std::exception&) {
  }
  usage(flag + " needs a number, got '" + text + "'");
}

}  // namespace
}  // namespace flarebench

int main(int argc, char** argv) {
  using namespace flarebench;
#ifndef NDEBUG
  std::fprintf(stderr, "flarebench: refusing to run a non-Release build (%s)\n",
               FLAREBENCH_BUILD_TYPE);
  return 2;
#endif
  Options o;
  std::string git_sha = "unknown";
  std::string trace_out;
  o.run_dir = ".bench_run/run";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = static_cast<std::uint64_t>(parse_number(flag, value));
    else if (flag == "--seconds") o.seconds = static_cast<int>(parse_number(flag, value));
    else if (flag == "--trace") o.trace = parse_number(flag, value) != 0.0;
    else if (flag == "--run-dir") o.run_dir = value;
    else if (flag == "--trace-out") trace_out = value;
    else if (flag == "--flare-bin") o.flare_bin = value;
    else if (flag == "--git-sha") git_sha = value;
    else if (flag == "--serve-rate") o.serve_rate = parse_number(flag, value);
    else if (flag == "--limit-evaluate-ms") o.limit_evaluate_ms = parse_number(flag, value);
    else if (flag == "--limit-ingest-ack-ms") o.limit_ingest_ack_ms = parse_number(flag, value);
    else if (flag == "--limit-status-ms") o.limit_status_ms = parse_number(flag, value);
    else usage("unknown flag " + flag);
  }
  if (o.seconds < 1) usage("--seconds must be >= 1");
  if (o.workload == "serve_mixed" &&
      (o.serve_rate <= 0.0 || o.limit_evaluate_ms <= 0.0 ||
       o.limit_ingest_ack_ms <= 0.0 || o.limit_status_ms <= 0.0)) {
    usage("serve_mixed needs positive --serve-rate and --limit-*-ms values");
  }
  const std::map<std::string, void (*)(const Options&, RunResult&)> workloads = {
      {"paper_eval", run_paper_eval},
      {"fleet_stream", run_fleet_stream},
      {"serve_mixed", run_serve_mixed},
      {"scale_ooc", run_scale_ooc},
  };
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) usage("unknown --workload '" + o.workload + "'");

  std::filesystem::remove_all(o.run_dir);
  std::filesystem::create_directories(o.run_dir);
  const std::string meta = metadata_json(o, git_sha);
  std::printf("meta %s\n", meta.c_str());
  Tracer::instance().set_enabled(o.trace);

  RunResult result;
  std::vector<double> probes = host_probes();
  int code = 0;
  try {
    it->second(o, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flarebench: %s failed: %s\n", o.workload.c_str(), e.what());
    code = 1;
  }
  const std::vector<double> after = host_probes();
  std::printf("host probe: %.3f ms before, %.3f ms after the workload (median of %d)\n",
              median(probes), median(after), kHostProbes);
  probes.insert(probes.end(), after.begin(), after.end());
  result.set("host.probe_ms", median(probes), "ms");
  Tracer::instance().set_enabled(false);
  std::error_code ignored;
  std::filesystem::remove_all(o.run_dir, ignored);
  if (code != 0) return code;

  if (o.trace) {
    for (const auto& [layer, ms] : Tracer::instance().self_ms_by_layer()) {
      result.set(layer + ".self_ms", ms, "ms");
    }
    if (!trace_out.empty()) {
      if (!Tracer::instance().write_chrome_trace(trace_out, meta)) {
        result.fail_check("cannot write " + trace_out);
      }
      std::printf("wrote %zu spans to %s\n", Tracer::instance().size(), trace_out.c_str());
    }
  }
  std::printf("RESULT %s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
