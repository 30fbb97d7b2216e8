// serve_mixed — `flare serve` on the 895-scenario base, forked into its own
// process and driven over its Unix socket.
//
//   Phase 1: an open loop at one fixed offered rate (--serve-rate, set below
//   saturation). Requests go out on a fixed schedule from at most nproc
//   sender threads; reads (status, evaluate validate=1 rotating the three
//   features, report) run beside a steady trickle of 8-row ingest batches
//   pre-rendered to CSV in set-up. Latency counts from each request's due
//   time, so a stall also charges the requests queued behind it.
//   Phase 2: a closed loop of nproc clients sending ingest batches back to
//   back — the saturating ingest throughput.
//
//   write = ingest, send to durable ack (phase 1)
//   read  = evaluate validate=1 (phase 1)
//   rows_per_s = acknowledged ingest rows per second (phase 2)
//
// The traced run adds in-process probes of the same layers on the same
// inputs: CSV parse/render, profiler, FlarePipeline::ingest, commit_group on
// a scratch state dir, and the snapshot copy the daemon publishes.
#include <signal.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "dcsim/submission.hpp"
#include "serve/client.hpp"
#include "serve/snapshot.hpp"
#include "serve/state.hpp"
#include "sysinfo.hpp"
#include "trace/scenario_io.hpp"
#include "tracer.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace flarebench {
namespace {

using namespace flare;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 5;
constexpr std::size_t kBatchRows = 8;
constexpr std::size_t kBatchPool = 128;
constexpr double kPhase1Share = 0.7;
constexpr std::size_t kProbeBatches = 16;

enum class Verb { kStatus, kEvaluate, kReport, kIngest };

const char* verb_name(Verb v) {
  switch (v) {
    case Verb::kStatus: return "status";
    case Verb::kEvaluate: return "evaluate";
    case Verb::kReport: return "report";
    case Verb::kIngest: return "ingest";
  }
  return "?";
}

/// Phase-1 mix, one slot per request in schedule order: per 16 requests,
/// 5 status, 8 evaluate, 1 report and 2 ingest.
constexpr Verb kMix[16] = {
    Verb::kStatus,   Verb::kEvaluate, Verb::kEvaluate, Verb::kIngest,
    Verb::kStatus,   Verb::kEvaluate, Verb::kReport,   Verb::kEvaluate,
    Verb::kStatus,   Verb::kEvaluate, Verb::kIngest,   Verb::kEvaluate,
    Verb::kStatus,   Verb::kEvaluate, Verb::kEvaluate, Verb::kStatus};

const char* const kFeatureSpecs[3] = {"feature1", "feature2", "feature3"};

/// The forked daemon. Stopped (shutdown request, then SIGKILL after a grace
/// period) and reaped on destruction, whatever path the run takes.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& flare_bin, const std::string& socket,
                const std::string& state_dir, const std::string& base_csv,
                const std::string& log_path)
      : socket_(socket) {
    std::filesystem::remove_all(state_dir);
    std::filesystem::remove(socket);
    pid_ = ::fork();
    if (pid_ < 0) throw ServeError("serve_mixed: fork failed");
    if (pid_ == 0) {
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      const char* argv[] = {flare_bin.c_str(), "serve",          "--socket",
                            socket.c_str(),    "--state-dir",    state_dir.c_str(),
                            "--scenarios",     base_csv.c_str(), nullptr};
      ::execv(flare_bin.c_str(), const_cast<char* const*>(argv));
      std::_Exit(127);
    }
  }
  ~DaemonProcess() {
    if (pid_ > 0) (void)stop();
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Polls status every millisecond until the daemon answers. Returns false
  /// if it exits or does not answer within `timeout`.
  bool wait_ready(std::chrono::milliseconds timeout) {
    const Clock::time_point give_up = Clock::now() + timeout;
    while (Clock::now() < give_up) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      try {
        serve::ServeClient client(socket_, std::chrono::milliseconds(500));
        if (client.call(serve::make_status_request()).outcome == serve::Outcome::kOk) {
          return true;
        }
      } catch (const ServeError&) {
        // Not listening yet.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Asks the daemon to shut down and reaps it. True on a clean exit 0.
  bool stop() {
    if (pid_ <= 0) return false;
    try {
      serve::ServeClient client(socket_, std::chrono::milliseconds(2000));
      (void)client.call(serve::make_shutdown_request());
    } catch (const ServeError&) {
      // Dead or wedged: the SIGKILL below covers it.
    }
    int status = 0;
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

struct Sample {
  Verb verb = Verb::kStatus;
  double latency_ms = 0.0;  ///< from due time (phase 1) or send (phase 2)
  double lag_ms = 0.0;      ///< send time minus due time
  /// kFailed also stands for a transport error (no answer at all).
  serve::Outcome outcome = serve::Outcome::kOk;
  std::string payload;
};

long long kv_int(const std::string& payload, const std::string& key) {
  const auto kv = serve::parse_kv_payload(payload);
  const auto value = serve::kv_get(kv, key);
  return value ? std::stoll(*value) : -1;
}

serve::RequestFrame make_request(Verb verb, std::size_t index,
                                 const std::vector<std::string>& batches) {
  switch (verb) {
    case Verb::kStatus: return serve::make_status_request();
    case Verb::kEvaluate:
      return serve::make_evaluate_request(kFeatureSpecs[index % 3], /*validate=*/true);
    case Verb::kReport: return serve::make_report_request("");
    case Verb::kIngest:
      return serve::make_ingest_request(batches[index % batches.size()]);
  }
  return serve::make_status_request();
}

Sample call(const std::string& socket, const serve::RequestFrame& frame, Verb verb,
            std::uint64_t request_id) {
  Sample s;
  s.verb = verb;
  const Span span("serve", verb_name(verb), request_id);
  try {
    serve::ServeClient client(socket, std::chrono::milliseconds(10000));
    const serve::ResponseFrame response = client.call(frame);
    s.outcome = response.outcome;
    s.payload = response.payload;
  } catch (const ServeError&) {
    s.outcome = serve::Outcome::kFailed;
  }
  return s;
}

}  // namespace

void run_serve_mixed(const Options& options, RunResult& result) {
  const std::string dir = options.run_dir + "/serve";
  std::filesystem::create_directories(dir);
  // Relative socket path: sun_path holds ~100 bytes, checkouts can be deep.
  const std::string socket = std::filesystem::relative(dir + "/d.sock").string();
  const std::string state_dir = dir + "/state";
  const std::string base_csv = dir + "/base.csv";
  const std::string log_path = dir + "/daemon.log";

  // ---- Inputs: base archive and pre-rendered ingest batches (untimed). ----
  // The base is the paper's datacenter whatever the seed, so every seed
  // starts from the same resident model; the seed picks the ingest stream.
  const dcsim::ScenarioSet base =
      dcsim::generate_scenario_set(dcsim::SubmissionConfig{}, dcsim::default_machine());
  trace::save_scenario_set(base, base_csv);
  dcsim::SubmissionConfig stream_sub;
  stream_sub.seed = derive_seed(options.seed, 0xBA7C4);
  stream_sub.target_distinct_scenarios = kBatchRows * kBatchPool;
  const dcsim::ScenarioSet stream =
      dcsim::generate_scenario_set(stream_sub, dcsim::default_machine());
  std::vector<std::string> batches;
  std::vector<double> csv_write_ms;
  std::size_t batch_bytes = 0;
  for (std::size_t b = 0; b < kBatchPool; ++b) {
    dcsim::ScenarioSet batch;
    for (std::size_t r = 0; r < kBatchRows; ++r) {
      dcsim::ColocationScenario row =
          stream.scenarios[(b * kBatchRows + r) % stream.scenarios.size()];
      row.id = r;
      batch.scenarios.push_back(std::move(row));
    }
    std::string csv;
    csv_write_ms.push_back(timed_span("trace", "scenario_set_to_csv",
                                      [&] { csv = trace::scenario_set_to_csv(batch); }));
    batch_bytes += csv.size();
    batches.push_back(std::move(csv));
  }

  // ---- Set-up: daemon start to ready (recovery + fit), several times. ----
  std::vector<double> setup_s;
  std::unique_ptr<DaemonProcess> daemon;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon) result.check(daemon->stop(), "serve_mixed: daemon did not exit cleanly");
    const long long t0 = now_ns();
    daemon = std::make_unique<DaemonProcess>(options.flare_bin, socket, state_dir,
                                             base_csv, log_path);
    const bool ready = daemon->wait_ready(std::chrono::seconds(60));
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    if (!ready) throw ServeError("serve_mixed: daemon never became ready (see " +
                                 log_path + ")");
  }
  std::size_t sent = 1;  // the readiness status of the serving daemon
  // The resident model's footprint (recovery + base fit). The peaks under
  // load depend on how the host timed ingest coalescing and snapshot
  // hand-offs (±15 % run to run), so they are reported per layer.
  const double rss_ready = peak_rss_mib(daemon->pid());

  // ---- Phase 1: open loop at the fixed offered rate. ----
  const double phase1_s = kPhase1Share * options.seconds;
  const auto n1 = static_cast<std::size_t>(options.serve_rate * phase1_s);
  const unsigned senders = std::max(1u, std::min(4u, hardware_threads()));
  std::vector<Sample> phase1(n1);
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto period = std::chrono::duration<double>(1.0 / options.serve_rate);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < senders; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < n1; i = next.fetch_add(1)) {
          const Verb verb = kMix[i % 16];
          const serve::RequestFrame frame = make_request(verb, i, batches);
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(period * i);
          std::this_thread::sleep_until(due);
          const Clock::time_point sent_at = Clock::now();
          Sample s = call(socket, frame, verb, i + 1);
          const Clock::time_point done = Clock::now();
          s.lag_ms = std::chrono::duration<double, std::milli>(sent_at - due).count();
          s.latency_ms = std::chrono::duration<double, std::milli>(done - due).count();
          phase1[i] = std::move(s);
        }
      });
    }
  }
  const Sample after1 = call(socket, serve::make_status_request(), Verb::kStatus, 0);
  sent += n1 + 1;
  const double rss_phase1 = peak_rss_mib(daemon->pid());

  // ---- Phase 2: closed loop of saturating ingest clients. ----
  const double phase2_s = options.seconds - phase1_s;
  std::vector<std::vector<Sample>> phase2(senders);
  const Clock::time_point p2_start = Clock::now();
  const Clock::time_point p2_end =
      p2_start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(phase2_s));
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < senders; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = t; Clock::now() < p2_end; k += senders) {
          const Clock::time_point t0 = Clock::now();
          Sample s = call(socket, serve::make_ingest_request(batches[k % batches.size()]),
                          Verb::kIngest, 1000000 + k);
          s.latency_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
          phase2[t].push_back(std::move(s));
        }
      });
    }
  }
  const double p2_elapsed =
      std::chrono::duration<double>(Clock::now() - p2_start).count();
  const Sample final_status = call(socket, serve::make_status_request(), Verb::kStatus, 0);
  ++sent;
  const double rss_after_phase2 = peak_rss_mib(daemon->pid());
  result.check(daemon->stop(), "serve_mixed: daemon did not exit cleanly");

  // ---- Tally and checks. ----
  std::map<Verb, std::vector<double>> latency;
  std::map<Verb, std::size_t> over_limit;
  std::vector<double> lag;
  std::set<long long> groups;
  std::size_t non_ok = 0, late = 0, failed = 0, attempted = 0;
  long long ingest_depth_max = 0, eval_depth_max = 0;
  std::size_t rows_acked = 0;
  const auto limit_ms = [&](Verb v) {
    switch (v) {
      case Verb::kEvaluate: return options.limit_evaluate_ms;
      case Verb::kIngest: return options.limit_ingest_ack_ms;
      case Verb::kStatus: return options.limit_status_ms;
      case Verb::kReport: return options.limit_evaluate_ms * 4;  // three estimates
    }
    return 0.0;
  };
  const auto absorb = [&](const Sample& s, bool open_loop) {
    ++attempted;
    const bool ok = s.outcome == serve::Outcome::kOk;
    if (!ok) ++non_ok;
    if (s.outcome == serve::Outcome::kFailed) ++failed;
    if (open_loop) {
      latency[s.verb].push_back(s.latency_ms);
      lag.push_back(s.lag_ms);
      if (!ok || s.latency_ms > limit_ms(s.verb)) ++over_limit[s.verb];
      if (ok && s.latency_ms > limit_ms(s.verb)) ++late;
    }
    if (!ok) return;
    if (s.verb == Verb::kIngest) {
      groups.insert(kv_int(s.payload, "group"));
      rows_acked += open_loop ? 0 : kBatchRows;
    }
    if (s.verb == Verb::kStatus) {
      ingest_depth_max = std::max(ingest_depth_max, kv_int(s.payload, "ingest_depth"));
      eval_depth_max = std::max(eval_depth_max, kv_int(s.payload, "eval_depth"));
    }
  };
  for (const Sample& s : phase1) absorb(s, true);
  for (const auto& per_thread : phase2) {
    for (const Sample& s : per_thread) absorb(s, false);
    sent += per_thread.size();
  }
  absorb(after1, false);
  absorb(final_status, false);
  // Shed and timed-out requests are answers under load, and a phase-1
  // answer over its verb's latency limit came too late: all count as failed
  // operations, so reads stalled behind ingest (or the reverse) show in
  // failed/attempted. A kFailed answer to a well-formed request is wrong.
  result.count_ops(attempted, non_ok + late);
  result.check(failed == 0, "serve_mixed: a well-formed request failed");

  // Every request got exactly one outcome; the final status is not yet
  // counted among the outcomes it reports.
  const std::string& st = final_status.payload;
  const long long outcomes = kv_int(st, "ok") + kv_int(st, "shed") + kv_int(st, "failed") +
                             kv_int(st, "timeout") + kv_int(st, "shutting_down");
  result.check(kv_int(st, "requests") == static_cast<long long>(sent),
               "serve_mixed: daemon saw " + std::to_string(kv_int(st, "requests")) +
                   " requests, " + std::to_string(sent) + " were sent");
  result.check(outcomes == kv_int(st, "requests") - 1,
               "serve_mixed: outcomes do not add up to requests");
  result.check(kv_int(st, "epoch") == static_cast<long long>(groups.size()) &&
                   kv_int(st, "epoch") == kv_int(st, "coalesced_groups"),
               "serve_mixed: epoch != acknowledged groups");
  const double batches_per_group =
      static_cast<double>(kv_int(st, "ingest_requests")) /
      static_cast<double>(std::max(1LL, kv_int(st, "coalesced_groups")));

  result.set("setup_s", median(setup_s), "s");
  result.set_summary("write_ms", summarize(latency[Verb::kIngest]), "ms");
  result.set_summary("read_ms", summarize(latency[Verb::kEvaluate]), "ms");
  result.set("rows_per_s", static_cast<double>(rows_acked) / p2_elapsed, "rows/s");
  result.set("peak_rss_mb", rss_ready, "MiB");
  result.set("serve.peak_rss_phase1_mb", rss_phase1, "MiB");
  result.set("serve.peak_rss_phase2_mb", rss_after_phase2, "MiB");
  const Summary status = summarize(latency[Verb::kStatus]);
  const Summary lag_s = summarize(lag);
  result.set("serve.status_us_tail", 1e3 * status.tail, "us");
  result.set("serve.report_ms_p50", median(latency[Verb::kReport]), "ms");
  result.set("serve.generator_lag_ms_tail", lag_s.tail, "ms");
  result.set("serve.ingest_depth_max", static_cast<double>(ingest_depth_max), "count");
  result.set("serve.eval_depth_max", static_cast<double>(eval_depth_max), "count");
  result.set("serve.ok", static_cast<double>(kv_int(st, "ok")), "count");
  result.set("serve.shed", static_cast<double>(kv_int(st, "shed")), "count");
  result.set("serve.timeout", static_cast<double>(kv_int(st, "timeout")), "count");
  result.set("serve.failed", static_cast<double>(kv_int(st, "failed")), "count");
  result.set("serve.batches_per_group", batches_per_group, "ratio");
  std::size_t misses = 0;
  for (const auto& [verb, n] : over_limit) misses += n;
  result.set("serve.limit_misses", static_cast<double>(misses), "count");
  result.set("trace.csv_write_ms", median(csv_write_ms), "ms");
  result.set("trace.batch_bytes", static_cast<double>(batch_bytes) / kBatchPool, "bytes");

  std::printf("serve_mixed: %zu base rows, phase 1 %zu requests at %.0f/s over %u senders, "
              "phase 2 %u closed-loop clients for %.1f s\n",
              base.size(), n1, options.serve_rate, senders, senders, phase2_s);
  const Summary evaluate = summarize(latency[Verb::kEvaluate]);
  const Summary ack = summarize(latency[Verb::kIngest]);
  print_line("evaluate_ms_p50", evaluate.p50, "ms");
  print_line("evaluate_ms_tail", evaluate.tail, "ms");
  print_line("ingest_ack_ms_p50", ack.p50, "ms");
  print_line("ingest_ack_ms_tail", ack.tail, "ms");
  print_line("status_us_tail", 1e3 * status.tail, "us");
  print_line("ingest_rows_per_s", static_cast<double>(rows_acked) / p2_elapsed, "rows/s");
  print_line("generator_lag_ms_tail", lag_s.tail, "ms");
  std::printf("  end-of-phase depths: phase 1 ingest=%lld eval=%lld, "
              "phase 2 ingest=%lld eval=%lld\n",
              kv_int(after1.payload, "ingest_depth"), kv_int(after1.payload, "eval_depth"),
              kv_int(st, "ingest_depth"), kv_int(st, "eval_depth"));
  for (const Verb v : {Verb::kEvaluate, Verb::kIngest, Verb::kStatus, Verb::kReport}) {
    const std::vector<double>& l = latency[v];
    std::printf("  %-8s limit %.1f ms missed by %zu of %zu (max %.3f ms)\n", verb_name(v),
                limit_ms(v), over_limit[v], l.size(),
                l.empty() ? 0.0 : *std::max_element(l.begin(), l.end()));
  }

  if (!options.trace) return;
  // ---- In-process probes of the daemon's layers on the same inputs. ----
  core::FlarePipeline pipeline{core::FlareConfig{}};
  pipeline.fit(base);
  serve::ResidentState scratch(dir + "/probe_state");
  const dcsim::InterferenceModel model(dcsim::default_job_catalog(),
                                       pipeline.config().model);
  const core::Profiler profiler(model, pipeline.config().profiler);
  std::vector<double> parse_ms, profile_ms, commit_ms, snapshot_ms, ingest_all;
  std::map<core::DriftVerdict, std::vector<double>> ingest_by_action;
  std::size_t profiled_rows = 0, retried = 0;
  for (std::size_t b = 0; b < kProbeBatches; ++b) {
    dcsim::ScenarioSet parsed;
    parse_ms.push_back(timed_span("trace", "parse_scenario_set_csv", [&] {
      parsed = trace::parse_scenario_set_csv(batches[b], "probe");
    }));
    core::ProfileReport report;
    profile_ms.push_back(timed_span("profiler", "Profiler::profile_with_health", [&] {
      report = profiler.profile_with_health(parsed, pipeline.config().machine);
    }));
    profiled_rows += report.database.num_rows();
    retried += static_cast<std::size_t>(report.total_retried_samples());
    core::IngestReport ingest;
    const double ms = timed_span("ingest", "FlarePipeline::ingest",
                                 [&] { ingest = pipeline.ingest(parsed); });
    ingest_by_action[ingest.action].push_back(ms);
    ingest_all.push_back(ms);
    commit_ms.push_back(timed_span("serve", "ResidentState::commit_group", [&] {
      (void)scratch.commit_group(batches[b], parsed.size(), "auto");
    }));
    snapshot_ms.push_back(timed_span("serve", "build ModelSnapshot", [&] {
      auto snap = std::make_shared<serve::ModelSnapshot>();
      snap->epoch = b + 1;
      snap->set = pipeline.scenario_set();
      snap->analysis = pipeline.analysis();
      snap->staleness_widening_pp = pipeline.staleness_widening_pp();
    }));
  }
  std::vector<double> validated_ms;
  for (const core::Feature& f : core::standard_features()) {
    validated_ms.push_back(timed_span("estimator", "evaluate_with_validation",
                                      [&] { (void)pipeline.evaluate_with_validation(f); }));
  }
  const auto by_action = [&](core::DriftVerdict v) {
    const auto it = ingest_by_action.find(v);
    return it == ingest_by_action.end() ? 0.0 : median(it->second);
  };
  result.set("trace.csv_parse_ms", median(parse_ms), "ms");
  result.set("profiler.profile_ms", median(profile_ms), "ms");
  result.set("profiler.rows", static_cast<double>(profiled_rows), "count");
  result.set("profiler.retried_samples", static_cast<double>(retried), "count");
  double profile_total = 0.0;
  for (const double ms : profile_ms) profile_total += ms;
  result.set("profiler.us_per_row",
             1e3 * profile_total / static_cast<double>(std::max<std::size_t>(profiled_rows, 1)),
             "us");
  result.set("ingest.valid_ms", by_action(core::DriftVerdict::kValid), "ms");
  result.set("ingest.reweight_ms", by_action(core::DriftVerdict::kReweight), "ms");
  result.set("ingest.refit_ms", by_action(core::DriftVerdict::kRefit), "ms");
  result.set("ingest.actions_valid", static_cast<double>(kv_int(st, "actions_valid")), "count");
  result.set("ingest.actions_reweight", static_cast<double>(kv_int(st, "actions_reweight")),
             "count");
  result.set("ingest.actions_refit", static_cast<double>(kv_int(st, "actions_refit")), "count");
  result.set("ingest.refits_suppressed",
             static_cast<double>(kv_int(st, "refits_suppressed")), "count");
  result.set("ingest.episode_rows_fenced",
             static_cast<double>(kv_int(st, "episode_rows_quarantined")), "count");
  result.set("ingest.refit_fraction",
             static_cast<double>(kv_int(st, "actions_refit")) /
                 static_cast<double>(std::max(1LL, kv_int(st, "coalesced_groups"))),
             "ratio");
  result.set("serve.commit_ms", median(commit_ms), "ms");
  result.set("serve.snapshot_build_ms", median(snapshot_ms), "ms");
  result.set("estimator.validated_ms", median(validated_ms), "ms");
  const double busy = median(parse_ms) + median(ingest_all) + median(commit_ms) +
                      median(snapshot_ms);
  result.set("serve.ingest_wait_ms", ack.p50 - busy, "ms");
}

}  // namespace flarebench
