#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "core/feature_spec.hpp"
#include "trace/scenario_io.hpp"
#include "util/error.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

#ifdef FLARE_HAVE_UNIX_SOCKETS
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace flare::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::string_view refit_policy_name(core::RefitPolicy policy) {
  switch (policy) {
    case core::RefitPolicy::kAuto: return "auto";
    case core::RefitPolicy::kNever: return "never";
    case core::RefitPolicy::kAlways: return "always";
  }
  return "auto";
}

core::RefitPolicy refit_policy_from_name(const std::string& name) {
  if (name == "auto") return core::RefitPolicy::kAuto;
  if (name == "never") return core::RefitPolicy::kNever;
  if (name == "always") return core::RefitPolicy::kAlways;
  throw ServeError("unknown refit policy in manifest: '" + name + "'");
}

/// The wire name of a typed error — the `error=` value of kFailed payloads.
std::string_view error_class_of(const FlareError& e) {
  if (dynamic_cast<const ParseError*>(&e)) return "parse";
  if (dynamic_cast<const NumericalError*>(&e)) return "numerical";
  if (dynamic_cast<const CapacityError*>(&e)) return "capacity";
  if (dynamic_cast<const FaultError*>(&e)) return "fault";
  if (dynamic_cast<const QuarantineError*>(&e)) return "quarantine";
  if (dynamic_cast<const ReplayError*>(&e)) return "replay";
  if (dynamic_cast<const JournalError*>(&e)) return "journal";
  if (dynamic_cast<const ServeError*>(&e)) return "serve";
  return "flare";
}

}  // namespace

// Per-connection IO state (IO thread only).
struct Daemon::Conn {
  util::Fd fd;
  std::uint64_t id = 0;
  std::string inbuf;
  std::string outbuf;
  /// The frame currently being assembled (valid once the header parsed).
  RequestFrame frame;
  bool header_parsed = false;
  std::uint32_t payload_len = 0;
  /// Deadline for completing a started frame (set at first byte, cleared
  /// when the frame completes) — the mid-frame stall watchdog.
  Clock::time_point frame_deadline{};
  bool has_partial = false;
  bool closing = false;  ///< close once outbuf drains
};

Daemon::Daemon(DaemonConfig config, const dcsim::ScenarioSet& base)
    : config_(std::move(config)),
      state_(config_.state_dir),
      pipeline_(config_.flare),
      eval_impact_(config_.flare.machine, dcsim::default_job_catalog(),
                   config_.flare.model),
      queue_(config_.limits),
      faults_(config_.faults) {
  StateRecovery recovery = recover_state(state_);
  start_report_.recovered = recovery.manifest_recovered;
  start_report_.unacknowledged = std::move(recovery.orphan_files);

  // The model is (base fit) + (committed groups, in manifest order, each
  // under the policy it originally ran with). This is exactly the offline
  // replay the crash-safety tests compare against — recovery IS the replay.
  pipeline_.fit(base);
  for (const GroupRecord& group : recovery.committed) {
    const dcsim::ScenarioSet batch =
        trace::load_scenario_set(state_.group_path(group.file));
    (void)pipeline_.ingest(batch, refit_policy_from_name(group.refit_policy));
  }
  epoch_.store(recovery.committed.size());
  start_report_.epoch = recovery.committed.size();
  publish_snapshot();
}

Daemon::~Daemon() = default;

DaemonStats Daemon::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Daemon::record_outcome(Outcome outcome) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  switch (outcome) {
    case Outcome::kOk: ++stats_.ok; break;
    case Outcome::kShed: ++stats_.shed; break;
    case Outcome::kFailed: ++stats_.failed; break;
    case Outcome::kTimeout: ++stats_.timeout; break;
    case Outcome::kShuttingDown: ++stats_.shutting_down; break;
  }
}

void Daemon::push_response(std::uint64_t conn_id, ResponseFrame response) {
  record_outcome(response.outcome);
  {
    std::lock_guard<std::mutex> lock(outbox_mutex_);
    outbox_.emplace_back(conn_id, std::move(response));
  }
#ifdef FLARE_HAVE_UNIX_SOCKETS
  const int wake_fd = wake_write_fd_.load();
  if (wake_fd >= 0) {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    (void)!::write(wake_fd, &byte, 1);
  }
#endif
}

void Daemon::publish_snapshot() {
  auto snapshot = std::make_shared<const ModelSnapshot>(
      ModelSnapshot{epoch_.load(), pipeline_.scenario_set(),
                    pipeline_.analysis(), pipeline_.staleness_widening_pp()});
  // Only the pointer swap happens under the lock. The retired snapshot (a
  // whole ScenarioSet plus AnalysisResult) then dies with `snapshot` after
  // the lock is released, so a `status` request on the IO thread never
  // waits on its destructor.
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_.swap(snapshot);
  }
}

std::shared_ptr<const ModelSnapshot> Daemon::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::string Daemon::status_payload() {
  const DaemonStats stats = stats_snapshot();
  const std::shared_ptr<const ModelSnapshot> snap = snapshot();
  std::ostringstream out;
  out << "epoch=" << epoch_.load() << '\n'
      << "scenarios=" << snap->set.scenarios.size() << '\n'
      << "clusters=" << snap->analysis.chosen_k << '\n'
      << "ingest_depth=" << queue_.ingest_depth() << '\n'
      << "eval_depth=" << queue_.eval_depth() << '\n'
      << "ingest_limit=" << queue_.limits().max_ingest << '\n'
      << "eval_limit=" << queue_.limits().max_eval << '\n'
      << "connections=" << stats.connections << '\n'
      << "open_connections=" << stats.open_connections << '\n'
      << "requests=" << stats.requests << '\n'
      << "ok=" << stats.ok << '\n'
      << "shed=" << stats.shed << '\n'
      << "failed=" << stats.failed << '\n'
      << "timeout=" << stats.timeout << '\n'
      << "shutting_down=" << stats.shutting_down << '\n'
      << "ingest_requests=" << stats.ingest_requests << '\n'
      << "coalesced_groups=" << stats.coalesced_groups << '\n'
      << "max_coalesced_batches=" << stats.max_coalesced_batches << '\n'
      << "unacknowledged_groups=" << start_report_.unacknowledged.size() << '\n'
      << "actions_valid=" << stats.actions_valid << '\n'
      << "actions_reweight=" << stats.actions_reweight << '\n'
      << "actions_refit=" << stats.actions_refit << '\n'
      << "refits_suppressed=" << stats.refits_suppressed << '\n'
      << "episodes_quarantined=" << stats.episodes_quarantined << '\n'
      << "episode_rows_quarantined=" << stats.episode_rows_quarantined << '\n'
      << "rows_quarantined=" << stats.rows_quarantined << '\n'
      << "last_verdict=" << stats.last_verdict << '\n'
      << "last_action=" << stats.last_action << '\n'
      << "last_regime=" << stats.last_regime << '\n'
      << "last_drift_statistic="
      << util::format_double_exact(stats.last_drift_statistic) << '\n'
      << "staleness_widening_pp="
      << util::format_double_exact(stats.staleness_widening_pp) << '\n';
  return out.str();
}

void Daemon::initiate_shutdown() {
  if (shutting_down_.exchange(true)) return;
  // Everything still queued gets its terminal outcome now; the workers see
  // the closed queue and exit after their current pass.
  for (PendingRequest& request : queue_.close()) {
    ResponseFrame response;
    response.outcome = Outcome::kShuttingDown;
    response.type = request.frame.type;
    response.epoch = epoch_.load();
    response.payload = "reason=daemon shutting down\n";
    push_response(request.conn_id, std::move(response));
  }
  stop_watchdog_.store(true);
}

void Daemon::handle_frame(Conn& conn, RequestFrame frame) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }
  const std::uint64_t current_epoch = epoch_.load();

  if (shutting_down_.load()) {
    ResponseFrame response{Outcome::kShuttingDown, frame.type, current_epoch,
                           "reason=daemon shutting down\n"};
    push_response(conn.id, std::move(response));
    return;
  }

  switch (frame.type) {
    case RequestType::kStatus: {
      push_response(conn.id, ResponseFrame{Outcome::kOk, RequestType::kStatus,
                                           current_epoch, status_payload()});
      return;
    }
    case RequestType::kShutdown: {
      push_response(conn.id, ResponseFrame{Outcome::kOk, RequestType::kShutdown,
                                           current_epoch, "stopping=1\n"});
      initiate_shutdown();
      return;
    }
    case RequestType::kIngest:
    case RequestType::kEvaluate:
    case RequestType::kReport:
      break;
  }

  PendingRequest request;
  request.request_id = ++next_request_id_;
  request.conn_id = conn.id;
  const std::uint32_t deadline_ms =
      frame.deadline_ms != 0 ? frame.deadline_ms : config_.default_deadline_ms;
  request.deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  const RequestType type = frame.type;
  request.frame = std::move(frame);

  const AdmitResult admitted = queue_.try_push(std::move(request));
  if (!admitted.accepted) {
    ResponseFrame response{Outcome::kShed, type, current_epoch,
                           "reason=" + admitted.shed_reason + "\n"};
    push_response(conn.id, std::move(response));
    return;
  }
  if (type == RequestType::kIngest) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.ingest_requests;
  }
}

void Daemon::ingest_loop() {
  std::uint64_t commit_index = 0;
  const KillHook kill_hook = [this, &commit_index](KillPoint point) {
    // Simulated SIGKILL: no destructors, no flushes, no acks. The recovery
    // tests fork the daemon and let this fire inside the commit protocol.
    if (faults_.kill_now(point, commit_index)) std::_Exit(137);
  };

  while (true) {
    std::vector<PendingRequest> pending = queue_.drain_ingest();
    if (pending.empty()) return;  // queue closed

    // Requests whose deadline passed while queued get kTimeout even here —
    // the watchdog sweeps periodically, this closes the race at the edge.
    const Clock::time_point now = Clock::now();
    struct ParsedBatch {
      PendingRequest request;
      dcsim::ScenarioSet set;
    };
    std::vector<ParsedBatch> batches;
    for (PendingRequest& request : pending) {
      if (request.deadline <= now) {
        push_response(request.conn_id,
                      ResponseFrame{Outcome::kTimeout, RequestType::kIngest,
                                    epoch_.load(),
                                    "reason=deadline expired in ingest queue\n"});
        continue;
      }
      try {
        dcsim::ScenarioSet set = trace::parse_scenario_set_csv(
            request.frame.payload,
            "ingest request " + std::to_string(request.request_id));
        if (set.scenarios.empty()) {
          throw ParseError("ingest request " +
                           std::to_string(request.request_id) +
                           ": empty batch");
        }
        batches.push_back(ParsedBatch{std::move(request), std::move(set)});
      } catch (const FlareError& e) {
        push_response(request.conn_id,
                      ResponseFrame{Outcome::kFailed, RequestType::kIngest,
                                    epoch_.load(),
                                    error_payload(error_class_of(e), e.what())});
      }
    }
    if (batches.empty()) continue;

    // Coalesce: every batch that queued up while the previous pass ran is
    // merged into ONE ingest — one profiling pass, one drift verdict.
    dcsim::ScenarioSet merged;
    for (const ParsedBatch& batch : batches) {
      for (dcsim::ColocationScenario scenario : batch.set.scenarios) {
        scenario.id = merged.scenarios.size();
        merged.scenarios.push_back(std::move(scenario));
      }
    }
    merged.machine_type = merged.scenarios.front().machine_type;

    core::IngestReport report;
    try {
      report = pipeline_.ingest(merged, config_.refit);
    } catch (const FlareError& e) {
      const std::string payload = error_payload(error_class_of(e), e.what());
      for (const ParsedBatch& batch : batches) {
        push_response(batch.request.conn_id,
                      ResponseFrame{Outcome::kFailed, RequestType::kIngest,
                                    epoch_.load(), payload});
      }
      continue;
    }

    // Durable commit BEFORE any ack: a client that saw kOk must find its
    // batch in the recovered model after any crash.
    GroupRecord group;
    try {
      group = state_.commit_group(
          trace::scenario_set_to_csv(merged), merged.scenarios.size(),
          std::string(refit_policy_name(config_.refit)), kill_hook);
    } catch (const FlareError& e) {
      // The in-memory model now contains a group the disk does not: the two
      // have diverged and no later answer can be trusted. Fail every waiter
      // and stop the daemon rather than serve from unrecoverable state.
      const std::string payload = error_payload(
          error_class_of(e),
          std::string(e.what()) + " — state diverged, daemon stopping");
      for (const ParsedBatch& batch : batches) {
        push_response(batch.request.conn_id,
                      ResponseFrame{Outcome::kFailed, RequestType::kIngest,
                                    epoch_.load(), payload});
      }
      initiate_shutdown();
      return;
    }
    ++commit_index;

    const std::uint64_t new_epoch = epoch_.fetch_add(1) + 1;
    publish_snapshot();
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.coalesced_groups;
      stats_.max_coalesced_batches =
          std::max<std::uint64_t>(stats_.max_coalesced_batches, batches.size());
      switch (report.action) {
        case core::DriftVerdict::kValid: ++stats_.actions_valid; break;
        case core::DriftVerdict::kReweight: ++stats_.actions_reweight; break;
        case core::DriftVerdict::kRefit: ++stats_.actions_refit; break;
      }
      if (report.response.refit_suppressed) ++stats_.refits_suppressed;
      if (report.response.episode_rows > 0) {
        ++stats_.episodes_quarantined;
        stats_.episode_rows_quarantined += report.response.episode_rows;
      }
      stats_.rows_quarantined += report.rows_quarantined;
      stats_.last_verdict = core::to_string(report.cleaned_drift.verdict);
      stats_.last_action = core::to_string(report.action);
      stats_.last_regime = core::to_string(report.response.regime);
      stats_.last_drift_statistic = report.response.statistic;
      stats_.staleness_widening_pp = report.response.staleness_widening_pp;
    }

    std::ostringstream ack;
    ack << "group=" << group.id << '\n'
        << "appended=" << report.appended << '\n'
        << "action=" << core::to_string(report.action) << '\n'
        << "coalesced_batches=" << batches.size() << '\n';
    const std::string ack_payload = ack.str();
    for (const ParsedBatch& batch : batches) {
      push_response(batch.request.conn_id,
                    ResponseFrame{Outcome::kOk, RequestType::kIngest, new_epoch,
                                  ack_payload});
    }
  }
}

void Daemon::eval_loop() {
  while (true) {
    std::optional<PendingRequest> popped = queue_.pop_eval();
    if (!popped) return;  // queue closed
    PendingRequest& request = *popped;
    if (request.deadline <= Clock::now()) {
      push_response(request.conn_id,
                    ResponseFrame{Outcome::kTimeout, request.frame.type,
                                  epoch_.load(),
                                  "reason=deadline expired in eval queue\n"});
      continue;
    }

    // The whole request is served from one immutable snapshot: a refit
    // publishing a new epoch mid-request cannot tear this answer.
    const std::shared_ptr<const ModelSnapshot> snap = snapshot();
    ResponseFrame response;
    response.type = request.frame.type;
    response.epoch = snap->epoch;
    try {
      const auto kv = parse_kv_payload(request.frame.payload);
      core::Replayer replayer(eval_impact_, config_.flare.replay,
                              dcsim::ReplayFaultModel(config_.flare.replay_faults));
      core::FlareEstimator estimator(snap->analysis, snap->set, replayer);
      std::ostringstream out;
      if (request.frame.type == RequestType::kEvaluate) {
        const std::optional<std::string> spec = kv_get(kv, "feature");
        if (!spec) throw ParseError("evaluate request: missing feature=SPEC");
        const core::Feature feature = core::parse_feature(*spec);
        const bool validate = kv_get(kv, "validate").value_or("0") == "1";
        if (validate) {
          core::ValidatedFeatureEstimate est =
              estimator.estimate_with_validation(feature);
          // The snapshot carries the staleness widening the resident
          // pipeline reported when it was published — the band served to
          // clients reflects the model's batch-age, not just replay noise.
          est.estimate.replay.staleness_widening_pp =
              snap->staleness_widening_pp;
          est.uncertainty_pp += snap->staleness_widening_pp;
          out << "feature=" << est.estimate.feature_name << '\n'
              << "impact_pct="
              << util::format_double_exact(est.estimate.impact_pct) << '\n'
              << "uncertainty_pp="
              << util::format_double_exact(est.uncertainty_pp) << '\n'
              << "lower=" << util::format_double_exact(est.lower()) << '\n'
              << "upper=" << util::format_double_exact(est.upper()) << '\n'
              << "replays=" << est.estimate.scenario_replays << '\n';
        } else {
          const core::FeatureEstimate est = estimator.estimate(feature);
          out << "feature=" << est.feature_name << '\n'
              << "impact_pct=" << util::format_double_exact(est.impact_pct)
              << '\n'
              << "replays=" << est.scenario_replays << '\n'
              << "clusters=" << est.per_cluster.size() << '\n';
        }
      } else {  // kReport
        std::vector<core::Feature> features;
        const std::optional<std::string> specs = kv_get(kv, "features");
        if (specs && !specs->empty()) {
          for (const std::string& spec : util::split(*specs, ';')) {
            features.push_back(core::parse_feature(spec));
          }
        } else {
          features = core::standard_features();
        }
        out << "count=" << features.size() << '\n';
        for (std::size_t i = 0; i < features.size(); ++i) {
          const core::FeatureEstimate est = estimator.estimate(features[i]);
          out << "name_" << i << '=' << est.feature_name << '\n'
              << "impact_" << i << '='
              << util::format_double_exact(est.impact_pct) << '\n';
        }
      }
      response.outcome = Outcome::kOk;
      response.payload = out.str();
    } catch (const FlareError& e) {
      response.outcome = Outcome::kFailed;
      response.payload = error_payload(error_class_of(e), e.what());
    }
    push_response(request.conn_id, std::move(response));
  }
}

void Daemon::watchdog_loop() {
  while (!stop_watchdog_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (PendingRequest& request : queue_.take_expired(Clock::now())) {
      push_response(request.conn_id,
                    ResponseFrame{Outcome::kTimeout, request.frame.type,
                                  epoch_.load(),
                                  "reason=deadline expired before service\n"});
    }
  }
}

#ifdef FLARE_HAVE_UNIX_SOCKETS

void Daemon::run() {
  util::Fd listener = util::listen_unix(config_.socket_path);

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    throw ServeError("Daemon::run: cannot create wakeup pipe");
  }
  util::Fd wake_read(pipe_fds[0]);
  util::Fd wake_write(pipe_fds[1]);
  util::set_nonblocking(wake_read.get());
  util::set_nonblocking(wake_write.get());
  wake_write_fd_.store(wake_write.get());

  std::thread ingest_thread([this] { ingest_loop(); });
  std::thread eval_thread([this] { eval_loop(); });
  std::thread watchdog_thread([this] { watchdog_loop(); });

  std::map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  const auto frame_timeout = std::chrono::milliseconds(config_.frame_timeout_ms);
  Clock::time_point shutdown_grace_end{};

  while (true) {
    // Drain the outbox into connection write buffers.
    {
      std::vector<std::pair<std::uint64_t, ResponseFrame>> drained;
      {
        std::lock_guard<std::mutex> lock(outbox_mutex_);
        drained.swap(outbox_);
      }
      for (auto& [conn_id, response] : drained) {
        const auto it = conns.find(conn_id);
        // A vanished connection already got its outcome recorded; the bytes
        // just have nowhere to go.
        if (it != conns.end()) it->second.outbuf += encode_response(response);
      }
    }

    // Mid-frame stall watchdog: a client that started a frame and went
    // silent gets a typed kFailed and its connection closed.
    const Clock::time_point now = Clock::now();
    for (auto& [id, conn] : conns) {
      if (conn.has_partial && !conn.closing && now >= conn.frame_deadline) {
        // The half-frame counts as an arrived request: it gets a terminal
        // outcome, so it must be in the denominator the accounting pivots on.
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.requests;
        }
        ResponseFrame response{Outcome::kFailed, RequestType::kStatus,
                               epoch_.load(),
                               error_payload("serve",
                                             "frame timeout: client stalled "
                                             "mid-frame")};
        record_outcome(response.outcome);
        conn.outbuf += encode_response(response);
        conn.closing = true;
      }
    }

    // Close connections that are done (closing + flushed).
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->second.closing && it->second.outbuf.empty()) {
        it = conns.erase(it);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        --stats_.open_connections;
      } else {
        ++it;
      }
    }

    if (shutting_down_.load()) {
      if (shutdown_grace_end == Clock::time_point{}) {
        listener.reset();  // stop accepting; flush what we owe, then leave
        // Quiesce the workers before the final flush: one may still be
        // serving a request it popped before the queue closed, and its
        // response must reach the outbox before all_flushed can be trusted
        // — otherwise that client sees EOF instead of a terminal outcome.
        if (ingest_thread.joinable()) ingest_thread.join();
        if (eval_thread.joinable()) eval_thread.join();
        stop_watchdog_.store(true);
        if (watchdog_thread.joinable()) watchdog_thread.join();
        shutdown_grace_end = Clock::now() + std::chrono::milliseconds(500);
        continue;  // drain what the workers just pushed, then flush it
      }
      const bool all_flushed = std::all_of(
          conns.begin(), conns.end(),
          [](const auto& entry) { return entry.second.outbuf.empty(); });
      if (all_flushed || now >= shutdown_grace_end) break;
    }

    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = control)
    if (listener.valid()) {
      fds.push_back(pollfd{listener.get(), POLLIN, 0});
      fd_conn.push_back(0);
    }
    fds.push_back(pollfd{wake_read.get(), POLLIN, 0});
    fd_conn.push_back(0);
    for (auto& [id, conn] : conns) {
      short events = 0;
      if (!conn.closing) events |= POLLIN;
      if (!conn.outbuf.empty()) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back(pollfd{conn.fd.get(), events, 0});
      fd_conn.push_back(id);
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);

    // Wakeup pipe: drain it; the outbox swap above does the real work.
    {
      char buf[256];
      while (::read(wake_read.get(), buf, sizeof(buf)) > 0) {
      }
    }

    // Accept new connections.
    if (listener.valid()) {
      while (true) {
        util::Fd accepted = util::accept_unix(listener.get());
        if (!accepted.valid()) break;
        Conn conn;
        conn.fd = std::move(accepted);
        conn.id = next_conn_id++;
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.connections;
          ++stats_.open_connections;
        }
        conns.emplace(conn.id, std::move(conn));
      }
    }

    // Per-connection IO.
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fd_conn[i] == 0) continue;
      const auto it = conns.find(fd_conn[i]);
      if (it == conns.end()) continue;
      Conn& conn = it->second;

      if ((fds[i].revents & (POLLERR | POLLHUP)) != 0) {
        // The peer is gone: bytes still owed have nowhere to go. Drop them
        // so the fd is reaped this round — keeping it registered for POLLOUT
        // would turn every poll() into an instant POLLERR busy-spin. The
        // outcomes were already recorded when the responses were produced.
        conn.outbuf.clear();
        conn.closing = true;
      }

      if ((fds[i].revents & POLLIN) != 0 && !conn.closing) {
        char buf[4096];
        while (true) {
          const ssize_t got = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
          if (got > 0) {
            conn.inbuf.append(buf, static_cast<std::size_t>(got));
            if (!conn.has_partial) {
              conn.has_partial = true;
              conn.frame_deadline = Clock::now() + frame_timeout;
            }
            continue;
          }
          if (got == 0) {
            conn.closing = true;  // peer closed; flush anything owed
          }
          break;  // EAGAIN or error or EOF
        }

        // Assemble as many complete frames as the buffer holds.
        while (true) {
          if (!conn.header_parsed) {
            if (conn.inbuf.size() < kRequestHeaderBytes) break;
            const HeaderParse header = parse_request_header(
                std::string_view(conn.inbuf).substr(0, kRequestHeaderBytes),
                conn.frame);
            if (!header.ok) {
              // Malformed frame: typed answer, then close — the stream
              // offset is unrecoverable. Never a silent drop.
              {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.requests;
              }
              ResponseFrame response{Outcome::kFailed, RequestType::kStatus,
                                     epoch_.load(),
                                     error_payload("serve", header.error)};
              record_outcome(response.outcome);
              conn.outbuf += encode_response(response);
              conn.closing = true;
              break;
            }
            conn.header_parsed = true;
            conn.payload_len = header.payload_len;
            conn.inbuf.erase(0, kRequestHeaderBytes);
          }
          if (conn.inbuf.size() < conn.payload_len) break;
          conn.frame.payload = conn.inbuf.substr(0, conn.payload_len);
          conn.inbuf.erase(0, conn.payload_len);
          conn.header_parsed = false;
          conn.has_partial = !conn.inbuf.empty();
          if (conn.has_partial) {
            conn.frame_deadline = Clock::now() + frame_timeout;
          }
          handle_frame(conn, std::move(conn.frame));
          conn.frame = RequestFrame{};
        }
      }

      // Flush pending writes opportunistically (POLLOUT or fresh data).
      while (!conn.outbuf.empty()) {
        const ssize_t sent =
            ::send(conn.fd.get(), conn.outbuf.data(), conn.outbuf.size(),
#ifdef MSG_NOSIGNAL
                   MSG_NOSIGNAL
#else
                   0
#endif
            );
        if (sent > 0) {
          conn.outbuf.erase(0, static_cast<std::size_t>(sent));
          continue;
        }
        if (sent < 0 && errno == EINTR) continue;
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;  // kernel buffer full; retry when POLLOUT fires
        }
        // Hard error (EPIPE/ECONNRESET/...): the client disconnected with
        // response bytes still queued. Drop them and close — leaving the
        // outbuf non-empty would keep the dead fd registered for POLLOUT
        // forever (instant-POLLERR busy-spin, one leaked fd per client).
        conn.outbuf.clear();
        conn.closing = true;
        break;
      }
    }
  }

  // Teardown: the shutdown branch above already joined the workers on every
  // path that reaches here; the guards keep this safe regardless. The wake
  // fd is only invalidated after the joins — workers may call push_response
  // right up until they exit (the pipe itself outlives them via the local
  // Fd objects).
  initiate_shutdown();  // no-op when a shutdown request got here first
  if (ingest_thread.joinable()) ingest_thread.join();
  if (eval_thread.joinable()) eval_thread.join();
  if (watchdog_thread.joinable()) watchdog_thread.join();
  wake_write_fd_.store(-1);
  std::remove(config_.socket_path.c_str());
}

#else  // !FLARE_HAVE_UNIX_SOCKETS

void Daemon::run() {
  throw ServeError("flare serve requires Unix-domain sockets on this platform");
}

#endif

}  // namespace flare::serve
