// End-to-end daemon tests over a real Unix socket: inline status, ingest
// epochs and acks, snapshot-consistent evaluate/report answers that land
// bit-identically on the offline pipeline, typed failures for malformed
// frames and bad requests, bounded admission under a wedged ingest worker
// (shed + queue-deadline timeouts), the mid-frame stall watchdog, shutdown
// semantics, and restart recovery of committed groups — all with the full
// outcome-accounting invariant checked at the end of every test.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/feature_spec.hpp"
#include "core/pipeline.hpp"
#include "tests/serve/serve_env.hpp"
#include "trace/scenario_io.hpp"
#include "util/strings.hpp"

#ifdef FLARE_HAVE_UNIX_SOCKETS

namespace flare::serve {
namespace {

using testing::base_set;
using testing::daemon_config;
using testing::DaemonRunner;
using testing::expect_fully_accounted;
using testing::kv_or;
using testing::make_set;
using testing::RawConn;
using testing::serve_flare_config;
using testing::TempTree;
using testing::wait_for_status;

std::string csv_of(const dcsim::ScenarioSet& set) {
  return trace::scenario_set_to_csv(set);
}

/// A batch big enough that its profiler pass keeps the ingest worker busy
/// for a long, schedule-independent window — the wedge the overload and
/// queue-timeout tests hide behind. The pass must outlast the 30 ms
/// deadline below several times over even on a fast host: at 200 rows it
/// took 25–45 ms on a 4-vCPU VM, and the timeout test raced it.
dcsim::ScenarioSet slow_batch() { return make_set(800, 31); }

TEST(ServeDaemon, FreshStartServesInlineStatus) {
  TempTree tree("serve_daemon_status");
  DaemonRunner runner(daemon_config(tree), base_set());

  const StartReport& report = runner.daemon().start_report();
  EXPECT_EQ(report.epoch, 0u);
  EXPECT_TRUE(report.unacknowledged.empty());
  EXPECT_FALSE(report.recovered);

  ServeClient client = runner.client();
  const ResponseFrame response = client.call(make_status_request());
  EXPECT_EQ(response.outcome, Outcome::kOk);
  EXPECT_EQ(response.type, RequestType::kStatus);
  EXPECT_EQ(response.epoch, 0u);
  const auto kv = parse_kv_payload(response.payload);
  EXPECT_EQ(kv_or(kv, "epoch"), "0");
  EXPECT_EQ(kv_or(kv, "scenarios"), std::to_string(base_set().size()));
  EXPECT_EQ(kv_or(kv, "clusters"), "4");
  EXPECT_EQ(kv_or(kv, "ingest_limit"), "64");
  EXPECT_EQ(kv_or(kv, "unacknowledged_groups"), "0");

  runner.stop();
  expect_fully_accounted(runner.daemon().stats_snapshot());
}

TEST(ServeDaemon, IngestAdvancesEpochAndAcksTheCommittedGroup) {
  TempTree tree("serve_daemon_ingest");
  DaemonRunner runner(daemon_config(tree), base_set());
  ServeClient client = runner.client();

  const dcsim::ScenarioSet batch = make_set(20, 21);
  const ResponseFrame ack = client.call(make_ingest_request(csv_of(batch)));
  EXPECT_EQ(ack.outcome, Outcome::kOk);
  EXPECT_EQ(ack.type, RequestType::kIngest);
  EXPECT_EQ(ack.epoch, 1u);
  const auto kv = parse_kv_payload(ack.payload);
  EXPECT_EQ(kv_or(kv, "group"), "0");
  EXPECT_EQ(kv_or(kv, "appended"), std::to_string(batch.size()));
  EXPECT_EQ(kv_or(kv, "coalesced_batches"), "1");
  EXPECT_FALSE(kv_or(kv, "action").empty());

  const ResponseFrame status = client.call(make_status_request());
  const auto skv = parse_kv_payload(status.payload);
  EXPECT_EQ(kv_or(skv, "epoch"), "1");
  EXPECT_EQ(kv_or(skv, "scenarios"),
            std::to_string(base_set().size() + batch.size()));
  EXPECT_EQ(kv_or(skv, "ingest_requests"), "1");
  EXPECT_EQ(kv_or(skv, "coalesced_groups"), "1");

  runner.stop();
  const DaemonStats stats = runner.daemon().stats_snapshot();
  EXPECT_EQ(stats.coalesced_groups, 1u);
  expect_fully_accounted(stats);
}

TEST(ServeDaemon, EvaluateAndReportMatchTheOfflinePipelineBitForBit) {
  TempTree tree("serve_daemon_eval");
  DaemonRunner runner(daemon_config(tree), base_set());
  ServeClient client = runner.client();

  const dcsim::ScenarioSet batch = make_set(20, 23);
  ASSERT_EQ(client.call(make_ingest_request(csv_of(batch))).outcome,
            Outcome::kOk);

  // The offline reference does exactly what the daemon did: fit the base,
  // ingest the (single-batch) coalesced group under the same policy.
  core::FlarePipeline offline(serve_flare_config());
  offline.fit(base_set());
  (void)offline.ingest(batch, core::RefitPolicy::kAuto);
  const core::Feature feature = core::parse_feature("feature2");

  const ResponseFrame eval = client.call(make_evaluate_request("feature2"));
  EXPECT_EQ(eval.outcome, Outcome::kOk);
  EXPECT_EQ(eval.epoch, 1u);  // snapshot-consistent: the epoch it read
  const auto kv = parse_kv_payload(eval.payload);
  EXPECT_EQ(kv_or(kv, "feature"), feature.name());  // canonical, not the spec
  EXPECT_EQ(kv_or(kv, "impact_pct"),
            util::format_double_exact(offline.evaluate(feature).impact_pct));

  const ResponseFrame validated =
      client.call(make_evaluate_request("feature2", /*validate=*/true));
  EXPECT_EQ(validated.outcome, Outcome::kOk);
  const auto vkv = parse_kv_payload(validated.payload);
  const core::ValidatedFeatureEstimate expected =
      offline.evaluate_with_validation(feature);
  EXPECT_EQ(kv_or(vkv, "impact_pct"),
            util::format_double_exact(expected.estimate.impact_pct));
  EXPECT_EQ(kv_or(vkv, "uncertainty_pp"),
            util::format_double_exact(expected.uncertainty_pp));
  EXPECT_EQ(kv_or(vkv, "lower"), util::format_double_exact(expected.lower()));
  EXPECT_EQ(kv_or(vkv, "upper"), util::format_double_exact(expected.upper()));

  const ResponseFrame report =
      client.call(make_report_request("feature2;feature3"));
  EXPECT_EQ(report.outcome, Outcome::kOk);
  const auto rkv = parse_kv_payload(report.payload);
  EXPECT_EQ(kv_or(rkv, "count"), "2");
  EXPECT_EQ(kv_or(rkv, "name_0"), feature.name());
  EXPECT_EQ(kv_or(rkv, "name_1"), core::parse_feature("feature3").name());
  EXPECT_EQ(kv_or(rkv, "impact_0"),
            util::format_double_exact(offline.evaluate(feature).impact_pct));

  runner.stop();
  expect_fully_accounted(runner.daemon().stats_snapshot());
}

TEST(ServeDaemon, MalformedFrameGetsTypedFailureWithoutDisturbingOthers) {
  TempTree tree("serve_daemon_malformed");
  DaemonRunner runner(daemon_config(tree), base_set());
  ServeClient client = runner.client();

  const ResponseFrame failed = client.call_with_fault(
      make_status_request(), ClientFaultKind::kMalformed, 0);
  EXPECT_EQ(failed.outcome, Outcome::kFailed);
  const auto kv = parse_kv_payload(failed.payload);
  EXPECT_EQ(kv_or(kv, "error"), "serve");
  EXPECT_NE(kv_or(kv, "message").find("bad magic"), std::string::npos);

  // Other connections are untouched: a fresh call still answers.
  EXPECT_EQ(client.call(make_status_request()).outcome, Outcome::kOk);

  runner.stop();
  const DaemonStats stats = runner.daemon().stats_snapshot();
  EXPECT_GE(stats.failed, 1u);
  expect_fully_accounted(stats);
}

TEST(ServeDaemon, StallWithinTheFrameBudgetIsServed) {
  TempTree tree("serve_daemon_stall_ok");
  DaemonRunner runner(daemon_config(tree), base_set());
  ServeClient client = runner.client();
  const ResponseFrame response =
      client.call_with_fault(make_status_request(), ClientFaultKind::kStall,
                             /*stall_ms=*/50);
  EXPECT_EQ(response.outcome, Outcome::kOk);
  runner.stop();
  expect_fully_accounted(runner.daemon().stats_snapshot());
}

TEST(ServeDaemon, StallPastTheFrameBudgetGetsTypedFrameTimeout) {
  TempTree tree("serve_daemon_stall_fail");
  DaemonConfig config = daemon_config(tree);
  config.frame_timeout_ms = 50;
  DaemonRunner runner(config, base_set());

  // A truly wedged client: half a status frame, then silence. The daemon
  // must answer (typed kFailed) and close, not hold the reader hostage.
  RawConn conn(config.socket_path);
  const std::string wire = encode_request(make_status_request());
  conn.send_bytes(wire.substr(0, wire.size() / 2));
  const ResponseFrame response = conn.read();
  EXPECT_EQ(response.outcome, Outcome::kFailed);
  const auto kv = parse_kv_payload(response.payload);
  EXPECT_EQ(kv_or(kv, "error"), "serve");
  EXPECT_NE(kv_or(kv, "message").find("stalled mid-frame"), std::string::npos);

  runner.stop();
  expect_fully_accounted(runner.daemon().stats_snapshot());
}

TEST(ServeDaemon, BadRequestsFailWithTheirErrorClass) {
  TempTree tree("serve_daemon_bad_requests");
  DaemonRunner runner(daemon_config(tree), base_set());
  ServeClient client = runner.client();

  const ResponseFrame bad_feature =
      client.call(make_evaluate_request("no-such-feature"));
  EXPECT_EQ(bad_feature.outcome, Outcome::kFailed);
  EXPECT_EQ(kv_or(parse_kv_payload(bad_feature.payload), "error"), "parse");

  const ResponseFrame bad_batch =
      client.call(make_ingest_request("not,a,scenario,csv\n1,2,3,4\n"));
  EXPECT_EQ(bad_batch.outcome, Outcome::kFailed);
  EXPECT_EQ(kv_or(parse_kv_payload(bad_batch.payload), "error"), "parse");
  // A failed parse must not advance the model.
  EXPECT_EQ(client.call(make_status_request()).epoch, 0u);

  runner.stop();
  expect_fully_accounted(runner.daemon().stats_snapshot());
}

TEST(ServeDaemon, OverloadShedsWithANamedReasonWhileStatusStaysResponsive) {
  TempTree tree("serve_daemon_shed");
  DaemonConfig config = daemon_config(tree);
  config.limits.max_ingest = 1;
  DaemonRunner runner(config, base_set());

  // Wedge the worker: one slow pass in flight, then fill the 1-deep queue.
  RawConn slow(config.socket_path);
  slow.send(make_ingest_request(csv_of(slow_batch())));
  ASSERT_TRUE(wait_for_status(
      config.socket_path,
      [](const auto& kv) {
        return testing::kv_or(kv, "ingest_requests") == "1" &&
               testing::kv_or(kv, "ingest_depth") == "0";
      },
      std::chrono::seconds(30)))
      << "worker never picked up the slow pass";

  RawConn queued(config.socket_path);
  RawConn shed_a(config.socket_path);
  RawConn shed_b(config.socket_path);
  const std::string tiny = csv_of(make_set(4, 33));
  queued.send(make_ingest_request(tiny));   // fills the queue (1/1)
  shed_a.send(make_ingest_request(tiny));   // refused, by name
  shed_b.send(make_ingest_request(tiny));

  for (RawConn* conn : {&shed_a, &shed_b}) {
    const ResponseFrame response = conn->read();
    EXPECT_EQ(response.outcome, Outcome::kShed);
    EXPECT_EQ(kv_or(parse_kv_payload(response.payload), "reason"),
              "ingest queue full (1)");
  }
  // Status answered inline the whole time (wait_for_status above already
  // proved it while the worker was busy); the admitted requests complete.
  EXPECT_EQ(slow.read().outcome, Outcome::kOk);
  EXPECT_EQ(queued.read().outcome, Outcome::kOk);

  runner.stop();
  const DaemonStats stats = runner.daemon().stats_snapshot();
  EXPECT_GE(stats.shed, 2u);
  expect_fully_accounted(stats);
}

TEST(ServeDaemon, QueueDeadlineIsAnsweredByTheWatchdogAsTimeout) {
  TempTree tree("serve_daemon_timeout");
  DaemonRunner runner(daemon_config(tree), base_set());

  RawConn slow(runner.daemon().config().socket_path);
  slow.send(make_ingest_request(csv_of(slow_batch())));
  ASSERT_TRUE(wait_for_status(
      runner.daemon().config().socket_path,
      [](const auto& kv) {
        return testing::kv_or(kv, "ingest_requests") == "1" &&
               testing::kv_or(kv, "ingest_depth") == "0";
      },
      std::chrono::seconds(30)));

  // 30 ms of patience against a pass that runs far longer: the watchdog must
  // answer while the worker is still busy — a slow refit can delay service,
  // never wedge a request into silence.
  RawConn impatient(runner.daemon().config().socket_path);
  impatient.send(
      make_ingest_request(csv_of(make_set(4, 35)), /*deadline_ms=*/30));
  const ResponseFrame response = impatient.read();
  EXPECT_EQ(response.outcome, Outcome::kTimeout);
  EXPECT_NE(kv_or(parse_kv_payload(response.payload), "reason")
                .find("deadline expired"),
            std::string::npos);

  EXPECT_EQ(slow.read().outcome, Outcome::kOk);
  runner.stop();
  const DaemonStats stats = runner.daemon().stats_snapshot();
  EXPECT_GE(stats.timeout, 1u);
  expect_fully_accounted(stats);
}

TEST(ServeDaemon, ShutdownAnswersQueuedRequestsInsteadOfDroppingThem) {
  TempTree tree("serve_daemon_shutdown");
  DaemonConfig config = daemon_config(tree);
  DaemonRunner runner(config, base_set());

  RawConn slow(config.socket_path);
  slow.send(make_ingest_request(csv_of(slow_batch())));
  ASSERT_TRUE(wait_for_status(
      config.socket_path,
      [](const auto& kv) {
        return testing::kv_or(kv, "ingest_requests") == "1" &&
               testing::kv_or(kv, "ingest_depth") == "0";
      },
      std::chrono::seconds(30)));

  RawConn queued(config.socket_path);
  queued.send(make_ingest_request(csv_of(make_set(4, 37))));
  RawConn shutdown(config.socket_path);
  shutdown.send(make_shutdown_request());

  const ResponseFrame ack = shutdown.read();
  EXPECT_EQ(ack.outcome, Outcome::kOk);
  EXPECT_EQ(kv_or(parse_kv_payload(ack.payload), "stopping"), "1");

  const ResponseFrame refused = queued.read();
  EXPECT_EQ(refused.outcome, Outcome::kShuttingDown);

  // The in-flight pass was popped before the queue closed; shutdown
  // quiesces the worker before the final flush, so its ack is *delivered*,
  // not just accounted — EOF here would be a silent drop.
  const ResponseFrame inflight = slow.read();
  EXPECT_EQ(inflight.outcome, Outcome::kOk);

  runner.stop();
  const DaemonStats stats = runner.daemon().stats_snapshot();
  EXPECT_GE(stats.shutting_down, 1u);
  expect_fully_accounted(stats);
}

TEST(ServeDaemon, DisconnectedClientWithQueuedResponsesIsReaped) {
  TempTree tree("serve_daemon_disconnect");
  DaemonConfig config = daemon_config(tree);
  DaemonRunner runner(config, base_set());

  // Pipeline far more status requests than the socket buffers hold, then
  // vanish without reading: the daemon is left owing megabytes to a peer
  // that is gone. The hard send error (or POLLERR/POLLHUP) must drop the
  // undeliverable bytes and reap the connection — not park the dead fd in
  // the poll set forever (busy-spin + one leaked fd per such client).
  constexpr int kPipelined = 4000;
  {
    RawConn ghost(config.socket_path);
    const std::string one = encode_request(make_status_request());
    std::string burst;
    burst.reserve(one.size() * kPipelined);
    for (int i = 0; i < kPipelined; ++i) burst += one;
    ghost.send_bytes(burst);
    // Wait until every pipelined frame is parsed and answered: megabytes of
    // responses now sit queued against socket buffers the ghost never
    // drains, so the daemon provably still owes bytes when the ghost
    // vanishes — the close below lands on a non-empty outbuf.
    ASSERT_TRUE(wait_for_status(
        config.socket_path,
        [](const auto& kv) {
          return std::stoull(testing::kv_or(kv, "requests")) >=
                 static_cast<std::uint64_t>(kPipelined);
        },
        std::chrono::seconds(30)));
  }  // closes without reading a single response

  // Once the ghost is reaped, the only live connection is the status probe
  // itself. Before the fix this never converges.
  EXPECT_TRUE(wait_for_status(
      config.socket_path,
      [](const auto& kv) {
        return testing::kv_or(kv, "open_connections") == "1";
      },
      std::chrono::seconds(30)));

  runner.stop();
  const DaemonStats stats = runner.daemon().stats_snapshot();
  EXPECT_GE(stats.requests, static_cast<std::uint64_t>(kPipelined));
  expect_fully_accounted(stats);
}

TEST(ServeDaemon, RestartRecoversEveryCommittedGroupBitIdentically) {
  TempTree tree("serve_daemon_restart");
  const dcsim::ScenarioSet first = make_set(20, 41);
  const dcsim::ScenarioSet second = make_set(12, 43);
  {
    DaemonRunner runner(daemon_config(tree), base_set());
    ServeClient client = runner.client();
    ASSERT_EQ(client.call(make_ingest_request(csv_of(first))).outcome,
              Outcome::kOk);
    ASSERT_EQ(client.call(make_ingest_request(csv_of(second))).outcome,
              Outcome::kOk);
    runner.stop();
  }

  // Same state dir, fresh socket: the daemon must come back at epoch 2 with
  // the model it had — (base fit) + the two committed groups, in order.
  DaemonConfig config = daemon_config(tree);
  config.socket_path = tree.file("daemon-restarted.sock");
  DaemonRunner runner(config, base_set());
  const StartReport& report = runner.daemon().start_report();
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_TRUE(report.unacknowledged.empty());

  core::FlarePipeline offline(serve_flare_config());
  offline.fit(base_set());
  (void)offline.ingest(first, core::RefitPolicy::kAuto);
  (void)offline.ingest(second, core::RefitPolicy::kAuto);

  ServeClient client = runner.client();
  const ResponseFrame eval = client.call(make_evaluate_request("feature2"));
  EXPECT_EQ(eval.outcome, Outcome::kOk);
  EXPECT_EQ(eval.epoch, 2u);
  EXPECT_EQ(
      kv_or(parse_kv_payload(eval.payload), "impact_pct"),
      util::format_double_exact(
          offline.evaluate(core::parse_feature("feature2")).impact_pct));

  runner.stop();
  expect_fully_accounted(runner.daemon().stats_snapshot());
}

/// The `status` verb's drift/refit/quarantine telemetry (DESIGN.md §17):
/// the cumulative action counters partition the coalesced groups, the
/// last-verdict fields carry real values, and both advance as further
/// groups are ingested.
TEST(ServeDaemon, StatusReportsDriftTelemetryAdvancingAcrossGroups) {
  TempTree tree("serve_daemon_drift_telemetry");
  DaemonConfig config = daemon_config(tree);
  config.flare.drift_response.enabled = true;
  DaemonRunner runner(config, base_set());
  ServeClient client = runner.client();

  const auto count = [](const std::map<std::string, std::string>& kv,
                        const std::string& key) {
    return std::stoull(kv_or(kv, key));
  };

  // Before any ingest the counters are zero and the last-verdict telemetry
  // is explicitly empty (no group has run).
  const auto kv0 = parse_kv_payload(client.call(make_status_request()).payload);
  EXPECT_EQ(count(kv0, "actions_valid"), 0u);
  EXPECT_EQ(count(kv0, "actions_reweight"), 0u);
  EXPECT_EQ(count(kv0, "actions_refit"), 0u);
  EXPECT_EQ(kv_or(kv0, "last_verdict"), "");
  EXPECT_EQ(kv_or(kv0, "last_regime"), "");

  ASSERT_EQ(client.call(make_ingest_request(csv_of(make_set(20, 21)))).outcome,
            Outcome::kOk);
  const auto kv1 = parse_kv_payload(client.call(make_status_request()).payload);
  const std::uint64_t actions1 = count(kv1, "actions_valid") +
                                 count(kv1, "actions_reweight") +
                                 count(kv1, "actions_refit");
  EXPECT_EQ(actions1, count(kv1, "coalesced_groups"));
  EXPECT_GE(actions1, 1u);
  // Every last-* field now carries the verdict of a real group.
  const std::string verdict1 = kv_or(kv1, "last_verdict");
  EXPECT_TRUE(verdict1 == "valid" || verdict1 == "reweight" ||
              verdict1 == "refit")
      << verdict1;
  const std::string regime1 = kv_or(kv1, "last_regime");
  EXPECT_TRUE(regime1 == "stable" || regime1 == "burst" || regime1 == "shift")
      << regime1;
  EXPECT_FALSE(kv_or(kv1, "last_action").empty());
  EXPECT_NE(kv_or(kv1, "last_drift_statistic"), "<missing last_drift_statistic>");
  EXPECT_NE(kv_or(kv1, "staleness_widening_pp"),
            "<missing staleness_widening_pp>");

  ASSERT_EQ(client.call(make_ingest_request(csv_of(make_set(25, 22)))).outcome,
            Outcome::kOk);
  const auto kv2 = parse_kv_payload(client.call(make_status_request()).payload);
  const std::uint64_t actions2 = count(kv2, "actions_valid") +
                                 count(kv2, "actions_reweight") +
                                 count(kv2, "actions_refit");
  // The partition invariant holds as the counters advance group by group.
  EXPECT_EQ(actions2, count(kv2, "coalesced_groups"));
  EXPECT_EQ(actions2, actions1 + 1);
  // Monotone cumulative counters, never reset by later groups.
  EXPECT_GE(count(kv2, "refits_suppressed"), count(kv1, "refits_suppressed"));
  EXPECT_GE(count(kv2, "episodes_quarantined"),
            count(kv1, "episodes_quarantined"));
  EXPECT_GE(count(kv2, "rows_quarantined"), count(kv1, "rows_quarantined"));

  runner.stop();
  expect_fully_accounted(runner.daemon().stats_snapshot());
}

}  // namespace
}  // namespace flare::serve

#endif  // FLARE_HAVE_UNIX_SOCKETS
