// Kill-9 recovery tests: a child process runs a real daemon with the
// ServiceFaultModel armed to _Exit(137) at each durability boundary of the
// ingest commit protocol. The parent drives it over the socket, watches it
// die, restarts a daemon on the same state dir, and asserts the recovered
// model is bit-identical to an offline replay of exactly the acknowledged
// groups — the orphan (acked-never) data is reported, never folded in.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/feature_spec.hpp"
#include "core/pipeline.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "tests/serve/serve_env.hpp"
#include "trace/scenario_io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#define FLARE_HAVE_FORK 1
#endif

#if defined(FLARE_HAVE_FORK) && defined(FLARE_HAVE_UNIX_SOCKETS)

namespace flare::serve {
namespace {

namespace fs = std::filesystem;
using testing::base_set;
using testing::daemon_config;
using testing::DaemonRunner;
using testing::kv_or;
using testing::make_set;
using testing::serve_flare_config;
using testing::TempTree;
using testing::wait_until_ready;

/// Forks a child that serves `config` until the armed kill point fires.
/// Returns the child pid; the child never returns.
pid_t spawn_doomed_daemon(const DaemonConfig& config) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: a real daemon whose commit hook calls std::_Exit(137) — no
  // destructors, no flushes; as close to SIGKILL as a deterministic test
  // gets while keeping the kill point exact.
  try {
    Daemon daemon(config, base_set());
    daemon.run();
  } catch (...) {
    _exit(42);  // wrong failure mode: visible to the parent's assertions
  }
  _exit(0);  // daemon exited without dying: also wrong
}

void expect_killed(pid_t pid) {
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137);
}

TEST(ServeRecovery, KillAfterGroupFileLeavesAnUnacknowledgedOrphan) {
  TempTree tree("serve_kill_after_group_file");
  DaemonConfig doomed = daemon_config(tree);
  doomed.faults.enabled = true;
  doomed.faults.kill_after_ingest = 0;
  doomed.faults.kill_point = KillPoint::kAfterGroupFile;

  const pid_t pid = spawn_doomed_daemon(doomed);
  ASSERT_GE(pid, 0);
  ASSERT_TRUE(wait_until_ready(doomed.socket_path, std::chrono::seconds(60)));

  // The ingest reaches disk (group file) but dies before the manifest row —
  // so the client never sees an ack, only a dead connection.
  ServeClient client(doomed.socket_path, std::chrono::seconds(30));
  const dcsim::ScenarioSet batch = make_set(20, 77);
  EXPECT_THROW(
      (void)client.call(
          make_ingest_request(trace::scenario_set_to_csv(batch))),
      ServeError);
  expect_killed(pid);

  // Restart on the same state dir: unacked data is reported, not replayed.
  DaemonConfig recovered = daemon_config(tree);
  recovered.socket_path = tree.file("daemon-recovered.sock");
  DaemonRunner runner(recovered, base_set());
  const StartReport& report = runner.daemon().start_report();
  EXPECT_EQ(report.epoch, 0u);
  ASSERT_EQ(report.unacknowledged.size(), 1u);
  EXPECT_EQ(report.unacknowledged[0], "group_000000.csv");
  EXPECT_TRUE(fs::exists(recovered.state_dir + "/group_000000.csv"));

  // Bit-identical to offline replay of the acknowledged groups — i.e. none.
  core::FlarePipeline offline(serve_flare_config());
  offline.fit(base_set());
  ServeClient fresh = runner.client();
  const ResponseFrame eval = fresh.call(make_evaluate_request("feature2"));
  ASSERT_EQ(eval.outcome, Outcome::kOk);
  EXPECT_EQ(eval.epoch, 0u);
  EXPECT_EQ(
      kv_or(parse_kv_payload(eval.payload), "impact_pct"),
      util::format_double_exact(
          offline.evaluate(core::parse_feature("feature2")).impact_pct));

  // The orphan's id stays burned: new ingests never reuse its name.
  const ResponseFrame ack = fresh.call(
      make_ingest_request(trace::scenario_set_to_csv(make_set(6, 79))));
  ASSERT_EQ(ack.outcome, Outcome::kOk);
  EXPECT_EQ(kv_or(parse_kv_payload(ack.payload), "group"), "1");
  EXPECT_EQ(ack.epoch, 1u);

  runner.stop();
}

TEST(ServeRecovery, KillAfterCommitRecoversTheAcknowledgedGroupExactly) {
  TempTree tree("serve_kill_after_commit");
  DaemonConfig doomed = daemon_config(tree);
  doomed.faults.enabled = true;
  doomed.faults.kill_after_ingest = 0;
  doomed.faults.kill_point = KillPoint::kAfterCommit;

  const pid_t pid = spawn_doomed_daemon(doomed);
  ASSERT_GE(pid, 0);
  ASSERT_TRUE(wait_until_ready(doomed.socket_path, std::chrono::seconds(60)));

  // The commit completes (group file + manifest row durable) and THEN the
  // daemon dies — before the ack can leave. The client sees a dead
  // connection, but the data is committed: recovery must replay it.
  ServeClient client(doomed.socket_path, std::chrono::seconds(30));
  const dcsim::ScenarioSet batch = make_set(20, 81);
  EXPECT_THROW(
      (void)client.call(
          make_ingest_request(trace::scenario_set_to_csv(batch))),
      ServeError);
  expect_killed(pid);

  DaemonConfig recovered = daemon_config(tree);
  recovered.socket_path = tree.file("daemon-recovered.sock");
  DaemonRunner runner(recovered, base_set());
  const StartReport& report = runner.daemon().start_report();
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_TRUE(report.unacknowledged.empty());

  // Offline replay reads the committed group file itself — byte-for-byte the
  // rows the daemon recovered from, so string equality of the estimate is a
  // bit-identity assertion.
  core::FlarePipeline offline(serve_flare_config());
  offline.fit(base_set());
  (void)offline.ingest(
      trace::load_scenario_set(recovered.state_dir + "/group_000000.csv"),
      core::RefitPolicy::kAuto);

  ServeClient fresh = runner.client();
  const ResponseFrame eval = fresh.call(make_evaluate_request("feature2"));
  ASSERT_EQ(eval.outcome, Outcome::kOk);
  EXPECT_EQ(eval.epoch, 1u);
  EXPECT_EQ(
      kv_or(parse_kv_payload(eval.payload), "impact_pct"),
      util::format_double_exact(
          offline.evaluate(core::parse_feature("feature2")).impact_pct));

  runner.stop();
}

TEST(ServeRecovery, SecondIngestKillOnlyLosesTheUncommittedTail) {
  TempTree tree("serve_kill_second_commit");
  DaemonConfig doomed = daemon_config(tree);
  doomed.faults.enabled = true;
  doomed.faults.kill_after_ingest = 1;  // survive pass 0, die in pass 1
  doomed.faults.kill_point = KillPoint::kAfterGroupFile;

  const pid_t pid = spawn_doomed_daemon(doomed);
  ASSERT_GE(pid, 0);
  ASSERT_TRUE(wait_until_ready(doomed.socket_path, std::chrono::seconds(60)));

  const dcsim::ScenarioSet first = make_set(12, 83);
  {
    ServeClient client(doomed.socket_path, std::chrono::seconds(30));
    const ResponseFrame ack =
        client.call(make_ingest_request(trace::scenario_set_to_csv(first)));
    ASSERT_EQ(ack.outcome, Outcome::kOk);  // pass 0: acked and durable
    EXPECT_EQ(ack.epoch, 1u);
  }
  {
    ServeClient client(doomed.socket_path, std::chrono::seconds(30));
    EXPECT_THROW((void)client.call(make_ingest_request(
                     trace::scenario_set_to_csv(make_set(8, 85)))),
                 ServeError);
  }
  expect_killed(pid);

  DaemonConfig recovered = daemon_config(tree);
  recovered.socket_path = tree.file("daemon-recovered.sock");
  DaemonRunner runner(recovered, base_set());
  const StartReport& report = runner.daemon().start_report();
  EXPECT_EQ(report.epoch, 1u);  // the acknowledged group survived
  ASSERT_EQ(report.unacknowledged.size(), 1u);
  EXPECT_EQ(report.unacknowledged[0], "group_000001.csv");

  core::FlarePipeline offline(serve_flare_config());
  offline.fit(base_set());
  (void)offline.ingest(
      trace::load_scenario_set(recovered.state_dir + "/group_000000.csv"),
      core::RefitPolicy::kAuto);
  ServeClient fresh = runner.client();
  const ResponseFrame eval = fresh.call(make_evaluate_request("feature2"));
  ASSERT_EQ(eval.outcome, Outcome::kOk);
  EXPECT_EQ(
      kv_or(parse_kv_payload(eval.payload), "impact_pct"),
      util::format_double_exact(
          offline.evaluate(core::parse_feature("feature2")).impact_pct));

  runner.stop();
}

}  // namespace
}  // namespace flare::serve

#endif  // FLARE_HAVE_FORK && FLARE_HAVE_UNIX_SOCKETS
