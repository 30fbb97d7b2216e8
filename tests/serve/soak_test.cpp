// Soak test (satellite 4): several concurrent faulty clients ingest while
// another evaluates, with stalls / malformed frames / bursts injected from
// the seeded ServiceFaultModel. At the end, every single request must be
// accounted to exactly one terminal outcome, and the daemon's final model
// must equal — bit-identically — an offline pipeline replay of exactly the
// committed groups on disk.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/feature_spec.hpp"
#include "core/pipeline.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/state.hpp"
#include "tests/serve/serve_env.hpp"
#include "tests/util/client_faults.hpp"
#include "trace/scenario_io.hpp"
#include "util/error.hpp"
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
using testing::serve_flare_config;
using testing::TempTree;

constexpr std::size_t kIngestThreads = 3;
constexpr std::size_t kRequestsPerThread = 5;

/// What the clients observed, merged across threads.
struct Observed {
  std::mutex mutex;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeout = 0;
  std::uint64_t transport_errors = 0;
  std::set<std::string> acked_groups;  ///< group ids named in kOk ingest acks
};

core::RefitPolicy policy_from(const std::string& name) {
  if (name == "auto") return core::RefitPolicy::kAuto;
  if (name == "always") return core::RefitPolicy::kAlways;
  if (name == "never") return core::RefitPolicy::kNever;
  ADD_FAILURE() << "unknown refit policy in manifest: " << name;
  return core::RefitPolicy::kAuto;
}

void tally(Observed& observed, const ResponseFrame& response) {
  std::lock_guard<std::mutex> lock(observed.mutex);
  switch (response.outcome) {
    case Outcome::kOk:
      ++observed.ok;
      if (response.type == RequestType::kIngest) {
        observed.acked_groups.insert(
            kv_or(parse_kv_payload(response.payload), "group"));
      }
      break;
    case Outcome::kFailed: ++observed.failed; break;
    case Outcome::kShed: ++observed.shed; break;
    case Outcome::kTimeout: ++observed.timeout; break;
    case Outcome::kShuttingDown: break;  // not expected before shutdown
  }
}

TEST(ServeSoak, ConcurrentFaultyClientsAreFullyAccountedAndReplayExactly) {
  TempTree tree("serve_soak");
  DaemonConfig config = daemon_config(tree);
  // Generous deadlines: this test is about accounting and bit-identity, not
  // about manufacturing timeouts (the daemon suite covers those paths).
  config.default_deadline_ms = 120000;
  DaemonRunner runner(config, base_set());

  // Client-side fault plan: seeded, deterministic, ~10% disruptive.
  flare::testing::ClientFaultOptions fault_options;
  fault_options.stall_rate = 0.05;
  fault_options.malformed_rate = 0.05;
  fault_options.burst_rate = 0.10;
  fault_options.seed = 20260809;
  const flare::testing::ClientFaultModel faults(fault_options);

  Observed observed;
  std::atomic<bool> ingest_done{false};

  std::vector<std::thread> ingesters;
  for (std::size_t t = 0; t < kIngestThreads; ++t) {
    ingesters.emplace_back([&, t] {
      const std::string key = "soak-" + std::to_string(t);
      ServeClient client(config.socket_path, std::chrono::seconds(120));
      for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
        const std::uint64_t draw = static_cast<std::uint64_t>(i);
        const dcsim::ScenarioSet batch =
            make_set(8, 1000 + 100 * t + i);
        const RequestFrame request =
            make_ingest_request(trace::scenario_set_to_csv(batch));
        // A burst client fires the same request several times back to back.
        const std::size_t copies = faults.burst(key, draw) ? 3 : 1;
        for (std::size_t copy = 0; copy < copies; ++copy) {
          try {
            const ClientFaultKind kind = faults.client_fault(key, draw);
            const ResponseFrame response =
                kind == ClientFaultKind::kNone
                    ? client.call(request)
                    : client.call_with_fault(request, kind, /*stall_ms=*/20);
            tally(observed, response);
            if (kind == ClientFaultKind::kMalformed) {
              EXPECT_EQ(response.outcome, Outcome::kFailed);
            }
          } catch (const ServeError&) {
            std::lock_guard<std::mutex> lock(observed.mutex);
            ++observed.transport_errors;
          }
        }
      }
    });
  }

  // One reader alongside the writers: status + evaluate must keep answering
  // (snapshot reads never wait on the ingest worker).
  std::thread evaluator([&] {
    ServeClient client(config.socket_path, std::chrono::seconds(120));
    while (!ingest_done.load()) {
      try {
        tally(observed, client.call(make_status_request()));
        const ResponseFrame eval =
            client.call(make_evaluate_request("feature2"));
        EXPECT_EQ(eval.outcome, Outcome::kOk);
        tally(observed, eval);
      } catch (const ServeError&) {
        std::lock_guard<std::mutex> lock(observed.mutex);
        ++observed.transport_errors;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (std::thread& thread : ingesters) thread.join();
  ingest_done.store(true);
  evaluator.join();
  EXPECT_EQ(observed.transport_errors, 0u);

  // All ingests answered → all commits published. Read the final answer.
  ServeClient client = runner.client();
  const ResponseFrame final_eval =
      client.call(make_evaluate_request("feature2"));
  ASSERT_EQ(final_eval.outcome, Outcome::kOk);
  const std::string daemon_impact =
      kv_or(parse_kv_payload(final_eval.payload), "impact_pct");

  const ResponseFrame status = client.call(make_status_request());
  const auto skv = parse_kv_payload(status.payload);
  EXPECT_EQ(kv_or(skv, "unacknowledged_groups"), "0");

  runner.stop();
  const DaemonStats stats = runner.daemon().stats_snapshot();
  expect_fully_accounted(stats);
  EXPECT_GE(stats.failed, 1u);  // the seeded plan injects malformed frames
  EXPECT_GE(stats.ingest_requests, kIngestThreads * kRequestsPerThread -
                                       stats.shed - stats.failed);
  EXPECT_GE(stats.max_coalesced_batches, 1u);

  // Offline replay of exactly what is committed on disk, in manifest order.
  ResidentState state(config.state_dir);
  const StateRecovery recovery = recover_state(state);
  EXPECT_TRUE(recovery.orphan_files.empty());
  ASSERT_EQ(recovery.committed.size(), final_eval.epoch);
  // Every committed group was acknowledged to some client, and vice versa:
  // the ack set and the manifest agree exactly.
  std::set<std::string> committed_ids;
  for (const GroupRecord& record : recovery.committed) {
    committed_ids.insert(std::to_string(record.id));
  }
  EXPECT_EQ(committed_ids, observed.acked_groups);

  core::FlarePipeline offline(serve_flare_config());
  offline.fit(base_set());
  for (const GroupRecord& record : recovery.committed) {
    (void)offline.ingest(trace::load_scenario_set(state.group_path(record.file)),
                         policy_from(record.refit_policy));
  }
  EXPECT_EQ(daemon_impact,
            util::format_double_exact(
                offline.evaluate(core::parse_feature("feature2")).impact_pct));
}

}  // namespace
}  // namespace flare::serve

#endif  // FLARE_HAVE_UNIX_SOCKETS
