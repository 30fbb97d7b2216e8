// ResidentState / recover_state contracts: the commit protocol's durability
// windows, orphan classification, torn-manifest rollback, group-id
// fast-forwarding, and the refusal paths (missing committed files, torn
// manifests with no journal). These run without a daemon — the state layer
// must hold on its own before the fork-kill suite exercises it in anger.
#include "serve/state.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "tests/serve/serve_env.hpp"
#include "tests/util/client_faults.hpp"
#include "trace/journal.hpp"
#include "trace/scenario_io.hpp"
#include "util/error.hpp"

namespace flare::serve {
namespace {

namespace fs = std::filesystem;
using testing::TempTree;

std::string small_csv(std::size_t n, std::uint64_t seed) {
  return trace::scenario_set_to_csv(testing::make_set(n, seed));
}

TEST(ResidentState, FreshDirCommitsAndRecoversInOrder) {
  TempTree tree("serve_state_fresh");
  const std::string dir = tree.file("state");
  // The generator targets *distinct* scenarios and may overshoot on rows, so
  // pin the actual set and carry its size through the assertions.
  const dcsim::ScenarioSet first_set = testing::make_set(4, 1);
  {
    ResidentState state(dir);
    EXPECT_EQ(state.next_group_id(), 0u);
    const GroupRecord first =
        state.commit_group(trace::scenario_set_to_csv(first_set),
                           first_set.size(), "auto");
    EXPECT_EQ(first.id, 0u);
    EXPECT_EQ(first.file, "group_000000.csv");
    const GroupRecord second = state.commit_group(small_csv(3, 2), 3, "always");
    EXPECT_EQ(second.id, 1u);
  }

  ResidentState reopened(dir);
  const StateRecovery recovery = recover_state(reopened);
  EXPECT_FALSE(recovery.manifest_recovered);
  EXPECT_FALSE(recovery.manifest_truncated);
  EXPECT_TRUE(recovery.orphan_files.empty());
  ASSERT_EQ(recovery.committed.size(), 2u);
  EXPECT_EQ(recovery.committed[0].file, "group_000000.csv");
  EXPECT_EQ(recovery.committed[0].rows, first_set.size());
  EXPECT_EQ(recovery.committed[0].refit_policy, "auto");
  EXPECT_EQ(recovery.committed[1].refit_policy, "always");
  // The ids continue past everything recovered — no reuse.
  EXPECT_EQ(reopened.next_group_id(), 2u);
  // The group files round-trip as scenario archives.
  EXPECT_EQ(trace::load_scenario_set(
                reopened.group_path(recovery.committed[0].file))
                .size(),
            first_set.size());
}

TEST(ResidentState, OrphanGroupFileIsReportedNotReplayed) {
  TempTree tree("serve_state_orphan");
  const std::string dir = tree.file("state");
  ResidentState state(dir);
  (void)state.commit_group(small_csv(4, 3), 4, "auto");
  // A group file that reached disk but never its manifest row — exactly what
  // a kill after step 1 of the commit protocol leaves behind.
  std::ofstream(state.group_path("group_000001.csv"))
      << small_csv(2, 4);

  ResidentState reopened(dir);
  const StateRecovery recovery = recover_state(reopened);
  ASSERT_EQ(recovery.committed.size(), 1u);
  ASSERT_EQ(recovery.orphan_files.size(), 1u);
  EXPECT_EQ(recovery.orphan_files[0], "group_000001.csv");
  // The orphan's id is burned: the next commit may not reuse its name.
  EXPECT_EQ(reopened.next_group_id(), 2u);
  const GroupRecord next = reopened.commit_group(small_csv(2, 5), 2, "never");
  EXPECT_EQ(next.id, 2u);
  // The orphan file stays on disk — evidence, not garbage.
  EXPECT_TRUE(fs::exists(reopened.group_path("group_000001.csv")));
}

TEST(ResidentState, TornManifestAppendIsRolledBackByTheJournal) {
  TempTree tree("serve_state_torn");
  const std::string dir = tree.file("state");
  const std::string manifest = dir + "/manifest.csv";
  {
    ResidentState state(dir);
    (void)state.commit_group(small_csv(4, 6), 4, "auto");
    // Crash mid-append: journal armed, half a manifest row written, no
    // commit. (The matching group file never made it either.)
    trace::AppendJournal journal(manifest);
    std::ofstream out(manifest, std::ios::app);
    out << "1,group_0000";
    out.flush();
  }

  ResidentState reopened(dir);
  const StateRecovery recovery = recover_state(reopened);
  EXPECT_TRUE(recovery.manifest_recovered);
  EXPECT_TRUE(recovery.manifest_truncated);
  ASSERT_EQ(recovery.committed.size(), 1u);
  EXPECT_EQ(recovery.committed[0].id, 0u);
  EXPECT_FALSE(fs::exists(trace::AppendJournal::journal_path(manifest)));
  // The rolled-back id is free again: the torn group never committed.
  EXPECT_EQ(reopened.next_group_id(), 1u);
}

TEST(ResidentState, TornManifestWithoutJournalIsRefused) {
  TempTree tree("serve_state_nojournal");
  const std::string dir = tree.file("state");
  {
    ResidentState state(dir);
    (void)state.commit_group(small_csv(4, 7), 4, "auto");
    std::ofstream out(dir + "/manifest.csv", std::ios::app);
    out << "1,group_0000";  // torn tail, no journal: outside the protocol
  }
  ResidentState reopened(dir);
  EXPECT_THROW((void)recover_state(reopened), ServeError);
}

TEST(ResidentState, MissingCommittedGroupFileIsDataLoss) {
  TempTree tree("serve_state_missing");
  const std::string dir = tree.file("state");
  {
    ResidentState state(dir);
    const GroupRecord group = state.commit_group(small_csv(4, 8), 4, "auto");
    fs::remove(state.group_path(group.file));
  }
  ResidentState reopened(dir);
  EXPECT_THROW((void)recover_state(reopened), ServeError);
}

TEST(ResidentState, KillHookFiresAtBothDurabilityBoundariesInOrder) {
  TempTree tree("serve_state_hook");
  ResidentState state(tree.file("state"));
  std::vector<KillPoint> points;
  (void)state.commit_group(small_csv(2, 9), 2, "auto",
                           [&](KillPoint point) { points.push_back(point); });
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0], KillPoint::kAfterGroupFile);
  EXPECT_EQ(points[1], KillPoint::kAfterCommit);
}

TEST(ServiceFaultModel, KillDecisionIsAOneShotPointEvent) {
  ServiceFaultOptions options;
  options.enabled = true;
  options.kill_after_ingest = 1;
  options.kill_point = KillPoint::kAfterGroupFile;
  const ServiceFaultModel faults(options);
  EXPECT_TRUE(faults.active());
  EXPECT_FALSE(faults.kill_now(KillPoint::kAfterGroupFile, 0));
  EXPECT_FALSE(faults.kill_now(KillPoint::kAfterCommit, 1));  // wrong point
  EXPECT_TRUE(faults.kill_now(KillPoint::kAfterGroupFile, 1));
  EXPECT_FALSE(faults.kill_now(KillPoint::kAfterGroupFile, 2));
}

TEST(ServiceFaultModel, ClientFaultStreamIsDeterministicAndRatePartitioned) {
  flare::testing::ClientFaultOptions options;
  options.stall_rate = 0.3;
  options.malformed_rate = 0.3;
  options.burst_rate = 0.5;
  const flare::testing::ClientFaultModel a(options);
  const flare::testing::ClientFaultModel b(options);
  std::size_t stalls = 0, malformed = 0, bursts = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const ClientFaultKind kind = a.client_fault("client-7", i);
    EXPECT_EQ(kind, b.client_fault("client-7", i));  // pure function of seed
    EXPECT_EQ(a.burst("client-7", i), b.burst("client-7", i));
    stalls += kind == ClientFaultKind::kStall ? 1 : 0;
    malformed += kind == ClientFaultKind::kMalformed ? 1 : 0;
    bursts += a.burst("client-7", i) ? 1 : 0;
  }
  // Honest rates (loose bounds: 400 draws at 0.3 / 0.3 / 0.5).
  EXPECT_GT(stalls, 60u);
  EXPECT_LT(stalls, 180u);
  EXPECT_GT(malformed, 60u);
  EXPECT_LT(malformed, 180u);
  EXPECT_GT(bursts, 120u);
  EXPECT_LT(bursts, 280u);

  // Disabled models: no faults, ever.
  const flare::testing::ClientFaultModel quiet;
  EXPECT_EQ(quiet.client_fault("client-7", 3), ClientFaultKind::kNone);
  EXPECT_FALSE(quiet.burst("client-7", 3));
  const ServiceFaultModel off;
  EXPECT_FALSE(off.active());
  EXPECT_FALSE(off.kill_now(KillPoint::kAfterCommit, 0));
}

}  // namespace
}  // namespace flare::serve
