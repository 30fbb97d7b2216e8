// Fault injection for the service plane — the serve-daemon counterpart of
// CounterFaultModel (profiling side) and ReplayFaultModel (testbed side): a
// daemon process killed at a chosen point inside the ingest commit protocol.
// Off by default so the clean service path stays bit-identical; the
// fork-kill recovery tests (`ctest -L serve`) arm it and assert that
// recovery keeps exactly the committed groups.
#pragma once

#include <cstdint>

namespace flare::serve {

/// Where inside the ingest commit protocol the daemon kills itself (via
/// _exit, mimicking SIGKILL — no destructors, no flushes). Used by the
/// crash-safety tests to place a kill in a specific durability window.
enum class KillPoint : unsigned char {
  kNone,
  /// After the coalesced group file is durably renamed into the state dir
  /// but before its manifest append — recovery must treat the orphan group
  /// as unacknowledged and leave it out of the model.
  kAfterGroupFile,
  /// After the journaled manifest append commits but before any client ack
  /// is sent — recovery must include the group (commit point passed), and
  /// clients that never saw an ack observe at-least-once semantics.
  kAfterCommit,
};

/// Daemon-side fault knobs.
struct ServiceFaultOptions {
  bool enabled = false;
  /// _exit(137) at `kill_point` during the Nth (0-based) coalesced ingest
  /// commit. -1 disables. One-shot and deterministic — a crash is a point
  /// event, not a rate.
  int kill_after_ingest = -1;
  KillPoint kill_point = KillPoint::kNone;
};

/// The daemon kill decision: a pure function of (kill_after_ingest, commit
/// index), so a crash lands in the same durability window on every run.
class ServiceFaultModel {
 public:
  ServiceFaultModel() = default;
  explicit ServiceFaultModel(ServiceFaultOptions options);

  /// False when injection is disabled or no kill is armed.
  [[nodiscard]] bool active() const { return active_; }

  /// True when the daemon must _exit at `point` during coalesced-ingest
  /// commit number `commit_index` (0-based).
  [[nodiscard]] bool kill_now(KillPoint point, std::uint64_t commit_index) const;

 private:
  ServiceFaultOptions options_{};
  bool active_ = false;
};

}  // namespace flare::serve
