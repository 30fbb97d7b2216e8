// Replay campaign scheduler (DESIGN.md §14): the cost/accuracy dial over the
// PR-5 replay plane.
//
// A campaign replays the (scenario × feature) units behind a feature estimate
// on a simulated testbed farm (dcsim/testbed_farm.hpp) instead of eagerly
// measuring everything: units are ordered by a priority queue on cluster
// observation weight (heavy clusters bound the estimate error, so measure
// them first), fallback and validation probes backfill into idle testbed
// slots as earlier units settle, and the campaign stops early once the
// anytime uncertainty band crosses a target half-width or the simulated
// testbed-time budget runs out.
//
// Anytime estimates: after every completed unit the campaign knows a point
// estimate (measured clusters renormalised to the measured mass) and a band
// built from per-cluster half-width states h_c that only ever tighten —
// unmeasured clusters sit at the prior half-width, a measured representative
// clamps h_c down, a validation probe clamps it further to the
// rep-vs-runner-up spread — so the reported band is monotonically
// non-widening across checkpoints, and `flare report --campaign-state` can
// answer before the campaign finishes. The ReplayLedger at every checkpoint
// is mass-conserving: direct + fallback + quarantined + pending = 1.
//
// Determinism and placement invariance: units are processed synchronously in
// dispatch order, and every measurement is a pure function of
// (seed, scenario, feature, attempt) — never of the testbed id — so the
// estimate, band, checkpoints, stop reason, and ledger are bit-identical for
// 1 and N testbeds. The farm only shapes the simulated timeline (makespan,
// per-testbed utilisation); the testbed-time bill is placement-invariant.
// A campaign that runs to exhaustion with validation on reproduces
// FlareEstimator::estimate_with_validation's clean-path numbers exactly.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.hpp"
#include "core/fleet_estimator.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_pipeline.hpp"
#include "dcsim/testbed_farm.hpp"

namespace flare::core {

/// Knobs of the cost/accuracy dial.
struct CampaignConfig {
  /// Testbed-farm size. Changes the makespan and utilisation telemetry only —
  /// never a measurement (see the placement-invariance note above).
  std::size_t num_testbeds = 1;
  /// Per-testbed speed factors for a heterogeneous farm (empty = homogeneous;
  /// otherwise one positive factor per testbed — see TestbedFarm). Scales
  /// occupancy and billed seconds per slot, never a measurement; all-1.0
  /// factors are bit-identical to the homogeneous farm.
  std::vector<double> testbed_speed_factors;
  /// Early stop: finish once the anytime band half-width is at or under this
  /// (percentage points of impact). <= 0 disables the target (the campaign
  /// runs to exhaustion or budget).
  double target_ci_pp = 0.0;
  /// Early stop: simulated testbed-seconds the campaign may bill (summed over
  /// all testbeds). The check runs before each dispatch, so the last unit may
  /// overrun the line. <= 0 = unlimited.
  double budget_seconds = 0.0;
  /// Record a CampaignCheckpoint every this many completed units (a final
  /// checkpoint is always recorded). Must be >= 1.
  std::size_t checkpoint_every = 1;
  /// Half-width (pp) an unmeasured cluster contributes to the band — the
  /// prior uncertainty before any testbed time is spent on it. Must exceed
  /// the plausible per-cluster spread for the band to stay conservative.
  double prior_halfwidth_pp = 40.0;
  /// Schedule a validation probe (the second-nearest member) per non-singleton
  /// cluster, tightening the band to the estimator's rep-vs-runner-up spread.
  /// Off = representative-only campaign (half the units, wider final band).
  bool validation = true;
};

/// What a campaign unit replays.
enum class CampaignUnitKind : unsigned char {
  kRepresentative,  ///< a cluster's representative (or fallback probe)
  kValidation,      ///< the band-tightening runner-up probe
};

/// Why the campaign stopped.
enum class CampaignStopReason : unsigned char {
  kExhausted,        ///< every scheduled unit ran
  kTargetReached,    ///< anytime band crossed target_ci_pp
  kBudgetExhausted,  ///< simulated testbed-time budget consumed
};

[[nodiscard]] std::string_view to_string(CampaignStopReason reason);

/// One dispatched unit, in dispatch (logical) order — the campaign's journal.
struct CampaignUnitTrace {
  std::size_t order = 0;         ///< dispatch sequence number (0-based)
  std::size_t testbed = 0;       ///< farm slot the unit ran on
  std::size_t shard = 0;
  std::size_t cluster = 0;
  CampaignUnitKind kind = CampaignUnitKind::kRepresentative;
  std::size_t scenario_row = 0;  ///< row replayed (rep, fallback, or probe)
  double start_seconds = 0.0;    ///< simulated start on the farm timeline
  double end_seconds = 0.0;
  int attempts = 0;              ///< attempts billed by this unit
  bool ok = false;               ///< did the unit yield a valid reading?
};

/// Anytime snapshot after a fixed number of completed units.
struct CampaignCheckpoint {
  std::size_t units_completed = 0;
  double impact_pct = 0.0;    ///< measured clusters, renormalised to their mass
  double band_pp = 0.0;       ///< Σ w_c · h_c — monotonically non-widening
  double measured_mass = 0.0; ///< direct + fallback mass at this point
  ReplayLedger ledger;        ///< mass-conserving incl. pending_mass
  double simulated_seconds = 0.0;  ///< testbed-time billed so far (all slots)
  int attempts = 0;                ///< attempts billed so far
};

/// Per-(shard, cluster) outcome row of a finished campaign.
struct CampaignClusterRow {
  std::size_t shard = 0;
  std::size_t cluster = 0;
  double weight = 0.0;          ///< shard weight × cluster weight (Σ = 1)
  bool measured = false;        ///< false = pending (unscheduled) or quarantined
  ClusterReplayStatus status = ClusterReplayStatus::kDirect;  ///< when measured
  std::size_t scenario_row = 0; ///< row the reading came from (when measured)
  double impact_pct = 0.0;
  double ci_halfwidth_pp = 0.0;
  double halfwidth_pp = 0.0;    ///< final h_c (prior if never measured)
};

/// The campaign's full result — everything `flare report` needs, mid-run or
/// final.
struct CampaignState {
  std::string feature_name;
  std::size_t num_testbeds = 1;
  CampaignStopReason stop = CampaignStopReason::kExhausted;
  double target_ci_pp = 0.0;    ///< config echo (0 = no target)
  double budget_seconds = 0.0;  ///< config echo (0 = unlimited)

  double impact_pct = 0.0;  ///< anytime point estimate at stop
  double band_pp = 0.0;     ///< anytime band half-width at stop
  ReplayLedger ledger;      ///< final mass-conserving accounting

  std::size_t units_completed = 0;
  std::size_t units_failed = 0;       ///< completed units with no valid reading
  std::size_t clusters_total = 0;     ///< Σ chosen_k over shards
  std::size_t distinct_replays = 0;   ///< distinct (shard, scenario) testbed setups
  double makespan_seconds = 0.0;      ///< farm timeline length (shrinks with N)
  double total_busy_seconds = 0.0;    ///< testbed-time bill (invariant to N)

  std::vector<CampaignCheckpoint> checkpoints;      ///< anytime history
  std::vector<dcsim::TestbedUtilisation> testbeds;  ///< per-slot telemetry
  std::vector<CampaignUnitTrace> trace;             ///< dispatch journal
  std::vector<CampaignClusterRow> clusters;         ///< per-cluster outcomes

  [[nodiscard]] double lower() const { return impact_pct - band_pp; }
  [[nodiscard]] double upper() const { return impact_pct + band_pp; }
};

/// The scheduler. Shards are registered with their fan-in weights (one shard
/// of weight 1 = the single-shape campaign), then run(feature) executes one
/// campaign per call — runs are independent and share no testbed state.
class CampaignScheduler {
 public:
  /// `policy` and `faults` govern every testbed on the farm: each testbed
  /// constructs its own ReplayFaultModel from the same options, and fault
  /// streams are per (scenario, feature, attempt) — identical on every slot,
  /// which is what makes campaigns placement-invariant.
  CampaignScheduler(CampaignConfig config, ReplayPolicy policy,
                    dcsim::ReplayFaultOptions faults = {});

  /// Registers one shard. `analysis` rows must correspond 1:1 with
  /// `set.scenarios`; `weight` is the shard's fan-in share (Σ over shards
  /// must be 1 by run() time). The referenced analysis, set, and impact
  /// model must outlive the scheduler.
  void add_shard(std::string name, double weight, const AnalysisResult& analysis,
                 const dcsim::ScenarioSet& set, const ImpactModel& impact);

  /// Runs one campaign for `feature` over every registered shard.
  [[nodiscard]] CampaignState run(const Feature& feature) const;

  [[nodiscard]] const CampaignConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    std::string name;
    double weight = 0.0;
    const AnalysisResult* analysis = nullptr;
    const dcsim::ScenarioSet* set = nullptr;
    const ImpactModel* impact = nullptr;
  };

  CampaignConfig config_;
  ReplayPolicy policy_;
  dcsim::ReplayFaultOptions faults_;
  std::vector<Shard> shards_;
};

/// Campaign over a fitted single-shape pipeline, replaying under the
/// pipeline's own ReplayPolicy and fault options (so a campaign run to
/// exhaustion reproduces pipeline.evaluate_with_validation's numbers). The
/// pipeline's replay ledgers are untouched — the campaign bills its own farm.
[[nodiscard]] CampaignState run_campaign(const FlarePipeline& pipeline,
                                         const Feature& feature,
                                         const CampaignConfig& config);

/// Fleet campaign over a fitted ShardedPipeline: one shard per shape,
/// fan-in weights from the fleet's machine-count shares.
[[nodiscard]] CampaignState run_campaign(const ShardedPipeline& fleet,
                                         const Feature& feature,
                                         const CampaignConfig& config);

}  // namespace flare::core
