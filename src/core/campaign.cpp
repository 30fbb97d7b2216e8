#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <utility>

#include "util/error.hpp"

namespace flare::core {
namespace {

constexpr double kWeightTolerance = 1e-9;

/// One schedulable replay: a single (scenario row × feature) testbed run.
/// Fallback and validation re-probes are fresh units, enqueued when their
/// parent settles — that is the backfill: they join the queue at their
/// cluster's priority and land on whichever testbed frees up first.
struct Unit {
  double priority = 0.0;  ///< shard weight × cluster weight (heavy first)
  int kind_rank = 0;      ///< 0 = representative/fallback, 1 = validation
  std::size_t shard = 0;
  std::size_t cluster = 0;
  std::size_t seq = 0;  ///< insertion order — the deterministic tiebreak
  std::size_t row = 0;  ///< scenario row to replay
  CampaignUnitKind kind = CampaignUnitKind::kRepresentative;
  double not_before = 0.0;  ///< parent's simulated end time (causality)
};

/// std::priority_queue comparator: true = a dispatches AFTER b.
struct UnitOrder {
  bool operator()(const Unit& a, const Unit& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.kind_rank != b.kind_rank) return a.kind_rank > b.kind_rank;
    if (a.shard != b.shard) return a.shard > b.shard;
    if (a.cluster != b.cluster) return a.cluster > b.cluster;
    return a.seq > b.seq;
  }
};

/// Per-(shard, cluster) campaign bookkeeping. `h` is the anytime half-width
/// state: it starts at the prior and is only ever min-clamped, which is what
/// makes the band monotone (FP multiplication and addition are monotone, so
/// componentwise non-increasing w·h terms summed in a fixed order give a
/// non-increasing band).
struct ClusterState {
  double cluster_weight = 0.0;
  std::size_t size = 0;     ///< member count (singletons skip validation)
  double h = 0.0;           ///< current half-width contribution (pp)
  bool measured = false;
  bool quarantined = false;
  ClusterReplayStatus status = ClusterReplayStatus::kDirect;
  std::size_t rep_row = 0;   ///< the analysis' chosen representative
  std::size_t used_row = 0;  ///< row the accepted reading came from
  double impact_pct = 0.0;
  double ci_halfwidth_pp = 0.0;
  /// Outward walk (members by distance from the centroid), fetched lazily on
  /// the first fallback or validation probe.
  std::vector<std::size_t> ordered;
  bool ordered_ready = false;
  std::size_t rep_walk_pos = 0;  ///< next `ordered` index for fallback probes
  std::size_t val_walk_pos = 0;  ///< next `ordered` index for validation probes
  int rep_probes = 0;            ///< fallback probes issued (bound: policy)
  int val_probes = 0;            ///< validation probes issued (bound: 1+policy)
};

/// The anytime estimate/band/ledger over the current cluster states,
/// aggregated shard-by-shard so the clean exhausted campaign reproduces the
/// FlareEstimator → fan_in floating-point accumulation order exactly.
struct Snapshot {
  double impact_pct = 0.0;
  double band_pp = 0.0;
  double measured_mass = 0.0;
  ReplayLedger ledger;
};

}  // namespace

std::string_view to_string(CampaignStopReason reason) {
  switch (reason) {
    case CampaignStopReason::kExhausted:
      return "exhausted";
    case CampaignStopReason::kTargetReached:
      return "target_reached";
    case CampaignStopReason::kBudgetExhausted:
      return "budget_exhausted";
  }
  return "unknown";
}

CampaignScheduler::CampaignScheduler(CampaignConfig config, ReplayPolicy policy,
                                     dcsim::ReplayFaultOptions faults)
    : config_(config), policy_(policy), faults_(faults) {
  ensure(config_.num_testbeds >= 1, "CampaignScheduler: need at least one testbed");
  ensure(config_.testbed_speed_factors.empty() ||
             config_.testbed_speed_factors.size() == config_.num_testbeds,
         "CampaignScheduler: testbed_speed_factors must be empty or match "
         "num_testbeds");
  ensure(config_.checkpoint_every >= 1,
         "CampaignScheduler: checkpoint_every must be >= 1");
  ensure(config_.prior_halfwidth_pp > 0.0,
         "CampaignScheduler: prior_halfwidth_pp must be positive");
}

void CampaignScheduler::add_shard(std::string name, double weight,
                                  const AnalysisResult& analysis,
                                  const dcsim::ScenarioSet& set,
                                  const ImpactModel& impact) {
  ensure(weight > 0.0, "CampaignScheduler::add_shard: non-positive shard weight");
  ensure(analysis.cluster_space.rows() == set.scenarios.size(),
         "CampaignScheduler::add_shard: analysis rows must match the scenario set");
  ensure(analysis.representatives.size() == analysis.chosen_k,
         "CampaignScheduler::add_shard: analysis is missing representatives");
  shards_.push_back(Shard{std::move(name), weight, &analysis, &set, &impact});
}

CampaignState CampaignScheduler::run(const Feature& feature) const {
  ensure(!shards_.empty(), "CampaignScheduler::run: no shards registered");
  {
    double total = 0.0;
    for (const Shard& s : shards_) total += s.weight;
    ensure(std::abs(total - 1.0) <= kWeightTolerance,
           "CampaignScheduler::run: shard weights must sum to 1");
  }

  // The testbed × shard Replayer grid: every testbed gets its own fault-model
  // instance built from the same options, so the fault streams — pure
  // functions of (seed, scenario, feature, attempt) — are identical on every
  // slot and the campaign's measurements are placement-invariant.
  std::vector<std::vector<Replayer>> grid(config_.num_testbeds);
  for (std::vector<Replayer>& row : grid) {
    row.reserve(shards_.size());
    for (const Shard& s : shards_) {
      row.emplace_back(*s.impact, policy_, dcsim::ReplayFaultModel(faults_));
    }
  }
  dcsim::TestbedFarm farm(config_.num_testbeds, config_.testbed_speed_factors);

  // Per-cluster states, shard-major.
  std::vector<std::vector<ClusterState>> states(shards_.size());
  std::size_t clusters_total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const AnalysisResult& a = *shards_[s].analysis;
    states[s].resize(a.chosen_k);
    clusters_total += a.chosen_k;
    for (std::size_t c = 0; c < a.chosen_k; ++c) {
      ClusterState& cs = states[s][c];
      cs.cluster_weight = a.cluster_weights[c];
      cs.size = a.clustering.cluster_sizes[c];
      cs.h = config_.prior_halfwidth_pp;
      cs.rep_row = a.representatives[c];
      cs.used_row = cs.rep_row;
    }
  }

  // Seed the queue: one representative unit per cluster, heavy-first.
  std::priority_queue<Unit, std::vector<Unit>, UnitOrder> queue;
  std::size_t seq = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::size_t c = 0; c < states[s].size(); ++c) {
      queue.push(Unit{shards_[s].weight * states[s][c].cluster_weight, 0, s, c,
                      seq++, states[s][c].rep_row,
                      CampaignUnitKind::kRepresentative, 0.0});
    }
  }

  CampaignState out;
  out.feature_name = feature.name();
  out.num_testbeds = config_.num_testbeds;
  out.target_ci_pp = config_.target_ci_pp;
  out.budget_seconds = config_.budget_seconds;
  out.clusters_total = clusters_total;

  std::set<std::pair<std::size_t, std::size_t>> distinct;  // (shard, row)
  int total_attempts = 0;
  int failed_attempts = 0;
  int fallback_probes = 0;
  double busy = 0.0;

  const auto snapshot = [&]() -> Snapshot {
    Snapshot snap;
    double covered_weight = 0.0;    // Σ shard weights with any measured mass
    double num = 0.0, den = 0.0;    // anytime projection accumulators
    double impact_final = 0.0;      // Σ w_s · shard impact (final regimes)
    bool all_covered = true;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const double ws = shards_[s].weight;
      double sum_wr = 0.0, meas = 0.0, pend = 0.0, quar = 0.0, band = 0.0;
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      int n_direct = 0, n_fallback = 0, n_quarantined = 0;
      for (const ClusterState& cs : states[s]) {
        const double w = cs.cluster_weight;
        band += w * cs.h;
        if (cs.measured) {
          meas += w;
          sum_wr += w * cs.impact_pct;
          lo = std::min(lo, cs.impact_pct);
          hi = std::max(hi, cs.impact_pct);
          if (cs.status == ClusterReplayStatus::kDirect) {
            ++n_direct;
          } else {
            ++n_fallback;
          }
        } else if (cs.quarantined) {
          quar += w;
          ++n_quarantined;
        } else {
          pend += w;
        }
      }
      // Shard masses fan in with the shard weight, conserving Σ = 1.
      double direct = 0.0, fallback = 0.0;
      for (const ClusterState& cs : states[s]) {
        if (!cs.measured) continue;
        if (cs.status == ClusterReplayStatus::kDirect) {
          direct += cs.cluster_weight;
        } else {
          fallback += cs.cluster_weight;
        }
      }
      snap.ledger.direct_mass += ws * direct;
      snap.ledger.fallback_mass += ws * fallback;
      snap.ledger.quarantined_mass += ws * quar;
      snap.ledger.pending_mass += ws * pend;
      snap.ledger.clusters_direct += n_direct;
      snap.ledger.clusters_fallback += n_fallback;
      snap.ledger.clusters_quarantined += n_quarantined;
      snap.band_pp += ws * band;
      snap.measured_mass += ws * meas;

      // Shard impact, mirroring FlareEstimator::estimate: no renormalisation
      // on full clean coverage (the division by ≈1 would break bit-identity
      // with the eager path), renormalise to the replayed mass when clusters
      // were quarantined.
      const double renorm = (pend == 0.0 && quar > 0.0 && meas > 0.0) ? meas : 1.0;
      double meas_unc = 0.0;
      for (const ClusterState& cs : states[s]) {
        if (!cs.measured) continue;
        meas_unc += (cs.cluster_weight / renorm) * cs.ci_halfwidth_pp;
      }
      snap.ledger.measurement_uncertainty_pp += ws * meas_unc;
      if (quar > 0.0 && meas > 0.0 && pend == 0.0) {
        snap.ledger.quarantine_widening_pp += ws * (quar * (hi - lo) / 2.0);
      }

      num += ws * sum_wr;
      den += ws * meas;
      if (meas > 0.0) {
        covered_weight += ws;
        impact_final += ws * (sum_wr / renorm);
      } else {
        all_covered = false;
      }
    }
    if (snap.ledger.pending_mass > 0.0) {
      // Mid-campaign: project the measured mass over the whole population.
      snap.impact_pct = den > 0.0 ? num / den : 0.0;
    } else if (all_covered) {
      // Final, every shard covered: the fan_in accumulation, bit for bit.
      snap.impact_pct = impact_final;
    } else {
      // Final with whole shards lost: renormalise over the covering shards.
      snap.impact_pct = covered_weight > 0.0 ? impact_final / covered_weight : 0.0;
    }
    snap.ledger.total_attempts = total_attempts;
    snap.ledger.failed_attempts = failed_attempts;
    snap.ledger.fallback_probes = fallback_probes;
    snap.ledger.simulated_seconds = busy;
    return snap;
  };

  const auto record_checkpoint = [&](const Snapshot& snap) {
    CampaignCheckpoint cp;
    cp.units_completed = out.units_completed;
    cp.impact_pct = snap.impact_pct;
    cp.band_pp = snap.band_pp;
    cp.measured_mass = snap.measured_mass;
    cp.ledger = snap.ledger;
    cp.simulated_seconds = busy;
    cp.attempts = total_attempts;
    out.checkpoints.push_back(cp);
  };

  // Walks a cluster's ordered member list from `pos`, returning the next row
  // that is not `skip` (or nullopt when the walk is exhausted).
  const auto next_member = [](ClusterState& cs, const AnalysisResult& a,
                              std::size_t cluster, std::size_t& pos,
                              std::size_t skip) -> std::optional<std::size_t> {
    if (!cs.ordered_ready) {
      cs.ordered = a.members_by_distance(cluster);
      cs.ordered_ready = true;
    }
    while (pos < cs.ordered.size()) {
      const std::size_t row = cs.ordered[pos++];
      if (row != skip) return row;
    }
    return std::nullopt;
  };

  Snapshot last = snapshot();
  bool stopped = false;
  if (config_.target_ci_pp > 0.0 && last.band_pp <= config_.target_ci_pp) {
    // The prior alone already satisfies the target; nothing to replay.
    out.stop = CampaignStopReason::kTargetReached;
    stopped = true;
  }

  std::size_t last_checkpoint_units = std::numeric_limits<std::size_t>::max();
  while (!stopped && !queue.empty()) {
    if (config_.budget_seconds > 0.0 && busy >= config_.budget_seconds) {
      out.stop = CampaignStopReason::kBudgetExhausted;
      stopped = true;
      break;
    }
    const Unit u = queue.top();
    queue.pop();
    ClusterState& cs = states[u.shard][u.cluster];
    const Shard& shard = shards_[u.shard];

    const std::size_t testbed = farm.acquire();
    Replayer& replayer = grid[testbed][u.shard];
    const ReplayMeasurement m =
        replayer.replay_scenario_measured(shard.set->scenarios[u.row], feature);
    // The slot's occupancy (and bill) scales with its speed factor; the
    // homogeneous path divides by exactly 1.0 and stays bit-identical.
    const double slot_seconds =
        m.simulated_seconds / farm.speed_factor(testbed);
    const double start =
        farm.commit(testbed, m.simulated_seconds,
                    static_cast<std::size_t>(m.attempts), u.not_before);
    const double end = start + slot_seconds;
    busy += slot_seconds;
    total_attempts += m.attempts;
    failed_attempts += m.failed_attempts;
    distinct.insert({u.shard, u.row});

    CampaignUnitTrace t;
    t.order = out.units_completed;
    t.testbed = testbed;
    t.shard = u.shard;
    t.cluster = u.cluster;
    t.kind = u.kind;
    t.scenario_row = u.row;
    t.start_seconds = start;
    t.end_seconds = end;
    t.attempts = m.attempts;
    t.ok = m.ok();
    out.trace.push_back(t);
    ++out.units_completed;
    if (!m.ok()) ++out.units_failed;

    if (u.kind == CampaignUnitKind::kRepresentative) {
      if (m.ok()) {
        cs.measured = true;
        cs.status = u.row == cs.rep_row ? ClusterReplayStatus::kDirect
                                        : ClusterReplayStatus::kFallback;
        cs.used_row = u.row;
        cs.impact_pct = m.impact_pct;
        cs.ci_halfwidth_pp = m.ci_halfwidth_pp;
        const bool will_validate = config_.validation && cs.size >= 2;
        // A measured representative collapses the prior to half (the
        // remaining uncertainty is the within-cluster spread the validation
        // probe will pin down) plus the reading's own CI; singleton or
        // unvalidated clusters go straight to the reading CI — their
        // representative IS the whole spread information we will ever have.
        const double candidate =
            will_validate ? 0.5 * config_.prior_halfwidth_pp + m.ci_halfwidth_pp
                          : m.ci_halfwidth_pp;
        cs.h = std::min(cs.h, candidate);
        if (will_validate) {
          const std::optional<std::size_t> probe = next_member(
              cs, *shard.analysis, u.cluster, cs.val_walk_pos, cs.used_row);
          if (probe.has_value()) {
            ++cs.val_probes;
            queue.push(Unit{u.priority, 1, u.shard, u.cluster, seq++, *probe,
                            CampaignUnitKind::kValidation, end});
          } else {
            cs.h = std::min(cs.h, m.ci_halfwidth_pp);
          }
        }
      } else if (cs.rep_probes < policy_.max_fallback_probes) {
        // Backfill a fallback probe: the next-nearest member is the
        // next-best proxy for the cluster (same outward walk the eager
        // estimator runs).
        const std::optional<std::size_t> probe = next_member(
            cs, *shard.analysis, u.cluster, cs.rep_walk_pos, cs.rep_row);
        if (probe.has_value()) {
          ++cs.rep_probes;
          ++fallback_probes;
          queue.push(Unit{u.priority, 0, u.shard, u.cluster, seq++, *probe,
                          CampaignUnitKind::kRepresentative, end});
        } else {
          cs.quarantined = true;
          cs.status = ClusterReplayStatus::kQuarantined;
        }
      } else {
        cs.quarantined = true;
        cs.status = ClusterReplayStatus::kQuarantined;
      }
    } else {  // kValidation
      if (m.ok()) {
        // The estimator's band term for a validated cluster: half the
        // rep-vs-runner-up spread plus the representative reading's CI.
        const double candidate =
            std::abs(cs.impact_pct - m.impact_pct) / 2.0 + cs.ci_halfwidth_pp;
        cs.h = std::min(cs.h, candidate);
      } else if (cs.val_probes < 1 + policy_.max_fallback_probes) {
        const std::optional<std::size_t> probe = next_member(
            cs, *shard.analysis, u.cluster, cs.val_walk_pos, cs.used_row);
        if (probe.has_value()) {
          ++cs.val_probes;
          queue.push(Unit{u.priority, 1, u.shard, u.cluster, seq++, *probe,
                          CampaignUnitKind::kValidation, end});
        } else {
          // No healthy runner-up: no spread information for this cluster.
          cs.h = std::min(cs.h, cs.ci_halfwidth_pp);
        }
      } else {
        cs.h = std::min(cs.h, cs.ci_halfwidth_pp);
      }
    }

    last = snapshot();
    if (out.units_completed % config_.checkpoint_every == 0) {
      record_checkpoint(last);
      last_checkpoint_units = out.units_completed;
    }
    if (config_.target_ci_pp > 0.0 && last.band_pp <= config_.target_ci_pp) {
      out.stop = CampaignStopReason::kTargetReached;
      stopped = true;
    }
  }
  if (!stopped) out.stop = CampaignStopReason::kExhausted;
  if (last_checkpoint_units != out.units_completed) record_checkpoint(last);

  out.impact_pct = last.impact_pct;
  out.band_pp = last.band_pp;
  out.ledger = last.ledger;
  out.distinct_replays = distinct.size();
  out.makespan_seconds = farm.makespan_seconds();
  out.total_busy_seconds = farm.total_busy_seconds();
  out.testbeds = farm.utilisation();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::size_t c = 0; c < states[s].size(); ++c) {
      const ClusterState& cs = states[s][c];
      CampaignClusterRow row;
      row.shard = s;
      row.cluster = c;
      row.weight = shards_[s].weight * cs.cluster_weight;
      row.measured = cs.measured;
      row.status = cs.status;
      row.scenario_row = cs.used_row;
      row.impact_pct = cs.impact_pct;
      row.ci_halfwidth_pp = cs.ci_halfwidth_pp;
      row.halfwidth_pp = cs.h;
      out.clusters.push_back(row);
    }
  }
  return out;
}

CampaignState run_campaign(const FlarePipeline& pipeline, const Feature& feature,
                           const CampaignConfig& config) {
  ensure(pipeline.fitted(), "run_campaign: pipeline is not fitted");
  CampaignScheduler scheduler(config, pipeline.config().replay,
                              pipeline.config().replay_faults);
  const std::string name = pipeline.scenario_set().machine_type.empty()
                               ? std::string("all")
                               : pipeline.scenario_set().machine_type;
  scheduler.add_shard(name, 1.0, pipeline.analysis(), pipeline.scenario_set(),
                      pipeline.impact_model());
  return scheduler.run(feature);
}

CampaignState run_campaign(const ShardedPipeline& fleet, const Feature& feature,
                           const CampaignConfig& config) {
  ensure(fleet.fitted(), "run_campaign: fleet is not fitted");
  CampaignScheduler scheduler(config, fleet.config().base.replay,
                              fleet.config().base.replay_faults);
  const std::vector<double> weights = fleet.weights();
  for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
    const FlarePipeline& shard = fleet.shard(s);
    scheduler.add_shard(fleet.fleet().shapes[s].machine.name, weights[s],
                        shard.analysis(), shard.scenario_set(),
                        shard.impact_model());
  }
  return scheduler.run(feature);
}

}  // namespace flare::core
