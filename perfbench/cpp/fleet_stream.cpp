// fleet_stream — a three-shape fleet (default:6, small:2, dense:4) fitted
// once per round as a ShardedPipeline (the set-up), then a stream of
// mixed-shape dynamics windows through ShardedPipeline::ingest with the
// adaptive drift response on. The windows carry a rolling upgrade, flash
// crowds and anomaly episodes. Every few windows a fleet run_campaign with a
// target CI produces the current estimate.
//
//   write = one window through ShardedPipeline::ingest
//   read  = one checkpoint campaign (run_campaign over the fleet)
//
// The stream is the same in every round, so rounds repeat identical work;
// the run checks that they also produce identical answers. The analyzer's
// k-sweep never runs here (fixed k, no quality curve — the CLI default).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "baselines/full_evaluator.hpp"
#include "core/campaign.hpp"
#include "core/sharded_pipeline.hpp"
#include "dcsim/fleet.hpp"
#include "sysinfo.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace flarebench {
namespace {

using namespace flare;

constexpr const char* kFleetSpec = "default:6,small:2,dense:4";
constexpr std::size_t kBaseScenariosPerShape = 300;
constexpr int kWindows = 96;
constexpr int kCheckpointEvery = 4;
constexpr double kWindowHours = 6.0;
constexpr std::size_t kRowsPerShapeWindow = 10;
constexpr double kCampaignTargetCiPp = 1.0;
/// Nominal seconds per round (fit + stream): rounds = seconds / this.
constexpr double kNominalRoundS = 2.0;

/// The seed picks each shard's measurement-noise realisation; the fleet, its
/// base population and the window stream are fixed.
core::ShardedConfig fleet_config(std::uint64_t seed) {
  core::ShardedConfig config;
  config.base.profiler.noise_stream = derive_seed(seed, 0xF1EE7);
  config.fleet = dcsim::parse_fleet_spec(kFleetSpec);
  // CLI defaults (fixed k = 18, no quality curve) with the drift response on.
  config.base.analyzer.fixed_clusters = 18;
  config.base.analyzer.compute_quality_curve = false;
  config.base.drift_response.enabled = true;
  return config;
}

constexpr std::uint64_t kStreamSeed = 0x5EED5;

dcsim::WorkloadDynamics stream_dynamics() {
  dcsim::WorkloadDynamics d;
  d.seed = kStreamSeed;
  d.upgrade.enabled = true;  // a third of the way in, half of each shape
  d.upgrade.at_hours = kWindows / 3 * kWindowHours;
  d.upgrade.migrated_fraction = 0.5;
  d.upgrade.shift = 0.25;
  d.flash.enabled = true;
  d.flash.episodes_per_khour = 40.0;
  d.flash.duration_hours = 2.0;
  d.flash.arrival_multiplier = 4.0;
  d.anomaly.enabled = true;
  d.anomaly.episodes_per_khour = 30.0;
  d.anomaly.duration_hours = 4.0;
  d.anomaly.intensity = 1.0;
  d.anomaly.machine_fraction = 0.5;
  return d;
}

/// One mixed-shape window: each shape's sub-fleet simulated over the same
/// absolute hours, rows concatenated with dense ids.
dcsim::ScenarioSet make_window(const dcsim::FleetConfig& fleet,
                               const dcsim::WorkloadDynamics& dynamics, int index) {
  dcsim::ScenarioSet mixed;
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    const dcsim::ShapePopulation& pop = fleet.shapes[s];
    dcsim::SubmissionConfig sub;
    sub.seed = derive_seed(kStreamSeed, s);
    sub.num_machines = pop.num_machines;
    const dcsim::ScenarioSet part = dcsim::generate_dynamics_batch(
        sub, pop.machine, dynamics.for_shape(pop.machine.name), index,
        kWindowHours, kRowsPerShapeWindow);
    for (dcsim::ColocationScenario row : part.scenarios) {
      row.id = mixed.scenarios.size();
      mixed.scenarios.push_back(std::move(row));
    }
  }
  mixed.machine_type = "mixed";
  return mixed;
}

int action_rank(core::DriftVerdict v) {
  switch (v) {
    case core::DriftVerdict::kValid: return 0;
    case core::DriftVerdict::kReweight: return 1;
    case core::DriftVerdict::kRefit: return 2;
  }
  return 0;
}

/// What one round answered: replayed by every round bit for bit.
struct RoundAnswers {
  std::vector<int> actions;        ///< per window, per shard (-1 = untouched)
  std::vector<double> estimates;   ///< per checkpoint campaign
  std::vector<double> bands;
  bool operator==(const RoundAnswers&) const = default;
};

struct LayerTally {
  std::map<int, std::vector<double>> ingest_ms_by_action;
  std::size_t actions[3] = {0, 0, 0};
  std::size_t suppressed = 0;
  std::size_t episode_rows = 0;
  std::size_t shard_ingests = 0;
  std::size_t shards_touched = 0;
  std::vector<double> campaign_units, campaign_billed_s;
  std::size_t target_reached = 0;
  std::vector<double> profile_ms, project_ms;
  std::size_t profiled_rows = 0;
  std::size_t retried = 0;
};

}  // namespace

void run_fleet_stream(const Options& options, RunResult& result) {
  const core::ShardedConfig config = fleet_config(options.seed);
  const dcsim::FleetConfig& fleet = config.fleet;
  dcsim::SubmissionConfig sub;
  sub.target_distinct_scenarios = kBaseScenariosPerShape;

  // ---- Inputs: the base population and every window (untimed). ----
  const long long g0 = now_ns();
  const dcsim::FleetScenarioSet base = dcsim::generate_fleet_scenario_set(sub, fleet);
  const dcsim::WorkloadDynamics dynamics = stream_dynamics();
  std::vector<dcsim::ScenarioSet> windows;
  for (int w = 0; w < kWindows; ++w) {
    windows.push_back(make_window(fleet, dynamics, w));
  }
  const double generate_ms = ms_between(g0, now_ns());
  const std::vector<core::Feature> features = core::standard_features();
  core::CampaignConfig campaign;
  campaign.num_testbeds = 4;
  campaign.target_ci_pp = kCampaignTargetCiPp;

  const int rounds =
      std::max(2, static_cast<int>(std::lround(options.seconds / kNominalRoundS)));
  reset_peak_rss();
  std::vector<double> setup_s, ingest_ms, campaign_ms, stream_s;
  std::size_t rows_streamed = 0;
  std::size_t attempted = 0;
  RoundAnswers reference;
  LayerTally tally;
  std::unique_ptr<core::ShardedPipeline> pipeline;
  for (int round = 0; round < rounds; ++round) {
    const bool first = round == 0;
    // ---- Set-up: fit the fleet (timed; one sample per round). ----
    const long long s0 = now_ns();
    pipeline = std::make_unique<core::ShardedPipeline>(config);
    {
      const Span span("ingest", "ShardedPipeline::fit");
      pipeline->fit(base);
    }
    setup_s.push_back(ms_between(s0, now_ns()) / 1e3);

    RoundAnswers answers;
    const long long r0 = now_ns();
    for (int w = 0; w < kWindows; ++w) {
      const dcsim::ScenarioSet& batch = windows[static_cast<std::size_t>(w)];
      if (options.trace && first) {
        // Profiler and projection probes on the window's rows, per shape.
        const dcsim::FleetScenarioSet split = dcsim::split_by_shape(batch, fleet);
        for (std::size_t s = 0; s < fleet.size(); ++s) {
          if (split.per_shape[s].scenarios.empty()) continue;
          const core::FlareConfig& shard_config = pipeline->shard(s).config();
          const dcsim::InterferenceModel model(dcsim::default_job_catalog(),
                                               shard_config.model);
          const core::Profiler profiler(model, shard_config.profiler);
          core::ProfileReport report;
          tally.profile_ms.push_back(
              timed_span("profiler", "Profiler::profile_with_health", [&] {
                report = profiler.profile_with_health(split.per_shape[s],
                                                      shard_config.machine);
              }));
          tally.profiled_rows += report.database.num_rows();
          tally.retried += static_cast<std::size_t>(report.total_retried_samples());
          tally.project_ms.push_back(timed_span(
              "analyzer", "stages::project_rows+assign_to_nearest", [&] {
                const core::AnalysisResult& a = pipeline->shard(s).analysis();
                (void)core::stages::assign_to_nearest(
                    a.clustering,
                    core::stages::project_rows(a, report.database.to_matrix()));
              }));
        }
      }
      std::vector<std::size_t> before(fleet.size());
      for (std::size_t s = 0; s < fleet.size(); ++s) {
        before[s] = pipeline->shard(s).scenario_set().size();
      }
      core::FleetIngestReport report;
      ++attempted;
      const double ms = timed_span("ingest", "ShardedPipeline::ingest",
                                   [&] { report = pipeline->ingest(batch); });
      ingest_ms.push_back(ms);
      rows_streamed += batch.size();

      // Routing: every row lands in exactly one shard, its own shape's.
      result.check(report.appended == batch.size(),
                   "fleet_stream: appended rows != batch rows");
      int worst = 0;
      for (std::size_t s = 0; s < fleet.size(); ++s) {
        const std::size_t want = static_cast<std::size_t>(std::count_if(
            batch.scenarios.begin(), batch.scenarios.end(),
            [&](const dcsim::ColocationScenario& r) {
              return r.machine_type == fleet.shapes[s].machine.name;
            }));
        result.check(pipeline->shard(s).scenario_set().size() == before[s] + want,
                     "fleet_stream: shard grew by other than its own rows");
        const auto& shard_report = report.per_shape[s];
        if (!shard_report) {
          answers.actions.push_back(-1);
          continue;
        }
        const int rank = action_rank(shard_report->action);
        answers.actions.push_back(rank);
        worst = std::max(worst, rank);
        if (first) {
          ++tally.actions[rank];
          ++tally.shard_ingests;
          tally.suppressed += shard_report->response.refit_suppressed ? 1 : 0;
          tally.episode_rows += shard_report->response.episode_rows;
        }
      }
      if (first) {
        tally.ingest_ms_by_action[worst].push_back(ms);
        tally.shards_touched += report.shards_touched();
      }

      if ((w + 1) % kCheckpointEvery != 0) continue;
      const core::Feature& feature =
          features[static_cast<std::size_t>((w + 1) / kCheckpointEvery) % features.size()];
      core::CampaignState state;
      ++attempted;
      campaign_ms.push_back(timed_span("campaign", "run_campaign(fleet)", [&] {
        state = core::run_campaign(*pipeline, feature, campaign);
      }));
      answers.estimates.push_back(state.impact_pct);
      answers.bands.push_back(state.band_pp);
      bool masses = std::abs(state.ledger.total_mass() - 1.0) <= 1e-9;
      for (const core::CampaignCheckpoint& c : state.checkpoints) {
        masses = masses && std::abs(c.ledger.total_mass() - 1.0) <= 1e-9;
      }
      result.check(masses, "fleet_stream: campaign ledger mass != 1");
      // Fan-in ledger of the same fleet (untimed check, no span).
      const core::FleetEstimate fan_in = pipeline->evaluate(feature);
      result.check(std::abs(fan_in.replay.total_mass() - 1.0) <= 1e-9,
                   "fleet_stream: fan-in ledger mass != 1");
      if (first) {
        tally.campaign_units.push_back(static_cast<double>(state.units_completed));
        tally.campaign_billed_s.push_back(state.total_busy_seconds);
        tally.target_reached +=
            state.stop == core::CampaignStopReason::kTargetReached ? 1 : 0;
      }
    }
    stream_s.push_back(ms_between(r0, now_ns()) / 1e3);
    if (first) {
      reference = answers;
    } else {
      result.check(answers == reference,
                   "fleet_stream: a round answered differently from the first");
    }
  }
  const double rss = peak_rss_mib();
  result.count_ops(attempted, 0);  // a failed ingest or campaign throws

  // ---- Oracle on the final population (untimed): accuracy and cost. ----
  double abs_error = 0.0, cost_fraction = 0.0;
  const std::vector<double> weights = fleet.population_weights();
  for (const core::Feature& f : features) {
    double truth = 0.0, exhaustive_s = 0.0;
    for (std::size_t s = 0; s < fleet.size(); ++s) {
      const core::FlarePipeline& shard = pipeline->shard(s);
      const baselines::FullDatacenterEvaluator oracle(shard.impact_model(),
                                                      shard.scenario_set());
      truth += weights[s] * oracle.evaluate(f).impact_pct;
      exhaustive_s += static_cast<double>(shard.scenario_set().size()) *
                      shard.config().replay.nominal_seconds;
    }
    const core::CampaignState state = core::run_campaign(*pipeline, f, campaign);
    abs_error += std::abs(state.impact_pct - truth) / static_cast<double>(features.size());
    cost_fraction +=
        state.total_busy_seconds / exhaustive_s / static_cast<double>(features.size());
  }

  result.set("setup_s", median(setup_s), "s");
  result.set_summary("write_ms", summarize(ingest_ms), "ms");
  result.set_summary("read_ms", summarize(campaign_ms), "ms");
  double stream_total = 0.0;
  for (const double s : stream_s) stream_total += s;
  result.set("rows_per_s", static_cast<double>(rows_streamed) / stream_total, "rows/s");
  result.set("peak_rss_mb", rss, "MiB");
  result.set("quality.abs_error_pp", abs_error, "pp");
  result.set("quality.testbed_cost_fraction", cost_fraction, "ratio");
  result.set("ingest.stream_s", median(stream_s), "s");
  result.set("dcsim.generate_ms", generate_ms, "ms");
  result.set("dcsim.scenarios", static_cast<double>(base.total_scenarios()), "count");

  std::printf("fleet_stream: %s, %zu base rows, %d windows x %d rounds\n", kFleetSpec,
              base.total_scenarios(), kWindows, rounds);
  const Summary ingest = summarize(ingest_ms);
  print_line("ingest_ms_p50", ingest.p50, "ms");
  print_line("ingest_ms_tail", ingest.tail, "ms");
  print_line("stream_s", median(stream_s), "s");
  print_line("abs_error_pp", abs_error, "pp");
  print_line("testbed_cost_fraction", cost_fraction, "ratio");

  if (!options.trace) return;
  const auto action_ms = [&](int rank) {
    const auto it = tally.ingest_ms_by_action.find(rank);
    return it == tally.ingest_ms_by_action.end() ? 0.0 : median(it->second);
  };
  result.set("ingest.valid_ms", action_ms(0), "ms");
  result.set("ingest.reweight_ms", action_ms(1), "ms");
  result.set("ingest.refit_ms", action_ms(2), "ms");
  result.set("ingest.actions_valid", static_cast<double>(tally.actions[0]), "count");
  result.set("ingest.actions_reweight", static_cast<double>(tally.actions[1]), "count");
  result.set("ingest.actions_refit", static_cast<double>(tally.actions[2]), "count");
  result.set("ingest.refits_suppressed", static_cast<double>(tally.suppressed), "count");
  result.set("ingest.episode_rows_fenced", static_cast<double>(tally.episode_rows),
             "count");
  result.set("ingest.shards_touched",
             static_cast<double>(tally.shards_touched) / kWindows, "count");
  result.set("ingest.refit_fraction",
             static_cast<double>(tally.actions[2]) /
                 static_cast<double>(std::max<std::size_t>(tally.shard_ingests, 1)),
             "ratio");
  result.set("campaign.run_ms", median(campaign_ms), "ms");
  result.set("campaign.units", median(tally.campaign_units), "count");
  result.set("campaign.billed_testbed_s", median(tally.campaign_billed_s), "s");
  result.set("campaign.target_reached", static_cast<double>(tally.target_reached),
             "count");
  result.set("profiler.profile_ms", median(tally.profile_ms), "ms");
  result.set("profiler.rows", static_cast<double>(tally.profiled_rows), "count");
  result.set("profiler.retried_samples", static_cast<double>(tally.retried), "count");
  double profile_total = 0.0;
  for (const double ms : tally.profile_ms) profile_total += ms;
  result.set("profiler.us_per_row",
             1e3 * profile_total /
                 static_cast<double>(std::max<std::size_t>(tally.profiled_rows, 1)),
             "us");
  result.set("analyzer.project_ms", median(tally.project_ms), "ms");
}

}  // namespace flarebench
