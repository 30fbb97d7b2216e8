// `flare report`: the one-shot operator deliverable — fit FLARE on a scenario
// trace, evaluate a set of features, and write a self-contained Markdown
// report (datacenter summary, cluster inventory with interpretations,
// per-feature estimates with optional ground-truth check).
#include <cmath>
#include <fstream>
#include <ostream>

#include "cli/commands.hpp"
#include "cli/config_args.hpp"
#include "cli/feature_spec.hpp"
#include "core/campaign.hpp"
#include "core/sharded_pipeline.hpp"
#include "trace/campaign_io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace flare::cli {
namespace {

std::string pct(double value) { return util::format_double(value, 2) + " %"; }

/// One shape's section: datacenter summary, cluster inventory with
/// interpretations, and the shape's per-feature estimates and breakdowns.
/// `h2`/`h3` are the heading markers (one level deeper inside a fleet).
void write_shape_report(std::ostream& md, const core::FlarePipeline& shard,
                        std::size_t index,
                        const std::vector<core::Feature>& features,
                        const std::vector<core::FleetEstimate>& estimates,
                        const std::vector<std::vector<double>>& truths,
                        bool with_truth, const std::string& h2,
                        const std::string& h3) {
  const core::AnalysisResult& analysis = shard.analysis();
  const dcsim::ScenarioSet& set = shard.scenario_set();

  md << h2 << "Datacenter\n\n";
  md << "- machine shape: `" << shard.config().machine.name << "` ("
     << shard.config().machine.cpu_model << ")\n";
  md << "- distinct job co-location scenarios: " << set.size() << "\n";
  md << "- raw metrics: " << shard.database().num_metrics() << " → "
     << analysis.kept_columns.size() << " after refinement\n";
  md << "- high-level metrics (PCs): " << analysis.num_components
     << " explaining "
     << util::format_double(100.0 * analysis.pca.cumulative_explained_variance(
                                        analysis.num_components),
                            1)
     << " % of variance\n";
  md << "- behaviour groups: " << analysis.chosen_k << "\n\n";

  md << h2 << "Representative scenarios\n\n";
  md << "| cluster | weight | interpretation of strongest PC | representative mix |\n";
  md << "|---|---|---|---|\n";
  for (std::size_t c = 0; c < analysis.chosen_k; ++c) {
    // The PC with the largest |centroid coordinate| characterises the group.
    std::size_t strongest = 0;
    for (std::size_t d = 1; d < analysis.cluster_space.cols(); ++d) {
      if (std::abs(analysis.clustering.centroids(c, d)) >
          std::abs(analysis.clustering.centroids(c, strongest))) {
        strongest = d;
      }
    }
    const std::string& label =
        strongest < analysis.interpretations.size()
            ? analysis.interpretations[strongest].label
            : "(beyond labelled components)";
    md << "| " << c << " | "
       << util::format_double(100.0 * analysis.cluster_weights[c], 1) << " % | PC"
       << strongest << ": " << label << " | `"
       << set.scenarios[analysis.representatives[c]].mix.key() << "` |\n";
  }

  md << "\n" << h2 << "Feature estimates\n\n";
  md << "| feature | estimate";
  if (with_truth) md << " | datacenter truth | abs. error";
  md << " | replays |\n|---|---";
  if (with_truth) md << "|---|---";
  md << "|---|\n";
  for (std::size_t f = 0; f < features.size(); ++f) {
    const core::FeatureEstimate& est = estimates[f].per_shape[index].estimate;
    md << "| " << features[f].name() << " | " << pct(est.impact_pct);
    if (with_truth) {
      const double dc = truths[f][index];
      md << " | " << pct(dc) << " | "
         << util::format_double(std::abs(est.impact_pct - dc), 2) << " pp";
    }
    md << " | " << analysis.chosen_k << " |\n";
  }

  // With replay faults injected the breakdown grows a provenance column and a
  // campaign-health line; without them the report stays byte-identical to the
  // failure-free layout.
  const bool replay_faults = shard.config().replay_faults.enabled;
  md << "\n" << h2 << "Per-feature behaviour breakdown\n\n";
  for (std::size_t f = 0; f < features.size(); ++f) {
    const core::FeatureEstimate& est = estimates[f].per_shape[index].estimate;
    md << h3 << features[f].name() << "\n\n"
       << features[f].description() << "\n\n";
    if (replay_faults) {
      md << "| cluster | weight | impact | replay |\n|---|---|---|---|\n";
    } else {
      md << "| cluster | weight | impact |\n|---|---|---|\n";
    }
    for (const core::ClusterImpact& ci : est.per_cluster) {
      md << "| " << ci.cluster << " | "
         << util::format_double(100.0 * ci.weight, 1) << " % | "
         << pct(ci.impact_pct);
      if (replay_faults) {
        md << " | " << core::to_string(ci.status) << " ("
           << ci.attempts << " attempts)";
      }
      md << " |\n";
    }
    md << "\n";
    if (replay_faults) {
      const core::ReplayLedger& ledger = est.replay;
      md << "Replay health: " << ledger.total_attempts << " attempts ("
         << ledger.failed_attempts << " failed, " << ledger.fallback_probes
         << " fallback probes); mass direct "
         << util::format_double(100.0 * ledger.direct_mass, 1) << " % / fallback "
         << util::format_double(100.0 * ledger.fallback_mass, 1)
         << " % / quarantined "
         << util::format_double(100.0 * ledger.quarantined_mass, 1)
         << " %; extra uncertainty ±"
         << util::format_double(ledger.measurement_uncertainty_pp +
                                    ledger.quarantine_widening_pp,
                                2)
         << " pp; simulated testbed time "
         << util::format_double(ledger.simulated_seconds / 3600.0, 1) << " h.\n\n";
    }
  }
}

/// The fleet-wide part of a multi-shape report: the shape table, the fanned-in
/// estimates and the per-shape contributions with the fan-in mass (§5.5).
void write_fan_in(std::ostream& md, const core::ShardedPipeline& pipeline,
                  const std::vector<core::Feature>& features,
                  const std::vector<core::FleetEstimate>& estimates,
                  const std::vector<double>& fleet_truths) {
  const dcsim::FleetConfig& fleet = pipeline.fleet();
  const std::vector<double> weights = pipeline.weights();
  md << "## Fleet\n\n";
  md << "| shape | machines | weight | scenarios | behaviour groups |\n";
  md << "|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < pipeline.num_shards(); ++i) {
    const core::FlarePipeline& shard = pipeline.shard(i);
    md << "| `" << fleet.shapes[i].machine.name << "` | "
       << fleet.shapes[i].num_machines << " | "
       << util::format_double(100.0 * weights[i], 1) << " % | "
       << shard.scenario_set().size() << " | " << shard.analysis().chosen_k
       << " |\n";
  }
  md << "\nEach shape runs its own complete pipeline (own PCA space, own "
        "clusters, own drift gate); fleet estimates fan the per-shape "
        "numbers in with the population weights above.\n";

  md << "\n## Fleet feature estimates\n\n";
  const bool with_truth = !fleet_truths.empty();
  md << "| feature | fleet estimate";
  if (with_truth) md << " | fleet truth | abs. error";
  md << " | replays |\n|---|---";
  if (with_truth) md << "|---|---";
  md << "|---|\n";
  for (std::size_t f = 0; f < features.size(); ++f) {
    const core::FleetEstimate& est = estimates[f];
    md << "| " << features[f].name() << " | " << pct(est.impact_pct);
    if (with_truth) {
      md << " | " << pct(fleet_truths[f]) << " | "
         << util::format_double(std::abs(est.impact_pct - fleet_truths[f]), 2)
         << " pp";
    }
    md << " | " << est.scenario_replays << " |\n";
  }

  md << "\n## Per-shape breakdown\n\n";
  for (std::size_t f = 0; f < features.size(); ++f) {
    const core::FleetEstimate& est = estimates[f];
    md << "### " << features[f].name() << "\n\n"
       << features[f].description() << "\n\n";
    md << "| shape | weight | impact | contribution |\n|---|---|---|---|\n";
    for (const core::ShardFeatureEstimate& s : est.per_shape) {
      md << "| `" << s.shape << "` | "
         << util::format_double(100.0 * s.weight, 1) << " % | "
         << pct(s.estimate.impact_pct) << " | "
         << pct(s.weight * s.estimate.impact_pct) << " |\n";
    }
    const core::ReplayLedger& ledger = est.replay;
    md << "\nFan-in mass: direct "
       << util::format_double(100.0 * ledger.direct_mass, 1) << " % / fallback "
       << util::format_double(100.0 * ledger.fallback_mass, 1)
       << " % / quarantined "
       << util::format_double(100.0 * ledger.quarantined_mass, 1)
       << " % (total "
       << util::format_double(100.0 * ledger.total_mass(), 1) << " %).\n\n";
  }
}

/// The evaluation report: with more than one shape, the fleet table, the
/// fanned-in estimates and the per-shape breakdown (paper §5.5) come first;
/// then one section per shape. Every feature is evaluated — and its replays
/// billed — exactly once.
void write_report(std::ostream& md, core::ShardedPipeline& pipeline,
                  const std::vector<core::Feature>& features,
                  bool with_truth) {
  std::vector<core::FleetEstimate> estimates;
  std::vector<std::vector<double>> truths(features.size());
  std::vector<double> fleet_truths;
  for (std::size_t f = 0; f < features.size(); ++f) {
    estimates.push_back(pipeline.evaluate(features[f]));
    if (with_truth) {
      fleet_truths.push_back(fleet_truth(pipeline, features[f], &truths[f]));
    }
  }

  const bool fan_in = pipeline.num_shards() > 1;
  md << "# FLARE " << (fan_in ? "fleet " : "") << "feature-evaluation report\n\n";
  if (fan_in) write_fan_in(md, pipeline, features, estimates, fleet_truths);
  for (std::size_t i = 0; i < pipeline.num_shards(); ++i) {
    const core::FlarePipeline& shard = pipeline.shard(i);
    if (fan_in) md << "## Shape `" << shard.config().machine.name << "`\n\n";
    write_shape_report(md, shard, i, features, estimates, truths,
                       with_truth, fan_in ? "### " : "## ", fan_in ? "#### " : "### ");
  }
  md << "---\nGenerated by `flare report"
     << (fan_in ? " --shapes` — sharded heterogeneous-fleet evaluation"
                : "` — representative-scenario evaluation")
     << " after Lee et al., Middleware '23" << (fan_in ? " §5.5" : "") << ".\n";
}

// Campaign-mode report: answer from an archived CampaignState (written by
// `flare campaign --campaign-state`), before or after the campaign finishes —
// the anytime contract is that the estimate and band are valid at every
// checkpoint, not just at exhaustion.
void write_campaign_report(std::ostream& md, const core::CampaignState& state) {
  md << "# FLARE replay-campaign report\n\n";
  md << "## Campaign\n\n";
  md << "- feature: `" << state.feature_name << "`\n";
  md << "- testbeds: " << state.num_testbeds << "\n";
  md << "- stop: `" << core::to_string(state.stop) << "` after "
     << state.units_completed << " units (" << state.units_failed
     << " failed)\n";
  if (state.target_ci_pp > 0.0) {
    md << "- target band: ±" << util::format_double(state.target_ci_pp, 2)
       << " pp\n";
  }
  if (state.budget_seconds > 0.0) {
    md << "- budget: " << util::format_double(state.budget_seconds / 3600.0, 2)
       << " h of simulated testbed time\n";
  }
  md << "- cost: " << state.distinct_replays << " distinct replays, "
     << state.ledger.total_attempts << " attempts, "
     << util::format_double(state.total_busy_seconds / 3600.0, 2)
     << " h billed (makespan "
     << util::format_double(state.makespan_seconds / 3600.0, 2) << " h)\n\n";

  md << "## Anytime estimate\n\n";
  md << "**" << pct(state.impact_pct) << " HP MIPS reduction**, band ±"
     << util::format_double(state.band_pp, 2) << " pp → ["
     << util::format_double(state.lower(), 2) << " %, "
     << util::format_double(state.upper(), 2) << " %]\n\n";
  const core::ReplayLedger& l = state.ledger;
  md << "Mass accounting: direct " << util::format_double(100.0 * l.direct_mass, 1)
     << " % / fallback " << util::format_double(100.0 * l.fallback_mass, 1)
     << " % / quarantined " << util::format_double(100.0 * l.quarantined_mass, 1)
     << " % / pending " << util::format_double(100.0 * l.pending_mass, 1)
     << " % (total " << util::format_double(100.0 * l.total_mass(), 1)
     << " %).\n\n";

  md << "## Checkpoints\n\n";
  md << "| units | estimate | band ± pp | measured mass | testbed h | attempts |\n";
  md << "|---|---|---|---|---|---|\n";
  for (const core::CampaignCheckpoint& cp : state.checkpoints) {
    md << "| " << cp.units_completed << " | " << pct(cp.impact_pct) << " | "
       << util::format_double(cp.band_pp, 3) << " | "
       << util::format_double(100.0 * cp.measured_mass, 1) << " % | "
       << util::format_double(cp.simulated_seconds / 3600.0, 2) << " | "
       << cp.attempts << " |\n";
  }
  md << "\nThe band is monotonically non-widening by construction — each "
        "checkpoint's interval contains every later one.\n";

  md << "\n## Testbed utilisation\n\n";
  md << "| testbed | units | attempts | busy h | utilisation |\n";
  md << "|---|---|---|---|---|\n";
  for (const dcsim::TestbedUtilisation& t : state.testbeds) {
    md << "| " << t.testbed << " | " << t.units << " | " << t.attempts << " | "
       << util::format_double(t.busy_seconds / 3600.0, 2) << " | "
       << util::format_double(100.0 * t.utilisation, 1) << " % |\n";
  }
  md << "---\nGenerated by `flare report --campaign-state` — budget-aware "
        "replay campaign after Lee et al., Middleware '23.\n";
}

}  // namespace

int run_report(const Args& args, std::ostream& out) {
  const std::string campaign_path = args.get_string("campaign-state", "");
  if (!campaign_path.empty()) {
    const std::string out_path = args.require_string("out");
    args.reject_unconsumed();
    const core::CampaignState state = trace::load_campaign_state(campaign_path);
    std::ofstream md(out_path);
    ensure(static_cast<bool>(md),
           "report: cannot open output file: " + out_path);
    write_campaign_report(md, state);
    ensure(static_cast<bool>(md), "report: write failed: " + out_path);
    out << "campaign '" << state.feature_name << "': "
        << core::to_string(state.stop) << ", estimate " << state.impact_pct
        << "% +-" << state.band_pp << " pp after " << state.units_completed
        << " units\n";
    out << "wrote " << out_path << "\n";
    return 0;
  }
  const std::string scenarios_path = args.require_string("scenarios");
  const std::string out_path = args.require_string("out");
  const std::string feature_list = args.get_string("features", "feature1;feature2;feature3");
  const bool with_truth = args.get_flag("truth");
  const dcsim::FleetConfig fleet = fleet_or_machine(args);
  core::FlareConfig config;
  const long long clusters = args.get_int("clusters", 18);
  ensure(clusters >= 2, "--clusters must be >= 2");
  config.analyzer.fixed_clusters = static_cast<std::size_t>(clusters);
  config.analyzer.compute_quality_curve = false;
  apply_replay_args(args, config);
  args.reject_unconsumed();

  // Feature specs are ';'-separated so custom knob lists keep their commas,
  // e.g. --features "feature1;fmax=2.0,llc=20".
  std::vector<core::Feature> features;
  for (const std::string& spec : util::split(feature_list, ';')) {
    if (util::trim(spec).empty()) continue;
    features.push_back(parse_feature(spec));
  }
  ensure(!features.empty(), "report: no features given");

  core::ShardedPipeline pipeline = fit_fleet(scenarios_path, fleet, config);
  std::ofstream md(out_path);
  ensure(static_cast<bool>(md), "report: cannot open output file: " + out_path);
  write_report(md, pipeline, features, with_truth);
  ensure(static_cast<bool>(md), "report: write failed: " + out_path);

  std::size_t representatives = 0;
  std::size_t attempts = 0;
  std::size_t failed = 0;
  double testbed_seconds = 0.0;
  for (std::size_t i = 0; i < pipeline.num_shards(); ++i) {
    const core::FlarePipeline& shard = pipeline.shard(i);
    representatives += shard.analysis().chosen_k;
    attempts += shard.replayer().total_replays();
    failed += shard.replayer().failed_replays();
    testbed_seconds += shard.replayer().simulated_seconds();
  }
  out << "evaluated " << features.size() << " feature(s) on "
      << representatives << " representatives";
  if (pipeline.num_shards() > 1) {
    out << " across " << pipeline.num_shards() << " shards";
  }
  out << " (" << pipeline.scenario_replays() << " replays total)\n";
  if (config.replay_faults.enabled) {
    out << "replay attempts: " << attempts << " (" << failed << " failed, "
        << util::format_double(testbed_seconds / 3600.0, 1)
        << " h simulated testbed time)\n";
  }
  out << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace flare::cli
