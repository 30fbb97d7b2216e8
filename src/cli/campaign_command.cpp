// `flare campaign`: run a replay campaign over a simulated testbed farm —
// the cost/accuracy dial over `flare evaluate`. Fits FLARE on a scenario
// trace (a --shapes fleet, or a one-shape fleet of --machine), then
// schedules the representative and validation replays across --testbeds
// slots, heavy clusters first, stopping early at --target-ci or --budget.
// The anytime state (estimate, band, checkpoints, per-testbed utilisation)
// can be archived with --campaign-state for `flare report --campaign-state`.
#include <cmath>
#include <ostream>

#include "cli/commands.hpp"
#include "cli/config_args.hpp"
#include "cli/feature_spec.hpp"
#include "core/campaign.hpp"
#include "core/sharded_pipeline.hpp"
#include "report/table.hpp"
#include "trace/campaign_io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace flare::cli {
namespace {

void print_campaign(std::ostream& out, const core::CampaignState& state) {
  out << state.feature_name << " campaign: " << to_string(state.stop) << " after "
      << state.units_completed << " units (" << state.units_failed
      << " failed) on " << state.num_testbeds << " testbed(s)\n";
  out << "anytime estimate: " << state.impact_pct << "% HP MIPS reduction, band +-"
      << state.band_pp << " pp [" << state.lower() << ", " << state.upper()
      << "]\n";
  const core::ReplayLedger& l = state.ledger;
  out << "mass: direct " << 100.0 * l.direct_mass << "% / fallback "
      << 100.0 * l.fallback_mass << "% / quarantined "
      << 100.0 * l.quarantined_mass << "% / pending " << 100.0 * l.pending_mass
      << "% (total " << 100.0 * l.total_mass() << "%)\n";
  out << "cost: " << state.distinct_replays << " distinct replays, "
      << l.total_attempts << " attempts (" << l.failed_attempts
      << " failed), testbed time "
      << util::format_double(state.total_busy_seconds / 3600.0, 2)
      << " h billed / makespan "
      << util::format_double(state.makespan_seconds / 3600.0, 2) << " h\n";
  if (!state.checkpoints.empty()) {
    out << "band narrowing over " << state.checkpoints.size()
        << " checkpoint(s): " << state.checkpoints.front().band_pp << " -> "
        << state.checkpoints.back().band_pp << " pp\n";
  }
  report::AsciiTable table({"testbed", "units", "attempts", "busy h", "util %"});
  for (const dcsim::TestbedUtilisation& t : state.testbeds) {
    table.add_row({std::to_string(t.testbed), std::to_string(t.units),
                   std::to_string(t.attempts),
                   report::AsciiTable::cell(t.busy_seconds / 3600.0, 2),
                   report::AsciiTable::cell(100.0 * t.utilisation, 1)});
  }
  table.print(out);
}

}  // namespace

int run_campaign(const Args& args, std::ostream& out) {
  const std::string scenarios_path = args.require_string("scenarios");
  const core::Feature feature = parse_feature(args.require_string("feature"));
  const dcsim::FleetConfig fleet = fleet_or_machine(args);

  core::FlareConfig config;
  config.analyzer = analyzer_config_from(args);
  config.schema = schema_by_name(args.get_string("schema", "standard"));
  config.threads = threads_from(args);
  config.profiler.threads = config.threads;
  apply_replay_args(args, config);

  core::CampaignConfig campaign;
  const long long testbeds = args.get_int("testbeds", 1);
  ensure(testbeds >= 1, "--testbeds must be >= 1");
  campaign.num_testbeds = static_cast<std::size_t>(testbeds);
  campaign.target_ci_pp = args.get_double("target-ci", 0.0);
  campaign.budget_seconds = args.get_double("budget", 0.0);
  const long long every = args.get_int("checkpoint-every", 1);
  ensure(every >= 1, "--checkpoint-every must be >= 1");
  campaign.checkpoint_every = static_cast<std::size_t>(every);
  campaign.prior_halfwidth_pp =
      args.get_double("prior-band", campaign.prior_halfwidth_pp);
  ensure(campaign.prior_halfwidth_pp > 0.0, "--prior-band must be positive");
  campaign.validation = !args.get_flag("no-validation");
  const std::string speeds = args.get_string("testbed-speeds", "");
  if (!speeds.empty()) {
    for (const std::string& token : util::split(speeds, ',')) {
      campaign.testbed_speed_factors.push_back(
          util::parse_double(util::trim(token)));
    }
    ensure(campaign.testbed_speed_factors.size() == campaign.num_testbeds,
           "--testbed-speeds must list one factor per --testbeds slot");
  }

  const std::string state_path = args.get_string("campaign-state", "");
  const bool with_truth = args.get_flag("truth");
  args.reject_unconsumed();

  const core::ShardedPipeline pipeline = fit_fleet(scenarios_path, fleet, config);
  const core::CampaignState state = core::run_campaign(pipeline, feature, campaign);
  const double truth = with_truth ? fleet_truth(pipeline, feature) : 0.0;

  print_campaign(out, state);
  if (with_truth) {
    const double error = std::abs(state.impact_pct - truth);
    out << "datacenter truth: " << truth << "%  (campaign |error| " << error
        << " pp, " << (error <= state.band_pp ? "inside" : "OUTSIDE")
        << " the reported band)\n";
  }
  if (!state_path.empty()) {
    trace::save_campaign_state(state, state_path);
    out << "wrote " << state_path << "\n";
  }
  return 0;
}

}  // namespace flare::cli
