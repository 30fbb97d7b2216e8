// Extension: sharded heterogeneous-fleet fan-in (DESIGN.md §13, paper §5.5).
// A three-shape fleet (default:6, small:2, dense:4) is evaluated two ways:
//
//   pooled  — one FlarePipeline over the mixed rows, profiled and replayed
//             as if every machine were the largest shape (the homogeneity
//             assumption a single-pipeline deployment is forced into);
//   sharded — one pipeline per shape, estimates fanned in with population
//             weights (ShardedPipeline).
//
// Ground truth is the population-weighted full evaluation per shape. The
// harness reports both absolute errors and checks the fan-in ledger
// conserves mass to 1. Writes BENCH_shard.json (path overridable via
// argv[1]), which holds only deterministic result values; BenchGolden.shard
// compares it with the committed copy.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/full_evaluator.hpp"
#include "bench/common.hpp"
#include "core/sharded_pipeline.hpp"
#include "dcsim/fleet.hpp"
#include "report/table.hpp"

namespace {

using namespace flare;

struct ShapeRow {
  std::string shape;
  double weight = 0.0;
  double impact_pct = 0.0;
  double truth_pct = 0.0;
};

struct Results {
  std::vector<ShapeRow> shapes;
  double fleet_truth = 0.0;
  double sharded_estimate = 0.0;
  double sharded_error_pp = 0.0;
  double pooled_estimate = 0.0;
  double pooled_error_pp = 0.0;
  double mass_total = 0.0;
};

void write_json(const std::string& path, const Results& r, std::uint64_t seed) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  out << "{\n  \"benchmark\": \"shard_fanin\",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"fleet\": \"default:6,small:2,dense:4\",\n";
  out << "  \"per_shape\": [\n";
  for (std::size_t i = 0; i < r.shapes.size(); ++i) {
    const ShapeRow& s = r.shapes[i];
    out << "    {\"shape\": \"" << s.shape << "\", \"weight\": " << s.weight
        << ", \"impact_pct\": " << s.impact_pct
        << ", \"truth_pct\": " << s.truth_pct << "}"
        << (i + 1 < r.shapes.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"fleet_truth_pct\": " << r.fleet_truth << ",\n";
  out << "  \"sharded_estimate_pct\": " << r.sharded_estimate << ",\n";
  out << "  \"sharded_abs_error_pp\": " << r.sharded_error_pp << ",\n";
  out << "  \"pooled_estimate_pct\": " << r.pooled_estimate << ",\n";
  out << "  \"pooled_abs_error_pp\": " << r.pooled_error_pp << ",\n";
  out << "  \"fanin_mass_total\": " << r.mass_total << "\n";
  out << "}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_shard.json";
  constexpr std::uint64_t kSeed = 0x54A2Dull;

  const dcsim::FleetConfig fleet =
      dcsim::parse_fleet_spec("default:6,small:2,dense:4");
  dcsim::SubmissionConfig sub;
  sub.seed = kSeed;
  sub.target_distinct_scenarios = 300;
  const dcsim::FleetScenarioSet population =
      dcsim::generate_fleet_scenario_set(sub, fleet);
  const std::vector<double> weights = fleet.population_weights();

  core::FlareConfig base;
  base.analyzer.fixed_clusters = 10;
  base.analyzer.compute_quality_curve = false;

  bench::print_banner("Extension",
                      "Sharded fleet fan-in: pooled vs per-shape pipelines");

  core::ShardedConfig sharded_config;
  sharded_config.base = base;
  sharded_config.fleet = fleet;
  core::ShardedPipeline sharded(sharded_config);
  sharded.fit(population);
  Results r;

  const core::Feature feature = core::feature_dvfs_cap();
  const core::FleetEstimate estimate = sharded.evaluate(feature);
  r.sharded_estimate = estimate.impact_pct;
  r.mass_total = estimate.replay.total_mass();

  // Ground truth: full per-shape evaluation, fanned in with the same weights.
  for (std::size_t i = 0; i < sharded.num_shards(); ++i) {
    const baselines::FullDatacenterEvaluator truth(
        sharded.shard(i).impact_model(), sharded.shard(i).scenario_set());
    ShapeRow row;
    row.shape = fleet.shapes[i].machine.name;
    row.weight = weights[i];
    row.impact_pct = estimate.per_shape[i].estimate.impact_pct;
    row.truth_pct = truth.evaluate(feature).impact_pct;
    r.fleet_truth += weights[i] * row.truth_pct;
    r.shapes.push_back(row);
  }
  r.sharded_error_pp = std::abs(r.sharded_estimate - r.fleet_truth);

  // Pooled baseline: one pipeline over the mixed rows, every scenario
  // profiled and replayed on the dense shape (the only one whose vCPU
  // capacity admits every mix — exactly the homogeneity shortcut a
  // single-pipeline deployment has to take).
  core::FlareConfig pooled_config = base;
  pooled_config.machine = dcsim::machine_shape_by_name("dense");
  core::FlarePipeline pooled(pooled_config);
  pooled.fit(population.merged());
  r.pooled_estimate = pooled.evaluate(feature).impact_pct;
  r.pooled_error_pp = std::abs(r.pooled_estimate - r.fleet_truth);

  report::AsciiTable table(
      {"shape", "machines", "weight", "estimate", "truth", "error"});
  table.set_alignment(0, report::Align::kLeft);
  for (std::size_t i = 0; i < r.shapes.size(); ++i) {
    table.add_row({r.shapes[i].shape,
                   std::to_string(fleet.shapes[i].num_machines),
                   report::AsciiTable::cell(100.0 * r.shapes[i].weight, 1) + "%",
                   report::AsciiTable::cell(r.shapes[i].impact_pct, 2) + " %",
                   report::AsciiTable::cell(r.shapes[i].truth_pct, 2) + " %",
                   report::AsciiTable::cell(
                       std::abs(r.shapes[i].impact_pct - r.shapes[i].truth_pct),
                       2) +
                       " pp"});
  }
  table.print(std::cout);

  std::printf("\nfleet truth     : %.3f %%\n", r.fleet_truth);
  std::printf("sharded estimate: %.3f %%  (error %.3f pp, fan-in mass %.6f)\n",
              r.sharded_estimate, r.sharded_error_pp, r.mass_total);
  std::printf("pooled estimate : %.3f %%  (error %.3f pp)\n", r.pooled_estimate,
              r.pooled_error_pp);
  if (r.sharded_error_pp < r.pooled_error_pp) {
    std::printf(
        "\nPer-shape pipelines beat the pooled homogeneity assumption: each\n"
        "shape's representatives are replayed on its own machine config, so\n"
        "no shape's behaviour is projected through another's hardware.\n");
  } else {
    std::printf(
        "\nWARNING: pooled error was not worse on this seed — inspect the\n"
        "fleet composition before publishing these numbers.\n");
  }

  write_json(out_path, r, kSeed);
  return 0;
}
