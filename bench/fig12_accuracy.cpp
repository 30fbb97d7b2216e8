// Reproduces Figure 12: FLARE's estimation accuracy against the full
// datacenter (ground truth) and random sampling at equal cost.
//   (a) all-HP-job impact — sampling distribution over 1000 trials (violin /
//       box summary) vs FLARE's single deterministic estimate;
//   (b) per-job impact — sampling 95% CIs vs FLARE.
// Exits 1, naming the feature, when a FLARE error in (a) is 1 pp or more:
// the paper's claim that those errors stay below 1 pp.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/full_evaluator.hpp"
#include "baselines/sampling_evaluator.hpp"
#include "bench/common.hpp"
#include "report/table.hpp"

int main() {
  using namespace flare;
  bench::Environment env = bench::make_environment();
  const baselines::FullDatacenterEvaluator truth(env.pipeline->impact_model(),
                                                 env.set);
  const baselines::RandomSamplingEvaluator sampling(env.pipeline->impact_model(),
                                                    env.set);

  bench::print_banner("Figure 12a",
                      "Comprehensive HP impact: datacenter vs sampling vs FLARE");
  report::AsciiTable all({"feature", "datacenter %", "FLARE %", "FLARE err pp",
                          "sampling q1", "median", "q3", "min", "max",
                          "sampl maxerr"});
  std::vector<std::string> over_1pp;
  for (const core::Feature& f : core::standard_features()) {
    const double dc = truth.evaluate(f).impact_pct;
    const core::FeatureEstimate flare_est = env.pipeline->evaluate(f);
    baselines::SamplingConfig config;
    config.sample_size = 18;  // the same evaluation cost as FLARE
    config.trials = 1000;
    const baselines::SamplingResult s = sampling.evaluate(f, config, dc);
    const double error_pp = std::abs(flare_est.impact_pct - dc);
    if (!(error_pp < 1.0)) {
      over_1pp.push_back(f.name() + " (" + std::to_string(error_pp) + " pp)");
    }
    all.add_row({f.name(), report::AsciiTable::cell(dc),
                 report::AsciiTable::cell(flare_est.impact_pct),
                 report::AsciiTable::cell(error_pp),
                 report::AsciiTable::cell(s.distribution.q1),
                 report::AsciiTable::cell(s.distribution.median),
                 report::AsciiTable::cell(s.distribution.q3),
                 report::AsciiTable::cell(s.distribution.min),
                 report::AsciiTable::cell(s.distribution.max),
                 report::AsciiTable::cell(s.max_abs_error)});
  }
  all.print(std::cout);
  if (!over_1pp.empty()) {
    for (const std::string& miss : over_1pp) {
      std::fprintf(stderr, "fig12_accuracy: FLARE's error on %s is not below 1 pp\n",
                   miss.c_str());
    }
    return 1;
  }
  std::printf("\nFLARE's errors stay below 1pp; 18-scenario random sampling "
              "spreads several pp around the truth (paper §5.3).\n\n");

  std::printf("Extension: validated FLARE estimates (one extra replay per "
              "cluster):\n");
  for (const core::Feature& f : core::standard_features()) {
    const double dc = truth.evaluate(f).impact_pct;
    const core::ValidatedFeatureEstimate v =
        env.pipeline->evaluate_with_validation(f);
    std::printf("  %-22s %6.2f%% ± %.2f  (truth %6.2f%%, %s)\n",
                f.name().c_str(), v.estimate.impact_pct, v.uncertainty_pp, dc,
                dc >= v.lower() && dc <= v.upper() ? "covered" : "outside");
  }
  std::printf("\n");

  bench::print_banner("Figure 12b", "Per-HP-job impact: 95% CI sampling vs FLARE");
  for (const core::Feature& f : core::standard_features()) {
    std::printf("\n%s:\n", f.name().c_str());
    report::AsciiTable per_job({"job", "datacenter %", "FLARE %", "FLARE err",
                                "sampling CI95 lo", "hi"});
    for (const dcsim::JobType job : dcsim::hp_job_types()) {
      const double dc = truth.evaluate_job(f, job).impact_pct;
      const core::PerJobEstimate est = env.pipeline->evaluate_per_job(f, job);
      baselines::SamplingConfig config;
      config.sample_size = 18;
      config.trials = 1000;
      const baselines::SamplingResult s = sampling.evaluate_job(f, job, config, dc);
      per_job.add_row({std::string(dcsim::job_code(job)),
                       report::AsciiTable::cell(dc),
                       report::AsciiTable::cell(est.impact_pct),
                       report::AsciiTable::cell(std::abs(est.impact_pct - dc)),
                       report::AsciiTable::cell(s.ci95.lower),
                       report::AsciiTable::cell(s.ci95.upper)});
    }
    per_job.print(std::cout);
  }
  std::printf("\nPer-job sampling is occasionally competitive (smaller, "
              "lower-variance populations) and FLARE is occasionally off "
              "(clusters are built from general metrics, not per-job ones) — "
              "the paper's §5.3 discussion.\n");
  return 0;
}
