// paper_eval — the paper's offline loop on the default 895-scenario
// datacenter. Each iteration fits a FlarePipeline with k chosen by the Fig. 9
// SSE/silhouette sweep (the CLI's --auto-k), then produces validated
// estimates for the three Table 4 features and per-job estimates for every
// HP job type under each.
//
//   write = one FlarePipeline::fit (profile + refine/PCA/k-sweep/cluster)
//   read  = one batch of every estimate (3 validated + 3 x 8 per-job calls);
//           each iteration runs the batch several times on its fit
//
// The set-up (generating the datacenter) is timed a few times before every
// iteration, so its samples spread over the whole run like the others. Each
// iteration profiles under its own noise realisation, derived from the seed,
// and so may choose another k; a run's samples mix several.
//
// The traced run adds the fit's staged decomposition — the public Profiler
// and stages::* calls, each in its own span — checks that it reproduces
// FlarePipeline::fit's representatives, cluster weights and estimates bit for
// bit, and times the ml/linalg/dcsim kernels on the same inputs. The staged
// path runs once with the tracer off and once with it on in every iteration;
// the difference of their lower deciles is the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "baselines/full_evaluator.hpp"
#include "core/pipeline.hpp"
#include "dcsim/counters.hpp"
#include "dcsim/submission.hpp"
#include "linalg/covariance.hpp"
#include "linalg/eigen.hpp"
#include "ml/cluster_quality.hpp"
#include "sysinfo.hpp"
#include "tracer.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace flarebench {
namespace {

using namespace flare;

/// Set-ups timed before each iteration.
constexpr int kSetupsPerIteration = 5;
/// Estimate batches per iteration; the first one's answers are the
/// iteration's, the others must repeat them.
constexpr int kReadBatches = 8;
/// Nominal seconds per iteration: the run does seconds / this iterations.
constexpr double kNominalIterationS = 1.5;

/// `seed` picks the profiler's measurement-noise realisation (one per
/// iteration, derived from the workload seed); the datacenter itself is the
/// paper's (SubmissionConfig defaults).
core::FlareConfig paper_config(std::uint64_t seed) {
  core::FlareConfig config;  // library defaults: one thread, standard schema
  config.profiler.noise_stream = derive_seed(seed, 0x9A9E4);
  config.analyzer.fixed_clusters = std::nullopt;  // --auto-k
  config.analyzer.compute_quality_curve = true;
  return config;
}

/// What one iteration produced; compared across iterations and paths.
struct Answers {
  std::vector<std::size_t> representatives;
  std::vector<double> cluster_weights;
  std::vector<double> impacts;  ///< validated per feature, then per-job
  std::size_t chosen_k = 0;
  std::size_t distinct_replays = 0;
  std::size_t attempts = 0;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_answers(const Answers& a, const Answers& b) {
  return a.representatives == b.representatives &&
         same_bits(a.cluster_weights, b.cluster_weights) &&
         same_bits(a.impacts, b.impacts) && a.chosen_k == b.chosen_k;
}

bool mass_is_one(const core::ReplayLedger& ledger) {
  return std::abs(ledger.total_mass() - 1.0) <= 1e-9;
}

struct Timings {
  double fit_ms = 0.0;
  double total_ms = 0.0;
  std::vector<double> read_ms;
  std::size_t failed = 0;
  std::size_t attempted = 0;
};

/// Runs every estimate of one iteration through `estimate_validated` /
/// `estimate_per_job` and returns the impacts (validated per feature, then
/// per-job). The whole batch is one read; each call also gets its own span
/// and its time added to `validated_ms` / `per_job_ms`.
template <typename Validated, typename PerJob>
std::vector<double> run_estimates(const std::vector<core::Feature>& features,
                                  Validated&& estimate_validated,
                                  PerJob&& estimate_per_job, Timings& timings,
                                  RunResult& result, double& validated_ms,
                                  double& per_job_ms) {
  std::vector<double> impacts;
  const long long t0 = now_ns();
  for (const core::Feature& f : features) {
    ++timings.attempted;
    try {
      core::ValidatedFeatureEstimate v;
      validated_ms += timed_span("estimator", "evaluate_with_validation",
                                 [&] { v = estimate_validated(f); });
      result.check(mass_is_one(v.estimate.replay),
                   "paper_eval: validated ledger mass != 1 for " + f.name());
      impacts.push_back(v.estimate.impact_pct);
    } catch (const FlareError&) {
      ++timings.failed;
      impacts.push_back(std::nan(""));
    }
  }
  for (const core::Feature& f : features) {
    for (const dcsim::JobType job : dcsim::hp_job_types()) {
      ++timings.attempted;
      try {
        core::PerJobEstimate est;
        per_job_ms += timed_span("estimator", "evaluate_per_job",
                                 [&] { est = estimate_per_job(f, job); });
        result.check(mass_is_one(est.replay),
                     "paper_eval: per-job ledger mass != 1 for " + f.name());
        impacts.push_back(est.impact_pct);
      } catch (const FlareError&) {
        ++timings.failed;
        impacts.push_back(std::nan(""));
      }
    }
  }
  timings.read_ms.push_back(ms_between(t0, now_ns()));
  return impacts;
}

/// Runs the estimate batch kReadBatches times. The first batch is the
/// iteration's answer (and ends its time-to-estimate); the others must
/// repeat it bit for bit.
template <typename Validated, typename PerJob>
void read_batches(const std::vector<core::Feature>& features,
                  Validated&& estimate_validated, PerJob&& estimate_per_job,
                  const core::Replayer& replayer, long long t0, Answers& answers,
                  Timings& timings, RunResult& result, double& validated_ms,
                  double& per_job_ms) {
  for (int b = 0; b < kReadBatches; ++b) {
    double validated = 0.0, per_job = 0.0;
    const std::vector<double> impacts =
        run_estimates(features, estimate_validated, estimate_per_job, timings, result,
                      validated, per_job);
    if (b == 0) {
      timings.total_ms = ms_between(t0, now_ns());
      answers.impacts = impacts;
      answers.distinct_replays = replayer.distinct_scenario_replays();
      answers.attempts = replayer.total_replays();
      validated_ms = validated;
      per_job_ms = per_job;
    } else {
      result.check(same_bits(answers.impacts, impacts),
                   "paper_eval: a repeated estimate batch answered differently");
    }
  }
}

/// The user's path: FlarePipeline::fit, then every estimate.
Answers untraced_iteration(const core::FlareConfig& config,
                           const dcsim::ScenarioSet& set,
                           const std::vector<core::Feature>& features,
                           Timings& timings, RunResult& result) {
  Answers answers;
  const long long t0 = now_ns();
  core::FlarePipeline pipeline(config);
  pipeline.fit(set);
  timings.fit_ms = ms_between(t0, now_ns());
  ++timings.attempted;
  double validated_ms = 0.0, per_job_ms = 0.0;
  read_batches(
      features, [&](const core::Feature& f) { return pipeline.evaluate_with_validation(f); },
      [&](const core::Feature& f, dcsim::JobType job) {
        return pipeline.evaluate_per_job(f, job);
      },
      pipeline.replayer(), t0, answers, timings, result, validated_ms, per_job_ms);
  answers.representatives = pipeline.analysis().representatives;
  answers.cluster_weights = pipeline.analysis().cluster_weights;
  answers.chosen_k = pipeline.analysis().chosen_k;
  return answers;
}

/// Per-stage times of one traced iteration (ms) plus the layer counts.
struct StageTimes {
  double profile = 0, refine = 0, standardize = 0, pca = 0, whiten = 0,
         cluster = 0, representatives = 0, validated = 0, per_job = 0;
  double pairwise = 0, silhouette = 0, covariance = 0, eigen = 0, project = 0;
  double interference_us = 0, counters_us = 0;
  std::size_t rows = 0, retried = 0, ksweep_points = 0, iterations = 0,
              components = 0;
};

/// FlarePipeline::fit's clean-path analysis (Analyzer::analyze with no
/// previous result and no quarantine), one public stage call per span.
core::AnalysisResult staged_analyze(const metrics::MetricDatabase& db,
                                    const core::AnalyzerConfig& ac, StageTimes& st,
                                    linalg::Matrix& standardized) {
  const Span span("analyzer", "staged analyze");
  const linalg::Matrix raw = db.to_matrix();
  const std::vector<double> weights = db.weights();
  core::AnalysisResult a;
  core::stages::RefineOutput ro;
  st.refine = timed_span("analyzer", "stages::refine",
                         [&] { ro = core::stages::refine(raw, ac); });
  a.kept_columns = ro.kept_columns;
  a.constant_columns = ro.constant_columns;
  a.refinement = ro.refinement;
  core::stages::StandardizeOutput so;
  st.standardize = timed_span("analyzer", "stages::standardize",
                              [&] { so = core::stages::standardize(ro.refined); });
  a.standardizer = so.standardizer;
  standardized = so.standardized;
  core::stages::PcaOutput po;
  st.pca = timed_span("analyzer", "stages::fit_pca", [&] {
    po = core::stages::fit_pca(standardized, a.kept_columns, db.catalog(), ac, nullptr);
  });
  a.pca = po.pca;
  a.num_components = po.num_components;
  a.interpretations = po.interpretations;
  core::stages::WhitenOutput wo;
  st.whiten = timed_span("analyzer", "stages::whiten", [&] {
    wo = core::stages::whiten(a.pca, a.num_components, standardized, ac);
  });
  a.whitener = wo.whitener;
  a.whitened = wo.whitened;
  a.cluster_space = wo.cluster_space;
  core::stages::ClusterOutput co;
  st.cluster = timed_span("analyzer", "stages::cluster", [&] {
    co = core::stages::cluster(a.cluster_space, weights, ac, nullptr);
  });
  a.quality_curve = co.quality_curve;
  a.chosen_k = co.chosen_k;
  a.clustering = co.clustering;
  core::stages::RepresentativesOutput rep;
  st.representatives = timed_span("analyzer", "stages::representatives", [&] {
    rep = core::stages::representatives(a.clustering, a.cluster_space, a.chosen_k,
                                        weights, /*require_positive_weight=*/false);
  });
  a.representatives = rep.representatives;
  a.cluster_weights = rep.cluster_weights;
  return a;
}

/// The same computation as untraced_iteration, decomposed into the public
/// Profiler and stages::* calls, each wrapped in a span. With
/// `probe_kernels`, also times the ml/linalg/dcsim kernels on the same
/// inputs (after the iteration's timed total).
Answers staged_iteration(const core::FlareConfig& config,
                         const dcsim::ScenarioSet& set,
                         const std::vector<core::Feature>& features,
                         bool probe_kernels, Timings& timings, StageTimes& st,
                         RunResult& result) {
  const dcsim::JobCatalog& catalog = dcsim::default_job_catalog();
  Answers answers;
  const long long t0 = now_ns();
  {
    const Span iteration("bench", "paper_eval.iteration");
    const dcsim::InterferenceModel model(catalog, config.model);
    const core::Profiler profiler(model, config.profiler);
    core::ProfileReport profiled;
    st.profile = timed_span("profiler", "Profiler::profile_with_health", [&] {
      profiled = profiler.profile_with_health(
          set, config.machine, core::resolve_schema(config.schema), nullptr);
    });
    st.rows = profiled.database.num_rows();
    st.retried = static_cast<std::size_t>(profiled.total_retried_samples());
    result.check(profiled.rows_below_quorum(config.profiler.sample_quorum) == 0 &&
                     profiled.total_imputed_cells() == 0,
                 "paper_eval: profile not clean; staged path would differ");

    linalg::Matrix standardized;
    const core::AnalysisResult a =
        staged_analyze(profiled.database, config.analyzer, st, standardized);
    timings.fit_ms = ms_between(t0, now_ns());
    ++timings.attempted;
    st.ksweep_points = a.quality_curve.size();
    st.iterations = static_cast<std::size_t>(a.clustering.iterations);
    st.components = a.num_components;

    const core::ImpactModel impact(config.machine, catalog, config.model);
    core::Replayer replayer(impact, config.replay,
                            dcsim::ReplayFaultModel(config.replay_faults));
    const core::FlareEstimator estimator(a, set, replayer);
    read_batches(
        features, [&](const core::Feature& f) { return estimator.estimate_with_validation(f); },
        [&](const core::Feature& f, dcsim::JobType job) {
          return estimator.estimate_per_job(f, job);
        },
        replayer, t0, answers, timings, result, st.validated, st.per_job);
    answers.representatives = a.representatives;
    answers.cluster_weights = a.cluster_weights;
    answers.chosen_k = a.chosen_k;
    if (!probe_kernels) return answers;

    // Kernels on the same inputs (outside the iteration's timed total).
    std::optional<ml::PairwiseDistances> distances;
    st.pairwise = timed_span("ml", "ml::pairwise_distances", [&] {
      distances.emplace(ml::pairwise_distances(a.cluster_space));
    });
    double silhouette = 0.0;
    st.silhouette = timed_span("ml", "ml::silhouette_score", [&] {
      silhouette = ml::silhouette_score(*distances, a.clustering.assignment, a.chosen_k);
    });
    result.check(std::isfinite(silhouette), "paper_eval: silhouette not finite");
    linalg::Matrix cov;
    st.covariance = timed_span("linalg", "linalg::covariance_matrix",
                               [&] { cov = linalg::covariance_matrix(standardized); });
    st.eigen = timed_span("linalg", "linalg::symmetric_eigen",
                          [&] { (void)linalg::symmetric_eigen(cov); });
    st.project = timed_span("analyzer", "stages::project_rows+assign_to_nearest", [&] {
      const linalg::Matrix projected =
          core::stages::project_rows(a, profiled.database.to_matrix());
      (void)core::stages::assign_to_nearest(a.clustering, projected);
    });
    std::vector<double> perf_us;
    std::vector<double> synth_us;
    const metrics::MetricCatalog& schema = core::resolve_schema(config.schema);
    for (std::size_t i = 0; i < set.size(); ++i) {
      dcsim::ScenarioPerformance perf;
      perf_us.push_back(1e3 * timed_span("dcsim", "InterferenceModel::evaluate", [&] {
        perf = model.evaluate(config.machine, set.scenarios[i].mix, i);
      }));
      synth_us.push_back(1e3 * timed_span("dcsim", "synthesize_counters", [&] {
        (void)dcsim::synthesize_counters(perf, catalog, schema,
                                         config.profiler.counters, i);
      }));
    }
    st.interference_us = median(perf_us);
    st.counters_us = median(synth_us);
  }
  return answers;
}

}  // namespace

void run_paper_eval(const Options& options, RunResult& result) {
  // ---- Set-up: generate the paper's datacenter (timed; repeated before
  // every iteration below). ----
  const dcsim::SubmissionConfig sub;  // 8 machines, 895 distinct scenarios
  std::vector<double> setup_s;
  const auto generate = [&] {
    dcsim::ScenarioSet generated;
    setup_s.push_back(timed_span("dcsim", "generate_scenario_set", [&] {
                        generated = dcsim::generate_scenario_set(sub, dcsim::default_machine());
                      }) /
                      1e3);
    return generated;
  };
  const dcsim::ScenarioSet set = generate();

  // ---- Oracle: the full-datacenter truth, outside every timed region. ----
  const std::vector<core::Feature> features = core::standard_features();
  const core::FlareConfig base_config = paper_config(options.seed);
  const core::ImpactModel truth_impact(base_config.machine, dcsim::default_job_catalog(),
                                       base_config.model);
  const baselines::FullDatacenterEvaluator oracle(truth_impact, set);
  std::vector<double> truth;
  for (const core::Feature& f : features) truth.push_back(oracle.evaluate(f).impact_pct);

  // ---- Measurement. ----
  const int iterations =
      std::max(3, static_cast<int>(std::lround(options.seconds / kNominalIterationS /
                                               (options.trace ? 3.0 : 1.0))));
  reset_peak_rss();
  std::vector<double> fit_ms, read_ms, total_ms, staged_ms, traced_ms;
  std::vector<StageTimes> stages;
  std::vector<double> abs_error, cost_fraction, distinct_replays, attempts, chosen_k;
  std::size_t attempted = 0, failed = 0;
  const auto absorb = [&](const Timings& t) {
    attempted += t.attempted;
    failed += t.failed;
  };
  for (int i = 0; i < iterations; ++i) {
    Tracer::instance().set_enabled(false);
    for (int r = 0; r < kSetupsPerIteration; ++r) {
      result.check(generate().size() == set.size(),
                   "paper_eval: the datacenter generated differently");
    }
    // Each iteration profiles with its own noise realisation, so a run's
    // samples cover several chosen k rather than one.
    const core::FlareConfig config =
        paper_config(derive_seed(options.seed, static_cast<std::uint64_t>(i)));
    Timings t;
    const Answers answers = untraced_iteration(config, set, features, t, result);
    absorb(t);
    fit_ms.push_back(t.fit_ms);
    read_ms.insert(read_ms.end(), t.read_ms.begin(), t.read_ms.end());
    total_ms.push_back(t.total_ms);

    // Accuracy against the oracle and the testbed cost, per iteration.
    double error = 0.0;
    for (std::size_t f = 0; f < features.size(); ++f) {
      error += std::abs(answers.impacts[f] - truth[f]) / static_cast<double>(features.size());
    }
    result.check(error < 1.0, "paper_eval: abs_error_pp >= 1");
    abs_error.push_back(error);
    cost_fraction.push_back(
        static_cast<double>(answers.distinct_replays) /
        (static_cast<double>(features.size()) * static_cast<double>(set.size())));
    distinct_replays.push_back(static_cast<double>(answers.distinct_replays));
    attempts.push_back(static_cast<double>(answers.attempts));
    chosen_k.push_back(static_cast<double>(answers.chosen_k));

    if (!options.trace) continue;
    // The staged path with the tracer off and on, in alternating order; both
    // must answer like this iteration's FlarePipeline::fit.
    for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
      Tracer::instance().set_enabled(traced);
      Timings tt;
      StageTimes st;
      const Answers staged =
          staged_iteration(config, set, features, traced, tt, st, result);
      Tracer::instance().set_enabled(false);
      absorb(tt);
      result.check(same_answers(answers, staged),
                   std::string("paper_eval: the staged ") + (traced ? "traced" : "untraced") +
                       " fit differs from FlarePipeline::fit");
      (traced ? traced_ms : staged_ms).push_back(tt.total_ms);
      if (traced) stages.push_back(st);
    }
  }
  const double rss = peak_rss_mib();
  result.count_ops(attempted, failed);
  result.check(failed == 0, "paper_eval: an estimate failed");

  result.set("setup_s", median(setup_s), "s");
  result.set("dcsim.generate_ms", 1e3 * median(setup_s), "ms");
  result.set("dcsim.scenarios", static_cast<double>(set.size()), "count");
  result.set_summary("write_ms", summarize(fit_ms), "ms");
  result.set_summary("read_ms", summarize(read_ms), "ms");
  result.set("rows_per_s", static_cast<double>(set.size()) / (median(fit_ms) / 1e3),
             "rows/s");
  result.set("peak_rss_mb", rss, "MiB");
  result.set("quality.abs_error_pp", median(abs_error), "pp");
  result.set("quality.testbed_cost_fraction", median(cost_fraction), "ratio");
  result.set("replayer.distinct_replays", median(distinct_replays), "count");
  result.set("replayer.attempts", median(attempts), "count");
  result.set("analyzer.chosen_k", median(chosen_k), "count");

  std::printf("paper_eval: %zu scenarios, %d iterations, k from %g to %g\n", set.size(),
              iterations, *std::min_element(chosen_k.begin(), chosen_k.end()),
              *std::max_element(chosen_k.begin(), chosen_k.end()));
  print_line("time_to_estimate_s", median(total_ms) / 1e3, "s");
  print_line("abs_error_pp", median(abs_error), "pp");
  print_line("testbed_cost_fraction", median(cost_fraction), "ratio");

  if (!options.trace) return;
  const auto med = [&](double StageTimes::*field) {
    std::vector<double> v;
    for (const StageTimes& s : stages) v.push_back(s.*field);
    return median(v);
  };
  const StageTimes& last = stages.back();
  result.set("profiler.profile_ms", med(&StageTimes::profile), "ms");
  result.set("profiler.us_per_row",
             1e3 * med(&StageTimes::profile) / static_cast<double>(last.rows), "us");
  result.set("profiler.rows", static_cast<double>(last.rows), "count");
  result.set("profiler.retried_samples", static_cast<double>(last.retried), "count");
  result.set("analyzer.refine_ms", med(&StageTimes::refine), "ms");
  result.set("analyzer.standardize_ms", med(&StageTimes::standardize), "ms");
  result.set("analyzer.pca_ms", med(&StageTimes::pca), "ms");
  result.set("analyzer.whiten_ms", med(&StageTimes::whiten), "ms");
  result.set("analyzer.cluster_ms", med(&StageTimes::cluster), "ms");
  result.set("analyzer.representatives_ms", med(&StageTimes::representatives), "ms");
  result.set("analyzer.project_ms", med(&StageTimes::project), "ms");
  result.set("analyzer.ksweep_points", static_cast<double>(last.ksweep_points), "count");
  result.set("analyzer.kmeans_iterations", static_cast<double>(last.iterations), "count");
  result.set("analyzer.components", static_cast<double>(last.components), "count");
  result.set("ml.pairwise_distances_ms", med(&StageTimes::pairwise), "ms");
  result.set("ml.silhouette_ms", med(&StageTimes::silhouette), "ms");
  result.set("linalg.covariance_ms", med(&StageTimes::covariance), "ms");
  result.set("linalg.eigen_ms", med(&StageTimes::eigen), "ms");
  result.set("dcsim.interference_eval_us", med(&StageTimes::interference_us), "us");
  result.set("dcsim.counter_synth_us", med(&StageTimes::counters_us), "us");
  result.set("estimator.validated_ms", med(&StageTimes::validated), "ms");
  result.set("estimator.per_job_ms", med(&StageTimes::per_job), "ms");
  // Lower deciles (the minimum below ten samples): the host's slow spells
  // would otherwise swamp a difference this small.
  const double overhead_ms = summarize(traced_ms).p10 - summarize(staged_ms).p10;
  result.set("tracing.overhead_ms", overhead_ms, "ms");
  print_line("tracing overhead (staged traced - untraced)", overhead_ms / 1e3, "s");
}

}  // namespace flarebench
