#include "stats/bootstrap.hpp"

#include <cmath>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace flare::stats {
namespace {

/// Inverse standard-normal CDF (Acklam's rational approximation, ~1e-9 abs err).
double inverse_normal_cdf(double p) {
  ensure(p > 0.0 && p < 1.0, "inverse_normal_cdf: p must be in (0, 1)");
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

ConfidenceInterval normal_mean_ci(std::span<const double> values, double confidence) {
  ensure(!values.empty(), "normal_mean_ci: empty input");
  ensure(confidence > 0.0 && confidence < 1.0,
         "normal_mean_ci: confidence must be in (0, 1)");
  const double m = mean(values);
  const double se = values.size() > 1
                        ? stddev(values) / std::sqrt(static_cast<double>(values.size()))
                        : 0.0;
  const double z = inverse_normal_cdf(1.0 - (1.0 - confidence) / 2.0);
  return ConfidenceInterval{m - z * se, m + z * se, m};
}

double mean_ci_halfwidth(std::span<const double> values, double confidence) {
  return normal_mean_ci(values, confidence).width() / 2.0;
}

}  // namespace flare::stats
