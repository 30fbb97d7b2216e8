#include "dcsim/job_profile.hpp"

#include <algorithm>
#include <cmath>

namespace flare::dcsim {

double JobProfile::miss_ratio(double cache_mb) const {
  const double c = std::max(cache_mb, 0.0);
  const double shape = std::pow(mrc_half_mb / (mrc_half_mb + c), mrc_steepness);
  const double ratio = min_miss_ratio + (1.0 - min_miss_ratio) * shape;
  return std::clamp(ratio, 0.0, 1.0);
}

}  // namespace flare::dcsim
