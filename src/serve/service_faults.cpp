#include "serve/service_faults.hpp"

namespace flare::serve {

ServiceFaultModel::ServiceFaultModel(ServiceFaultOptions options)
    : options_(options) {
  active_ = options_.enabled && options_.kill_after_ingest >= 0;
}

bool ServiceFaultModel::kill_now(KillPoint point,
                                 std::uint64_t commit_index) const {
  if (!active_) return false;
  return point == options_.kill_point &&
         commit_index == static_cast<std::uint64_t>(options_.kill_after_ingest);
}

}  // namespace flare::serve
