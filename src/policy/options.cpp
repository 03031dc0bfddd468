#include "policy/options.hpp"

#include <cmath>

namespace appx::policy {

util::Error PolicyOptions::validate() const {
  if (!std::isfinite(min_value) || min_value < 0 || min_value > kMaxThreshold) {
    return util::Error::failure("PolicyOptions.min_value must be in [0, kMaxThreshold]");
  }
  if (target_queue_depth < 1) {
    return util::Error::failure("PolicyOptions.target_queue_depth must be >= 1");
  }
  return util::Error();
}

}  // namespace appx::policy
