#include "policy/admission.hpp"

#include <algorithm>

namespace appx::policy {

void AdmissionController::observe_load(std::int64_t queue_depth, std::int64_t drops_total) {
  if (!primed_) {
    primed_ = true;
    last_drops_ = drops_total;
    return;
  }
  const bool overloaded = queue_depth > options_.target_queue_depth || drops_total > last_drops_;
  last_drops_ = drops_total;
  if (overloaded) {
    threshold_ = std::min(kMaxThreshold, threshold_ * kThresholdGrowth);
  } else {
    threshold_ = std::max(options_.min_value, threshold_ * kThresholdDecay);
  }
}

}  // namespace appx::policy
