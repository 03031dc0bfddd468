// Value-based prefetch admission with load-adaptive threshold (DESIGN.md §5j).
//
// A prefetch is admitted when its expected value,
//
//   value = P(use) × expected_saving_ms / max(expected_KB, 1),
//
// clears the current threshold. The threshold floors at min_value; load
// feedback (queue depth above target, or jobs dropped after enqueue since the
// last observation) grows it multiplicatively up to kMaxThreshold, and calm
// periods decay it back. Growth is multiplicative, so a floor of 0 keeps the
// threshold at 0 and every candidate is admitted. Under overload the proxy
// therefore sheds the *lowest-value* prefetches at admission time instead of
// drop-oldest thrashing after enqueue — the macro harness measured
// millions of enqueued-then-dropped jobs at saturation; this is the fix.
//
// Not thread-safe; owned per engine shard.
#pragma once

#include <cstdint>

#include "policy/model.hpp"
#include "policy/options.hpp"

namespace appx::policy {

class AdmissionController {
 public:
  AdmissionController() : AdmissionController(PolicyOptions{}) {}
  explicit AdmissionController(const PolicyOptions& options)
      : options_(options), threshold_(options.min_value) {}

  // ms of expected saving per KB of expected cost.
  static double value_of(const Estimate& estimate) {
    const double kb = estimate.bytes / 1024.0;
    return estimate.p_use * estimate.saving_ms / (kb > 1.0 ? kb : 1.0);
  }

  bool admit(const Estimate& estimate) const { return value_of(estimate) >= threshold_; }

  // Load feedback, called once per admission batch. `queue_depth` is the
  // fleet-wide queued + outstanding prefetch count; `drops_total` a monotonic
  // dropped-after-enqueue counter (the first observation only sets the
  // baseline — shared registries may carry drops that predate this shard).
  void observe_load(std::int64_t queue_depth, std::int64_t drops_total);

  double threshold() const { return threshold_; }

 private:
  PolicyOptions options_;
  double threshold_;
  bool primed_ = false;
  std::int64_t last_drops_ = 0;
};

}  // namespace appx::policy
