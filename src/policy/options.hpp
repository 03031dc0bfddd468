// Knobs for the cost-aware prefetch policy engine (DESIGN.md §5j).
//
// The policy layer decides *whether* a prefetch is worth issuing (the
// scheduler already decides in what order): a prefetch is admitted only when
// its expected value — P(use) × expected_latency_saving_ms per KB of body —
// clears a threshold that adapts to load, and when the user's data budget,
// paced as a token bucket, has room for it.
//
// The policy is the engine's only admission path. The defaults reproduce the
// paper's admit-everything prefetching: a value floor of 0 (the threshold
// only grows multiplicatively, so it stays 0 under any load), no learned
// expiry, and an unlimited pacer while ProxyConfig.data_budget is unset.
#pragma once

#include <cstdint>

#include "util/error.hpp"
#include "util/units.hpp"

namespace appx::policy {

// --- fixed policy constants --------------------------------------------------
//
// Admission: load feedback (scheduler queue depth above target, or
// post-enqueue drops observed) multiplies the threshold by kThresholdGrowth up
// to kMaxThreshold; calm periods decay it by kThresholdDecay back toward
// min_value — under overload the proxy degrades to best-jobs-only instead of
// drop-oldest thrash.
inline constexpr double kMaxThreshold = 50.0;     // ceiling under sustained overload
inline constexpr double kThresholdGrowth = 1.25;  // multiplicative increase when overloaded
inline constexpr double kThresholdDecay = 0.9;    // multiplicative decay when calm
// Budget pacing: ProxyConfig.data_budget is a token-bucket capacity refilled
// once per kBudgetWindow. Prefetched bytes are charged in full when the
// response arrives; an entry's *first* cache hit refunds kHitByteRefund of its
// bytes, so wasted (never-hit) bytes are charged at full rate and useful bytes
// at a discount.
inline constexpr Duration kBudgetWindow = minutes(1);
inline constexpr double kHitByteRefund = 0.5;
// Learned expiry never caps a TTL below this.
inline constexpr Duration kMinLearnedExpiry = seconds(1);

struct PolicyOptions {
  // value(sig) = P(use) * expected_saving_ms / max(expected_KB, 1), in ms
  // saved per KB. The admission threshold starts at min_value (its floor);
  // 0 admits every candidate.
  double min_value = 0;
  std::int64_t target_queue_depth = 256;  // queued + outstanding, fleet-wide

  // Refine configured TTLs online: re-prefetches of the same cache key whose
  // body changed yield change-interval samples; half the EWMA'd interval
  // (floored at kMinLearnedExpiry) caps the configured expiration.
  bool learn_expiry = false;

  util::Error validate() const;
};

}  // namespace appx::policy
