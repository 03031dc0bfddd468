// Token-bucket data-budget pacing (DESIGN.md §5j).
//
// ProxyConfig.data_budget as a bucket of `budget` tokens refilled
// continuously over `window`: a burst may spend the whole budget at once, but
// sustained prefetching is paced to budget bytes per window for the entire
// session.
//
// Charging is asymmetric by outcome: every prefetched byte is charged in
// full when the response arrives (tokens may go negative — the actual size
// is only known then), and an entry's first cache hit refunds `hit_refund`
// of its bytes. Wasted (never-hit) bytes therefore consume budget at full
// rate while useful bytes cost (1 - hit_refund) of theirs — the budget
// preferentially throttles waste.
//
// A budget of 0 means unlimited (the engine passes 0 while data_budget is
// unset; a configured budget must be positive): every call is a no-op and
// allows() is true.
// Not thread-safe; owned per user alongside the prefetch cache.
#pragma once

#include <algorithm>

#include "policy/options.hpp"
#include "util/units.hpp"

namespace appx::policy {

class BudgetPacer {
 public:
  struct Options {
    Bytes budget = 0;                    // bucket capacity; 0 = unlimited
    Duration window = kBudgetWindow;     // one full budget refills per window
    double hit_refund = kHitByteRefund;  // fraction of a hit's bytes credited back
  };

  BudgetPacer() = default;
  explicit BudgetPacer(Options options) : options_(options), tokens_(static_cast<double>(options.budget)) {}

  bool unlimited() const { return options_.budget <= 0; }

  // Room for an expected-size prefetch? Refills first.
  bool allows(Bytes expected, SimTime now) {
    if (unlimited()) return true;
    refill(now);
    return tokens_ >= static_cast<double>(expected);
  }

  // Charge actual wire bytes of a completed prefetch (may push tokens
  // negative; future allows() stay false until the bucket refills past 0).
  void charge(Bytes bytes, SimTime now) {
    if (unlimited()) return;
    refill(now);
    tokens_ -= static_cast<double>(bytes);
  }

  // First-hit refund: the bytes turned out to be useful.
  void refund_hit(Bytes bytes) {
    if (unlimited()) return;
    tokens_ = std::min(tokens_ + options_.hit_refund * static_cast<double>(bytes),
                       static_cast<double>(options_.budget));
  }

  double tokens(SimTime now) {
    if (!unlimited()) refill(now);
    return tokens_;
  }

 private:
  void refill(SimTime now) {
    if (now <= last_refill_) return;
    const double elapsed = static_cast<double>(now - last_refill_);
    last_refill_ = now;
    tokens_ = std::min(tokens_ + elapsed * static_cast<double>(options_.budget) /
                                      static_cast<double>(options_.window),
                       static_cast<double>(options_.budget));
  }

  Options options_;
  double tokens_ = 0;
  SimTime last_refill_ = 0;
};

}  // namespace appx::policy
