// Unit tests for the cost-aware prefetch policy engine (DESIGN.md §5j):
// per-signature value model, load-adaptive admission, token-bucket budget
// pacing, and learned expiry.
#include <gtest/gtest.h>

#include "policy/admission.hpp"
#include "policy/model.hpp"
#include "policy/options.hpp"
#include "policy/pacer.hpp"

namespace appx::policy {
namespace {

// ---------------------------------------------------------------- model ----

TEST(SignatureModel, UnknownSignatureGetsExploratoryPriors) {
  SignatureModel model;
  const Estimate e = model.estimate("app", "never-seen");
  EXPECT_DOUBLE_EQ(e.p_use, 0.5);
  EXPECT_GT(e.saving_ms, 0);
  EXPECT_GT(e.bytes, 0);
  EXPECT_EQ(e.issued, 0u);
}

TEST(SignatureModel, PUseCountsAtIssueTime) {
  // Issues are counted when admitted, not when the response arrives: a
  // synchronous fan-out burst must see its own issues in p_use immediately.
  SignatureModel model;
  model.on_issued("app", "sig");
  model.on_issued("app", "sig");
  model.on_issued("app", "sig");
  // Laplace smoothing: (0 + 1) / (3 + 2).
  EXPECT_DOUBLE_EQ(model.estimate("app", "sig").p_use, 1.0 / 5.0);
  EXPECT_EQ(model.estimate("app", "sig").issued, 3u);

  // First uses restore the estimate.
  model.on_first_use("app", "sig");
  model.on_first_use("app", "sig");
  EXPECT_DOUBLE_EQ(model.estimate("app", "sig").p_use, 3.0 / 5.0);
  EXPECT_EQ(model.used("app", "sig"), 2u);
}

TEST(SignatureModel, PUseDecaysWithinUnusedBurst) {
  // The admission value of an unproven signature must fall as a burst of
  // same-signature prefetches is admitted — this is what self-limits fan-out.
  SignatureModel model;
  double prev = model.estimate("app", "burst").p_use;
  for (int i = 0; i < 10; ++i) {
    model.on_issued("app", "burst");
    const double cur = model.estimate("app", "burst").p_use;
    EXPECT_LT(cur, prev);
    prev = cur;
  }
  EXPECT_NEAR(prev, 1.0 / 12.0, 1e-9);
}

TEST(SignatureModel, ResponseUpdatesCostAndSavingEstimates) {
  SignatureModel model;
  model.on_prefetched("app", "sig", 10240, 120.0);
  const Estimate e = model.estimate("app", "sig");
  EXPECT_DOUBLE_EQ(e.saving_ms, 120.0);
  EXPECT_DOUBLE_EQ(e.bytes, 10240.0);

  // EWMA: a second observation moves the estimate toward it, not onto it.
  model.on_prefetched("app", "sig", 0, 0.0);
  const Estimate e2 = model.estimate("app", "sig");
  EXPECT_GT(e2.saving_ms, 0.0);
  EXPECT_LT(e2.saving_ms, 120.0);
}

TEST(SignatureModel, WastedEntriesAreCounted) {
  SignatureModel model;
  model.on_wasted("app", "sig", 4096);
  model.on_wasted("app", "sig", 4096);
  EXPECT_EQ(model.wasted("app", "sig"), 2u);
}

TEST(SignatureModel, LearnedExpiryFromContentChanges) {
  SignatureModel model;
  // No samples yet -> nothing learned.
  EXPECT_FALSE(model.learned_expiry("app", "sig", seconds(1)).has_value());

  const std::uint64_t key = 42;
  model.observe_content("app", "sig", key, /*body_hash=*/1, /*now=*/0);
  // Same body 10 s later: still no change observed.
  model.observe_content("app", "sig", key, 1, seconds(10));
  EXPECT_FALSE(model.learned_expiry("app", "sig", seconds(1)).has_value());

  // Body changed 20 s after the first sample: one 20 s interval.
  model.observe_content("app", "sig", key, 2, seconds(20));
  const auto learned = model.learned_expiry("app", "sig", seconds(1));
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(*learned, seconds(10));  // half the observed change interval
}

TEST(SignatureModel, LearnedExpiryFloors) {
  SignatureModel model;
  model.observe_content("app", "sig", 7, 1, 0);
  model.observe_content("app", "sig", 7, 2, seconds(1));  // 1 s interval -> 0.5 s half
  const auto learned = model.learned_expiry("app", "sig", seconds(5));
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(*learned, seconds(5));
}

TEST(SignatureModel, DifferentKeyResetsContentSample) {
  // Fan-out items of one signature have different keys; switching keys must
  // not fabricate a change interval.
  SignatureModel model;
  model.observe_content("app", "sig", /*key=*/1, /*body=*/10, 0);
  model.observe_content("app", "sig", /*key=*/2, /*body=*/20, seconds(30));
  EXPECT_FALSE(model.learned_expiry("app", "sig", seconds(1)).has_value());
}

TEST(SignatureModel, EntriesAreKeyedPerApp) {
  // Two apps may reuse a signature id; their evidence must not mix — that is
  // the point of per-app (not per-shard) keying.
  SignatureModel model;
  model.on_issued("com.app.a", "sig");
  model.on_issued("com.app.a", "sig");
  model.on_first_use("com.app.a", "sig");
  EXPECT_DOUBLE_EQ(model.estimate("com.app.a", "sig").p_use, 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(model.estimate("com.app.b", "sig").p_use, 0.5);  // priors
  EXPECT_EQ(model.estimate("com.app.b", "sig").issued, 0u);
  EXPECT_EQ(model.tracked_signatures(), 1u);
}

TEST(SignatureModel, PersistRestoreRoundTripsEstimates) {
  SignatureModel model;
  model.on_issued("app", "sig");
  model.on_issued("app", "sig");
  model.on_first_use("app", "sig");
  model.on_prefetched("app", "sig", 10240, 120.0);
  model.on_wasted("app", "sig", 4096);
  model.observe_content("app", "sig", /*key=*/7, /*body=*/1, 0);
  model.observe_content("app", "sig", 7, 2, seconds(20));

  ByteWriter out;
  model.persist(out);
  SignatureModel restored;
  ByteReader in(out.data());
  restored.restore(in, SignatureModel::kPersistVersion, /*now=*/minutes(5));

  const Estimate a = model.estimate("app", "sig");
  const Estimate b = restored.estimate("app", "sig");
  EXPECT_DOUBLE_EQ(a.p_use, b.p_use);
  EXPECT_DOUBLE_EQ(a.saving_ms, b.saving_ms);
  EXPECT_DOUBLE_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(restored.used("app", "sig"), 1u);
  EXPECT_EQ(restored.wasted("app", "sig"), 1u);
  // The learned change interval survives; its clock is re-anchored to `now`.
  EXPECT_EQ(restored.learned_expiry("app", "sig", seconds(1)),
            model.learned_expiry("app", "sig", seconds(1)));
}

// ------------------------------------------------------------ admission ----

Estimate make_estimate(double p_use, double saving_ms, double bytes) {
  Estimate e;
  e.p_use = p_use;
  e.saving_ms = saving_ms;
  e.bytes = bytes;
  return e;
}

TEST(AdmissionController, ValueFormula) {
  // 0.5 probability of hiding 100 ms for 10 KB -> 5 ms/KB.
  EXPECT_DOUBLE_EQ(AdmissionController::value_of(make_estimate(0.5, 100, 10240)), 5.0);
  // Sub-KB bodies are floored at 1 KB so tiny responses don't look infinitely
  // valuable.
  EXPECT_DOUBLE_EQ(AdmissionController::value_of(make_estimate(1.0, 10, 100)), 10.0);
}

TEST(AdmissionController, AdmitsAboveFloorRejectsBelow) {
  PolicyOptions options;
  options.min_value = 1.0;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.admit(make_estimate(0.5, 100, 10240)));   // 5 ms/KB
  EXPECT_FALSE(admission.admit(make_estimate(0.01, 100, 10240)));  // 0.1 ms/KB
}

TEST(AdmissionController, ThresholdGrowsUnderOverloadAndDecaysWhenCalm) {
  PolicyOptions options;
  options.min_value = 1.0;
  options.target_queue_depth = 10;
  AdmissionController admission(options);

  // First observation only primes the drop baseline.
  admission.observe_load(/*queue_depth=*/1000, /*drops_total=*/50);
  EXPECT_DOUBLE_EQ(admission.threshold(), 1.0);

  // Queue above target -> growth, capped at kMaxThreshold.
  admission.observe_load(1000, 50);
  EXPECT_DOUBLE_EQ(admission.threshold(), kThresholdGrowth);
  admission.observe_load(1000, 50);
  EXPECT_DOUBLE_EQ(admission.threshold(), kThresholdGrowth * kThresholdGrowth);
  for (int i = 0; i < 100; ++i) admission.observe_load(1000, 50);
  EXPECT_DOUBLE_EQ(admission.threshold(), kMaxThreshold);

  // Calm -> decay, floored at min_value.
  admission.observe_load(0, 50);
  EXPECT_DOUBLE_EQ(admission.threshold(), kMaxThreshold * kThresholdDecay);
  for (int i = 0; i < 100; ++i) admission.observe_load(0, 50);
  EXPECT_DOUBLE_EQ(admission.threshold(), 1.0);
}

TEST(AdmissionController, DropsDeltaTriggersGrowthEvenWithShortQueue) {
  PolicyOptions options;
  options.min_value = 1.0;
  options.target_queue_depth = 100;
  AdmissionController admission(options);
  admission.observe_load(0, 50);  // prime: inherited counter value is not overload
  EXPECT_DOUBLE_EQ(admission.threshold(), 1.0);
  admission.observe_load(0, 51);  // one post-enqueue drop since last look
  EXPECT_DOUBLE_EQ(admission.threshold(), kThresholdGrowth);
  admission.observe_load(0, 51);  // no new drops -> calm again
  EXPECT_LT(admission.threshold(), kThresholdGrowth);
}

TEST(AdmissionController, ZeroFloorStaysZeroUnderOverload) {
  // The default floor: growth is multiplicative, so 0 stays 0 and every
  // candidate is admitted however long the overload lasts.
  PolicyOptions options;
  options.target_queue_depth = 1;
  AdmissionController admission(options);
  for (int i = 0; i < 1000; ++i) admission.observe_load(1000, i);
  EXPECT_DOUBLE_EQ(admission.threshold(), 0.0);
  EXPECT_TRUE(admission.admit(make_estimate(0.0, 0, 1 << 20)));
}

// ---------------------------------------------------------------- pacer ----

TEST(BudgetPacer, ZeroBudgetIsUnlimited) {
  BudgetPacer pacer;
  EXPECT_TRUE(pacer.unlimited());
  EXPECT_TRUE(pacer.allows(1 << 30, 0));
  pacer.charge(1 << 30, 0);
  EXPECT_TRUE(pacer.allows(1 << 30, seconds(1)));
}

TEST(BudgetPacer, ChargesMayOverdraftThenRefill) {
  BudgetPacer::Options options;
  options.budget = 1000;
  options.window = seconds(10);  // refills 100 bytes/s
  BudgetPacer pacer(options);

  EXPECT_TRUE(pacer.allows(1000, 0));
  pacer.charge(1500, 0);  // actual size only known at response time
  EXPECT_DOUBLE_EQ(pacer.tokens(0), -500.0);
  EXPECT_FALSE(pacer.allows(1, 0));

  // 5 s of refill: -500 + 500 = 0; still can't afford a byte.
  EXPECT_FALSE(pacer.allows(1, seconds(5)));
  // 3 more seconds: 300 tokens.
  EXPECT_TRUE(pacer.allows(300, seconds(8)));
  EXPECT_FALSE(pacer.allows(301, seconds(8)));
}

TEST(BudgetPacer, RefillCapsAtBudget) {
  BudgetPacer::Options options;
  options.budget = 1000;
  options.window = seconds(1);
  BudgetPacer pacer(options);
  EXPECT_DOUBLE_EQ(pacer.tokens(minutes(10)), 1000.0);
}

TEST(BudgetPacer, HitRefundDiscountsUsefulBytes) {
  BudgetPacer::Options options;
  options.budget = 1000;
  options.window = minutes(10);  // slow refill so arithmetic dominates
  options.hit_refund = 0.5;
  BudgetPacer pacer(options);

  pacer.charge(600, 0);
  EXPECT_DOUBLE_EQ(pacer.tokens(0), 400.0);
  pacer.refund_hit(600);  // the bytes turned out useful -> net cost 300
  EXPECT_DOUBLE_EQ(pacer.tokens(0), 700.0);

  // Refunds never push the bucket above capacity.
  pacer.refund_hit(1 << 20);
  EXPECT_DOUBLE_EQ(pacer.tokens(0), 1000.0);
}

// -------------------------------------------------------------- options ----

TEST(PolicyOptions, ValidateRejectsNonsense) {
  PolicyOptions bad;
  bad.min_value = -1;
  EXPECT_TRUE(static_cast<bool>(bad.validate()));
  EXPECT_THROW(bad.validate().throw_if_error(), InvalidArgumentError);

  bad = PolicyOptions{};
  bad.min_value = kMaxThreshold * 2;  // a floor above the ceiling
  EXPECT_TRUE(static_cast<bool>(bad.validate()));

  const PolicyOptions good;  // min_value 0: admit everything
  EXPECT_TRUE(good.validate().ok());
}

}  // namespace
}  // namespace appx::policy
