// Unit tests for the proxy configuration model (paper Fig. 9).
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "util/error.hpp"

namespace appx::core {
namespace {

json::Value product_body(int price, const std::string& merchant = "Silk") {
  json::Object contest;
  contest["price"] = price;
  contest["merchant_name"] = merchant;
  json::Object data;
  data["contest"] = std::move(contest);
  json::Object root;
  root["data"] = std::move(data);
  return json::Value(std::move(root));
}

TEST(FieldCondition, NumericComparisons) {
  FieldCondition c{"data.contest.price", FieldCondition::Op::kGt, "1000"};
  EXPECT_TRUE(c.evaluate(product_body(1200)));
  EXPECT_FALSE(c.evaluate(product_body(800)));

  c.op = FieldCondition::Op::kLe;
  EXPECT_TRUE(c.evaluate(product_body(1000)));
  c.op = FieldCondition::Op::kEq;
  EXPECT_TRUE(c.evaluate(product_body(1000)));
  c.op = FieldCondition::Op::kNe;
  EXPECT_FALSE(c.evaluate(product_body(1000)));
}

TEST(FieldCondition, StringComparisons) {
  FieldCondition c{"data.contest.merchant_name", FieldCondition::Op::kEq, "Silk"};
  EXPECT_TRUE(c.evaluate(product_body(1, "Silk")));
  EXPECT_FALSE(c.evaluate(product_body(1, "Other")));
  c.op = FieldCondition::Op::kContains;
  c.value = "il";
  EXPECT_TRUE(c.evaluate(product_body(1, "Silk")));
}

TEST(FieldCondition, MissingPathFailsConservatively) {
  FieldCondition c{"data.nope", FieldCondition::Op::kGt, "0"};
  EXPECT_FALSE(c.evaluate(product_body(100)));
}

TEST(FieldCondition, ContainerValueFails) {
  FieldCondition c{"data.contest", FieldCondition::Op::kEq, "x"};
  EXPECT_FALSE(c.evaluate(product_body(100)));
}

TEST(FieldCondition, OpNamesRoundTrip) {
  for (const char* name : {"gt", "ge", "lt", "le", "eq", "ne", "contains"}) {
    FieldCondition c;
    c.op = FieldCondition::parse_op(name);
    EXPECT_EQ(c.op_name(), name);
  }
  EXPECT_THROW(FieldCondition::parse_op("unknown"), ParseError);
}

TEST(ProxyConfig, DefaultsWhenNoPolicy) {
  ProxyConfig config;
  EXPECT_TRUE(config.prefetch_enabled("any"));
  EXPECT_DOUBLE_EQ(config.probability("any"), 1.0);
  EXPECT_EQ(config.expiration("any"), seconds(60));
  EXPECT_TRUE(config.added_headers("any").empty());
  EXPECT_EQ(config.conditions("any"), nullptr);
}

TEST(ProxyConfig, PolicyOverrides) {
  ProxyConfig config;
  SignaturePolicy p;
  p.hash = "3853be";
  p.uri = ".*/product/get";
  p.prefetch = true;
  p.expiration_time = minutes(60 * 24);  // 1 day
  p.probability = 0.8;
  p.add_headers = {{"proxy", "prefetch"}};
  p.conditions = {{"data.contest.price", FieldCondition::Op::kGt, "1000"}};
  config.set_policy(p);

  EXPECT_TRUE(config.prefetch_enabled("3853be"));
  EXPECT_DOUBLE_EQ(config.probability("3853be"), 0.8);
  EXPECT_EQ(config.expiration("3853be"), minutes(60 * 24));
  ASSERT_EQ(config.added_headers("3853be").size(), 1u);
  ASSERT_NE(config.conditions("3853be"), nullptr);
}

TEST(ProxyConfig, GlobalProbabilityMultiplies) {
  ProxyConfig config;
  config.global_probability = 0.5;
  SignaturePolicy p;
  p.hash = "x";
  p.probability = 0.8;
  config.set_policy(p);
  EXPECT_DOUBLE_EQ(config.probability("x"), 0.4);
  EXPECT_DOUBLE_EQ(config.probability("unlisted"), 0.5);
}

TEST(ProxyConfig, DisabledPrefetch) {
  ProxyConfig config;
  SignaturePolicy p;
  p.hash = "ar93ba";
  p.prefetch = false;
  p.expiration_time = std::nullopt;  // "none"
  config.set_policy(p);
  EXPECT_FALSE(config.prefetch_enabled("ar93ba"));
  EXPECT_FALSE(config.expiration("ar93ba").has_value());
}

TEST(ProxyConfig, RejectsBadPolicies) {
  ProxyConfig config;
  SignaturePolicy no_hash;
  EXPECT_THROW(config.set_policy(no_hash), InvalidArgumentError);
  SignaturePolicy bad_prob;
  bad_prob.hash = "h";
  bad_prob.probability = 1.5;
  EXPECT_THROW(config.set_policy(bad_prob), InvalidArgumentError);
}

TEST(ProxyConfig, AddedHeaderNamesAggregated) {
  ProxyConfig config;
  SignaturePolicy a;
  a.hash = "a";
  a.add_headers = {{"X-Prefetch", "1"}, {"X-Tier", "gold"}};
  config.set_policy(a);
  SignaturePolicy b;
  b.hash = "b";
  b.add_headers = {{"X-Prefetch", "1"}};
  config.set_policy(b);
  const auto names = config.all_added_header_names();
  EXPECT_EQ(names.size(), 2u);
}

TEST(ProxyConfig, JsonRoundTrip) {
  ProxyConfig config;
  config.global_probability = 0.9;
  config.default_expiration = seconds(30);
  config.data_budget = megabytes(10);
  config.max_outstanding_prefetches = 8;

  SignaturePolicy p;
  p.hash = "3853be";
  p.uri = ".*/product/get";
  p.prefetch = true;
  p.expiration_time = seconds(86400);
  p.probability = 0.8;
  p.add_headers = {{"proxy", "prefetch"}};
  p.conditions = {{"price", FieldCondition::Op::kGt, "1000"}};
  config.set_policy(p);

  SignaturePolicy q;
  q.hash = "ar93ba";
  q.uri = ".*/api/get-feed";
  q.prefetch = false;
  q.expiration_time = std::nullopt;
  config.set_policy(q);

  const ProxyConfig back = ProxyConfig::from_json(config.to_json());
  EXPECT_DOUBLE_EQ(back.global_probability, 0.9);
  EXPECT_EQ(back.default_expiration, seconds(30));
  EXPECT_EQ(back.data_budget, megabytes(10));
  EXPECT_EQ(back.max_outstanding_prefetches, 8u);
  EXPECT_EQ(back.policy_count(), 2u);

  const auto* bp = back.policy_for("3853be");
  ASSERT_NE(bp, nullptr);
  EXPECT_EQ(bp->uri, ".*/product/get");
  EXPECT_EQ(bp->expiration_time, seconds(86400));
  EXPECT_DOUBLE_EQ(bp->probability, 0.8);
  ASSERT_EQ(bp->add_headers.size(), 1u);
  EXPECT_EQ(bp->add_headers[0].first, "proxy");
  ASSERT_EQ(bp->conditions.size(), 1u);
  EXPECT_EQ(bp->conditions[0].op, FieldCondition::Op::kGt);

  const auto* bq = back.policy_for("ar93ba");
  ASSERT_NE(bq, nullptr);
  EXPECT_FALSE(bq->prefetch);
  EXPECT_FALSE(bq->expiration_time.has_value());
}

TEST(ProxyConfig, FromJsonMinimalDocument) {
  const ProxyConfig config = ProxyConfig::from_json("{}");
  EXPECT_DOUBLE_EQ(config.global_probability, 1.0);
  EXPECT_EQ(config.policy_count(), 0u);
}

TEST(ProxyConfig, FromJsonRejectsGarbage) {
  EXPECT_THROW(ProxyConfig::from_json("not json"), ParseError);
}

TEST(ProxyConfig, HostAppsRoutingAndRoundTrip) {
  ProxyConfig config;
  config.host_apps = {{"api.wish.example", "com.wish.app"},
                      {"api.geek.example", "com.geek.app"}};
  EXPECT_EQ(config.app_for_host("api.wish.example"), "com.wish.app");
  EXPECT_EQ(config.app_for_host("unknown.example"), "");

  const ProxyConfig back = ProxyConfig::from_json(config.to_json());
  EXPECT_EQ(back.host_apps, config.host_apps);
}

TEST(ProxyConfig, ResourceBoundsRoundTrip) {
  ProxyConfig config;
  config.cache_max_entries = 123;
  config.cache_max_bytes = kilobytes(512);
  config.max_users = 77;
  config.user_idle_timeout = minutes(5);
  const ProxyConfig back = ProxyConfig::from_json(config.to_json());
  EXPECT_EQ(back.cache_max_entries, 123u);
  EXPECT_EQ(back.cache_max_bytes, kilobytes(512));
  EXPECT_EQ(back.max_users, 77u);
  EXPECT_EQ(back.user_idle_timeout, minutes(5));

  // Unbounded (disabled) settings survive the trip too.
  config.cache_max_entries = 0;
  config.cache_max_bytes = 0;
  config.max_users = 0;
  config.user_idle_timeout = std::nullopt;
  const ProxyConfig unbounded = ProxyConfig::from_json(config.to_json());
  EXPECT_EQ(unbounded.cache_max_entries, 0u);
  EXPECT_EQ(unbounded.cache_max_bytes, 0);
  EXPECT_EQ(unbounded.max_users, 0u);
  EXPECT_FALSE(unbounded.user_idle_timeout.has_value());
}

TEST(ProxyConfig, SchedulerWeightsRoundTrip) {
  ProxyConfig config;
  config.scheduler_time_weight = 0;
  config.scheduler_hit_weight = 42.5;
  const ProxyConfig back = ProxyConfig::from_json(config.to_json());
  EXPECT_DOUBLE_EQ(back.scheduler_time_weight, 0);
  EXPECT_DOUBLE_EQ(back.scheduler_hit_weight, 42.5);
}

TEST(ProxyConfig, PolicyEngineJsonRoundTrip) {
  ProxyConfig config;
  config.policy.min_value = 0.25;
  config.policy.target_queue_depth = 1024;
  config.policy.learn_expiry = true;
  config.max_queued_prefetches = 48;

  const std::string text = config.to_json();
  // Only the three tunable keys are written; the fixed constants are not.
  const json::Value written = json::parse(text);
  EXPECT_EQ(written.at("global").at("policy").as_object().size(), 3u);

  const ProxyConfig back = ProxyConfig::from_json(text);
  EXPECT_DOUBLE_EQ(back.policy.min_value, 0.25);
  EXPECT_EQ(back.policy.target_queue_depth, 1024);
  EXPECT_TRUE(back.policy.learn_expiry);
  EXPECT_EQ(back.max_queued_prefetches, 48u);
}

TEST(ProxyConfig, PolicySectionAbsentKeepsDefaults) {
  // Pre-policy configs (no `global.policy` object) still parse, with the
  // admit-everything defaults.
  const ProxyConfig config = ProxyConfig::from_json(R"({"global": {"probability": 0.7}})");
  EXPECT_DOUBLE_EQ(config.global_probability, 0.7);
  EXPECT_DOUBLE_EQ(config.policy.min_value, 0.0);
  EXPECT_FALSE(config.policy.learn_expiry);
}

TEST(ProxyConfig, PolicyEnabledFalseIsRejected) {
  // Older files wrote "enabled": false next to tuned values; with the policy
  // always on, accepting them would silently switch tuned admission on.
  const char* legacy_off = R"({"global": {"policy": {
      "enabled": false, "min_value": 0.05, "learn_expiry": true}}})";
  try {
    ProxyConfig::from_json(legacy_off);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("delete the global.policy block"), std::string::npos)
        << e.what();
  }
}

TEST(ProxyConfig, PolicyEnabledTrueIsAcceptedAndIgnored) {
  // "enabled": true asked for what now always happens.
  const ProxyConfig config = ProxyConfig::from_json(R"({"global": {"policy": {
      "enabled": true, "min_value": 0.05, "learn_expiry": true}}})");
  EXPECT_DOUBLE_EQ(config.policy.min_value, 0.05);
  EXPECT_TRUE(config.policy.learn_expiry);
}

TEST(ProxyConfig, NonPositiveDataBudgetIsRejected) {
  // Unlimited is spelled null; 0 or a negative budget is an error rather than
  // a silent "no limit".
  for (const char* budget : {"0", "-1"}) {
    const std::string text =
        std::string(R"({"global": {"data_budget_bytes": )") + budget + "}}";
    EXPECT_THROW(ProxyConfig::from_json(text), InvalidArgumentError) << budget;
  }
  const ProxyConfig unlimited =
      ProxyConfig::from_json(R"({"global": {"data_budget_bytes": null}})");
  EXPECT_FALSE(unlimited.data_budget.has_value());
  const ProxyConfig one_byte = ProxyConfig::from_json(R"({"global": {"data_budget_bytes": 1}})");
  EXPECT_EQ(one_byte.data_budget, 1);
}

TEST(FieldCondition, NumericVsStringFallsBackToLexicographic) {
  // One side numeric, the other not: the comparison degrades to string
  // ordering instead of failing ("Silk" > "100" lexicographically).
  FieldCondition c{"data.contest.merchant_name", FieldCondition::Op::kGt, "100"};
  EXPECT_TRUE(c.evaluate(product_body(1, "Silk")));
  c.op = FieldCondition::Op::kLt;
  EXPECT_FALSE(c.evaluate(product_body(1, "Silk")));

  // Both numeric strings: numeric semantics win (9 < 10 numerically even
  // though "9" > "10" as strings).
  FieldCondition numeric{"data.contest.price", FieldCondition::Op::kLt, "10"};
  EXPECT_TRUE(numeric.evaluate(product_body(9)));
}

TEST(FieldCondition, ContainsOnNonStringScalars) {
  // kContains works on the scalar's textual form (price 1234 contains "23")
  // but fails conservatively on arrays/objects.
  FieldCondition c{"data.contest.price", FieldCondition::Op::kContains, "23"};
  EXPECT_TRUE(c.evaluate(product_body(1234)));
  c.value = "56";
  EXPECT_FALSE(c.evaluate(product_body(1234)));

  FieldCondition container{"data", FieldCondition::Op::kContains, "contest"};
  EXPECT_FALSE(container.evaluate(product_body(1234)));
}

TEST(FieldCondition, EmptyAndOvershootingPaths) {
  // An empty path is a configuration error and throws at parse time; a path
  // that descends *through* a scalar simply fails the condition.
  FieldCondition empty{"", FieldCondition::Op::kEq, "x"};
  EXPECT_THROW(empty.evaluate(product_body(1)), ParseError);
  FieldCondition deep{"data.contest.price.sub", FieldCondition::Op::kEq, "1"};
  EXPECT_FALSE(deep.evaluate(product_body(1)));
}

}  // namespace
}  // namespace appx::core
