// Proxy configuration — the paper's Fig. 9 policy model (§4.4).
//
// Per-signature policies control: whether to prefetch, response expiry,
// prefetch probability, headers added to prefetch requests (so servers can
// tell prefetches apart, like Firefox's X-moz: prefetch), and field-specific
// predecessor conditions ("prefetch /product/get only when price > 1000").
// A global section supplies defaults and the data-usage budget (C4).
//
// The textual form is JSON; an initial configuration is generated by the
// verification phase and then hand-tuned by the service provider.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "policy/options.hpp"
#include "util/units.hpp"

namespace appx::core {

// Comparison on a predecessor-response field gating prefetch of a successor.
struct FieldCondition {
  std::string path;  // JSON path into the predecessor response body
  enum class Op { kGt, kGe, kLt, kLe, kEq, kNe, kContains } op = Op::kEq;
  std::string value;  // compared numerically when both sides parse as numbers

  // Evaluate against a predecessor response body. A missing path fails the
  // condition (conservative: do not prefetch on unknown data).
  bool evaluate(const json::Value& predecessor_body) const;

  std::string op_name() const;
  static Op parse_op(std::string_view name);
};

struct SignaturePolicy {
  std::string hash;  // signature id
  std::string uri;   // display-only, for humans editing the file
  bool prefetch = true;
  // nullopt = never expires (paper: "expiration_time: none").
  std::optional<Duration> expiration_time;
  double probability = 1.0;
  std::vector<std::pair<std::string, std::string>> add_headers;
  std::vector<FieldCondition> conditions;  // all must hold
};

class ProxyConfig {
 public:
  // Global knobs.
  double global_probability = 1.0;
  std::optional<Duration> default_expiration = seconds(60);
  // Prefetch data budget per user, paced by the policy's token bucket;
  // nullopt = unlimited (C4). A set budget must be positive.
  std::optional<Bytes> data_budget;
  // Max outstanding prefetches per user.
  std::size_t max_outstanding_prefetches = 32;
  // Per-user bound on queued (not yet issued) prefetch jobs; overflow evicts
  // the lowest-priority queued job. 0 = unbounded.
  std::size_t max_queued_prefetches = 0;
  // Per-user prefetch-cache footprint caps (LRU eviction beyond these);
  // 0 = unlimited.
  std::size_t cache_max_entries = 4096;
  Bytes cache_max_bytes = megabytes(64);
  // Engine-wide bound on per-user state: at most max_users user contexts
  // (0 = unlimited); users idle for user_idle_timeout are evicted when a new
  // user arrives (nullopt = only the max_users cap applies).
  std::size_t max_users = 4096;
  std::optional<Duration> user_idle_timeout = minutes(30);
  // Prefetch priority = time_weight * avg_response_ms + hit_weight * hit_rate
  // (paper 5). Zeroing both degrades the scheduler to FIFO (ablation).
  double scheduler_time_weight = 1.0;
  double scheduler_hit_weight = 200.0;
  // Multi-app proxies: which app owns each origin host. Signatures with
  // wildcard hosts are otherwise ambiguous across apps (two shopping apps
  // both expose /api/get-feed); the provider supplies this routing as part
  // of proxy configuration (paper 2: "assists with proxy configuration").
  // Hosts absent from the map match signatures of every app.
  std::map<std::string, std::string> host_apps;
  // Cost-aware prefetch policy (serialized under `global.policy`): value-
  // based admission, token-bucket pacing of data_budget, learned expiry.
  policy::PolicyOptions policy;

  // Fails on a set data_budget <= 0: unlimited is spelled unset (JSON null),
  // so a budget of 0 can never silently mean "no limit".
  util::Error validate_data_budget() const;

  // The app hint for a request ("" when its host is not mapped).
  std::string app_for_host(const std::string& host) const;

  void set_policy(SignaturePolicy policy);
  const SignaturePolicy* policy_for(std::string_view sig_id) const;
  std::size_t policy_count() const { return policies_.size(); }

  // Resolved views (per-signature overrides falling back to globals).
  bool prefetch_enabled(std::string_view sig_id) const;
  double probability(std::string_view sig_id) const;
  std::optional<Duration> expiration(std::string_view sig_id) const;
  std::vector<std::pair<std::string, std::string>> added_headers(std::string_view sig_id) const;
  const std::vector<FieldCondition>* conditions(std::string_view sig_id) const;

  // All header names any policy may add — excluded from cache-key matching.
  std::vector<std::string> all_added_header_names() const;

  // JSON round-trip (Fig. 9's format).
  std::string to_json() const;
  static ProxyConfig from_json(std::string_view text);

 private:
  std::map<std::string, SignaturePolicy, std::less<>> policies_;
};

}  // namespace appx::core
