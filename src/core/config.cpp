#include "core/config.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace appx::core {

namespace strings = appx::strings;

// --- FieldCondition -------------------------------------------------------------

bool FieldCondition::evaluate(const json::Value& predecessor_body) const {
  const json::Path parsed(path);
  const json::Value* node = parsed.resolve_first(predecessor_body);
  if (node == nullptr) return false;
  if (node->is_array() || node->is_object()) return false;

  const std::string lhs = node->scalar_to_string();
  const auto lhs_num = strings::to_double(lhs);
  const auto rhs_num = strings::to_double(value);

  if (op == Op::kContains) return strings::contains(lhs, value);

  if (lhs_num && rhs_num) {
    switch (op) {
      case Op::kGt: return *lhs_num > *rhs_num;
      case Op::kGe: return *lhs_num >= *rhs_num;
      case Op::kLt: return *lhs_num < *rhs_num;
      case Op::kLe: return *lhs_num <= *rhs_num;
      case Op::kEq: return *lhs_num == *rhs_num;
      case Op::kNe: return *lhs_num != *rhs_num;
      case Op::kContains: break;
    }
  }
  switch (op) {
    case Op::kGt: return lhs > value;
    case Op::kGe: return lhs >= value;
    case Op::kLt: return lhs < value;
    case Op::kLe: return lhs <= value;
    case Op::kEq: return lhs == value;
    case Op::kNe: return lhs != value;
    case Op::kContains: break;
  }
  return false;
}

std::string FieldCondition::op_name() const {
  switch (op) {
    case Op::kGt: return "gt";
    case Op::kGe: return "ge";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kContains: return "contains";
  }
  return "?";
}

FieldCondition::Op FieldCondition::parse_op(std::string_view name) {
  if (name == "gt") return Op::kGt;
  if (name == "ge") return Op::kGe;
  if (name == "lt") return Op::kLt;
  if (name == "le") return Op::kLe;
  if (name == "eq") return Op::kEq;
  if (name == "ne") return Op::kNe;
  if (name == "contains") return Op::kContains;
  throw ParseError("FieldCondition: unknown operator '" + std::string(name) + "'");
}

// --- ProxyConfig -----------------------------------------------------------------

std::string ProxyConfig::app_for_host(const std::string& host) const {
  const auto it = host_apps.find(host);
  return it == host_apps.end() ? std::string{} : it->second;
}

void ProxyConfig::set_policy(SignaturePolicy policy) {
  if (policy.hash.empty()) throw InvalidArgumentError("SignaturePolicy: empty hash");
  if (policy.probability < 0 || policy.probability > 1) {
    throw InvalidArgumentError("SignaturePolicy: probability outside [0,1]");
  }
  policies_[policy.hash] = std::move(policy);
}

const SignaturePolicy* ProxyConfig::policy_for(std::string_view sig_id) const {
  const auto it = policies_.find(sig_id);
  return it == policies_.end() ? nullptr : &it->second;
}

bool ProxyConfig::prefetch_enabled(std::string_view sig_id) const {
  const SignaturePolicy* p = policy_for(sig_id);
  return p == nullptr ? true : p->prefetch;
}

double ProxyConfig::probability(std::string_view sig_id) const {
  const SignaturePolicy* p = policy_for(sig_id);
  const double local = (p == nullptr) ? 1.0 : p->probability;
  return local * global_probability;
}

std::optional<Duration> ProxyConfig::expiration(std::string_view sig_id) const {
  const SignaturePolicy* p = policy_for(sig_id);
  if (p != nullptr) return p->expiration_time;
  return default_expiration;
}

std::vector<std::pair<std::string, std::string>> ProxyConfig::added_headers(
    std::string_view sig_id) const {
  const SignaturePolicy* p = policy_for(sig_id);
  return p == nullptr ? std::vector<std::pair<std::string, std::string>>{} : p->add_headers;
}

const std::vector<FieldCondition>* ProxyConfig::conditions(std::string_view sig_id) const {
  const SignaturePolicy* p = policy_for(sig_id);
  if (p == nullptr || p->conditions.empty()) return nullptr;
  return &p->conditions;
}

std::vector<std::string> ProxyConfig::all_added_header_names() const {
  std::vector<std::string> names;
  for (const auto& [_, policy] : policies_) {
    for (const auto& [name, value] : policy.add_headers) {
      (void)value;
      if (std::find(names.begin(), names.end(), name) == names.end()) names.push_back(name);
    }
  }
  return names;
}

util::Error ProxyConfig::validate_data_budget() const {
  if (data_budget && *data_budget <= 0) {
    return util::Error::failure(
        "ProxyConfig.data_budget must be positive (leave it unset / null for unlimited)");
  }
  return util::Error();
}

std::string ProxyConfig::to_json() const {
  json::Object root;
  json::Object global;
  global["probability"] = global_probability;
  global["default_expiration_ms"] =
      default_expiration ? json::Value(to_ms(*default_expiration)) : json::Value(nullptr);
  global["data_budget_bytes"] =
      data_budget ? json::Value(static_cast<std::int64_t>(*data_budget)) : json::Value(nullptr);
  global["max_outstanding_prefetches"] =
      static_cast<std::int64_t>(max_outstanding_prefetches);
  global["max_queued_prefetches"] = static_cast<std::int64_t>(max_queued_prefetches);
  global["cache_max_entries"] = static_cast<std::int64_t>(cache_max_entries);
  global["cache_max_bytes"] = static_cast<std::int64_t>(cache_max_bytes);
  global["max_users"] = static_cast<std::int64_t>(max_users);
  global["user_idle_timeout_ms"] =
      user_idle_timeout ? json::Value(to_ms(*user_idle_timeout)) : json::Value(nullptr);
  global["scheduler_time_weight"] = scheduler_time_weight;
  global["scheduler_hit_weight"] = scheduler_hit_weight;
  if (!host_apps.empty()) {
    json::Object hosts;
    for (const auto& [host, app] : host_apps) hosts[host] = app;
    global["host_apps"] = std::move(hosts);
  }
  {
    json::Object pol;
    pol["min_value"] = policy.min_value;
    pol["target_queue_depth"] = policy.target_queue_depth;
    pol["learn_expiry"] = policy.learn_expiry;
    global["policy"] = std::move(pol);
  }
  root["global"] = std::move(global);

  json::Array sigs;
  for (const auto& [_, p] : policies_) {
    json::Object entry;
    entry["hash"] = p.hash;
    entry["uri"] = p.uri;
    entry["prefetch"] = p.prefetch;
    entry["expiration_time_ms"] =
        p.expiration_time ? json::Value(to_ms(*p.expiration_time)) : json::Value(nullptr);
    entry["probability"] = p.probability;
    if (!p.add_headers.empty()) {
      json::Array headers;
      for (const auto& [name, value] : p.add_headers) {
        json::Object h;
        h["name"] = name;
        h["value"] = value;
        headers.emplace_back(std::move(h));
      }
      entry["add_header"] = std::move(headers);
    }
    if (!p.conditions.empty()) {
      json::Array conditions;
      for (const FieldCondition& c : p.conditions) {
        json::Object cond;
        cond["path"] = c.path;
        cond["op"] = c.op_name();
        cond["value"] = c.value;
        conditions.emplace_back(std::move(cond));
      }
      entry["condition"] = std::move(conditions);
    }
    sigs.emplace_back(std::move(entry));
  }
  root["signatures"] = std::move(sigs);
  return json::Value(std::move(root)).dump(2);
}

ProxyConfig ProxyConfig::from_json(std::string_view text) {
  const json::Value root = json::parse(text);
  ProxyConfig config;
  if (const json::Value* global = root.find("global")) {
    if (const json::Value* v = global->find("probability")) config.global_probability = v->as_double();
    if (const json::Value* v = global->find("default_expiration_ms")) {
      config.default_expiration =
          v->is_null() ? std::nullopt : std::optional<Duration>(milliseconds(v->as_double()));
    }
    if (const json::Value* v = global->find("data_budget_bytes")) {
      config.data_budget = v->is_null() ? std::nullopt : std::optional<Bytes>(v->as_int());
    }
    if (const json::Value* v = global->find("max_outstanding_prefetches")) {
      config.max_outstanding_prefetches = static_cast<std::size_t>(v->as_int());
    }
    if (const json::Value* v = global->find("max_queued_prefetches")) {
      config.max_queued_prefetches = static_cast<std::size_t>(v->as_int());
    }
    if (const json::Value* v = global->find("cache_max_entries")) {
      config.cache_max_entries = static_cast<std::size_t>(v->as_int());
    }
    if (const json::Value* v = global->find("cache_max_bytes")) {
      config.cache_max_bytes = static_cast<Bytes>(v->as_int());
    }
    if (const json::Value* v = global->find("max_users")) {
      config.max_users = static_cast<std::size_t>(v->as_int());
    }
    if (const json::Value* v = global->find("user_idle_timeout_ms")) {
      config.user_idle_timeout =
          v->is_null() ? std::nullopt : std::optional<Duration>(milliseconds(v->as_double()));
    }
    if (const json::Value* v = global->find("scheduler_time_weight")) {
      config.scheduler_time_weight = v->as_double();
    }
    if (const json::Value* v = global->find("scheduler_hit_weight")) {
      config.scheduler_hit_weight = v->as_double();
    }
    if (const json::Value* v = global->find("host_apps")) {
      for (const auto& [host, app] : v->as_object()) {
        config.host_apps[host] = app.as_string();
      }
    }
    if (const json::Value* pol = global->find("policy")) {
      policy::PolicyOptions& p = config.policy;
      // Older files carry an on/off switch. "enabled": false sat next to
      // tuned values (min_value 0.05, learn_expiry true) that the policy,
      // which now always runs, would silently apply.
      if (const json::Value* v = pol->find("enabled"); v != nullptr && !v->as_bool()) {
        throw InvalidArgumentError(
            "global.policy: \"enabled\": false is no longer supported, the policy always "
            "runs; delete the global.policy block to get admit-everything prefetching");
      }
      if (const json::Value* v = pol->find("min_value")) p.min_value = v->as_double();
      if (const json::Value* v = pol->find("target_queue_depth")) {
        p.target_queue_depth = v->as_int();
      }
      if (const json::Value* v = pol->find("learn_expiry")) p.learn_expiry = v->as_bool();
      p.validate().throw_if_error();
    }
  }
  config.validate_data_budget().throw_if_error();
  if (const json::Value* sigs = root.find("signatures")) {
    for (const json::Value& entry : sigs->as_array()) {
      SignaturePolicy p;
      p.hash = entry.at("hash").as_string();
      if (const json::Value* v = entry.find("uri")) p.uri = v->as_string();
      if (const json::Value* v = entry.find("prefetch")) p.prefetch = v->as_bool();
      if (const json::Value* v = entry.find("expiration_time_ms")) {
        p.expiration_time =
            v->is_null() ? std::nullopt : std::optional<Duration>(milliseconds(v->as_double()));
      }
      if (const json::Value* v = entry.find("probability")) p.probability = v->as_double();
      if (const json::Value* v = entry.find("add_header")) {
        for (const json::Value& h : v->as_array()) {
          p.add_headers.emplace_back(h.at("name").as_string(), h.at("value").as_string());
        }
      }
      if (const json::Value* v = entry.find("condition")) {
        for (const json::Value& c : v->as_array()) {
          FieldCondition cond;
          cond.path = c.at("path").as_string();
          cond.op = FieldCondition::parse_op(c.at("op").as_string());
          cond.value = c.at("value").as_string();
          p.conditions.push_back(std::move(cond));
        }
      }
      config.set_policy(std::move(p));
    }
  }
  return config;
}

}  // namespace appx::core
