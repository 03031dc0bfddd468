#include "apps/client.hpp"

#include <memory>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace appx::apps {

ClientEnv ClientEnv::for_user(const AppSpec& spec, const std::string& user_id) {
  ClientEnv env;
  env.values = spec.env_defaults;
  env.flags = spec.env_flags;
  env.values["cookie"] = "sid_" + short_digest(spec.package + "|" + user_id, 10);
  env.values["device_id"] = "dev_" + short_digest("device|" + user_id, 10);
  return env;
}

AppClient::AppClient(const AppSpec* spec, ClientEnv env, sim::Simulator* sim,
                     Transport transport, double jitter)
    : spec_(spec),
      env_(std::move(env)),
      sim_(sim),
      transport_(std::move(transport)),
      jitter_(jitter),
      rng_(fnv1a(env_.values.contains("cookie") ? env_.values.at("cookie") : "anon")) {
  if (spec == nullptr) throw InvalidArgumentError("AppClient: null spec");
  if (sim == nullptr) throw InvalidArgumentError("AppClient: null simulator");
  if (!transport_) throw InvalidArgumentError("AppClient: null transport");
  if (jitter < 0 || jitter >= 1) throw InvalidArgumentError("AppClient: jitter outside [0,1)");
}

Duration AppClient::jittered(Duration base) {
  if (jitter_ <= 0 || base <= 0) return base;
  return static_cast<Duration>(static_cast<double>(base) *
                               rng_.uniform(1.0 - jitter_, 1.0 + jitter_));
}

const json::Value* AppClient::last_response(const std::string& endpoint_label) const {
  const auto it = responses_.find(endpoint_label);
  return it == responses_.end() ? nullptr : &it->second;
}

std::optional<std::string> AppClient::resolve_dep(const ValueSpec& value,
                                                  std::size_t element_index) const {
  const json::Value* body = last_response(value.dep_endpoint);
  if (body == nullptr) return std::nullopt;
  std::string concrete_path = value.dep_path;
  const std::size_t wild = concrete_path.find("[*]");
  if (wild != std::string::npos) {
    concrete_path.replace(wild, 3,
                          std::string("[").append(std::to_string(element_index)).append("]"));
  }
  const json::Value* node = json::Path(concrete_path).resolve_first(*body);
  if (node == nullptr || node->is_array() || node->is_object()) return std::nullopt;
  return node->scalar_to_string();
}

std::optional<http::Request> AppClient::build_request(const EndpointSpec& ep,
                                                      std::size_t element_index) const {
  http::Request req;
  req.method = ep.method;
  req.uri.scheme = "https";
  req.uri.host = ep.host;
  req.uri.path = ep.path;

  http::FormFields body_fields;
  for (const FieldSpec& f : ep.fields) {
    if (f.conditional && !env_.flags.contains(f.cond_env)) continue;
    std::string value;
    switch (f.value.kind) {
      case ValueSpec::Kind::kConst:
        value = f.value.text;
        break;
      case ValueSpec::Kind::kEnv: {
        const auto it = env_.values.find(f.value.text);
        if (it == env_.values.end()) {
          throw InvalidStateError("AppClient: env value '" + f.value.text +
                                  "' missing for endpoint " + ep.label);
        }
        value = it->second;
        break;
      }
      case ValueSpec::Kind::kDep: {
        const auto resolved = resolve_dep(f.value, element_index);
        if (!resolved) return std::nullopt;
        value = *resolved;
        break;
      }
      case ValueSpec::Kind::kNonce:
        value = "nc_" + short_digest(env_.values.at("cookie") + "|" +
                                     std::to_string(nonce_counter_++), 10);
        break;
    }
    switch (f.loc) {
      case core::FieldLocation::kQuery: req.uri.add_query_param(f.name, value); break;
      case core::FieldLocation::kHeader: req.headers.add(f.name, value); break;
      case core::FieldLocation::kBody: body_fields.emplace_back(f.name, value); break;
    }
  }
  if (!body_fields.empty()) req.set_form_fields(body_fields);
  return req;
}

std::size_t AppClient::available_elements(const EndpointSpec& ep) const {
  for (const FieldSpec* f : ep.dep_fields()) {
    std::string prefix, remainder;
    if (!split_wildcard_path(f->value.dep_path, prefix, remainder)) continue;
    const json::Value* body = last_response(f->value.dep_endpoint);
    if (body == nullptr) return 0;
    const json::Value* list = json::Path(prefix).resolve_first(*body);
    return (list != nullptr && list->is_array()) ? list->size() : 0;
  }
  return 0;
}

bool AppClient::can_run(const std::string& interaction, std::size_t selection) const {
  const Interaction& it = spec_->interaction(interaction);
  std::set<std::string> will_have;
  for (const auto& wave : it.waves) {
    for (const WaveStep& step : wave) {
      const EndpointSpec& ep = spec_->endpoint(step.endpoint);
      for (const FieldSpec* f : ep.dep_fields()) {
        const std::string& pred_label = f->value.dep_endpoint;
        const bool fetched = responses_.contains(pred_label);
        const bool earlier_in_interaction = will_have.contains(pred_label);
        if (!fetched && !earlier_in_interaction) return false;
        std::string prefix, remainder;
        const bool wildcard = split_wildcard_path(f->value.dep_path, prefix, remainder);
        if (wildcard && !step.per_element && fetched && !earlier_in_interaction) {
          // Selection must be within the already-fetched list.
          if (selection >= available_elements(ep)) return false;
        }
        if (wildcard && earlier_in_interaction && !fetched) {
          const EndpointSpec& pred = spec_->endpoint(pred_label);
          if (!step.per_element && selection >= static_cast<std::size_t>(pred.list_count)) {
            return false;
          }
        }
      }
    }
    for (const WaveStep& step : wave) will_have.insert(step.endpoint);
  }
  return true;
}

struct AppClient::RunState {
  const Interaction* interaction = nullptr;
  std::size_t selection = 0;
  std::size_t wave_index = 0;
  SimTime started_at = 0;
  SimTime wave_started_at = 0;
  Duration network = 0;
  std::size_t outstanding = 0;
  InteractionResult result;
  DoneFn done;
};

void AppClient::run_interaction(const std::string& interaction, std::size_t selection,
                                DoneFn done) {
  auto run = std::make_shared<RunState>();
  run->interaction = &spec_->interaction(interaction);
  run->selection = selection;
  run->started_at = sim_->now();
  run->result.interaction = interaction;
  run->done = std::move(done);
  sim_->schedule(jittered(run->interaction->pre_delay), [this, run] { start_wave(run); });
}

void AppClient::start_wave(std::shared_ptr<RunState> run) {
  if (run->wave_index >= run->interaction->waves.size()) {
    // All waves done: render, then report.
    sim_->schedule(jittered(run->interaction->render_delay), [this, run] {
      run->result.total = sim_->now() - run->started_at;
      run->result.network = run->network;
      run->result.processing = run->result.total - run->result.network;
      run->done(run->result);
    });
    return;
  }

  const auto& wave = run->interaction->waves[run->wave_index];
  run->wave_started_at = sim_->now();

  // Materialise every request of the wave up front.
  std::vector<std::pair<const EndpointSpec*, http::Request>> to_send;
  for (const WaveStep& step : wave) {
    const EndpointSpec& ep = spec_->endpoint(step.endpoint);
    if (step.per_element) {
      std::size_t n = available_elements(ep);
      if (step.max_elements > 0) n = std::min(n, static_cast<std::size_t>(step.max_elements));
      for (std::size_t i = 0; i < n; ++i) {
        if (auto req = build_request(ep, i)) to_send.emplace_back(&ep, std::move(*req));
      }
    } else {
      if (auto req = build_request(ep, run->selection)) {
        to_send.emplace_back(&ep, std::move(*req));
      } else {
        log_debug("client") << spec_->name << ": cannot build " << ep.label
                            << " (dependency unavailable)";
        run->result.ok = false;
      }
    }
  }

  if (to_send.empty()) {
    // Nothing issuable in this wave: move on.
    ++run->wave_index;
    start_wave(run);
    return;
  }

  run->outstanding = to_send.size();
  run->result.requests += to_send.size();
  for (auto& [ep, req] : to_send) {
    const std::string label = ep->label;
    const bool opaque = ep->opaque;
    transport_(std::move(req), [this, run, label, opaque](http::Response resp) {
      if (!opaque && resp.ok() && !resp.body.empty()) {
        try {
          responses_[label] = json::parse(resp.body);
        } catch (const ParseError&) {
          log_warn("client") << "unparsable response for " << label;
        }
      }
      if (!resp.ok()) run->result.ok = false;
      if (--run->outstanding == 0) {
        run->network += sim_->now() - run->wave_started_at;
        ++run->wave_index;
        start_wave(run);
      }
    });
  }
}

}  // namespace appx::apps
