#include "apps/server.hpp"

#include "json/json.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace appx::apps {

OriginServer::OriginServer(const AppSpec* spec) : spec_(spec) {
  if (spec == nullptr) throw InvalidArgumentError("OriginServer: null spec");
}

const EndpointSpec* OriginServer::match(const http::Request& request) const {
  for (const EndpointSpec& ep : spec_->endpoints) {
    if (ep.host == request.uri.host && ep.path == request.uri.path &&
        ep.method == request.method) {
      return &ep;
    }
  }
  return nullptr;
}

std::optional<std::string> OriginServer::seed_of(const EndpointSpec& ep,
                                                 const http::Request& request) {
  if (ep.seed_field.empty()) return std::string{};
  if (const auto q = request.uri.query_param(ep.seed_field)) return *q;
  for (const auto& [name, value] : request.form_fields()) {
    if (name == ep.seed_field) return value;
  }
  return std::nullopt;
}

Duration OriginServer::proc_delay(const http::Request& request) const {
  const EndpointSpec* ep = match(request);
  return ep == nullptr ? Duration{0} : ep->proc_delay;
}

http::Response OriginServer::serve(const http::Request& request) const {
  ++served_;
  const EndpointSpec* ep = match(request);
  if (ep == nullptr) {
    http::Response resp;
    resp.status = 404;
    resp.reason = std::string(http::reason_phrase(404));
    resp.body = R"({"error":"no such endpoint"})";
    return resp;
  }
  const auto seed = seed_of(*ep, request);
  if (!seed) {
    http::Response resp;
    resp.status = 400;
    resp.reason = std::string(http::reason_phrase(400));
    resp.body = R"({"error":"missing seed field )" + ep->seed_field + "\"}";
    return resp;
  }

  if (ep->requires_nonce) {
    std::string nonce;
    if (const auto q = request.uri.query_param("nonce")) nonce = *q;
    for (const auto& [name, value] : request.form_fields()) {
      if (name == "nonce") nonce = value;
    }
    const std::lock_guard<std::mutex> nonce_lock(nonce_mutex_);
    if (nonce.empty() || !seen_nonces_.insert(nonce).second) {
      http::Response resp;
      resp.status = 403;
      resp.reason = std::string(http::reason_phrase(403));
      resp.body = R"({"error":"nonce missing or replayed"})";
      return resp;
    }
  }

  http::Response resp;
  if (ep->opaque) {
    resp.headers.set("Content-Type", "image/jpeg");
    resp.opaque_payload = ep->opaque_size;
    return resp;
  }

  json::Value root{json::Object{}};
  const auto value_at = [&](const ProducesSpec& p, std::size_t index) {
    if (p.kind == ProducesSpec::Kind::kUrl) {
      return p.url_base + derive_value(p.kind, ep->label, *seed, index, epoch_);
    }
    return derive_value(p.kind, ep->label, *seed, index, epoch_);
  };
  for (const ProducesSpec& p : ep->produces) {
    std::string prefix, remainder;
    if (split_wildcard_path(p.path, prefix, remainder)) {
      for (int i = 0; i < ep->list_count; ++i) {
        std::string concrete = prefix + "[" + std::to_string(i) + "]";
        if (!remainder.empty()) concrete += "." + remainder;
        json::set_at(root, json::Path(concrete),
                     json::Value(value_at(p, static_cast<std::size_t>(i))));
      }
    } else {
      json::set_at(root, json::Path(p.path), json::Value(value_at(p, 0)));
    }
  }
  if (ep->json_padding > 0) {
    json::set_at(root, json::Path("_pad"),
                 json::Value(std::string(static_cast<std::size_t>(ep->json_padding), 'x')));
  }
  resp.headers.set("Content-Type", "application/json");
  resp.body = root.dump();
  return resp;
}

}  // namespace appx::apps
