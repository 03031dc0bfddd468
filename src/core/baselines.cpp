#include "core/baselines.hpp"

#include <cctype>

#include "core/learning.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace appx::core {

// --- BaselineEngine -------------------------------------------------------------------

BaselineEngine::BaselineEngine(std::optional<Duration> expiration) : expiration_(expiration) {}

void BaselineEngine::seed_user(UserState& state, std::vector<PrefetchJob>* out) {
  (void)state;
  (void)out;
}

void BaselineEngine::learn(UserState& state, const http::Request& request,
                           const http::Response& response, SimTime now,
                           std::vector<PrefetchJob>* out) {
  (void)state;
  (void)request;
  (void)response;
  (void)now;
  (void)out;
}

UserId BaselineEngine::resolve_user(std::string_view user, SimTime now) {
  (void)now;
  auto it = users_.find(user);
  if (it == users_.end()) {
    it = users_.emplace(std::string(user), std::make_unique<UserState>()).first;
    it->second->id = UserId(std::make_shared<const std::string>(user), fnv1a(user),
                            /*shard=*/0, /*slot=*/0, /*generation=*/0);
  }
  return it->second->id;
}

BaselineEngine::UserState& BaselineEngine::state_for(UserId& id, SimTime now) {
  if (!id.valid()) throw InvalidArgumentError("BaselineEngine: unresolved UserId");
  const auto it = users_.find(id.name());
  if (it != users_.end()) return *it->second;
  // Baselines never evict users, so a valid id normally stays resolvable;
  // re-intern defensively for ids minted before a hypothetical reset.
  id = resolve_user(id.name(), now);
  return *users_.find(id.name())->second;
}

void BaselineEngine::issue(UserState& state, std::vector<PrefetchJob> jobs, Decision* out) {
  for (PrefetchJob& job : jobs) {
    job.user = state.id.name();
    job.uid = state.id;
    ++stats_.prefetches_issued;
    out->prefetches.push_back(std::move(job));
  }
}

void BaselineEngine::seed_once(UserState& state, Decision* out) {
  if (state.seeded) return;
  state.seeded = true;
  std::vector<PrefetchJob> jobs;
  seed_user(state, &jobs);
  issue(state, std::move(jobs), out);
}

void BaselineEngine::on_request(UserId& user, const http::Request& request, SimTime now,
                                Decision* out) {
  ++stats_.client_requests;
  UserState& state = state_for(user, now);
  PrefetchCache::Lookup lookup = PrefetchCache::Lookup::kMiss;
  auto cached = state.cache.get(request.cache_key(), now, &lookup);
  if (lookup == PrefetchCache::Lookup::kHit) {
    ++stats_.cache_hits;
    stats_.bytes_served_from_cache += cached->wire_size();
    out->served = std::move(cached);
  } else {
    if (lookup == PrefetchCache::Lookup::kExpired) ++stats_.cache_expired;
    ++stats_.forwarded;
  }
  seed_once(state, out);
}

void BaselineEngine::on_response(UserId& user, const http::Request& request,
                                 const http::Response& response, SimTime now, Decision* out) {
  UserState& state = state_for(user, now);
  stats_.bytes_origin_to_proxy += response.wire_size();
  std::vector<PrefetchJob> jobs;
  learn(state, request, response, now, &jobs);
  issue(state, std::move(jobs), out);
  seed_once(state, out);
}

void BaselineEngine::on_prefetch_response(UserId& user, const PrefetchJob& job,
                                          const http::Response& response, SimTime now,
                                          double response_time_ms, Decision* out) {
  (void)response_time_ms;
  (void)out;
  UserState& state = state_for(user, now);
  stats_.bytes_prefetched += response.wire_size();
  if (!response.ok()) {
    ++stats_.prefetch_failures;
    return;
  }
  ++stats_.prefetch_responses;
  PrefetchCache::Entry entry(std::make_shared<const http::Response>(response));
  entry.sig_id = job.sig_id;
  entry.fetched_at = now;
  if (expiration_) entry.expires_at = now + *expiration_;
  state.cache.put(job.cache_key, std::move(entry), now);
}

void BaselineEngine::on_prefetch_dropped(UserId& user, const PrefetchJob& job, SimTime now) {
  (void)job;
  state_for(user, now);
  ++stats_.prefetches_dropped;
}

void BaselineEngine::pump(UserId& user, SimTime now, Decision* out) {
  seed_once(state_for(user, now), out);
}

// --- URL extraction -----------------------------------------------------------------

std::vector<std::string> extract_urls(std::string_view body) {
  std::vector<std::string> urls;
  std::size_t pos = 0;
  while (true) {
    const std::size_t start = body.find("http", pos);
    if (start == std::string_view::npos) break;
    std::string_view rest = body.substr(start);
    std::size_t scheme_len = 0;
    if (rest.starts_with("https://")) {
      scheme_len = 8;
    } else if (rest.starts_with("http://")) {
      scheme_len = 7;
    } else {
      pos = start + 4;
      continue;
    }
    // Consume until a character that cannot be part of a URL (JSON quotes,
    // whitespace, backslashes).
    std::size_t end = scheme_len;
    while (end < rest.size()) {
      const char c = rest[end];
      if (c == '"' || c == '\'' || c == '\\' || c == '<' || c == '>' ||
          std::isspace(static_cast<unsigned char>(c))) {
        break;
      }
      ++end;
    }
    if (end > scheme_len) urls.emplace_back(rest.substr(0, end));
    pos = start + end;
  }
  return urls;
}

// --- LooxyEngine ----------------------------------------------------------------------

LooxyEngine::LooxyEngine(std::optional<Duration> expiration) : BaselineEngine(expiration) {}

void LooxyEngine::learn(UserState& state, const http::Request& request,
                        const http::Response& response, SimTime now,
                        std::vector<PrefetchJob>* out) {
  (void)request;
  if (!response.ok() || response.body.empty()) return;

  for (const std::string& url : extract_urls(response.body)) {
    if (!state.inflight.insert(url).second) continue;  // already handled
    PrefetchJob job;
    job.sig_id = "looxy.url";
    try {
      job.request.method = "GET";
      job.request.uri = http::Uri::parse(url);
    } catch (const ParseError&) {
      continue;  // malformed embedded URL
    }
    job.cache_key = job.request.cache_key();
    if (state.cache.contains(job.cache_key, now)) continue;
    out->push_back(std::move(job));
  }
}

// --- StaticOnlyEngine --------------------------------------------------------------------

StaticOnlyEngine::StaticOnlyEngine(const SignatureSet* signatures,
                                   std::optional<Duration> expiration)
    : BaselineEngine(expiration), signatures_(signatures) {
  if (signatures == nullptr) throw InvalidArgumentError("StaticOnlyEngine: null signatures");
  // A request is statically complete when an instance with NO bindings at all
  // is ready: no dependency holes, no run-time holes (PALOMA's requirement
  // that "an exact request message be identified during static analysis").
  for (const auto& sig : signatures->all()) {
    RequestInstance instance(sig.get(), {});
    if (instance.ready()) complete_.push_back(instance.materialize());
  }
}

void StaticOnlyEngine::seed_user(UserState& state, std::vector<PrefetchJob>* out) {
  (void)state;
  for (const http::Request& request : complete_) {
    PrefetchJob job;
    const TransactionSignature* sig = signatures_->match_request(request);
    job.sig_id = sig != nullptr ? sig->id : "static";
    job.request = request;
    job.cache_key = request.cache_key();
    out->push_back(std::move(job));
  }
}

}  // namespace appx::core
