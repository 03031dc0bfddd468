#include "harness/tracing_engine.hpp"

#include <chrono>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TracingEngine::TracingEngine(appx::core::ProxyLike* inner, std::function<bool()> capture_open,
                             std::size_t max_captured)
    : inner_(inner), capture_open_(std::move(capture_open)), max_captured_(max_captured) {}

TracingEngine::~TracingEngine() = default;

TracingEngine::ThreadLog& TracingEngine::log() {
  // One engine per process, so a plain thread_local slot is enough.
  thread_local ThreadLog* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->spans.reserve(1 << 14);
    mine = fresh.get();
    const std::lock_guard<std::mutex> lock(logs_mutex_);
    logs_.push_back(std::move(fresh));
  }
  return *mine;
}

void TracingEngine::record(SpanKind kind, const appx::core::UserId& user, std::uint64_t key,
                           std::int64_t start_ns, std::int64_t end_ns,
                           const appx::core::Decision* out, std::size_t jobs_before,
                           double fetch_ms) {
  ThreadLog& l = log();
  EngineSpan span;
  span.kind = kind;
  span.user = user_key(user.name());
  span.key = key;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.fetch_ms = fetch_ms;
  if (out != nullptr) {
    span.served = out->served != nullptr;
    span.jobs = static_cast<std::uint32_t>(out->prefetches.size() - jobs_before);
    for (std::size_t i = jobs_before; i < out->prefetches.size(); ++i) {
      l.jobs.push_back(EmittedJob{span.user, request_key(out->prefetches[i].request), end_ns});
    }
  }
  l.spans.push_back(span);
}

void TracingEngine::maybe_capture(const appx::core::UserId& user,
                                  const appx::http::Request& request,
                                  const appx::http::Response& response) {
  if (user_key(user.name()) % kCaptureEvery != 0 || !capture_open_()) return;
  if (captured_.fetch_add(1, std::memory_order_relaxed) >= max_captured_) return;
  log().pairs.push_back(CapturedPair{user_key(user.name()), now_ns(), request, response});
}

appx::core::UserId TracingEngine::resolve_user(std::string_view user, appx::SimTime now) {
  return inner_->resolve_user(user, now);
}

void TracingEngine::on_request(appx::core::UserId& user, const appx::http::Request& request,
                               appx::SimTime now, appx::core::Decision* out) {
  const std::size_t before = out->prefetches.size();
  const std::int64_t start = now_ns();
  inner_->on_request(user, request, now, out);
  const std::int64_t end = now_ns();
  record(SpanKind::kRequest, user, request_key(request), start, end, out, before);
}

void TracingEngine::on_response(appx::core::UserId& user, const appx::http::Request& request,
                                const appx::http::Response& response, appx::SimTime now,
                                appx::core::Decision* out) {
  const std::size_t before = out->prefetches.size();
  const std::int64_t start = now_ns();
  inner_->on_response(user, request, response, now, out);
  const std::int64_t end = now_ns();
  record(SpanKind::kResponse, user, request_key(request), start, end, out, before);
  maybe_capture(user, request, response);
}

void TracingEngine::on_prefetch_response(appx::core::UserId& user,
                                         const appx::core::PrefetchJob& job,
                                         const appx::http::Response& response,
                                         appx::SimTime now, double response_time_ms,
                                         appx::core::Decision* out) {
  const std::size_t before = out->prefetches.size();
  const std::int64_t start = now_ns();
  inner_->on_prefetch_response(user, job, response, now, response_time_ms, out);
  const std::int64_t end = now_ns();
  record(SpanKind::kPrefetchResponse, user, request_key(job.request), start, end, out, before,
         response_time_ms);
  maybe_capture(user, job.request, response);
}

void TracingEngine::on_prefetch_dropped(appx::core::UserId& user,
                                        const appx::core::PrefetchJob& job, appx::SimTime now) {
  const std::int64_t start = now_ns();
  inner_->on_prefetch_dropped(user, job, now);
  const std::int64_t end = now_ns();
  record(SpanKind::kPrefetchDropped, user, request_key(job.request), start, end, nullptr, 0);
}

void TracingEngine::pump(appx::core::UserId& user, appx::SimTime now,
                         appx::core::Decision* out) {
  const std::size_t before = out->prefetches.size();
  const std::int64_t start = now_ns();
  inner_->pump(user, now, out);
  const std::int64_t end = now_ns();
  record(SpanKind::kPump, user, 0, start, end, out, before);
}

std::vector<EngineSpan> TracingEngine::spans() const {
  const std::lock_guard<std::mutex> lock(logs_mutex_);
  std::vector<EngineSpan> out;
  for (const auto& l : logs_) out.insert(out.end(), l->spans.begin(), l->spans.end());
  return out;
}

std::vector<EmittedJob> TracingEngine::emitted_jobs() const {
  const std::lock_guard<std::mutex> lock(logs_mutex_);
  std::vector<EmittedJob> out;
  for (const auto& l : logs_) out.insert(out.end(), l->jobs.begin(), l->jobs.end());
  return out;
}

std::vector<CapturedPair> TracingEngine::captured() const {
  const std::lock_guard<std::mutex> lock(logs_mutex_);
  std::vector<CapturedPair> out;
  for (const auto& l : logs_) out.insert(out.end(), l->pairs.begin(), l->pairs.end());
  return out;
}

}  // namespace perfbench
