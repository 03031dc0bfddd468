// A core::ProxyLike decorator that times every call into the engine from
// outside it.
//
// It forwards each call unchanged — thread_safe() and metrics() included, so
// the server's locking and /appx/metrics behave exactly as with the bare
// engine — and records one EngineSpan per event call (see spans.hpp). Spans
// go to a per-thread buffer, so recording takes no lock on the serving path.
// The request key is hashed after the call returns, outside the timed span.
//
// It also keeps copies of a bounded sample of the (request, response) pairs
// the engine learns from, for the offline layer replay: pairs of users whose
// key is in the sample, observed while `capture_open()` returns true.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/session.hpp"
#include "harness/spans.hpp"
#include "http/message.hpp"

namespace perfbench {

struct CapturedPair {
  std::uint64_t user = 0;
  std::int64_t at_ns = 0;  // when the engine saw the response
  appx::http::Request request;
  appx::http::Response response;
};

class TracingEngine final : public appx::core::ProxyLike {
 public:
  TracingEngine(appx::core::ProxyLike* inner, std::function<bool()> capture_open,
                std::size_t max_captured);
  ~TracingEngine() override;

  appx::core::UserId resolve_user(std::string_view user, appx::SimTime now) override;
  void on_request(appx::core::UserId& user, const appx::http::Request& request,
                  appx::SimTime now, appx::core::Decision* out) override;
  void on_response(appx::core::UserId& user, const appx::http::Request& request,
                   const appx::http::Response& response, appx::SimTime now,
                   appx::core::Decision* out) override;
  void on_prefetch_response(appx::core::UserId& user, const appx::core::PrefetchJob& job,
                            const appx::http::Response& response, appx::SimTime now,
                            double response_time_ms, appx::core::Decision* out) override;
  void on_prefetch_dropped(appx::core::UserId& user, const appx::core::PrefetchJob& job,
                           appx::SimTime now) override;
  void pump(appx::core::UserId& user, appx::SimTime now, appx::core::Decision* out) override;
  bool thread_safe() const override { return inner_->thread_safe(); }

  void snapshot_to(appx::core::SnapshotBuilder& builder) const override {
    inner_->snapshot_to(builder);
  }
  std::size_t restore_from(const appx::core::SnapshotView& view, appx::SimTime now) override {
    return inner_->restore_from(view, now);
  }
  std::vector<std::uint8_t> export_user(std::string_view user) const override {
    return inner_->export_user(user);
  }
  bool import_user(const std::vector<std::uint8_t>& blob, appx::SimTime now) override {
    return inner_->import_user(blob, now);
  }
  const appx::core::ProxyStats& stats() const override { return inner_->stats(); }
  appx::obs::MetricsRegistry* metrics() override { return inner_->metrics(); }

  // Everything recorded so far, merged across threads. Call only once every
  // thread that drives the engine has stopped.
  std::vector<EngineSpan> spans() const;
  std::vector<EmittedJob> emitted_jobs() const;
  std::vector<CapturedPair> captured() const;

  // Users whose pairs the layer replay samples (one in kCaptureEvery).
  static constexpr std::uint64_t kCaptureEvery = 4;

 private:
  struct ThreadLog {
    std::vector<EngineSpan> spans;
    std::vector<EmittedJob> jobs;
    std::vector<CapturedPair> pairs;
  };
  ThreadLog& log();
  void record(SpanKind kind, const appx::core::UserId& user, std::uint64_t key,
              std::int64_t start_ns, std::int64_t end_ns, const appx::core::Decision* out,
              std::size_t jobs_before, double fetch_ms = 0);
  void maybe_capture(const appx::core::UserId& user, const appx::http::Request& request,
                     const appx::http::Response& response);

  appx::core::ProxyLike* inner_;
  std::function<bool()> capture_open_;
  std::size_t max_captured_;
  std::atomic<std::size_t> captured_{0};
  mutable std::mutex logs_mutex_;  // guards logs_ (registration only)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

}  // namespace perfbench
