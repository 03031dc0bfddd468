// Prefetch priority scheduling (paper §5).
//
// Multiple prefetch requests can be outstanding; the proxy prioritises
// (a) signatures whose transactions take long to complete (prefetching them
// hides the most latency) and (b) signatures with high historical hit rates
// (their prefetched responses actually get used). The priority is the linear
// combination  w_time * avg_response_time_ms + w_hit * hit_rate * scale.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "core/user_id.hpp"
#include "http/message.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "util/byte_io.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace appx::core {

// A prefetch the proxy has decided to issue.
struct PrefetchJob {
  std::string user;  // display name; uid is the routing identity
  UserId uid;        // set when the issuing engine resolved the user
  std::string sig_id;
  http::Request request;
  std::string cache_key;  // canonical identity, computed before add_headers
  double priority = 0;
  SimTime enqueued_at = 0;
};

// Per-signature response time / hit-rate statistics shared by all users.
class SignatureStats {
 public:
  // With a registry, per-signature breakdowns are mirrored into it: each
  // signature gets appx_signature_response_time_us{sig="..."} (histogram),
  // appx_signature_lookups_total{sig="..."} and
  // appx_signature_hits_total{sig="..."}. Registry must outlive this object.
  explicit SignatureStats(obs::MetricsRegistry* registry = nullptr) : registry_(registry) {}

  void record_response_time(std::string_view sig_id, double ms);
  void record_lookup(std::string_view sig_id, bool hit);

  double avg_response_time_ms(std::string_view sig_id) const;  // 0 when unknown
  double hit_rate(std::string_view sig_id) const;              // 0.5 prior

  // Persistence (snapshot section "scheduler.sig_stats", DESIGN.md §5k).
  // restore() merges through sig() so registry bindings are re-resolved in
  // this process rather than trusted from the snapshot. It throws ParseError
  // on a response time that is not finite and >= 0, or on hits > lookups.
  static constexpr std::uint32_t kPersistVersion = 1;
  void persist(ByteWriter& out) const;
  void restore(ByteReader& in, std::uint32_t version);

 private:
  struct PerSig {
    RunningAverage response_time{0.3};
    RatioTracker hits;
    // Resolved once per signature when there is a registry.
    obs::Histogram* response_time_us = nullptr;
    obs::Counter* lookups = nullptr;
    obs::Counter* lookup_hits = nullptr;
  };
  PerSig& sig(std::string_view sig_id);

  std::map<std::string, PerSig, std::less<>> per_sig_;
  obs::MetricsRegistry* registry_ = nullptr;
};

class PrefetchScheduler {
 public:
  struct Weights {
    double time_weight = 1.0;
    // Hit rate is in [0,1]; scale it into the same magnitude as typical
    // response times (ms) so both terms matter.
    double hit_weight = 200.0;
  };

  // Queue-depth gauges shared by every per-user scheduler; a scheduler
  // subtracts its remaining contribution on destruction.
  struct Metrics {
    obs::Gauge* queued = nullptr;
    obs::Gauge* outstanding = nullptr;
  };

  // max_queued bounds the jobs waiting behind the outstanding window;
  // 0 = unbounded. Overflow evicts the lowest-priority job (see enqueue).
  explicit PrefetchScheduler(Weights weights = Weights{1.0, 200.0},
                             std::size_t max_outstanding = 32, std::size_t max_queued = 0);
  ~PrefetchScheduler();
  PrefetchScheduler(const PrefetchScheduler&) = delete;
  PrefetchScheduler& operator=(const PrefetchScheduler&) = delete;

  void bind_metrics(const Metrics& metrics);

  // Compute the job's priority from current stats and queue it. When the
  // queue bound is hit, the *lowest-priority* queued job (possibly the one
  // just inserted; newest among equals) is evicted and returned so the caller
  // can release bookkeeping for it — it was never issued, so it does not
  // count against the responses + failures + dropped == issued invariant.
  std::optional<PrefetchJob> enqueue(PrefetchJob job, const SignatureStats& stats);

  // Highest-priority job if the outstanding window has room.
  std::optional<PrefetchJob> dequeue();

  // Every dequeued job must be resolved exactly once: on_completed() when its
  // response arrived, on_dropped() when the caller abandoned it (queue
  // overflow, connection teardown, an error path that skips the response).
  // A job left unresolved would hold its outstanding-window slot forever and
  // silently throttle prefetching to zero.
  void on_completed();
  void on_dropped();

  std::size_t queued() const { return queue_.size(); }
  std::size_t outstanding() const { return outstanding_; }
  std::size_t completed() const { return completed_; }
  std::size_t dropped() const { return dropped_; }

 private:
  void gauge_add(obs::Gauge* gauge, std::int64_t delta) {
    if (gauge != nullptr && delta != 0) gauge->add(delta);
  }

  Weights weights_;
  Metrics metrics_;
  std::size_t max_outstanding_;
  std::size_t max_queued_;
  std::size_t outstanding_ = 0;
  std::size_t completed_ = 0;
  std::size_t dropped_ = 0;
  // One node per job keyed (-priority, arrival): highest priority first, FIFO
  // among equals; the back is the next eviction. A drained queue holds nothing.
  std::map<std::pair<double, std::uint64_t>, PrefetchJob> queue_;
  std::uint64_t seq_ = 0;
};

}  // namespace appx::core
