#include "core/scheduler.hpp"

#include <cmath>
#include <iterator>

#include "util/error.hpp"

namespace appx::core {

SignatureStats::PerSig& SignatureStats::sig(std::string_view sig_id) {
  PerSig& per = per_sig_[std::string(sig_id)];
  if (registry_ != nullptr && per.lookups == nullptr) {
    const obs::Labels labels{{"sig", std::string(sig_id)}};
    per.response_time_us =
        &registry_->histogram(obs::labeled("appx_signature_response_time_us", labels));
    per.lookups = &registry_->counter(obs::labeled("appx_signature_lookups_total", labels));
    per.lookup_hits = &registry_->counter(obs::labeled("appx_signature_hits_total", labels));
  }
  return per;
}

void SignatureStats::record_response_time(std::string_view sig_id, double ms) {
  // A non-finite sample would poison the average, and through it the
  // priority order the scheduler's queue depends on.
  if (!std::isfinite(ms)) return;
  PerSig& per = sig(sig_id);
  per.response_time.add(ms);
  if (per.response_time_us != nullptr) {
    per.response_time_us->record(static_cast<std::int64_t>(ms * 1000.0));
  }
}

void SignatureStats::record_lookup(std::string_view sig_id, bool hit) {
  PerSig& per = sig(sig_id);
  per.hits.record(hit);
  if (per.lookups != nullptr) {
    per.lookups->inc();
    if (hit) per.lookup_hits->inc();
  }
}

double SignatureStats::avg_response_time_ms(std::string_view sig_id) const {
  const auto it = per_sig_.find(sig_id);
  if (it == per_sig_.end() || !it->second.response_time.has_value()) return 0;
  return it->second.response_time.value();
}

double SignatureStats::hit_rate(std::string_view sig_id) const {
  const auto it = per_sig_.find(sig_id);
  if (it == per_sig_.end()) return 0.5;
  return it->second.hits.rate();
}

void SignatureStats::persist(ByteWriter& out) const {
  out.u64(per_sig_.size());
  for (const auto& [sig_id, per] : per_sig_) {
    out.str(sig_id);
    out.f64(per.response_time.value());
    out.u64(per.response_time.count());
    out.u64(per.hits.hits());
    out.u64(per.hits.total());
  }
}

void SignatureStats::restore(ByteReader& in, std::uint32_t version) {
  (void)version;  // v1 is the only layout so far
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string sig_id = in.str();
    const double rt = in.f64();
    const std::uint64_t samples = in.u64();
    const std::uint64_t hits = in.u64();
    const std::uint64_t total = in.u64();
    if (!std::isfinite(rt) || rt < 0) {
      throw ParseError("sig_stats: response time of '" + sig_id + "' is not a finite value >= 0");
    }
    if (hits > total) throw ParseError("sig_stats: '" + sig_id + "' has more hits than lookups");
    PerSig& per = sig(sig_id);
    per.response_time.seed(rt, samples);
    per.hits.seed(hits, total);
  }
}

PrefetchScheduler::PrefetchScheduler(Weights weights, std::size_t max_outstanding,
                                     std::size_t max_queued)
    : weights_(weights), max_outstanding_(max_outstanding), max_queued_(max_queued) {}

PrefetchScheduler::~PrefetchScheduler() { bind_metrics({}); }

void PrefetchScheduler::bind_metrics(const Metrics& metrics) {
  gauge_add(metrics_.queued, -static_cast<std::int64_t>(queue_.size()));
  gauge_add(metrics_.outstanding, -static_cast<std::int64_t>(outstanding_));
  metrics_ = metrics;
  gauge_add(metrics_.queued, static_cast<std::int64_t>(queue_.size()));
  gauge_add(metrics_.outstanding, static_cast<std::int64_t>(outstanding_));
}

std::optional<PrefetchJob> PrefetchScheduler::enqueue(PrefetchJob job,
                                                      const SignatureStats& stats) {
  job.priority = weights_.time_weight * stats.avg_response_time_ms(job.sig_id) +
                 weights_.hit_weight * stats.hit_rate(job.sig_id);
  queue_.emplace(std::pair(-job.priority, seq_++), std::move(job));
  if (max_queued_ > 0 && queue_.size() > max_queued_) {
    // Evict the lowest-priority job — the queue's back — rather than the
    // oldest: a long-waiting high-value job survives a burst of low-value
    // arrivals, and an incoming job below everything queued bounces straight
    // out. Net gauge effect of insert-then-evict is zero.
    return std::move(queue_.extract(std::prev(queue_.end())).mapped());
  }
  gauge_add(metrics_.queued, 1);
  return std::nullopt;
}

std::optional<PrefetchJob> PrefetchScheduler::dequeue() {
  if (queue_.empty() || outstanding_ >= max_outstanding_) return std::nullopt;
  auto node = queue_.extract(queue_.begin());
  ++outstanding_;
  gauge_add(metrics_.queued, -1);
  gauge_add(metrics_.outstanding, 1);
  return std::move(node.mapped());
}

void PrefetchScheduler::on_completed() {
  if (outstanding_ > 0) {
    --outstanding_;
    gauge_add(metrics_.outstanding, -1);
  }
  ++completed_;
}

void PrefetchScheduler::on_dropped() {
  if (outstanding_ > 0) {
    --outstanding_;
    gauge_add(metrics_.outstanding, -1);
  }
  ++dropped_;
}

}  // namespace appx::core
