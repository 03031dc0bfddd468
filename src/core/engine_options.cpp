#include "core/engine_options.hpp"

#include <cmath>

#include "core/config.hpp"

namespace appx::core {

util::Error EngineOptions::validate() const {
  if (max_outstanding_prefetches == 0) {
    return util::Error::failure(
        "EngineOptions.max_outstanding_prefetches must be >= 1 (0 would silently "
        "disable prefetching)");
  }
  if (user_idle_timeout && *user_idle_timeout <= 0) {
    return util::Error::failure(
        "EngineOptions.user_idle_timeout must be positive (use nullopt to disable "
        "idle eviction)");
  }
  if (!std::isfinite(scheduler_time_weight) || scheduler_time_weight < 0) {
    return util::Error::failure("EngineOptions.scheduler_time_weight must be finite and >= 0");
  }
  if (!std::isfinite(scheduler_hit_weight) || scheduler_hit_weight < 0) {
    return util::Error::failure("EngineOptions.scheduler_hit_weight must be finite and >= 0");
  }
  if (util::Error err = policy.validate()) return err;
  if (connect_timeout < 0 || io_timeout < 0 || request_deadline < 0) {
    return util::Error::failure(
        "EngineOptions timeouts must be >= 0 (0 disables the corresponding bound)");
  }
  if (prefetch_workers == 0) {
    return util::Error::failure("EngineOptions.prefetch_workers must be >= 1");
  }
  if (listen_backlog < 0) {
    return util::Error::failure(
        "EngineOptions.listen_backlog must be >= 0 (0 = SOMAXCONN, the system "
        "maximum accept-queue depth)");
  }
  if (conn_idle_timeout < 0) {
    return util::Error::failure(
        "EngineOptions.conn_idle_timeout must be >= 0 (0 disables the idle timer)");
  }
  if (upstream_idle_timeout < 0) {
    return util::Error::failure(
        "EngineOptions.upstream_idle_timeout must be >= 0 (0 = pooled connections never "
        "age out)");
  }
  if (reader_limits.max_head_bytes == 0) {
    return util::Error::failure("EngineOptions.reader_limits.max_head_bytes must be >= 1");
  }
  if (trace_ring_capacity == 0) {
    return util::Error::failure("EngineOptions.trace_ring_capacity must be >= 1");
  }
  if (metrics_snapshot_interval <= 0 && !metrics_snapshot_path.empty()) {
    return util::Error::failure(
        "EngineOptions.metrics_snapshot_interval must be positive when snapshots are "
        "enabled");
  }
  if (state_snapshot_interval <= 0 && !state_snapshot_path.empty()) {
    return util::Error::failure(
        "EngineOptions.state_snapshot_interval must be positive when state snapshots "
        "are enabled");
  }
  return util::Error();
}

EngineOptions EngineOptions::from_config(const ProxyConfig& config) {
  EngineOptions options;
  options.max_outstanding_prefetches = config.max_outstanding_prefetches;
  options.max_queued_prefetches = config.max_queued_prefetches;
  options.cache_max_entries = config.cache_max_entries;
  options.cache_max_bytes = config.cache_max_bytes;
  options.max_users = config.max_users;
  options.user_idle_timeout = config.user_idle_timeout;
  options.scheduler_time_weight = config.scheduler_time_weight;
  options.scheduler_hit_weight = config.scheduler_hit_weight;
  options.policy = config.policy;
  return options;
}

}  // namespace appx::core
