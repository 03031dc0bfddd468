// Session-oriented engine surface shared by the APPx engine, the sharded
// runtime and the baseline prefetchers.
//
// A front end (live server, simulator testbed) resolves a connection's user
// once — ProxyLike::resolve_user -> UserId — and then drives events through a
// Session without re-hashing strings or touching global engine state:
//
//   core::Session session = engine->session(user, now);
//   core::Decision d = session.on_request(request, now);
//   if (d.served) { ...respond from cache... }
//   else          { ...forward; d = session.on_response(request, resp, now); }
//   issue(d.prefetches);   // jobs ride on the Decision, no separate take call
//
// Every event fills one Decision out-param carrying both the serve/forward
// choice and the prefetch jobs that became issuable, so a sharded engine can
// complete an event under a single shard lock.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "core/user_id.hpp"
#include "http/message.hpp"
#include "util/units.hpp"

namespace appx::obs {
class MetricsRegistry;
}  // namespace appx::obs

namespace appx::core {

struct ProxyStats {
  // Client-facing.
  std::size_t client_requests = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_expired = 0;
  std::size_t forwarded = 0;
  // Prefetching. prefetch_responses counts successful (2xx) responses only;
  // the fleet-wide balance invariant is
  //   prefetch_responses + prefetch_failures + prefetches_dropped == issued.
  std::size_t prefetches_issued = 0;
  std::size_t prefetch_responses = 0;
  std::size_t prefetch_failures = 0;  // non-2xx prefetch responses
  std::size_t skipped_disabled = 0;
  std::size_t skipped_probability = 0;
  std::size_t skipped_condition = 0;
  std::size_t skipped_duplicate = 0;  // already cached and fresh
  std::size_t skipped_refetch = 0;    // already prefetched this client generation
  std::size_t skipped_queue_full = 0;  // evicted from a bounded scheduler queue pre-issue
  // Cost-aware policy (DESIGN.md §5j). Rejections happen before enqueue, so
  // they are "skips" in the balance invariant's terms, broken out by cause.
  std::size_t policy_admitted = 0;        // cleared admission + budget pacing
  std::size_t policy_rejected_value = 0;  // value below the admission threshold
  std::size_t policy_rejected_budget = 0;  // token bucket had no room
  std::size_t forward_cached = 0;     // forwarded responses kept in the cache
  std::size_t prefetches_dropped = 0;  // issued jobs abandoned by the caller
  // Resource-bound enforcement (cache caps, TTL sweeps, idle-user eviction).
  std::size_t evicted_lru = 0;      // cache entries evicted by the LRU bound
  std::size_t evicted_expired = 0;  // cache entries reaped by TTL
  std::size_t users_evicted = 0;    // idle user contexts evicted
  // Data accounting (proxy<->server direction; paper §6.2 data usage).
  Bytes bytes_origin_to_proxy = 0;  // forwarded responses
  Bytes bytes_prefetched = 0;       // prefetch responses
  Bytes bytes_served_from_cache = 0;
  // Wasted prefetches: cache entries that left the cache (evicted, expired,
  // overwritten, or still unused at user teardown) without ever being hit.
  std::size_t prefetch_wasted_entries = 0;
  Bytes prefetch_wasted_bytes = 0;
  // Live cache footprint across all users (gauges, not monotonic).
  std::size_t cache_entries = 0;
  Bytes cache_bytes = 0;
};

// The outcome of one engine event.
struct Decision {
  // Set when the proxy serves from cache; otherwise forward to origin. The
  // response is shared with the cache entry rather than copied (bodies can
  // be hundreds of KB) and stays valid however long the caller holds it.
  std::shared_ptr<const http::Response> served;
  // Prefetch jobs that became issuable as a result of this event (priority
  // order, bounded by the user's outstanding window). The caller owns them
  // and must resolve each exactly once: on_prefetch_response when the fetch
  // completed, on_prefetch_dropped when it was abandoned.
  std::vector<PrefetchJob> prefetches;
};

class Session;
class SnapshotBuilder;
class SnapshotView;

// Shared shape of the proxy engines so any front end can host any of them.
// Implementations: ProxyEngine (one shard), ShardedProxyEngine (N shards,
// thread-safe), LooxyEngine / StaticOnlyEngine (baselines, §7).
class ProxyLike {
 public:
  virtual ~ProxyLike() = default;

  // --- session API ----------------------------------------------------------

  // Intern `user`, creating its state if needed. The returned id stays cheap
  // to route on; if the engine later evicts the user, the next event taking
  // this id by reference re-interns it transparently.
  virtual UserId resolve_user(std::string_view user, SimTime now) = 0;

  // Convenience: resolve + wrap in a Session handle.
  Session session(std::string_view user, SimTime now);

  // A client request arrived. Fills `out->served` on an exact, unexpired
  // cache match (otherwise the caller forwards to the origin) and appends
  // newly issuable prefetch jobs.
  virtual void on_request(UserId& user, const http::Request& request, SimTime now,
                          Decision* out) = 0;

  // The origin answered a forwarded client request: run dynamic learning and
  // surface any prefetches that became ready.
  virtual void on_response(UserId& user, const http::Request& request,
                           const http::Response& response, SimTime now, Decision* out) = 0;

  // A prefetch we issued completed. Caches the response, runs learning on it
  // (chained prefetching, Fig. 3(c)) and surfaces follow-up jobs.
  virtual void on_prefetch_response(UserId& user, const PrefetchJob& job,
                                    const http::Response& response, SimTime now,
                                    double response_time_ms, Decision* out) = 0;

  // A prefetch we issued will never get a response (queue overflow, torn-down
  // connection, an error path that skips on_prefetch_response). Engines
  // tracking outstanding windows must release the slot here.
  virtual void on_prefetch_dropped(UserId& user, const PrefetchJob& job, SimTime now) = 0;

  // Surface prefetch jobs that became issuable outside any event (a freed
  // outstanding-window slot, a baseline's one-time seed list). Front ends
  // that only act on event Decisions may still call this periodically.
  virtual void pump(UserId& user, SimTime now, Decision* out);

  // True when events for different users may be driven concurrently without
  // external locking (ShardedProxyEngine). Single-shard engines and the
  // baselines require the caller to serialise access.
  virtual bool thread_safe() const { return false; }

  // --- durable learned state (DESIGN.md §5k) --------------------------------

  // Append the engine's learned-state sections to a snapshot container.
  // Engines without durable state (the baselines) contribute nothing.
  virtual void snapshot_to(SnapshotBuilder& builder) const { (void)builder; }
  // Merge learned state from a parsed snapshot container; returns the number
  // of user contexts re-created. Absent sections and sections from a newer
  // build leave the matching components cold; `now` re-anchors restored
  // clocks to this process's epoch.
  virtual std::size_t restore_from(const SnapshotView& view, SimTime now) {
    (void)view;
    (void)now;
    return 0;
  }
  // One user's learned state as a standalone snapshot blob (the unit of
  // node-to-node handoff when a cluster drains a node); empty when the user
  // is unknown to this engine.
  virtual std::vector<std::uint8_t> export_user(std::string_view user) const {
    (void)user;
    return {};
  }
  // Merge a blob minted by export_user (possibly on another node / an older
  // build). Returns false when the blob carries no user this engine can
  // adopt; throws SnapshotError subclasses on corrupt input.
  virtual bool import_user(const std::vector<std::uint8_t>& blob, SimTime now) {
    (void)blob;
    (void)now;
    return false;
  }

  // --- introspection --------------------------------------------------------

  virtual const ProxyStats& stats() const = 0;
  // Metrics registry behind stats(), when the engine has one. Baselines that
  // keep a plain ProxyStats return nullptr.
  virtual obs::MetricsRegistry* metrics() { return nullptr; }
};

// A user's handle onto an engine: the resolved UserId plus the engine it
// routes to. Copyable; the id inside is updated in place if the engine had
// evicted and re-interned the user.
class Session {
 public:
  Session() = default;
  Session(ProxyLike* engine, UserId id) : engine_(engine), id_(std::move(id)) {}

  bool valid() const { return engine_ != nullptr && id_.valid(); }
  const UserId& id() const { return id_; }
  ProxyLike* engine() const { return engine_; }

  Decision on_request(const http::Request& request, SimTime now) {
    Decision out;
    engine_->on_request(id_, request, now, &out);
    return out;
  }
  Decision on_response(const http::Request& request, const http::Response& response,
                       SimTime now) {
    Decision out;
    engine_->on_response(id_, request, response, now, &out);
    return out;
  }
  Decision on_prefetch_response(const PrefetchJob& job, const http::Response& response,
                                SimTime now, double response_time_ms) {
    Decision out;
    engine_->on_prefetch_response(id_, job, response, now, response_time_ms, &out);
    return out;
  }
  void on_prefetch_dropped(const PrefetchJob& job, SimTime now) {
    engine_->on_prefetch_dropped(id_, job, now);
  }
  // Jobs that became issuable outside any event on this session.
  std::vector<PrefetchJob> take_prefetches(SimTime now) {
    Decision out;
    engine_->pump(id_, now, &out);
    return std::move(out.prefetches);
  }

 private:
  ProxyLike* engine_ = nullptr;
  UserId id_;
};

}  // namespace appx::core
