// The acceleration proxy engine (paper §4.5, Fig. 10) — one shard.
//
// Transport-agnostic: the engine consumes observed events (client request,
// origin response, prefetch response) through the session API (core/session
// .hpp) and fills Decisions (serve-from-cache or forward; prefetch jobs to
// issue). The simulator — or a real socket front end — owns the wire.
//
// Per-user isolation: cache entries and learned run-time state are never
// shared across users (paper §2/§5: "prefetched responses are not shared
// across users, and the prototype distinguishes users by IP"). Isolation is
// per entry, not per byte: each user's entry (key, expiry, used flag, LRU
// slot, budget charge) is private, while the immutable response it points at
// is interned per shard by exact content (DESIGN.md §5h Rule 4), so users who
// prefetched identical bytes hold one copy of them.
//
// A ProxyEngine is NOT thread-safe; it is either driven single-threaded or
// wrapped as one shard of a ShardedProxyEngine (core/sharded_proxy.hpp),
// which gives each shard its own mutex. User state lives in a slot table so
// a resolved UserId routes events in O(1); evicting a user recycles its slot
// under a bumped generation (see core/user_id.hpp).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache.hpp"
#include "core/config.hpp"
#include "core/engine_options.hpp"
#include "core/learning.hpp"
#include "core/persist.hpp"
#include "core/scheduler.hpp"
#include "core/session.hpp"
#include "core/signature.hpp"
#include "obs/metrics.hpp"
#include "policy/admission.hpp"
#include "policy/model.hpp"
#include "policy/pacer.hpp"
#include "util/units.hpp"

namespace appx::core {

class ProxyEngine final : public ProxyLike {
 public:
  // `signatures` and `config` must outlive the engine. Runtime caps are
  // snapshotted from `config` via EngineOptions::from_config.
  ProxyEngine(const SignatureSet* signatures, const ProxyConfig* config,
              std::uint64_t seed = 1);
  // Full control: explicit options (validated here), optionally a shared
  // metrics registry (a ShardedProxyEngine passes one registry to all its
  // shards; metric updates are deltas, so contributions aggregate), this
  // engine's shard index (stamped into minted UserIds) and optionally a
  // shared per-app value model (a ShardedProxyEngine passes one model to all
  // shards so signature evidence pools fleet-wide; it must outlive the
  // engine). Without one the engine owns a private model.
  ProxyEngine(const SignatureSet* signatures, const ProxyConfig* config,
              EngineOptions options, obs::MetricsRegistry* registry = nullptr,
              std::uint32_t shard_index = 0,
              policy::SignatureModel* shared_model = nullptr);

  // --- session API (see core/session.hpp for contracts) ---------------------

  UserId resolve_user(std::string_view user, SimTime now) override;
  void on_request(UserId& user, const http::Request& request, SimTime now,
                  Decision* out) override;
  void on_response(UserId& user, const http::Request& request, const http::Response& response,
                   SimTime now, Decision* out) override;
  void on_prefetch_response(UserId& user, const PrefetchJob& job,
                            const http::Response& response, SimTime now,
                            double response_time_ms, Decision* out) override;
  void on_prefetch_dropped(UserId& user, const PrefetchJob& job, SimTime now) override;
  void pump(UserId& user, SimTime now, Decision* out) override;

  // --- durable learned state (DESIGN.md §5k) --------------------------------
  //
  // Sections this engine writes: "users" (per-user learned state: resolved
  // wildcards, dependency-flow instances), "policy.model" (only
  // when the engine owns its value model — with a shared model the owner
  // snapshots it once) and "scheduler.sig_stats/<shard>" (per-shard advisory
  // priority stats). Cache bodies and scheduler queues are deliberately NOT
  // persisted: a restart comes back with a cold cache but warm models, and
  // restored flow instances re-issue their prefetches on the next relevant
  // observation.
  static constexpr std::uint32_t kUsersSectionVersion = 1;
  void snapshot_to(SnapshotBuilder& builder) const override;
  std::size_t restore_from(const SnapshotView& view, SimTime now) override;
  std::vector<std::uint8_t> export_user(std::string_view user) const override;
  bool import_user(const std::vector<std::uint8_t>& blob, SimTime now) override;

  // Sharded-engine plumbing: the wrapper merges every shard's user entries
  // into ONE "users" section (so restore can re-route users across a changed
  // shard layout) and lets each shard keep its own sig-stats section.
  void persist_user_entries(ByteWriter& out) const;
  void restore_user_entry(std::string_view name, ByteReader& entry, std::uint32_t version,
                          SimTime now);
  void persist_sig_stats_to(SnapshotBuilder& builder) const;
  void restore_sig_stats_from(const SnapshotView& view);
  bool owns_sig_model() const { return sig_model_ == &own_sig_model_; }

  // --- introspection --------------------------------------------------------

  // Compatibility snapshot of the metrics registry. Repeated calls refresh
  // the same object, so a held reference stays valid and re-reads the
  // registry on the next stats() call.
  const ProxyStats& stats() const override;

  // The registry behind stats(): every ProxyStats field plus per-signature
  // breakdowns, latency histograms and signature-index effectiveness. Safe to
  // export from another thread (all metric updates are atomic), but metrics
  // derived from engine structures (user count gauge) are only as fresh as
  // the last engine event. Shared with sibling shards when the engine was
  // constructed with an external registry.
  obs::MetricsRegistry* metrics() override { return registry_; }
  const obs::MetricsRegistry* metrics() const { return registry_; }

  const EngineOptions& options() const { return options_; }
  const LearningEngine* learning_for(const std::string& user) const;
  const PrefetchCache* cache_for(const std::string& user) const;
  const ResponseInterner& interner() const { return interner_; }
  // Users resident in THIS shard. Fleet-wide counts come from the
  // appx_proxy_users registry gauge, which every shard maintains by delta.
  std::size_t user_count() const { return users_.size(); }

 private:
  struct UserState {
    UserState(const SignatureSet* signatures, const ProxyConfig& config,
              const EngineOptions& options, obs::Gauge* learning_instances)
        : learning(signatures, &config.host_apps, learning_instances),
          pacer(policy::BudgetPacer::Options{config.data_budget.value_or(0)}),
          cache(PrefetchCache::Limits{options.cache_max_entries, options.cache_max_bytes}),
          scheduler(PrefetchScheduler::Weights{options.scheduler_time_weight,
                                               options.scheduler_hit_weight},
                    options.max_outstanding_prefetches, options.max_queued_prefetches) {}
    UserId id;  // the handle minted for this user (name, shard, slot, gen)
    LearningEngine learning;
    // Declared before the cache: its usage hooks may refund the pacer, and
    // the `wasted` hook fires from the cache destructor.
    policy::BudgetPacer pacer;
    PrefetchCache cache;
    PrefetchScheduler scheduler;
    SimTime last_active = 0;  // for idle-user eviction
    std::set<std::string> inflight;  // cache keys with an outstanding prefetch
    // Cache keys of client requests currently being forwarded: prefetching
    // these would duplicate bytes already on their way to the proxy.
    std::set<std::string> forwarding;
    // Cache keys already prefetched since the user's last client request.
    // Anti-thrash guard for the bounded cache: once eviction can remove a
    // freshly prefetched entry, chained learning would otherwise re-admit it
    // at once, and a cyclic dependency graph would prefetch forever. One
    // attempt per key per client "generation" keeps every chain finite.
    std::set<std::string> prefetched_generation;
  };

  // Slot table: UserIds index into it directly; the generation distinguishes
  // the current occupant from stale handles to an evicted predecessor.
  struct Slot {
    std::uint32_t generation = 0;
    std::unique_ptr<UserState> state;
  };

  // State for a resolved id, touching last_active. Re-interns (and updates
  // `id`) when the user was evicted since the id was minted.
  UserState& state_for(UserId& id, SimTime now);
  // App owning a signature (for the per-app value model); empty if unknown.
  std::string_view app_of(std::string_view sig_id) const;
  // One `str name | u64 len | payload` user entry (snapshot + handoff unit).
  void persist_user_entry(const std::string& name, const UserState& state,
                          ByteWriter& out) const;
  void release_slot(std::uint32_t slot);
  void evict_idle_users(SimTime now, std::uint32_t keep_slot);
  void admit_prefetches(UserState& state, std::vector<ReadyPrefetch> ready, SimTime now);
  // Move issuable jobs off the scheduler onto the Decision, stamping identity.
  void drain_scheduler(UserState& state, Decision* out);

  // Registry metrics resolved once at construction; hot paths bump these
  // pointers and never touch the registry lock. All updates are increments /
  // deltas so shards sharing one registry aggregate instead of clobbering.
  struct Instruments {
    obs::Counter* client_requests = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_expired = nullptr;
    obs::Counter* forwarded = nullptr;
    obs::Counter* prefetches_issued = nullptr;
    obs::Counter* prefetch_responses = nullptr;
    obs::Counter* prefetch_failures = nullptr;
    obs::Counter* skipped_disabled = nullptr;
    obs::Counter* skipped_probability = nullptr;
    obs::Counter* skipped_condition = nullptr;
    obs::Counter* skipped_duplicate = nullptr;
    obs::Counter* skipped_refetch = nullptr;
    obs::Counter* skipped_queue_full = nullptr;
    obs::Counter* policy_admitted = nullptr;
    obs::Counter* policy_rejected_value = nullptr;
    obs::Counter* policy_rejected_budget = nullptr;
    obs::Counter* wasted_entries = nullptr;
    obs::Counter* wasted_bytes = nullptr;
    obs::Counter* forward_cached = nullptr;
    obs::Counter* prefetches_dropped = nullptr;
    obs::Counter* evicted_lru = nullptr;
    obs::Counter* evicted_expired = nullptr;
    obs::Counter* users_evicted = nullptr;
    obs::Counter* bytes_origin_to_proxy = nullptr;
    obs::Counter* bytes_prefetched = nullptr;
    obs::Counter* bytes_served_from_cache = nullptr;
    obs::Gauge* cache_entries = nullptr;
    obs::Gauge* cache_bytes = nullptr;
    obs::Gauge* learning_instances = nullptr;
    obs::Gauge* users = nullptr;
    obs::Gauge* prefetch_queued = nullptr;
    obs::Gauge* prefetch_outstanding = nullptr;
    // Admission threshold in micro-units (gauges are integral): the exported
    // value is threshold(ms saved per KB) × 1e6.
    obs::Gauge* policy_threshold = nullptr;
    obs::Histogram* prefetch_response_time_us = nullptr;
  };

  const SignatureSet* signatures_;
  const ProxyConfig* config_;
  EngineOptions options_;
  std::vector<std::string> ignored_headers_;  // config add_header names
  // Reused cache-key buffer (DESIGN.md §5h): engine events are serialized
  // per instance (external mutex, or per-shard mutex when sharded), so the
  // hit path renders its lookup key without allocating.
  std::string key_scratch_;
  std::uint32_t shard_index_ = 0;
  std::uint64_t seed_;
  // Cost-aware policy state (DESIGN.md §5j), keyed per app and possibly
  // shared with sibling shards (see the constructor). Must be declared before
  // slots_: per-user cache destructors fire waste hooks into the model.
  policy::SignatureModel own_sig_model_;
  policy::SignatureModel* sig_model_ = nullptr;
  policy::AdmissionController admission_;
  // Backs registry_ when no external registry was supplied. Must outlive
  // slots_: per-user caches and schedulers hold raw pointers into the
  // registry and give back their gauge contributions on destruction.
  obs::MetricsRegistry own_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  Instruments inst_;
  // One resident copy per distinct prefetched response across this shard's
  // users. Holds only weak references, so declaration order is free.
  ResponseInterner interner_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::map<std::string, std::uint32_t, std::less<>> users_;  // name -> slot
  SignatureStats sig_stats_;
  mutable ProxyStats stats_view_;
};

}  // namespace appx::core
