#include "core/proxy.hpp"

#include <algorithm>

#include "core/signature_index.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace appx::core {

ProxyEngine::ProxyEngine(const SignatureSet* signatures, const ProxyConfig* config,
                         std::uint64_t seed)
    : ProxyEngine(signatures, config,
                  [&] {
                    if (config == nullptr) throw InvalidArgumentError("ProxyEngine: null config");
                    EngineOptions options = EngineOptions::from_config(*config);
                    options.seed = seed;
                    return options;
                  }()) {}

ProxyEngine::ProxyEngine(const SignatureSet* signatures, const ProxyConfig* config,
                         EngineOptions options, obs::MetricsRegistry* registry,
                         std::uint32_t shard_index, policy::SignatureModel* shared_model)
    : signatures_(signatures),
      config_(config),
      options_(std::move(options)),
      shard_index_(shard_index),
      seed_(options_.seed),
      sig_model_(shared_model != nullptr ? shared_model : &own_sig_model_),
      admission_(options_.policy),
      registry_(registry != nullptr ? registry : &own_registry_),
      sig_stats_(registry_) {
  if (signatures == nullptr) throw InvalidArgumentError("ProxyEngine: null signature set");
  if (config == nullptr) throw InvalidArgumentError("ProxyEngine: null config");
  config->validate_data_budget().throw_if_error();
  options_.validate().throw_if_error();
  ignored_headers_ = config->all_added_header_names();

  obs::MetricsRegistry& reg = *registry_;
  inst_.client_requests = &reg.counter("appx_proxy_client_requests_total");
  inst_.cache_hits = &reg.counter("appx_proxy_cache_hits_total");
  inst_.cache_expired = &reg.counter("appx_proxy_cache_expired_total");
  inst_.forwarded = &reg.counter("appx_proxy_forwarded_total");
  inst_.prefetches_issued = &reg.counter("appx_prefetch_issued_total");
  inst_.prefetch_responses = &reg.counter("appx_prefetch_responses_total");
  inst_.prefetch_failures = &reg.counter("appx_prefetch_failures_total");
  const auto skipped = [&](const char* reason) {
    return &reg.counter(obs::labeled("appx_prefetch_skipped_total", {{"reason", reason}}));
  };
  inst_.skipped_disabled = skipped("disabled");
  inst_.skipped_probability = skipped("probability");
  inst_.skipped_condition = skipped("condition");
  inst_.skipped_duplicate = skipped("duplicate");
  inst_.skipped_refetch = skipped("refetch");
  inst_.skipped_queue_full = skipped("queue_full");
  inst_.policy_admitted = &reg.counter("appx_policy_admitted_total");
  inst_.policy_rejected_value =
      &reg.counter(obs::labeled("appx_policy_rejected_total", {{"reason", "value"}}));
  inst_.policy_rejected_budget =
      &reg.counter(obs::labeled("appx_policy_rejected_total", {{"reason", "budget"}}));
  inst_.wasted_entries = &reg.counter("appx_prefetch_wasted_entries_total");
  inst_.wasted_bytes = &reg.counter("appx_prefetch_wasted_bytes_total");
  inst_.forward_cached = &reg.counter("appx_proxy_forward_cached_total");
  inst_.prefetches_dropped = &reg.counter("appx_prefetch_dropped_total");
  inst_.evicted_lru =
      &reg.counter(obs::labeled("appx_cache_evicted_total", {{"cause", "lru"}}));
  inst_.evicted_expired =
      &reg.counter(obs::labeled("appx_cache_evicted_total", {{"cause", "expired"}}));
  inst_.users_evicted = &reg.counter("appx_proxy_users_evicted_total");
  inst_.bytes_origin_to_proxy = &reg.counter("appx_proxy_origin_bytes_total");
  inst_.bytes_prefetched = &reg.counter("appx_prefetch_bytes_total");
  inst_.bytes_served_from_cache = &reg.counter("appx_proxy_cache_served_bytes_total");
  inst_.cache_entries = &reg.gauge("appx_cache_entries");
  inst_.cache_bytes = &reg.gauge("appx_cache_bytes");
  inst_.learning_instances = &reg.gauge("appx_learning_instances");
  interner_.bind_metrics(ResponseInterner::Metrics{&reg.counter("appx_cache_shared_total")});
  inst_.users = &reg.gauge("appx_proxy_users");
  inst_.prefetch_queued = &reg.gauge("appx_prefetch_queue_depth");
  inst_.prefetch_outstanding = &reg.gauge("appx_prefetch_outstanding");
  inst_.policy_threshold = &reg.gauge("appx_policy_threshold");
  inst_.prefetch_response_time_us = &reg.histogram("appx_prefetch_response_time_us");

  // Build the dispatch index now: export callbacks may sample its totals from
  // a scrape thread, and a lazy build on first match() would race with it.
  const SignatureIndex& index = signatures_->index();
  (void)index;
  // Shards sharing a registry each register these callbacks against their own
  // signature-set copy (last registration wins); a ShardedProxyEngine then
  // overwrites them with fleet-wide sums.
  reg.gauge_callback("appx_sigindex_lookups_total",
                     [this] { return signatures_->index().totals().lookups; });
  reg.gauge_callback("appx_sigindex_candidates_total",
                     [this] { return signatures_->index().totals().candidates; });
  reg.gauge_callback("appx_sigindex_confirmed_total",
                     [this] { return signatures_->index().totals().confirmed; });
  reg.gauge_callback("appx_cache_resident_bytes", [this] { return interner_.resident_bytes(); });
}

UserId ProxyEngine::resolve_user(std::string_view user, SimTime now) {
  const auto it = users_.find(user);
  if (it != users_.end()) {
    UserState& state = *slots_[it->second].state;
    state.last_active = now;
    return state.id;
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.state = std::make_unique<UserState>(signatures_, *config_, options_, inst_.learning_instances);
  s.state->cache.bind_metrics(PrefetchCache::Metrics{
      inst_.evicted_lru, inst_.evicted_expired, inst_.cache_entries, inst_.cache_bytes});
  // Outcome hooks feed the policy value model and the waste accounting. They
  // capture the engine and the user state by pointer; both outlive the cache
  // (the engine by member order, the state because the pacer is declared
  // before the cache inside UserState).
  UserState* state_ptr = s.state.get();
  s.state->cache.set_usage_hooks(PrefetchCache::UsageHooks{
      [this, state_ptr](std::string_view sig_id, Bytes bytes) {
        state_ptr->pacer.refund_hit(bytes);
        if (!sig_id.empty()) sig_model_->on_first_use(app_of(sig_id), sig_id);
      },
      [this](std::string_view sig_id, Bytes bytes) {
        inst_.wasted_entries->inc();
        inst_.wasted_bytes->add(bytes);
        if (!sig_id.empty()) sig_model_->on_wasted(app_of(sig_id), sig_id, bytes);
      }});
  s.state->scheduler.bind_metrics(
      PrefetchScheduler::Metrics{inst_.prefetch_queued, inst_.prefetch_outstanding});
  s.state->last_active = now;
  s.state->id = UserId(std::make_shared<const std::string>(user), fnv1a(user), shard_index_,
                       slot, s.generation);
  users_.emplace(std::string(user), slot);
  // Delta, not set(): shards sharing a registry sum their populations.
  inst_.users->add(1);
  // New arrivals pay the bookkeeping cost: reap idle users (and enforce the
  // hard cap) only when the user set actually grows, keeping the hot
  // request path O(log n).
  evict_idle_users(now, slot);
  return s.state->id;
}

ProxyEngine::UserState& ProxyEngine::state_for(UserId& id, SimTime now) {
  if (!id.valid()) throw InvalidArgumentError("ProxyEngine: unresolved UserId");
  if (id.slot() < slots_.size() && slots_[id.slot()].generation == id.generation() &&
      slots_[id.slot()].state != nullptr) {
    UserState& state = *slots_[id.slot()].state;
    state.last_active = now;
    return state;
  }
  // The user was evicted after the caller minted its id (idle sweep or the
  // max_users cap): re-intern under a fresh slot/generation and repair the
  // caller's handle in place.
  id = resolve_user(id.name(), now);
  return *slots_[id.slot()].state;
}

void ProxyEngine::release_slot(std::uint32_t slot) {
  slots_[slot].state.reset();
  ++slots_[slot].generation;  // invalidate outstanding UserIds for this slot
  free_slots_.push_back(slot);
  inst_.users->sub(1);
  inst_.users_evicted->inc();
}

void ProxyEngine::evict_idle_users(SimTime now, std::uint32_t keep_slot) {
  if (options_.user_idle_timeout) {
    for (auto it = users_.begin(); it != users_.end();) {
      const std::uint32_t slot = it->second;
      if (slot != keep_slot &&
          now - slots_[slot].state->last_active >= *options_.user_idle_timeout) {
        release_slot(slot);
        it = users_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Still above the cap (a burst of genuinely active users): evict the
  // least-recently-active regardless of the idle timeout so users_ stays
  // bounded no matter the workload.
  while (options_.max_users > 0 && users_.size() > options_.max_users) {
    auto victim = users_.end();
    for (auto it = users_.begin(); it != users_.end(); ++it) {
      if (it->second == keep_slot) continue;
      if (victim == users_.end() ||
          slots_[it->second].state->last_active < slots_[victim->second].state->last_active) {
        victim = it;
      }
    }
    if (victim == users_.end()) break;  // only the new arrival is left
    release_slot(victim->second);
    users_.erase(victim);
  }
}

void ProxyEngine::drain_scheduler(UserState& state, Decision* out) {
  while (auto job = state.scheduler.dequeue()) {
    job->user = state.id.name();
    job->uid = state.id;
    inst_.prefetches_issued->inc();
    out->prefetches.push_back(std::move(*job));
  }
}

void ProxyEngine::on_request(UserId& user, const http::Request& request, SimTime now,
                             Decision* out) {
  inst_.client_requests->inc();
  UserState& state = state_for(user, now);
  // New client activity opens a fresh prefetch generation: keys evicted since
  // their last prefetch become eligible again.
  state.prefetched_generation.clear();

  request.cache_key_into(key_scratch_, ignored_headers_);
  const std::string& key = key_scratch_;
  PrefetchCache::Lookup lookup = PrefetchCache::Lookup::kMiss;
  auto cached = state.cache.get(key, now, &lookup);

  // Record the hit/miss against the signature so the scheduler's hit-rate
  // prioritisation learns which prefetches pay off.
  const TransactionSignature* sig =
      signatures_->match_request(request, config_->app_for_host(request.uri.host));
  if (sig != nullptr && signatures_->is_successor(sig->id)) {
    sig_stats_.record_lookup(sig->id, lookup == PrefetchCache::Lookup::kHit);
  }

  if (lookup == PrefetchCache::Lookup::kHit) {
    inst_.cache_hits->inc();
    inst_.bytes_served_from_cache->add(cached->wire_size());
    out->served = std::move(cached);  // shares the cache entry, no body copy
  } else {
    if (lookup == PrefetchCache::Lookup::kExpired) inst_.cache_expired->inc();
    inst_.forwarded->inc();
    state.forwarding.insert(key);
  }
  drain_scheduler(state, out);
}

void ProxyEngine::on_response(UserId& user, const http::Request& request,
                              const http::Response& response, SimTime now, Decision* out) {
  UserState& state = state_for(user, now);
  inst_.bytes_origin_to_proxy->add(response.wire_size());
  request.cache_key_into(key_scratch_, ignored_headers_);
  state.forwarding.erase(key_scratch_);

  admit_prefetches(state, state.learning.observe(request, response), now);
  drain_scheduler(state, out);
}

void ProxyEngine::on_prefetch_response(UserId& user, const PrefetchJob& job,
                                       const http::Response& response, SimTime now,
                                       double response_time_ms, Decision* out) {
  UserState& state = state_for(user, now);
  state.scheduler.on_completed();
  state.inflight.erase(job.cache_key);
  inst_.bytes_prefetched->add(response.wire_size());
  inst_.prefetch_response_time_us->record(static_cast<std::int64_t>(response_time_ms * 1000.0));
  // Actual wire bytes are charged in full; the entry's first cache hit will
  // refund part of them (see the cache usage hooks).
  state.pacer.charge(response.wire_size(), now);
  sig_stats_.record_response_time(job.sig_id, response_time_ms);

  if (!response.ok()) {
    // Failures are NOT counted as responses: fleet-wide the accounting is
    // prefetch_responses + prefetch_failures + prefetches_dropped == issued.
    inst_.prefetch_failures->inc();
    log_debug("proxy") << "prefetch for " << job.sig_id << " failed with status "
                       << response.status;
    drain_scheduler(state, out);
    return;
  }
  inst_.prefetch_responses->inc();

  // One body hash serves both the content interner and learned expiry.
  const std::uint64_t body_hash = hash_combine(
      fnv1a(response.body.view()), static_cast<std::uint64_t>(response.opaque_payload));
  PrefetchCache::Entry entry(interner_.intern(response, body_hash));
  entry.sig_id = job.sig_id;
  entry.fetched_at = now;
  auto expiry = config_->expiration(job.sig_id);
  const std::string_view app = app_of(job.sig_id);
  sig_model_->on_prefetched(app, job.sig_id, response.wire_size(), response_time_ms);
  if (options_.policy.learn_expiry) {
    // One content sample per cached prefetch: a same-key re-fetch whose body
    // changed refines this signature's TTL online (§4.3's probing, continued
    // at run time).
    sig_model_->observe_content(app, job.sig_id, fnv1a(job.cache_key), body_hash, now);
    if (const auto learned =
            sig_model_->learned_expiry(app, job.sig_id, policy::kMinLearnedExpiry)) {
      expiry = expiry ? std::min(*expiry, *learned) : *learned;
    }
  }
  if (expiry) entry.expires_at = now + *expiry;
  state.cache.put(job.cache_key, std::move(entry), now);

  // Chained prefetching: treat the prefetched transaction as an observed one
  // so successors of this signature can become ready in turn.
  admit_prefetches(state, state.learning.observe(job.request, response), now);
  drain_scheduler(state, out);
}

void ProxyEngine::on_prefetch_dropped(UserId& user, const PrefetchJob& job, SimTime now) {
  UserState& state = state_for(user, now);
  state.scheduler.on_dropped();
  state.inflight.erase(job.cache_key);
  inst_.prefetches_dropped->inc();
}

void ProxyEngine::pump(UserId& user, SimTime now, Decision* out) {
  drain_scheduler(state_for(user, now), out);
}

void ProxyEngine::admit_prefetches(UserState& state, std::vector<ReadyPrefetch> ready,
                                   SimTime now) {
  if (!ready.empty()) {
    // One load-feedback tick per admission batch: the adaptive threshold
    // reads fleet-wide queue pressure (queued + outstanding) and the
    // dropped-after-enqueue counter, so overload raises the admission bar
    // before jobs pile up behind it.
    admission_.observe_load(inst_.prefetch_queued->value() + inst_.prefetch_outstanding->value(),
                            inst_.prefetches_dropped->value());
    // set(), not a delta: shards sharing a registry export a representative
    // threshold rather than a meaningless sum.
    inst_.policy_threshold->set(
        static_cast<std::int64_t>(admission_.threshold() * 1e6));
  }
  for (ReadyPrefetch& rp : ready) {
    const std::string& sig_id = rp.signature->id;

    if (!config_->prefetch_enabled(sig_id)) {
      inst_.skipped_disabled->inc();
      continue;
    }
    if (const auto* conditions = config_->conditions(sig_id)) {
      const bool pass = std::all_of(
          conditions->begin(), conditions->end(),
          [&](const FieldCondition& c) { return c.evaluate(*rp.predecessor_body); });
      if (!pass) {
        inst_.skipped_condition->inc();
        continue;
      }
    }
    // Value-based admission + budget pacing (DESIGN.md §5j): issue only when
    // the expected saving per byte clears the adaptive threshold and the
    // token bucket has room for the expected size.
    const policy::Estimate estimate = sig_model_->estimate(rp.signature->app, sig_id);
    if (!admission_.admit(estimate)) {
      inst_.policy_rejected_value->inc();
      continue;
    }
    if (!state.pacer.allows(static_cast<Bytes>(estimate.bytes), now)) {
      inst_.policy_rejected_budget->inc();
      continue;
    }

    PrefetchJob job;
    job.sig_id = sig_id;
    job.cache_key = rp.request.cache_key(ignored_headers_);
    // Probabilistic prefetching (Fig. 9 / Fig. 17). The coin is deterministic
    // per request identity: ready instances are re-emitted on every relevant
    // observation, and re-flipping would let every instance eventually win.
    const double probability = config_->probability(sig_id);
    if (probability < 1.0) {
      const std::uint64_t h = hash_combine(fnv1a(job.cache_key), seed_);
      const double coin = static_cast<double>(h >> 11) * 0x1.0p-53;
      if (coin >= probability) {
        inst_.skipped_probability->inc();
        continue;
      }
    }
    if (state.cache.contains(job.cache_key, now) || state.inflight.contains(job.cache_key) ||
        state.forwarding.contains(job.cache_key)) {
      inst_.skipped_duplicate->inc();
      continue;
    }
    if (!state.prefetched_generation.insert(job.cache_key).second) {
      // Already attempted since the last client request; re-admitting (after
      // an eviction under cache pressure) would let cyclic dependency chains
      // prefetch without end.
      inst_.skipped_refetch->inc();
      continue;
    }
    state.inflight.insert(job.cache_key);
    job.request = std::move(rp.request);
    for (const auto& [name, value] : config_->added_headers(sig_id)) {
      job.request.headers.add(name, value);
    }
    job.enqueued_at = now;
    inst_.policy_admitted->inc();
    // Issue-time feedback: the batch's own admissions lower p_use for
    // signatures with no proven uses, so one fan-out burst self-limits.
    sig_model_->on_issued(rp.signature->app, sig_id);
    if (auto evicted = state.scheduler.enqueue(std::move(job), sig_stats_)) {
      // The bounded queue shed its lowest-priority job before issue: release
      // its bookkeeping. Not a drop — it never counted as issued.
      state.inflight.erase(evicted->cache_key);
      inst_.skipped_queue_full->inc();
    }
  }
}

const ProxyStats& ProxyEngine::stats() const {
  // Refresh the compatibility view in place: old references observe the
  // update on the next stats() call.
  const auto count = [](const obs::Counter* c) {
    return static_cast<std::size_t>(c->value());
  };
  ProxyStats& s = stats_view_;
  s.client_requests = count(inst_.client_requests);
  s.cache_hits = count(inst_.cache_hits);
  s.cache_expired = count(inst_.cache_expired);
  s.forwarded = count(inst_.forwarded);
  s.prefetches_issued = count(inst_.prefetches_issued);
  s.prefetch_responses = count(inst_.prefetch_responses);
  s.prefetch_failures = count(inst_.prefetch_failures);
  s.skipped_disabled = count(inst_.skipped_disabled);
  s.skipped_probability = count(inst_.skipped_probability);
  s.skipped_condition = count(inst_.skipped_condition);
  s.skipped_duplicate = count(inst_.skipped_duplicate);
  s.skipped_refetch = count(inst_.skipped_refetch);
  s.skipped_queue_full = count(inst_.skipped_queue_full);
  s.policy_admitted = count(inst_.policy_admitted);
  s.policy_rejected_value = count(inst_.policy_rejected_value);
  s.policy_rejected_budget = count(inst_.policy_rejected_budget);
  s.forward_cached = count(inst_.forward_cached);
  s.prefetches_dropped = count(inst_.prefetches_dropped);
  s.evicted_lru = count(inst_.evicted_lru);
  s.evicted_expired = count(inst_.evicted_expired);
  s.users_evicted = count(inst_.users_evicted);
  s.bytes_origin_to_proxy = inst_.bytes_origin_to_proxy->value();
  s.bytes_prefetched = inst_.bytes_prefetched->value();
  s.bytes_served_from_cache = inst_.bytes_served_from_cache->value();
  s.prefetch_wasted_entries = count(inst_.wasted_entries);
  s.prefetch_wasted_bytes = inst_.wasted_bytes->value();
  s.cache_entries = static_cast<std::size_t>(inst_.cache_entries->value());
  s.cache_bytes = inst_.cache_bytes->value();
  return stats_view_;
}

// --- durable learned state (DESIGN.md §5k) -----------------------------------

std::string_view ProxyEngine::app_of(std::string_view sig_id) const {
  const TransactionSignature* sig = signatures_->find(sig_id);
  return sig == nullptr ? std::string_view{} : std::string_view(sig->app);
}

void ProxyEngine::persist_user_entry(const std::string& name, const UserState& state,
                                     ByteWriter& out) const {
  out.str(name);
  ByteWriter payload;
  // Was the legacy budget cliff's spend; kept as 0 so "users" stays v1.
  payload.u64(0);
  // Each learning facet is framed with its own version + length so a future
  // facet revision can evolve without bumping the "users" section framing.
  ByteWriter wildcards;
  state.learning.persist_wildcards(wildcards);
  payload.u32(LearningEngine::kWildcardsPersistVersion);
  payload.u64(wildcards.size());
  payload.raw(wildcards.data().data(), wildcards.size());
  ByteWriter flows;
  state.learning.persist_flows(flows);
  payload.u32(LearningEngine::kFlowsPersistVersion);
  payload.u64(flows.size());
  payload.raw(flows.data().data(), flows.size());
  out.u64(payload.size());
  out.raw(payload.data().data(), payload.size());
}

void ProxyEngine::persist_user_entries(ByteWriter& out) const {
  for (const auto& [name, slot] : users_) {
    persist_user_entry(name, *slots_[slot].state, out);
  }
}

void ProxyEngine::restore_user_entry(std::string_view name, ByteReader& entry,
                                     std::uint32_t version, SimTime now) {
  (void)version;  // "users" v1 is the only framing so far
  UserId id = resolve_user(name, now);
  UserState& state = *slots_[id.slot()].state;
  (void)entry.u64();  // the legacy budget cliff's spend ("users" v1 framing)
  const std::uint32_t wildcards_version = entry.u32();
  const std::uint64_t wildcards_len = entry.u64();
  const std::uint8_t* wildcards_data = entry.cursor();
  entry.skip(wildcards_len);
  if (wildcards_version <= LearningEngine::kWildcardsPersistVersion) {
    ByteReader in(wildcards_data, wildcards_len);
    state.learning.restore_wildcards(in, wildcards_version);
  }
  const std::uint32_t flows_version = entry.u32();
  const std::uint64_t flows_len = entry.u64();
  const std::uint8_t* flows_data = entry.cursor();
  entry.skip(flows_len);
  if (flows_version <= LearningEngine::kFlowsPersistVersion) {
    ByteReader in(flows_data, flows_len);
    state.learning.restore_flows(in, flows_version);
  }
}

void ProxyEngine::persist_sig_stats_to(SnapshotBuilder& builder) const {
  ByteWriter payload;
  sig_stats_.persist(payload);
  builder.add_raw("scheduler.sig_stats/" + std::to_string(shard_index_),
                  SignatureStats::kPersistVersion, payload);
}

void ProxyEngine::restore_sig_stats_from(const SnapshotView& view) {
  const std::string name = "scheduler.sig_stats/" + std::to_string(shard_index_);
  const SnapshotView::Section* section = view.find(name);
  if (section == nullptr || section->version > SignatureStats::kPersistVersion) return;
  ByteReader in(section->data, section->size);
  sig_stats_.restore(in, section->version);
}

void ProxyEngine::snapshot_to(SnapshotBuilder& builder) const {
  ByteWriter users;
  users.u32(static_cast<std::uint32_t>(users_.size()));
  persist_user_entries(users);
  builder.add_raw("users", kUsersSectionVersion, users);
  if (owns_sig_model()) {
    ByteWriter model;
    own_sig_model_.persist(model);
    builder.add_raw("policy.model", policy::SignatureModel::kPersistVersion, model);
  }
  persist_sig_stats_to(builder);
}

std::size_t ProxyEngine::restore_from(const SnapshotView& view, SimTime now) {
  std::size_t restored = 0;
  const SnapshotView::Section* users = view.find("users");
  if (users != nullptr && users->version <= kUsersSectionVersion) {
    ByteReader in(users->data, users->size);
    const std::uint32_t count = in.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string name = in.str();
      const std::uint64_t len = in.u64();
      const std::uint8_t* data = in.cursor();
      in.skip(len);
      ByteReader entry(data, len);
      restore_user_entry(name, entry, users->version, now);
      ++restored;
    }
  }
  if (owns_sig_model()) {
    const SnapshotView::Section* model = view.find("policy.model");
    if (model != nullptr && model->version <= policy::SignatureModel::kPersistVersion) {
      ByteReader in(model->data, model->size);
      own_sig_model_.restore(in, model->version, now);
    }
  }
  restore_sig_stats_from(view);
  return restored;
}

std::vector<std::uint8_t> ProxyEngine::export_user(std::string_view user) const {
  const auto it = users_.find(user);
  if (it == users_.end()) return {};
  ByteWriter entry;
  persist_user_entry(it->first, *slots_[it->second].state, entry);
  SnapshotBuilder builder;
  builder.add_raw("user", kUsersSectionVersion, entry);
  return builder.finish();
}

bool ProxyEngine::import_user(const std::vector<std::uint8_t>& blob, SimTime now) {
  const SnapshotView view(blob);
  const SnapshotView::Section* section = view.find("user");
  if (section == nullptr || section->version > kUsersSectionVersion) return false;
  ByteReader in(section->data, section->size);
  const std::string name = in.str();
  const std::uint64_t len = in.u64();
  const std::uint8_t* data = in.cursor();
  in.skip(len);
  ByteReader entry(data, len);
  restore_user_entry(name, entry, section->version, now);
  return true;
}

const LearningEngine* ProxyEngine::learning_for(const std::string& user) const {
  const auto it = users_.find(user);
  return it == users_.end() ? nullptr : &slots_[it->second].state->learning;
}

const PrefetchCache* ProxyEngine::cache_for(const std::string& user) const {
  const auto it = users_.find(user);
  return it == users_.end() ? nullptr : &slots_[it->second].state->cache;
}

}  // namespace appx::core
