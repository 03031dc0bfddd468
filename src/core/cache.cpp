#include "core/cache.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace appx::core {

namespace {

// Hash of everything a client observes in a response; `body_hash` already
// covers the body bytes and opaque_payload.
std::uint64_t content_hash(const http::Response& r, std::uint64_t body_hash) {
  std::uint64_t h = hash_combine(body_hash, static_cast<std::uint64_t>(r.status));
  h = hash_combine(h, fnv1a(r.reason));
  for (const auto& [name, value] : r.headers.items()) {
    h = hash_combine(hash_combine(h, fnv1a(name)), fnv1a(value));
  }
  return h;
}

bool same_content(const http::Response& a, const http::Response& b) {
  return a.status == b.status && a.opaque_payload == b.opaque_payload && a.reason == b.reason &&
         a.headers == b.headers && a.body.view() == b.body.view();
}

// An interned response and the resident-bytes share its destruction gives
// back. Allocated once (make_shared); holders see only `response`.
struct Resident {
  Resident(const http::Response& r, Bytes b, std::shared_ptr<std::atomic<Bytes>> counter)
      : response(r), bytes(b), resident(std::move(counter)) {
    resident->fetch_add(bytes);
  }
  ~Resident() { resident->fetch_sub(bytes); }
  Resident(const Resident&) = delete;
  Resident& operator=(const Resident&) = delete;

  const http::Response response;
  const Bytes bytes;
  const std::shared_ptr<std::atomic<Bytes>> resident;
};

}  // namespace

std::shared_ptr<const http::Response> ResponseInterner::intern(const http::Response& response,
                                                               std::uint64_t body_hash) {
  const std::uint64_t hash = content_hash(response, body_hash);
  const auto [first, last] = table_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    std::shared_ptr<const http::Response> held = it->second.lock();
    if (held != nullptr && same_content(*held, response)) {
      if (metrics_.shared != nullptr) metrics_.shared->inc();
      return held;
    }
  }
  if (table_.size() >= prune_at_) prune();
  auto resident = std::make_shared<const Resident>(response, response.wire_size(), resident_);
  std::shared_ptr<const http::Response> interned(resident, &resident->response);
  table_.emplace(hash, interned);
  return interned;
}

void ResponseInterner::prune() {
  std::erase_if(table_, [](const auto& slot) { return slot.second.expired(); });
  // At least as many inserts as live slots before the next pass: O(1)
  // amortized per insert, and the table never exceeds ~2x its live size.
  prune_at_ = std::max(kMinPruneAt, 2 * table_.size());
}

std::shared_ptr<const http::Response> PrefetchCache::Entry::empty_response() {
  static const auto empty = std::make_shared<const http::Response>();
  return empty;
}

PrefetchCache::~PrefetchCache() {
  // Entries still unused when the cache dies (user eviction, shutdown) were
  // prefetched for nothing: report them before the bytes vanish.
  if (hooks_.wasted) {
    for (const Node& node : lru_) fire_wasted(node);
  }
  bind_metrics({});  // give back this cache's share of the shared gauges
}

void PrefetchCache::fire_wasted(const Node& node) {
  if (hooks_.wasted && !node.entry.used) hooks_.wasted(node.entry.sig_id, node.charged);
}

void PrefetchCache::bind_metrics(const Metrics& metrics) {
  // Remove the old binding's contribution before adding to the new one.
  gauge_entries(-static_cast<std::int64_t>(index_.size()));
  gauge_bytes(-bytes_);
  metrics_ = metrics;
  gauge_entries(static_cast<std::int64_t>(index_.size()));
  gauge_bytes(bytes_);
}

void PrefetchCache::gauge_entries(std::int64_t delta) {
  if (metrics_.entries != nullptr && delta != 0) metrics_.entries->add(delta);
}

void PrefetchCache::gauge_bytes(Bytes delta) {
  if (metrics_.bytes != nullptr && delta != 0) metrics_.bytes->add(delta);
}

void PrefetchCache::count_eviction(bool was_expired) {
  if (was_expired) {
    ++evicted_expired_;
    if (sink_expired_ != nullptr) ++*sink_expired_;
    if (metrics_.evicted_expired != nullptr) metrics_.evicted_expired->inc();
  } else {
    ++evicted_lru_;
    if (sink_lru_ != nullptr) ++*sink_lru_;
    if (metrics_.evicted_lru != nullptr) metrics_.evicted_lru->inc();
  }
}

void PrefetchCache::erase_node(LruList::iterator it, bool count_as_expired) {
  fire_wasted(*it);
  count_eviction(count_as_expired);
  bytes_ -= it->charged;
  gauge_entries(-1);
  gauge_bytes(-it->charged);
  index_.erase(it->key);
  lru_.erase(it);
}

void PrefetchCache::enforce_limits(SimTime now) {
  const auto over = [&] {
    return (limits_.max_entries > 0 && index_.size() > limits_.max_entries) ||
           (limits_.max_bytes > 0 && bytes_ > limits_.max_bytes);
  };
  if (!over()) return;
  // Prefer reclaiming dead weight before punishing live entries.
  sweep(now);
  while (over() && !lru_.empty()) {
    erase_node(std::prev(lru_.end()), /*count_as_expired=*/false);
  }
}

void PrefetchCache::set_limits(Limits limits) {
  limits_ = limits;
  enforce_limits(0);
}

void PrefetchCache::put(std::string key, Entry entry, SimTime now) {
  if (entry.response == nullptr) throw InvalidArgumentError("PrefetchCache::put: null response");
  ++inserted_;
  if (++puts_since_sweep_ >= kSweepInterval) {
    puts_since_sweep_ = 0;
    sweep(now);
  }
  const Bytes charged = entry.response->wire_size();
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Overwrite in place and promote; not an eviction — but a replaced
    // response that was never served was still fetched for nothing.
    LruList::iterator node = it->second;
    fire_wasted(*node);
    bytes_ += charged - node->charged;
    gauge_bytes(charged - node->charged);
    node->charged = charged;
    node->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, node);
  } else {
    lru_.push_front(Node{std::move(key), std::move(entry), charged});
    index_.emplace(lru_.front().key, lru_.begin());
    bytes_ += charged;
    gauge_entries(1);
    gauge_bytes(charged);
  }
  enforce_limits(now);
}

std::shared_ptr<const http::Response> PrefetchCache::get(std::string_view key, SimTime now,
                                                         Lookup* result) {
  const auto set_result = [&](Lookup r) {
    if (result != nullptr) *result = r;
  };
  const auto it = index_.find(key);
  if (it == index_.end()) {
    set_result(Lookup::kMiss);
    return nullptr;
  }
  LruList::iterator node = it->second;
  if (expired(node->entry, now)) {
    erase_node(node, /*count_as_expired=*/true);
    set_result(Lookup::kExpired);
    return nullptr;
  }
  if (!node->entry.used) {
    node->entry.used = true;
    ++used_unique_;
    if (hooks_.first_use) hooks_.first_use(node->entry.sig_id, node->charged);
  }
  lru_.splice(lru_.begin(), lru_, node);  // promote to most-recently-used
  set_result(Lookup::kHit);
  return node->entry.response;
}

bool PrefetchCache::contains(std::string_view key, SimTime now) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  if (expired(it->second->entry, now)) {
    erase_node(it->second, /*count_as_expired=*/true);
    return false;
  }
  return true;
}

bool PrefetchCache::contains(std::string_view key, SimTime now) const {
  const auto it = index_.find(key);
  return it != index_.end() && !expired(it->second->entry, now);
}

std::size_t PrefetchCache::sweep(SimTime now) {
  std::size_t removed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    const auto next = std::next(it);
    if (expired(it->entry, now)) {
      erase_node(it, /*count_as_expired=*/true);
      ++removed;
    }
    it = next;
  }
  return removed;
}

Bytes PrefetchCache::unused_bytes() const {
  Bytes total = 0;
  for (const Node& node : lru_) {
    if (!node.entry.used) total += node.charged;
  }
  return total;
}

void PrefetchCache::clear() {
  gauge_entries(-static_cast<std::int64_t>(index_.size()));
  gauge_bytes(-bytes_);
  index_.clear();
  lru_.clear();
  bytes_ = 0;
}

}  // namespace appx::core
