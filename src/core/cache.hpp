// Prefetched-response cache with expiry (paper §4.5) and bounded footprint.
//
// Keys are canonical request identities (http::Request::cache_key): the proxy
// serves a prefetched response only when the client's request is *identical*
// to the prefetched one — URI, query string, headers and body (R3: never
// alter app behaviour). Entries expire per the configuration's
// expiration_time; expired entries are misses and are dropped on lookup.
//
// The cache is bounded two ways (§5's "bounded prefetch aggressiveness"):
//   * max_entries / max_bytes caps enforced by LRU eviction on insert, so a
//     long-lived user can never grow a cache without limit;
//   * TTL expiry, applied lazily on lookup and in bulk by a periodic sweep
//     that runs every kSweepInterval inserts (entries whose key is never
//     looked up again would otherwise survive forever).
// Evictions are counted per cause (LRU vs expired) and can additionally be
// routed to external counters (the engine-wide ProxyStats).
//
// Isolation is per entry, not per byte (DESIGN.md §5h Rule 4): every user's
// cache holds its own entries — key, expiry, `used` flag, LRU slot, budget
// charge, usage hooks — but the immutable response an entry points at is
// interned by exact content (ResponseInterner), so N users who prefetched the
// same bytes share one copy of them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "http/message.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace appx::core {

// Content-interning table for cached responses: one immutable response per
// distinct content. Owned by one engine shard and serialized by its lock.
//
// The table maps a content hash (status, reason, headers, body bytes,
// opaque_payload) to weak references, so it never extends a response's
// lifetime: a response dies with its last holder (cache entries, in-flight
// Decisions, connection write queues) and its slot is pruned on an amortized
// schedule, keeping the table O(live distinct responses). A hash match alone
// never shares a response — every field must compare equal (R3).
class ResponseInterner {
 public:
  struct Metrics {
    obs::Counter* shared = nullptr;  // intern() calls that reused a resident response
  };

  ResponseInterner() = default;
  ResponseInterner(const ResponseInterner&) = delete;
  ResponseInterner& operator=(const ResponseInterner&) = delete;

  void bind_metrics(const Metrics& metrics) { metrics_ = metrics; }

  // The resident response equal to `response`, or a new shared copy of it.
  // `body_hash` must cover the body bytes and opaque_payload (callers that
  // already hashed the body for another purpose pass that hash on).
  std::shared_ptr<const http::Response> intern(const http::Response& response,
                                               std::uint64_t body_hash);

  // Wire bytes of the distinct responses still alive (the same measure as
  // the cache's logical bytes, counted once per content). Safe to read from
  // any thread: holders released off the shard lock update it atomically.
  Bytes resident_bytes() const { return resident_->load(); }
  // Table slots, including dead ones not yet pruned.
  std::size_t table_size() const { return table_.size(); }

 private:
  void prune();

  std::unordered_multimap<std::uint64_t, std::weak_ptr<const http::Response>> table_;
  // Shared with every interned response so the last holder can give its
  // bytes back even after the interner is gone.
  std::shared_ptr<std::atomic<Bytes>> resident_ = std::make_shared<std::atomic<Bytes>>(0);
  // Prune when the table grows to this size; reset to twice the live count.
  std::size_t prune_at_ = kMinPruneAt;
  static constexpr std::size_t kMinPruneAt = 64;
  Metrics metrics_;
};

class PrefetchCache {
 public:
  enum class Lookup { kHit, kMiss, kExpired };

  // Bounds on the cache footprint; 0 = unlimited.
  struct Limits {
    std::size_t max_entries = 0;
    Bytes max_bytes = 0;
  };

  struct Entry {
    Entry() = default;
    explicit Entry(std::shared_ptr<const http::Response> r) : response(std::move(r)) {}

    // Shared so a hit hands out the stored response without copying the body
    // (responses can be hundreds of KB); the pointer stays valid even if the
    // entry is later overwritten, expired or evicted. Never null (put()
    // rejects null), so a kHit lookup always returns a usable response. The
    // engine stores interned responses here, so other users' entries may
    // point at the same object. A default entry shares one empty response.
    std::shared_ptr<const http::Response> response = empty_response();
    std::string sig_id;
    SimTime fetched_at = 0;
    std::optional<SimTime> expires_at;  // nullopt = never expires
    bool used = false;                  // served to a client at least once

    void set_response(http::Response r) {
      response = std::make_shared<const http::Response>(std::move(r));
    }

   private:
    static std::shared_ptr<const http::Response> empty_response();
  };

  // Registry metrics fed by the cache. The gauges are shared across caches
  // (the engine owns one per metric, every per-user cache delta-updates
  // them); a cache subtracts its remaining footprint on destruction.
  struct Metrics {
    obs::Counter* evicted_lru = nullptr;
    obs::Counter* evicted_expired = nullptr;
    obs::Gauge* entries = nullptr;  // live entries across all bound caches
    obs::Gauge* bytes = nullptr;    // live bytes across all bound caches
  };

  // Outcome callbacks feeding the policy engine's value model (DESIGN.md
  // §5j). `first_use` fires when get() serves an entry for the first time;
  // `wasted` fires when an entry leaves the cache without ever being used —
  // eviction (LRU or TTL), overwrite by a fresher prefetch, or destruction of
  // the whole cache (user teardown). clear() does not fire hooks (it is a
  // test/administrative reset, not an outcome).
  struct UsageHooks {
    std::function<void(std::string_view sig_id, Bytes bytes)> first_use;
    std::function<void(std::string_view sig_id, Bytes bytes)> wasted;
  };

  PrefetchCache() = default;
  explicit PrefetchCache(Limits limits) : limits_(limits) {}
  ~PrefetchCache();
  PrefetchCache(const PrefetchCache&) = delete;
  PrefetchCache& operator=(const PrefetchCache&) = delete;

  // Tightening the limits evicts immediately.
  void set_limits(Limits limits);
  const Limits& limits() const { return limits_; }

  // Additionally route eviction counts into external counters (may be null).
  void set_eviction_counters(std::size_t* lru, std::size_t* expired) {
    sink_lru_ = lru;
    sink_expired_ = expired;
  }

  // Bind registry metrics; current size/bytes are added to the gauges
  // immediately so a mid-life bind stays consistent.
  void bind_metrics(const Metrics& metrics);

  // Install outcome callbacks. Anything they capture must outlive the cache:
  // the `wasted` hook also fires from the destructor for entries never used.
  void set_usage_hooks(UsageHooks hooks) { hooks_ = std::move(hooks); }

  // Insert or overwrite (a fresher prefetch replaces the old response). The
  // new entry becomes most-recently-used; LRU entries are evicted until the
  // cache is back within its limits (expired entries are reaped first).
  // Throws InvalidArgumentError when entry.response is null.
  void put(std::string key, Entry entry, SimTime now = 0);

  // Exact-match lookup. Expired entries are erased and reported as kExpired.
  // On a hit the entry is marked used, promoted to most-recently-used, and
  // the stored response returned (shared, not copied); null on miss/expiry.
  std::shared_ptr<const http::Response> get(std::string_view key, SimTime now,
                                            Lookup* result = nullptr);

  // Erasing form: an expired entry found here is dropped immediately (it must
  // not distort byte accounting until an exact-key get happens to find it).
  bool contains(std::string_view key, SimTime now);
  // Pure query for const contexts; reports expired entries as absent but
  // cannot erase them.
  bool contains(std::string_view key, SimTime now) const;

  // Drop every expired entry now. Returns the number of entries removed.
  std::size_t sweep(SimTime now);

  std::size_t size() const { return index_.size(); }
  Bytes bytes() const { return bytes_; }
  // Bytes of live entries never served to a client: waste-so-far if the cache
  // died now. O(entries); meant for end-of-run reporting, not hot paths.
  Bytes unused_bytes() const;
  std::size_t entries_inserted() const { return inserted_; }
  std::size_t entries_used() const { return used_unique_; }
  std::size_t evicted_lru() const { return evicted_lru_; }
  std::size_t evicted_expired() const { return evicted_expired_; }

  void clear();

 private:
  struct Node {
    std::string key;
    Entry entry;
    Bytes charged = 0;  // wire size accounted against max_bytes
  };
  using LruList = std::list<Node>;  // front = most recently used

  static bool expired(const Entry& entry, SimTime now) {
    return entry.expires_at && now >= *entry.expires_at;
  }
  void erase_node(LruList::iterator it, bool count_as_expired);
  void fire_wasted(const Node& node);
  void enforce_limits(SimTime now);
  void count_eviction(bool was_expired);
  // Gauge deltas; no-ops while unbound.
  void gauge_entries(std::int64_t delta);
  void gauge_bytes(Bytes delta);

  // Bulk-expire cadence: one sweep per this many put() calls.
  static constexpr std::size_t kSweepInterval = 64;

  Limits limits_;
  LruList lru_;
  // Keys view the nodes' own strings: list nodes never move, and erase_node
  // drops the index slot before the node, so each key is stored once.
  std::unordered_map<std::string_view, LruList::iterator> index_;
  Bytes bytes_ = 0;
  std::size_t inserted_ = 0;
  std::size_t used_unique_ = 0;
  std::size_t evicted_lru_ = 0;
  std::size_t evicted_expired_ = 0;
  std::size_t puts_since_sweep_ = 0;
  std::size_t* sink_lru_ = nullptr;
  std::size_t* sink_expired_ = nullptr;
  Metrics metrics_;
  UsageHooks hooks_;
};

}  // namespace appx::core
