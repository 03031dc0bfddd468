// Unit tests for the prefetch cache, scheduler and proxy engine (Fig. 10).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/cache.hpp"
#include "core/proxy.hpp"
#include "core/scheduler.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "wish_fixture.hpp"

namespace appx::core {
namespace {

using testfix::make_feed_request;
using testfix::make_feed_response;
using testfix::make_product_request;
using testfix::make_product_response;
using testfix::make_wish_set;

// --- PrefetchCache ---------------------------------------------------------------

TEST(PrefetchCache, HitMissExpiry) {
  PrefetchCache cache;
  PrefetchCache::Lookup lookup;

  EXPECT_EQ(cache.get("k", 0, &lookup), nullptr);
  EXPECT_EQ(lookup, PrefetchCache::Lookup::kMiss);

  PrefetchCache::Entry entry;
  entry.set_response([] {
    http::Response r;
    r.body = "data";
    return r;
  }());
  entry.fetched_at = 0;
  entry.expires_at = 100;
  cache.put("k", entry);

  EXPECT_NE(cache.get("k", 50, &lookup), nullptr);
  EXPECT_EQ(lookup, PrefetchCache::Lookup::kHit);

  EXPECT_EQ(cache.get("k", 100, &lookup), nullptr);
  EXPECT_EQ(lookup, PrefetchCache::Lookup::kExpired);
  // The expired entry is gone: a second lookup is a plain miss.
  EXPECT_EQ(cache.get("k", 100, &lookup), nullptr);
  EXPECT_EQ(lookup, PrefetchCache::Lookup::kMiss);
}

TEST(PrefetchCache, NoExpiryEntryLivesForever) {
  PrefetchCache cache;
  PrefetchCache::Entry entry;
  cache.put("k", entry);
  EXPECT_NE(cache.get("k", 1'000'000'000'000), nullptr);
}

TEST(PrefetchCache, ContainsRespectsExpiry) {
  PrefetchCache cache;
  PrefetchCache::Entry entry;
  entry.expires_at = 10;
  cache.put("k", entry);
  EXPECT_TRUE(cache.contains("k", 5));
  EXPECT_FALSE(cache.contains("k", 10));
  EXPECT_FALSE(cache.contains("other", 5));
}

TEST(PrefetchCache, UsedCountsUniqueEntries) {
  PrefetchCache cache;
  cache.put("a", {});
  cache.put("b", {});
  EXPECT_EQ(cache.entries_used(), 0u);
  cache.get("a", 0);
  cache.get("a", 0);
  EXPECT_EQ(cache.entries_used(), 1u);
  cache.get("b", 0);
  EXPECT_EQ(cache.entries_used(), 2u);
  EXPECT_EQ(cache.entries_inserted(), 2u);
}

TEST(PrefetchCache, PutOverwrites) {
  PrefetchCache cache;
  PrefetchCache::Entry e1;
  e1.set_response([] {
    http::Response r;
    r.body = "old";
    return r;
  }());
  cache.put("k", e1);
  PrefetchCache::Entry e2;
  e2.set_response([] {
    http::Response r;
    r.body = "new";
    return r;
  }());
  cache.put("k", e2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get("k", 0)->body, "new");
}

PrefetchCache::Entry sized_entry(std::size_t body_bytes, std::optional<SimTime> expires_at = {}) {
  PrefetchCache::Entry entry;
  http::Response r;
  r.body = std::string(body_bytes, 'x');
  entry.set_response(std::move(r));
  entry.expires_at = expires_at;
  return entry;
}

TEST(PrefetchCache, LruEvictionOrder) {
  PrefetchCache cache(PrefetchCache::Limits{3, 0});
  cache.put("a", {}, 0);
  cache.put("b", {}, 1);
  cache.put("c", {}, 2);
  // Touch "a": it becomes most-recently-used, leaving "b" as the LRU tail.
  EXPECT_NE(cache.get("a", 3), nullptr);
  cache.put("d", {}, 4);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.contains("b", 5));
  EXPECT_TRUE(cache.contains("a", 5));
  EXPECT_TRUE(cache.contains("c", 5));
  EXPECT_TRUE(cache.contains("d", 5));
  EXPECT_EQ(cache.evicted_lru(), 1u);
  EXPECT_EQ(cache.evicted_expired(), 0u);
}

TEST(PrefetchCache, ByteBoundEviction) {
  const Bytes limit = 4096;
  PrefetchCache cache(PrefetchCache::Limits{0, limit});
  for (int i = 0; i < 16; ++i) {
    cache.put(std::string("k").append(std::to_string(i)), sized_entry(1024), i);
    EXPECT_LE(cache.bytes(), limit);
  }
  EXPECT_GT(cache.evicted_lru(), 0u);
  EXPECT_LT(cache.size(), 16u);
  // The most recent insert always survives.
  EXPECT_TRUE(cache.contains("k15", 100));
}

TEST(PrefetchCache, ExpiredEntriesReapedBeforeLiveOnes) {
  PrefetchCache cache(PrefetchCache::Limits{2, 0});
  cache.put("dead", sized_entry(8, 10), 0);  // expires at t=10
  cache.put("live", sized_entry(8), 1);
  // Insert at t=20: "dead" has expired; the limit is met by reaping it, so
  // the still-live LRU entry survives.
  cache.put("fresh", sized_entry(8), 20);
  EXPECT_TRUE(cache.contains("live", 21));
  EXPECT_TRUE(cache.contains("fresh", 21));
  EXPECT_EQ(cache.evicted_expired(), 1u);
  EXPECT_EQ(cache.evicted_lru(), 0u);
}

TEST(PrefetchCache, ErasingContainsDropsExpiredEntry) {
  PrefetchCache cache;
  cache.put("k", sized_entry(64, 10), 0);
  EXPECT_GT(cache.bytes(), 0);
  // Mutable contains behaves like get: the expired entry is erased on sight,
  // so byte accounting cannot be distorted by dead entries.
  EXPECT_FALSE(cache.contains("k", 10));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.evicted_expired(), 1u);
}

TEST(PrefetchCache, SweepDropsAllExpired) {
  PrefetchCache cache;
  cache.put("e1", sized_entry(8, 10), 0);
  cache.put("e2", sized_entry(8, 20), 0);
  cache.put("live", sized_entry(8), 0);
  EXPECT_EQ(cache.sweep(15), 1u);
  EXPECT_EQ(cache.sweep(25), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evicted_expired(), 2u);
}

TEST(PrefetchCache, TighteningLimitsEvictsImmediately) {
  PrefetchCache cache;
  for (int i = 0; i < 8; ++i) cache.put(std::string("k").append(std::to_string(i)), {}, i);
  cache.set_limits(PrefetchCache::Limits{2, 0});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evicted_lru(), 6u);
}

TEST(PrefetchCache, EvictionCountersRouteToSinks) {
  std::size_t lru = 0, expired = 0;
  PrefetchCache cache(PrefetchCache::Limits{1, 0});
  cache.set_eviction_counters(&lru, &expired);
  cache.put("a", sized_entry(8), 0);
  cache.put("b", sized_entry(8, 15), 0);  // evicts "a" (LRU)
  EXPECT_EQ(lru, 1u);
  cache.put("c", sized_entry(8), 20);  // "b" expired at t=15: reaped, not LRU'd
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(lru, 1u);
}

PrefetchCache::Entry body_entry(std::string body, std::optional<SimTime> expires_at = {}) {
  http::Response r;
  r.body = std::move(body);
  PrefetchCache::Entry entry(std::make_shared<const http::Response>(std::move(r)));
  entry.expires_at = expires_at;
  return entry;
}

TEST(PrefetchCache, NullResponseIsRejected) {
  PrefetchCache cache;
  PrefetchCache::Entry entry(nullptr);
  EXPECT_THROW(cache.put("k", std::move(entry)), InvalidArgumentError);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.entries_inserted(), 0u);
}

// Keys past the small-string buffer live on the heap; the index views the
// node's copy of each, so put/overwrite/evict/expire/sweep/clear cycles must
// never leave the index pointing at a freed key.
TEST(PrefetchCache, HeapKeysSurviveEveryRemovalPath) {
  const auto key = [](int i) {
    std::string k = "POST https://api.example.com/product/get?cid=";
    return k.append(std::to_string(1000 + i));
  };
  const auto body = [](const std::shared_ptr<const http::Response>& r) {
    return r == nullptr ? std::string("(miss)") : std::string(r->body.view());
  };
  PrefetchCache cache(PrefetchCache::Limits{4, 0});
  for (int cycle = 0; cycle < 3; ++cycle) {
    const SimTime t = cycle * 1000;
    PrefetchCache::Lookup lookup;
    for (int i = 0; i < 6; ++i) {  // 6 puts into 4 slots: key(0), key(1) evicted
      const auto expires_at = i == 5 ? std::optional<SimTime>(t + 50) : std::nullopt;
      cache.put(key(i), body_entry(std::string("v").append(std::to_string(i)), expires_at), t);
    }
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cache.get(key(0), t + 1, &lookup), nullptr);
    EXPECT_EQ(lookup, PrefetchCache::Lookup::kMiss);
    EXPECT_EQ(body(cache.get(key(2), t + 1)), "v2");

    // Overwrite keeps one entry under the key; the caller's buffer is gone.
    {
      std::string temp = key(3);
      cache.put(std::move(temp), body_entry("v3b"), t + 2);
    }
    EXPECT_EQ(cache.size(), 4u);

    // Lookup through a key held in a different buffer.
    const std::string k3 = key(3);
    const std::vector<char> other(k3.begin(), k3.end());
    EXPECT_EQ(body(cache.get(std::string_view(other.data(), other.size()), t + 3)), "v3b");
    // A key differing only in its last byte is a different request (R3).
    std::string near = key(4);
    near.back() = 'x';
    EXPECT_EQ(cache.get(near, t + 3, &lookup), nullptr);
    EXPECT_EQ(lookup, PrefetchCache::Lookup::kMiss);
    EXPECT_FALSE(std::as_const(cache).contains(key(4).substr(0, key(4).size() - 1), t + 3));

    // key(5) expires at t+50: the first lookup erases it, the second misses.
    EXPECT_EQ(cache.get(key(5), t + 60, &lookup), nullptr);
    EXPECT_EQ(lookup, PrefetchCache::Lookup::kExpired);
    EXPECT_EQ(cache.get(key(5), t + 60, &lookup), nullptr);
    EXPECT_EQ(lookup, PrefetchCache::Lookup::kMiss);

    // sweep() drops an expired entry without a lookup.
    cache.put(key(6), sized_entry(8, t + 70), t + 61);
    EXPECT_EQ(cache.sweep(t + 80), 1u);
    EXPECT_FALSE(cache.contains(key(6), t + 80));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(body(cache.get(key(4), t + 80)), "v4");

    if (cycle < 2) {
      cache.clear();
      EXPECT_EQ(cache.size(), 0u);
      EXPECT_FALSE(cache.contains(key(2), t + 80));
    }
  }
  // The last cycle's survivors are still reachable through fresh key buffers.
  for (int i : {2, 3, 4}) EXPECT_TRUE(cache.contains(key(i), 2100)) << i;
}

// --- scheduler ------------------------------------------------------------------

TEST(SignatureStats, Defaults) {
  SignatureStats stats;
  EXPECT_DOUBLE_EQ(stats.avg_response_time_ms("x"), 0.0);
  EXPECT_DOUBLE_EQ(stats.hit_rate("x"), 0.5);
}

TEST(SignatureStats, Updates) {
  SignatureStats stats;
  stats.record_response_time("x", 100);
  EXPECT_DOUBLE_EQ(stats.avg_response_time_ms("x"), 100);
  stats.record_lookup("x", true);
  stats.record_lookup("x", false);
  EXPECT_DOUBLE_EQ(stats.hit_rate("x"), 0.5);  // (1+1)/(2+2)
  stats.record_lookup("x", true);
  EXPECT_GT(stats.hit_rate("x"), 0.5);
}

TEST(SignatureStats, NonFiniteSamplesAreIgnored) {
  SignatureStats stats;
  stats.record_response_time("x", 100);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    stats.record_response_time("x", bad);
    stats.record_response_time("fresh", bad);
  }
  EXPECT_DOUBLE_EQ(stats.avg_response_time_ms("x"), 100);
  EXPECT_DOUBLE_EQ(stats.avg_response_time_ms("fresh"), 0);
}

TEST(PrefetchScheduler, PriorityOrdering) {
  SignatureStats stats;
  stats.record_response_time("slow", 500);
  stats.record_response_time("fast", 10);

  PrefetchScheduler sched;
  PrefetchJob a;
  a.sig_id = "fast";
  PrefetchJob b;
  b.sig_id = "slow";
  sched.enqueue(a, stats);
  sched.enqueue(b, stats);

  // Slow-to-complete signature dequeues first (paper §5).
  const auto first = sched.dequeue();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->sig_id, "slow");
  EXPECT_EQ(sched.dequeue()->sig_id, "fast");
}

TEST(PrefetchScheduler, HitRateBreaksTies) {
  SignatureStats stats;
  stats.record_response_time("a", 100);
  stats.record_response_time("b", 100);
  for (int i = 0; i < 20; ++i) {
    stats.record_lookup("a", true);
    stats.record_lookup("b", false);
  }
  PrefetchScheduler sched;
  PrefetchJob ja;
  ja.sig_id = "a";
  PrefetchJob jb;
  jb.sig_id = "b";
  sched.enqueue(jb, stats);
  sched.enqueue(ja, stats);
  EXPECT_EQ(sched.dequeue()->sig_id, "a");
}

TEST(PrefetchScheduler, FifoAmongEqualPriorities) {
  SignatureStats stats;
  PrefetchScheduler sched;
  for (int i = 0; i < 3; ++i) {
    PrefetchJob j;
    j.sig_id = "same";
    j.request.body = std::to_string(i);
    sched.enqueue(j, stats);
  }
  EXPECT_EQ(sched.dequeue()->request.body, "0");
  EXPECT_EQ(sched.dequeue()->request.body, "1");
  EXPECT_EQ(sched.dequeue()->request.body, "2");
}

TEST(PrefetchScheduler, OutstandingWindowLimitsDequeue) {
  SignatureStats stats;
  PrefetchScheduler sched(PrefetchScheduler::Weights{1.0, 200.0}, 2);
  for (int i = 0; i < 5; ++i) sched.enqueue(PrefetchJob{}, stats);
  EXPECT_TRUE(sched.dequeue().has_value());
  EXPECT_TRUE(sched.dequeue().has_value());
  EXPECT_FALSE(sched.dequeue().has_value());  // window full
  EXPECT_EQ(sched.outstanding(), 2u);
  sched.on_completed();
  EXPECT_TRUE(sched.dequeue().has_value());
  EXPECT_EQ(sched.queued(), 2u);
}

TEST(PrefetchScheduler, OnDroppedReleasesWindowSlot) {
  SignatureStats stats;
  PrefetchScheduler sched(PrefetchScheduler::Weights{1.0, 200.0}, 2);
  for (int i = 0; i < 4; ++i) sched.enqueue(PrefetchJob{}, stats);
  ASSERT_TRUE(sched.dequeue().has_value());
  ASSERT_TRUE(sched.dequeue().has_value());
  ASSERT_FALSE(sched.dequeue().has_value());  // window full
  sched.on_dropped();
  EXPECT_EQ(sched.dropped(), 1u);
  // The dropped job's slot is free again; the leak would have kept the
  // window full forever.
  EXPECT_TRUE(sched.dequeue().has_value());
  sched.on_completed();
  EXPECT_EQ(sched.completed(), 1u);
  EXPECT_EQ(sched.outstanding(), 1u);
}

TEST(PrefetchScheduler, DropAndCompleteBalanceDequeues) {
  SignatureStats stats;
  PrefetchScheduler sched(PrefetchScheduler::Weights{1.0, 200.0}, 4);
  std::size_t dequeued = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) sched.enqueue(PrefetchJob{}, stats);
    while (sched.dequeue()) {
      ++dequeued;
      // Alternate resolutions; every job resolved exactly once.
      if (dequeued % 2 == 0) {
        sched.on_completed();
      } else {
        sched.on_dropped();
      }
    }
  }
  EXPECT_EQ(dequeued, 150u);
  EXPECT_EQ(sched.completed() + sched.dropped(), dequeued);
  EXPECT_EQ(sched.outstanding(), 0u);
}

TEST(PrefetchScheduler, BoundedQueueEvictsLowestPriority) {
  SignatureStats stats;
  stats.record_response_time("high", 500);
  stats.record_response_time("mid", 100);
  stats.record_response_time("low", 1);
  PrefetchScheduler sched(PrefetchScheduler::Weights{1.0, 0.0}, 32, /*max_queued=*/2);

  PrefetchJob high;
  high.sig_id = "high";
  PrefetchJob mid;
  mid.sig_id = "mid";
  PrefetchJob low;
  low.sig_id = "low";

  EXPECT_FALSE(sched.enqueue(low, stats).has_value());
  EXPECT_FALSE(sched.enqueue(high, stats).has_value());
  // Third job overflows: the LOWEST-priority queued job goes, not the oldest.
  const auto evicted = sched.enqueue(mid, stats);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->sig_id, "low");
  EXPECT_EQ(sched.queued(), 2u);
  EXPECT_EQ(sched.dequeue()->sig_id, "high");
  EXPECT_EQ(sched.dequeue()->sig_id, "mid");
}

TEST(PrefetchScheduler, BoundedQueueBouncesIncomingLowJob) {
  SignatureStats stats;
  stats.record_response_time("high", 500);
  stats.record_response_time("low", 1);
  PrefetchScheduler sched(PrefetchScheduler::Weights{1.0, 0.0}, 32, /*max_queued=*/1);

  PrefetchJob high;
  high.sig_id = "high";
  EXPECT_FALSE(sched.enqueue(high, stats).has_value());
  // An incoming job that is itself the lowest priority bounces straight out.
  PrefetchJob low;
  low.sig_id = "low";
  const auto evicted = sched.enqueue(low, stats);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->sig_id, "low");
  EXPECT_EQ(sched.dequeue()->sig_id, "high");
}

TEST(PrefetchScheduler, BoundedQueueEvictsNewestAmongEqualPriorities) {
  // Equal priorities dequeue FIFO, so the victim must be the NEWEST equal
  // job — evicting the oldest would starve the front of the FIFO run.
  SignatureStats stats;
  PrefetchScheduler sched(PrefetchScheduler::Weights{1.0, 0.0}, 32, /*max_queued=*/2);
  for (int i = 0; i < 3; ++i) {
    PrefetchJob j;
    j.sig_id = "same";
    j.request.body = std::to_string(i);
    const auto evicted = sched.enqueue(j, stats);
    EXPECT_EQ(evicted.has_value(), i == 2);
    if (evicted) {
      EXPECT_EQ(evicted->request.body, "2");
    }
  }
  EXPECT_EQ(sched.dequeue()->request.body, "0");
  EXPECT_EQ(sched.dequeue()->request.body, "1");
}

TEST(PrefetchScheduler, BoundedQueueKeepsResolutionInvariant) {
  // Every dequeued job resolves exactly once even under overflow eviction:
  // completed + dropped == dequeued, and evicted jobs were never dequeued.
  SignatureStats stats;
  PrefetchScheduler sched(PrefetchScheduler::Weights{1.0, 200.0}, 2, /*max_queued=*/3);
  std::size_t dequeued = 0;
  std::size_t evicted = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 5; ++i) {
      if (sched.enqueue(PrefetchJob{}, stats).has_value()) ++evicted;
    }
    while (sched.dequeue()) {
      ++dequeued;
      if (dequeued % 3 == 0) {
        sched.on_dropped();
      } else {
        sched.on_completed();
      }
    }
  }
  EXPECT_GT(evicted, 0u);
  EXPECT_EQ(sched.completed() + sched.dropped(), dequeued);
  EXPECT_EQ(sched.outstanding(), 0u);
}

// --- PrefetchCache usage hooks ---------------------------------------------------

PrefetchCache::Entry sized_entry(const std::string& sig, Bytes payload) {
  PrefetchCache::Entry entry;
  http::Response r;
  r.opaque_payload = payload;
  entry.set_response(std::move(r));
  entry.sig_id = sig;
  return entry;
}

struct HookLog {
  std::vector<std::string> first_use;
  std::vector<std::string> wasted;
  PrefetchCache::UsageHooks hooks() {
    return {[this](std::string_view sig, Bytes) { first_use.emplace_back(sig); },
            [this](std::string_view sig, Bytes) { wasted.emplace_back(sig); }};
  }
};

TEST(PrefetchCacheHooks, FirstUseFiresOncePerEntry) {
  HookLog log;  // must outlive the cache: the wasted hook fires from ~PrefetchCache
  PrefetchCache cache;
  cache.set_usage_hooks(log.hooks());
  cache.put("k", sized_entry("sig", 100));
  EXPECT_NE(cache.get("k", 0), nullptr);
  EXPECT_NE(cache.get("k", 0), nullptr);  // second hit: no second first_use
  ASSERT_EQ(log.first_use.size(), 1u);
  EXPECT_EQ(log.first_use[0], "sig");
  EXPECT_TRUE(log.wasted.empty());
}

TEST(PrefetchCacheHooks, WastedFiresOnLruEvictionOfUnusedEntry) {
  PrefetchCache::Limits limits;
  limits.max_entries = 1;
  HookLog log;  // must outlive the cache: the wasted hook fires from ~PrefetchCache
  PrefetchCache cache(limits);
  cache.set_usage_hooks(log.hooks());
  cache.put("a", sized_entry("sa", 100));
  cache.put("b", sized_entry("sb", 100));  // evicts unused "a"
  ASSERT_EQ(log.wasted.size(), 1u);
  EXPECT_EQ(log.wasted[0], "sa");

  // A USED entry leaving the cache is not waste.
  EXPECT_NE(cache.get("b", 0), nullptr);
  cache.put("c", sized_entry("sc", 100));
  EXPECT_EQ(log.wasted.size(), 1u);
}

TEST(PrefetchCacheHooks, WastedFiresOnExpiryAndOverwrite) {
  HookLog log;  // must outlive the cache: the wasted hook fires from ~PrefetchCache
  PrefetchCache cache;
  cache.set_usage_hooks(log.hooks());

  auto expiring = sized_entry("exp", 100);
  expiring.expires_at = 10;
  cache.put("e", expiring);
  EXPECT_EQ(cache.get("e", 20), nullptr);  // expired unused -> wasted
  ASSERT_EQ(log.wasted.size(), 1u);
  EXPECT_EQ(log.wasted[0], "exp");

  cache.put("o", sized_entry("old", 100));
  cache.put("o", sized_entry("new", 100));  // overwrite before any use
  ASSERT_EQ(log.wasted.size(), 2u);
  EXPECT_EQ(log.wasted[1], "old");
}

TEST(PrefetchCacheHooks, DestructorWastesLiveUnusedEntriesOnly) {
  HookLog log;
  {
    PrefetchCache cache;
    cache.set_usage_hooks(log.hooks());
    cache.put("used", sized_entry("su", 100));
    cache.put("unused", sized_entry("sn", 100));
    EXPECT_NE(cache.get("used", 0), nullptr);
  }
  ASSERT_EQ(log.wasted.size(), 1u);
  EXPECT_EQ(log.wasted[0], "sn");
}

TEST(PrefetchCacheHooks, ClearDoesNotFireHooks) {
  HookLog log;  // must outlive the cache: the wasted hook fires from ~PrefetchCache
  PrefetchCache cache;
  cache.set_usage_hooks(log.hooks());
  cache.put("k", sized_entry("sig", 100));
  cache.clear();
  EXPECT_TRUE(log.wasted.empty());
}

TEST(PrefetchCache, UnusedBytesTracksLiveNeverUsedEntries) {
  PrefetchCache cache;
  EXPECT_EQ(cache.unused_bytes(), 0);
  cache.put("a", sized_entry("sa", 1000));
  cache.put("b", sized_entry("sb", 500));
  const Bytes both = cache.unused_bytes();
  EXPECT_GT(both, 0);
  // Serving one entry removes its bytes from the unused tally.
  EXPECT_NE(cache.get("a", 0), nullptr);
  EXPECT_LT(cache.unused_bytes(), both);
  EXPECT_GT(cache.unused_bytes(), 0);
  EXPECT_NE(cache.get("b", 0), nullptr);
  EXPECT_EQ(cache.unused_bytes(), 0);
}

// --- ResponseInterner ------------------------------------------------------------

http::Response json_response(std::string body) {
  http::Response r;
  r.headers.set("Content-Type", "application/json");
  r.body = std::move(body);  // a fresh slab per call, as per upstream fetch
  return r;
}

std::uint64_t body_hash_of(const http::Response& r) {
  return hash_combine(fnv1a(r.body.view()), static_cast<std::uint64_t>(r.opaque_payload));
}

std::shared_ptr<const http::Response> intern(ResponseInterner& interner,
                                             const http::Response& r) {
  return interner.intern(r, body_hash_of(r));
}

TEST(ResponseInterner, EqualContentSharesOneResponse) {
  obs::MetricsRegistry registry;
  ResponseInterner interner;
  interner.bind_metrics(ResponseInterner::Metrics{&registry.counter("shared")});
  const http::Response a = json_response(R"({"id":1})");
  const http::Response b = json_response(R"({"id":1})");
  ASSERT_NE(a.body.data(), b.body.data());  // same bytes, separate buffers

  const auto first = intern(interner, a);
  const auto second = intern(interner, b);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(registry.counter_value("shared"), 1);
  EXPECT_EQ(interner.resident_bytes(), a.wire_size());
  EXPECT_EQ(interner.table_size(), 1u);
}

TEST(ResponseInterner, AnyDifferingFieldIsNotShared) {
  ResponseInterner interner;
  const http::Response base = json_response(R"({"price":100})");
  const auto resident = intern(interner, base);

  http::Response status = base;
  status.status = 203;
  http::Response reason = base;
  reason.reason = "Fine";
  http::Response header = base;
  header.headers.set("Content-Type", "application/json; charset=utf-8");
  http::Response extra_header = base;
  extra_header.headers.add("Cache-Control", "no-store");
  http::Response opaque = base;
  opaque.opaque_payload = 1;
  const http::Response body = json_response(R"({"price":101})");
  for (const http::Response& variant : {status, reason, header, extra_header, opaque, body}) {
    EXPECT_NE(intern(interner, variant).get(), resident.get());
  }
  // R3 rests on the byte compare, not the hash: a response that collides
  // on the hash (forced here by passing the base's body hash) stays apart.
  EXPECT_NE(interner.intern(body, body_hash_of(base)).get(), resident.get());
  EXPECT_EQ(intern(interner, json_response(R"({"price":100})")).get(), resident.get());
}

TEST(ResponseInterner, DeadResponsesReleaseTheirBytesAndArePruned) {
  ResponseInterner interner;
  std::vector<std::shared_ptr<const http::Response>> held;
  for (int i = 0; i < 100; ++i) {
    held.push_back(intern(interner, json_response("{\"n\":" + std::to_string(i) + "}")));
  }
  EXPECT_EQ(interner.table_size(), 100u);
  EXPECT_GT(interner.resident_bytes(), 0);
  std::weak_ptr<const http::Response> watch = held.front();

  held.clear();  // the last holders go: each response dies with them
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(interner.resident_bytes(), 0);

  // Later inserts prune the dead slots: the table tracks live content.
  for (int i = 0; i < 300; ++i) {
    intern(interner, json_response("{\"m\":" + std::to_string(i) + "}"));
  }
  EXPECT_LE(interner.table_size(), 64u);
  EXPECT_EQ(interner.resident_bytes(), 0);
}

// --- ProxyEngine -----------------------------------------------------------------

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest() : set_(make_wish_set()) {
    config_.default_expiration = seconds(3600);
    engine_ = std::make_unique<ProxyEngine>(&set_, &config_, 7);
  }

  // Runtime caps are snapshotted into EngineOptions at construction; tests
  // that tighten them must rebuild the engine for the change to apply.
  void remake_engine() { engine_ = std::make_unique<ProxyEngine>(&set_, &config_, 7); }

  // Drive a full transaction through the proxy as a front end would:
  // client request -> (cache | origin) -> prefetch jobs -> prefetch responses.
  http::Response run_transaction(const std::string& user, const http::Request& req,
                                 const http::Response& origin_response, SimTime now,
                                 bool* served_from_cache = nullptr) {
    Session session = engine_->session(user, now);
    Decision d = session.on_request(req, now);
    if (served_from_cache != nullptr) *served_from_cache = d.served != nullptr;
    std::vector<PrefetchJob> jobs = std::move(d.prefetches);
    http::Response result = origin_response;
    if (d.served) {
      result = *d.served;
    } else {
      Decision r = session.on_response(req, origin_response, now);
      for (auto& job : r.prefetches) jobs.push_back(std::move(job));
    }
    answer_prefetches(session, std::move(jobs), now);
    return result;
  }

  // Answer prefetch jobs from a canned origin, following up on jobs the
  // responses themselves surface (chained prefetching) until quiescent.
  void answer_prefetches(Session& session, std::vector<PrefetchJob> jobs, SimTime now) {
    while (!jobs.empty()) {
      std::vector<PrefetchJob> next;
      for (const auto& job : jobs) {
        http::Response resp;
        if (job.request.uri.path == "/product/get") {
          // Deterministic per-item merchant, like a real origin would return.
          const auto fields = job.request.form_fields();
          resp = make_product_response("m_" + fields[0].second, 1500);
        } else if (job.request.uri.path == "/img") {
          resp.opaque_payload = kilobytes(300);
        } else {
          resp.body = "{}";
        }
        Decision d = session.on_prefetch_response(job, resp, now, 165.0);
        for (auto& follow : d.prefetches) next.push_back(std::move(follow));
      }
      // Freed outstanding-window slots may release queued jobs.
      for (auto& job : session.take_prefetches(now)) next.push_back(std::move(job));
      jobs = std::move(next);
    }
  }

  void drain_prefetches(const std::string& user, SimTime now) {
    Session session = engine_->session(user, now);
    answer_prefetches(session, session.take_prefetches(now), now);
  }

  SignatureSet set_;
  ProxyConfig config_;
  std::unique_ptr<ProxyEngine> engine_;
};

TEST_F(ProxyTest, EndToEndPrefetchServesSecondInteraction) {
  // 1. Feed: forwarded (nothing cached yet), learning sees the ids.
  run_transaction("u1", make_feed_request(), make_feed_response({"09cf", "3gf3"}), 0);
  // 2. First product request: miss (runtime values unknown before this), but
  //    it teaches the engine; sibling instances are prefetched.
  bool hit = false;
  run_transaction("u1", make_product_request("09cf"), make_product_response("Silk", 1), 1000,
                  &hit);
  EXPECT_FALSE(hit);
  // 3. Second product request: must be a cache hit.
  run_transaction("u1", make_product_request("3gf3"), make_product_response("Silk", 1), 2000,
                  &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(engine_->stats().cache_hits, 1u);
  EXPECT_GT(engine_->stats().prefetches_issued, 0u);
}

TEST_F(ProxyTest, PrefetchedResponseIdenticalToOrigin) {
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("Silk", 1500), 1);
  bool hit = false;
  const auto resp = run_transaction("u1", make_product_request("b"),
                                    make_product_response("ignored", 0), 2, &hit);
  ASSERT_TRUE(hit);
  // Served body is the prefetched origin payload (canned per-item merchant).
  EXPECT_EQ(resp.body, make_product_response("m_b", 1500).body);
}

TEST_F(ProxyTest, ExpiredEntryIsMissAndRefetched) {
  config_.default_expiration = milliseconds(10);
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1000);
  bool hit = true;
  run_transaction("u1", make_product_request("b"), make_product_response("m", 1),
                  seconds(10), &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(engine_->stats().cache_expired, 1u);
}

TEST_F(ProxyTest, UsersAreIsolated) {
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  // u2 never saw anything: its identical request must NOT be served from
  // u1's cache.
  bool hit = true;
  run_transaction("u2", make_product_request("b"), make_product_response("m", 1), 2, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(engine_->user_count(), 2u);
}

TEST_F(ProxyTest, DisabledSignatureIsNotPrefetched) {
  const auto* product = set_.find_by_label("wish.product");
  SignaturePolicy p;
  p.hash = product->id;
  p.prefetch = false;
  config_.set_policy(p);

  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  bool hit = true;
  run_transaction("u1", make_product_request("b"), make_product_response("m", 1), 2, &hit);
  EXPECT_FALSE(hit);
  EXPECT_GT(engine_->stats().skipped_disabled, 0u);
}

TEST_F(ProxyTest, ZeroProbabilityNeverPrefetches) {
  config_.global_probability = 0.0;
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  EXPECT_EQ(engine_->stats().prefetches_issued, 0u);
  EXPECT_GT(engine_->stats().skipped_probability, 0u);
}

TEST_F(ProxyTest, ConditionGatesPrefetch) {
  const auto* related = set_.find_by_label("wish.related");
  SignaturePolicy p;
  p.hash = related->id;
  p.conditions = {{"data.contest.price", FieldCondition::Op::kGt, "1000"}};
  config_.set_policy(p);

  // Teach the engine related's run-time values (host) with one observation.
  http::Request rel;
  rel.method = "POST";
  rel.uri = http::Uri::parse("https://wish.com/related/get");
  rel.set_form_fields({{"merchant", "Warmup"}});
  http::Response rel_resp;
  rel_resp.body = "{}";
  run_transaction("u1", rel, rel_resp, 0);

  // Product response with price 500: the ready related instance must be
  // rejected by the price condition.
  run_transaction("u1", make_product_request("a"), make_product_response("Cheap", 500), 1);
  EXPECT_GT(engine_->stats().skipped_condition, 0u);

  // Price above the threshold: prefetch proceeds.
  const auto issued_before = engine_->stats().prefetches_issued;
  run_transaction("u1", make_product_request("b"), make_product_response("Lux", 2000), 2);
  EXPECT_GT(engine_->stats().prefetches_issued, issued_before);
}

TEST_F(ProxyTest, DataBudgetStopsPrefetching) {
  config_.data_budget = 1;  // one-byte bucket: no expected size fits
  std::vector<std::string> ids;
  for (int i = 0; i < 10; ++i) ids.push_back("id" + std::to_string(i));
  run_transaction("u1", make_feed_request(), make_feed_response(ids), 0);
  run_transaction("u1", make_product_request("id0"), make_product_response("m", 1), 1);
  run_transaction("u1", make_feed_request(), make_feed_response({"fresh1", "fresh2"}), 2);
  EXPECT_GT(engine_->stats().policy_rejected_budget, 0u);
  EXPECT_EQ(engine_->stats().prefetches_issued, 0u);
}

TEST_F(ProxyTest, NonPositiveDataBudgetIsRejected) {
  // Unlimited is spelled unset: a budget of 0 (or less) must not silently
  // flip to "no limit" in the token bucket.
  for (const Bytes budget : {Bytes{0}, Bytes{-1}}) {
    config_.data_budget = budget;
    EXPECT_THROW(remake_engine(), InvalidArgumentError) << budget;
  }
  config_.data_budget.reset();
  EXPECT_NO_THROW(remake_engine());
}

TEST_F(ProxyTest, AddedHeaderMarksPrefetchButStillMatchesClient) {
  const auto* product = set_.find_by_label("wish.product");
  SignaturePolicy p;
  p.hash = product->id;
  p.add_headers = {{"X-Appx", "prefetch"}};
  config_.set_policy(p);
  engine_ = std::make_unique<ProxyEngine>(&set_, &config_, 7);  // re-read header names

  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  bool hit = false;
  run_transaction("u1", make_product_request("b"), make_product_response("m", 1), 2, &hit);
  EXPECT_TRUE(hit) << "prefetch-marker header must not break exact matching";
}

TEST_F(ProxyTest, ChainedPrefetchReachesSecondHop) {
  // Wish merchant-page chain (Fig. 3c): feed -> product -> related. After
  // the app has shown each transaction once (runtime values known), a new
  // feed item should trigger product prefetch, whose prefetched response
  // triggers related prefetch — without any client involvement.
  run_transaction("u1", make_feed_request(), make_feed_response({"seed"}), 0);
  run_transaction("u1", make_product_request("seed"), make_product_response("SeedStore", 1), 1);
  http::Request img;
  img.uri = http::Uri::parse("https://img.wish.com/img?cid=seed");
  http::Response img_resp;
  img_resp.opaque_payload = kilobytes(300);
  run_transaction("u1", img, img_resp, 1);
  http::Request rel;
  rel.method = "POST";
  rel.uri = http::Uri::parse("https://wish.com/related/get");
  rel.set_form_fields({{"merchant", "SeedStore"}});
  http::Response rel_resp;
  rel_resp.body = "{}";
  run_transaction("u1", rel, rel_resp, 2);

  // New feed: both hops should now be prefetched via the chain.
  const auto before = engine_->stats().prefetches_issued;
  run_transaction("u1", make_feed_request(), make_feed_response({"chained"}), 3);
  const auto issued = engine_->stats().prefetches_issued - before;
  EXPECT_GE(issued, 3u);  // product + image + related (chained through product)

  bool hit = false;
  http::Request rel2 = rel;
  rel2.set_form_fields({{"merchant", "m_chained"}});  // canned prefetch merchant
  run_transaction("u1", rel2, rel_resp, 4, &hit);
  EXPECT_TRUE(hit);
}

TEST_F(ProxyTest, FailedPrefetchNotCached) {
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  Session session = engine_->session("u1", 1);
  Decision d = session.on_request(make_product_request("a"), 1);
  ASSERT_EQ(d.served, nullptr);
  // The sibling instance ("b") becomes prefetchable; fail its prefetch.
  Decision r = session.on_response(make_product_request("a"), make_product_response("m", 1), 1);
  for (auto& job : r.prefetches) d.prefetches.push_back(std::move(job));
  ASSERT_FALSE(d.prefetches.empty());
  for (const auto& job : d.prefetches) {
    http::Response fail;
    fail.status = 500;
    session.on_prefetch_response(job, fail, 1, 100.0);
  }
  EXPECT_GT(engine_->stats().prefetch_failures, 0u);
  const auto* cache = engine_->cache_for("u1");
  ASSERT_NE(cache, nullptr);
  for (const auto& job : d.prefetches) {
    EXPECT_FALSE(cache->contains(job.cache_key, 1));
  }
  EXPECT_EQ(cache->size(), 0u);
}

TEST_F(ProxyTest, DuplicatePrefetchSuppressedWhileFresh) {
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  const auto issued_before = engine_->stats().prefetches_issued;
  // Same feed again: instances already cached -> no re-issue.
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 2);
  const auto product_issued = engine_->stats().prefetches_issued - issued_before;
  EXPECT_GT(engine_->stats().skipped_duplicate, 0u);
  EXPECT_EQ(product_issued, 0u);
}

TEST_F(ProxyTest, ExpiredEntryIsReprefetchedOnNextObservation) {
  config_.default_expiration = seconds(10);
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), seconds(1));
  // Fresh: hit.
  bool hit = false;
  run_transaction("u1", make_product_request("b"), make_product_response("m", 1), seconds(2),
                  &hit);
  ASSERT_TRUE(hit);
  // Long pause: entries expire. Re-observing the feed re-emits the ready
  // instances, which are re-prefetched because the cache no longer holds
  // them — the behaviour the engine's re-emission design exists for.
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), seconds(60));
  run_transaction("u1", make_product_request("b"), make_product_response("m", 1), seconds(61),
                  &hit);
  EXPECT_TRUE(hit) << "expired entry must be re-prefetched after re-observation";
}

TEST_F(ProxyTest, StatsDataAccounting) {
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  // stats() refreshes a shared snapshot: a held reference re-reads the
  // registry on the next stats() call.
  const auto& stats = engine_->stats();
  EXPECT_GT(stats.bytes_origin_to_proxy, 0);
  EXPECT_GT(stats.bytes_prefetched, 0);
  bool hit = false;
  run_transaction("u1", make_product_request("b"), make_product_response("m", 1), 2, &hit);
  ASSERT_TRUE(hit);
  engine_->stats();
  EXPECT_GT(stats.bytes_served_from_cache, 0);
}

// Live request instances summed over users, so learning-state size is
// visible from the registry alone.
TEST_F(ProxyTest, LearningInstancesGaugeTracksLiveInstances) {
  config_.user_idle_timeout = seconds(30);
  remake_engine();
  const auto live = [&](const std::string& user) {
    std::int64_t count = 0;
    for (const auto& sig : set_.all()) {
      count += static_cast<std::int64_t>(engine_->learning_for(user)->instances_of(sig->id).size());
    }
    return count;
  };
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b", "c"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  ASSERT_GT(live("u1"), 0);
  EXPECT_EQ(engine_->metrics()->gauge_value("appx_learning_instances"), live("u1"));

  run_transaction("u2", make_feed_request(), make_feed_response({"d", "e"}), 2);
  EXPECT_EQ(engine_->metrics()->gauge_value("appx_learning_instances"), live("u1") + live("u2"));

  // Evicted users take their instances out of the gauge.
  run_transaction("u3", make_feed_request(), make_feed_response({"f"}), minutes(10));
  ASSERT_EQ(engine_->learning_for("u1"), nullptr);
  EXPECT_EQ(engine_->metrics()->gauge_value("appx_learning_instances"), live("u3"));
}

TEST_F(ProxyTest, CacheEntriesGaugeTracksRealOccupancy) {
  config_.user_idle_timeout = seconds(30);
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b", "c"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  const PrefetchCache* u1_cache = engine_->cache_for("u1");
  ASSERT_NE(u1_cache, nullptr);
  ASSERT_GT(u1_cache->size(), 0u);
  // The gauge reports live cache occupancy, not the number of prefetches ever
  // issued (the old `prefetched_entries` misnomer).
  EXPECT_EQ(engine_->stats().cache_entries, u1_cache->size());
  EXPECT_EQ(engine_->stats().cache_bytes, u1_cache->bytes());
  EXPECT_EQ(engine_->metrics()->gauge_value("appx_cache_entries"),
            static_cast<std::int64_t>(u1_cache->size()));

  // A second user's cache adds to the same aggregate gauge.
  run_transaction("u2", make_feed_request(), make_feed_response({"a", "b", "c"}), 2);
  run_transaction("u2", make_product_request("a"), make_product_response("m", 1), 3);
  const PrefetchCache* u2_cache = engine_->cache_for("u2");
  ASSERT_NE(u2_cache, nullptr);
  EXPECT_EQ(engine_->stats().cache_entries, u1_cache->size() + u2_cache->size());

  // A new arrival sweeps idle users; their whole footprint leaves the gauge.
  run_transaction("u3", make_feed_request(), make_feed_response({"a"}), minutes(10));
  EXPECT_EQ(engine_->cache_for("u1"), nullptr);
  EXPECT_EQ(engine_->cache_for("u2"), nullptr);
  EXPECT_EQ(engine_->stats().cache_entries, engine_->cache_for("u3")->size());
}

TEST_F(ProxyTest, DroppedPrefetchReleasesOutstandingWindow) {
  config_.max_outstanding_prefetches = 1;
  remake_engine();
  Session session = engine_->session("u1", 0);
  std::vector<PrefetchJob> jobs;
  const auto collect = [&](Decision d) {
    for (auto& job : d.prefetches) jobs.push_back(std::move(job));
  };
  collect(session.on_request(make_feed_request(), 0));
  collect(session.on_response(make_feed_request(), make_feed_response({"a", "b"}), 0));
  collect(session.on_request(make_product_request("a"), 1));
  collect(session.on_response(make_product_request("a"), make_product_response("m", 1), 1));
  ASSERT_EQ(jobs.size(), 1u);  // window of one
  // Abandon the job (queue overflow / torn-down connection). Without the
  // explicit drop path this slot would leak and throttle prefetching to zero.
  session.on_prefetch_dropped(jobs[0], 3);
  EXPECT_EQ(engine_->stats().prefetches_dropped, 1u);
  EXPECT_EQ(session.take_prefetches(4).size(), 1u)
      << "a dropped job must release its outstanding-window slot";
}

TEST_F(ProxyTest, IdleUsersAreEvicted) {
  config_.user_idle_timeout = seconds(30);
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a"}), 0);
  EXPECT_EQ(engine_->user_count(), 1u);
  // u2 shows up long after u1 went quiet: u1's per-user state is reaped.
  run_transaction("u2", make_feed_request(), make_feed_response({"a"}), minutes(5));
  EXPECT_EQ(engine_->user_count(), 1u);
  EXPECT_EQ(engine_->stats().users_evicted, 1u);
  EXPECT_EQ(engine_->cache_for("u1"), nullptr);
  EXPECT_NE(engine_->cache_for("u2"), nullptr);
}

TEST_F(ProxyTest, ActiveUserSurvivesIdleSweep) {
  config_.user_idle_timeout = seconds(30);
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), seconds(25));
  // u1 was active 25 s ago: under the 30 s timeout, so it stays.
  run_transaction("u2", make_feed_request(), make_feed_response({"a"}), seconds(50));
  EXPECT_EQ(engine_->user_count(), 2u);
  EXPECT_EQ(engine_->stats().users_evicted, 0u);
}

TEST_F(ProxyTest, UserCapEvictsLeastRecentlyActive) {
  config_.user_idle_timeout = std::nullopt;  // isolate the hard cap
  config_.max_users = 2;
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a"}), 0);
  run_transaction("u2", make_feed_request(), make_feed_response({"a"}), 1000);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 2000);
  // Third user: the cap holds by evicting u2, the least recently active.
  run_transaction("u3", make_feed_request(), make_feed_response({"a"}), 3000);
  EXPECT_EQ(engine_->user_count(), 2u);
  EXPECT_EQ(engine_->stats().users_evicted, 1u);
  EXPECT_EQ(engine_->cache_for("u2"), nullptr);
  EXPECT_NE(engine_->cache_for("u1"), nullptr);
  EXPECT_NE(engine_->cache_for("u3"), nullptr);
}

TEST_F(ProxyTest, EvictedKeyNotReprefetchedWithinGeneration) {
  config_.cache_max_entries = 1;  // every insert evicts the previous entry
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  EXPECT_GT(engine_->stats().evicted_lru, 0u);
  // Re-observing the feed with no intervening client request re-emits the
  // ready instances. Their entries were evicted under cache pressure, but
  // re-admitting them would let a cyclic dependency graph prefetch forever;
  // the per-generation guard skips them (and drain_prefetches terminating at
  // all is the real assertion here).
  Session session = engine_->session("u1", 2);
  Decision d = session.on_response(make_feed_request(), make_feed_response({"a", "b"}), 2);
  answer_prefetches(session, std::move(d.prefetches), 2);
  EXPECT_GT(engine_->stats().skipped_refetch, 0u);
}

TEST_F(ProxyTest, PerUserCacheHonoursConfiguredBounds) {
  config_.cache_max_entries = 4;
  remake_engine();
  run_transaction("u1", make_feed_request(),
                  make_feed_response({"a", "b", "c", "d", "e", "f", "g", "h"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  const auto* cache = engine_->cache_for("u1");
  ASSERT_NE(cache, nullptr);
  EXPECT_LE(cache->size(), 4u);
  EXPECT_EQ(cache->limits().max_entries, 4u);
}

// --- Policy engine through the proxy ---------------------------------------------

TEST_F(ProxyTest, DefaultPolicyAdmitsEveryCandidate) {
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  EXPECT_GT(engine_->stats().prefetches_issued, 0u);
  EXPECT_EQ(engine_->stats().policy_admitted, engine_->stats().prefetches_issued);
  EXPECT_EQ(engine_->stats().policy_rejected_value, 0u);
  EXPECT_EQ(engine_->stats().policy_rejected_budget, 0u);
}

TEST_F(ProxyTest, DefaultPolicyAdmitsEveryCandidateUnderOverload) {
  // A floor of 0 stays 0 however often overload multiplies the threshold.
  config_.policy.target_queue_depth = 1;
  remake_engine();
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) ids.push_back("id" + std::to_string(i));
  for (int round = 0; round < 5; ++round) {
    run_transaction("u1", make_feed_request(), make_feed_response(ids), round * 2);
    run_transaction("u1", make_product_request("id0"), make_product_response("m", 1),
                    round * 2 + 1);
  }
  EXPECT_GT(engine_->stats().prefetches_issued, 0u);
  EXPECT_EQ(engine_->stats().policy_rejected_value, 0u);
  EXPECT_EQ(engine_->stats().policy_rejected_budget, 0u);
  EXPECT_EQ(engine_->stats().policy_admitted, engine_->stats().prefetches_issued);
}

TEST_F(ProxyTest, PolicyPermissiveFloorAdmitsAndStillHits) {
  config_.policy.min_value = 1e-9;  // admit everything
  config_.policy.learn_expiry = true;
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  bool hit = false;
  run_transaction("u1", make_product_request("b"), make_product_response("m", 1), 2, &hit);
  EXPECT_TRUE(hit);
  EXPECT_GT(engine_->stats().policy_admitted, 0u);
  EXPECT_EQ(engine_->stats().policy_admitted, engine_->stats().prefetches_issued);
}

TEST_F(ProxyTest, PolicyHighFloorRejectsByValue) {
  // The prior estimate is 0.5 × 50 ms / 8 KB ≈ 3.1 ms/KB: nothing clears
  // the ceiling.
  config_.policy.min_value = policy::kMaxThreshold;
  config_.policy.learn_expiry = true;
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  EXPECT_EQ(engine_->stats().prefetches_issued, 0u);
  EXPECT_GT(engine_->stats().policy_rejected_value, 0u);
}

TEST_F(ProxyTest, PolicyBudgetPacerRejectsWithoutHardCliff) {
  config_.policy.min_value = 1e-9;
  config_.policy.learn_expiry = true;
  config_.data_budget = 1;  // pacer bucket of one byte: no expected size fits
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1);
  EXPECT_GT(engine_->stats().policy_rejected_budget, 0u);
}

TEST_F(ProxyTest, WastedAccountingCountsExpiredUnusedPrefetches) {
  config_.default_expiration = milliseconds(10);
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 1000);
  // The prefetched sibling expires unused; requesting it later both misses
  // and books the expired entry as waste.
  bool hit = true;
  run_transaction("u1", make_product_request("b"), make_product_response("m", 1),
                  seconds(10), &hit);
  EXPECT_FALSE(hit);
  EXPECT_GT(engine_->stats().prefetch_wasted_entries, 0u);
  EXPECT_GT(engine_->stats().prefetch_wasted_bytes, 0);
}

TEST_F(ProxyTest, BoundedEngineQueueShedsBeforeIssue) {
  config_.max_queued_prefetches = 1;
  remake_engine();
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) ids.push_back("id" + std::to_string(i));
  run_transaction("u1", make_feed_request(), make_feed_response(ids), 0);
  run_transaction("u1", make_product_request("id0"), make_product_response("m", 1), 1);
  const auto& stats = engine_->stats();
  EXPECT_GT(stats.skipped_queue_full, 0u);
  // Shed jobs were never issued: the resolution balance holds without them.
  EXPECT_EQ(stats.prefetch_responses + stats.prefetch_failures + stats.prefetches_dropped,
            stats.prefetches_issued);
}

// --- content interning across users (DESIGN.md §5h Rule 4) -----------------------

TEST_F(ProxyTest, IdenticalPrefetchesAcrossUsersSharePointerIdenticalResponses) {
  for (const std::string user : {"u1", "u2"}) {
    run_transaction(user, make_feed_request(), make_feed_response({"a", "b", "c"}), 0);
    run_transaction(user, make_product_request("a"), make_product_response("m", 1), 1);
  }
  Decision d1 = engine_->session("u1", 2).on_request(make_product_request("b"), 2);
  Decision d2 = engine_->session("u2", 2).on_request(make_product_request("b"), 2);
  ASSERT_NE(d1.served, nullptr);
  ASSERT_NE(d2.served, nullptr);
  EXPECT_EQ(d1.served.get(), d2.served.get());
  EXPECT_EQ(d1.served->body, make_product_response("m_b", 1500).body);

  // Every u2 insert found u1's copy; the logical gauge still counts both
  // users' entries, the resident gauge one copy of each distinct response.
  const obs::MetricsRegistry& reg = *engine_->metrics();
  EXPECT_GE(reg.counter_value("appx_cache_shared_total"),
            static_cast<std::int64_t>(engine_->cache_for("u2")->entries_inserted()));
  const std::int64_t logical = reg.gauge_value("appx_cache_bytes");
  const std::int64_t resident = reg.gauge_value("appx_cache_resident_bytes");
  EXPECT_EQ(logical, engine_->cache_for("u1")->bytes() + engine_->cache_for("u2")->bytes());
  EXPECT_GT(resident, 0);
  EXPECT_LE(2 * resident, logical);
  EXPECT_EQ(resident, engine_->interner().resident_bytes());
}

TEST_F(ProxyTest, SharedResponsesKeepPerUserExpiry) {
  config_.default_expiration = seconds(10);
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 0);
  run_transaction("u2", make_feed_request(), make_feed_response({"a", "b"}), seconds(5));
  run_transaction("u2", make_product_request("a"), make_product_response("m", 1), seconds(5));
  ASSERT_GT(engine_->metrics()->counter_value("appx_cache_shared_total"), 0);

  // u1's copy of b was stamped at t=0, u2's at t=5s: same bytes, own TTLs.
  bool hit = true;
  run_transaction("u1", make_product_request("b"), make_product_response("m", 1), seconds(12),
                  &hit);
  EXPECT_FALSE(hit);
  run_transaction("u2", make_product_request("b"), make_product_response("m", 1), seconds(12),
                  &hit);
  EXPECT_TRUE(hit);
}

TEST_F(ProxyTest, SharedResponsesKeepPerUserUseWasteAndEviction) {
  config_.user_idle_timeout = minutes(1);
  remake_engine();
  run_transaction("u1", make_feed_request(), make_feed_response({"a", "b", "c"}), 0);
  run_transaction("u1", make_product_request("a"), make_product_response("m", 1), 0);
  // u1 uses its entry for b before u2 prefetches the same response.
  Decision u1_hit = engine_->session("u1", seconds(1)).on_request(make_product_request("b"),
                                                                  seconds(1));
  ASSERT_NE(u1_hit.served, nullptr);
  const std::weak_ptr<const http::Response> shared_b = u1_hit.served;
  u1_hit = Decision{};
  run_transaction("u2", make_feed_request(), make_feed_response({"a", "b", "c"}), seconds(40));
  run_transaction("u2", make_product_request("a"), make_product_response("m", 1), seconds(40));
  EXPECT_EQ(engine_->cache_for("u1")->entries_used(), 1u);
  EXPECT_EQ(engine_->cache_for("u2")->entries_used(), 0u);

  // A new arrival evicts the idle u1: exactly u1's unused entries are waste.
  const Bytes u1_unused = engine_->cache_for("u1")->unused_bytes();
  const std::size_t wasted_before = engine_->stats().prefetch_wasted_entries;
  const Bytes wasted_bytes_before = engine_->stats().prefetch_wasted_bytes;
  run_transaction("u3", make_feed_request(), make_feed_response({"z"}), seconds(65));
  ASSERT_EQ(engine_->cache_for("u1"), nullptr);
  ASSERT_NE(engine_->cache_for("u2"), nullptr);
  EXPECT_EQ(engine_->stats().prefetch_wasted_bytes - wasted_bytes_before, u1_unused);
  EXPECT_GT(engine_->stats().prefetch_wasted_entries, wasted_before);

  // u2's entry still holds the shared response; its own first use fires now.
  ASSERT_FALSE(shared_b.expired());
  Decision u2_hit = engine_->session("u2", seconds(66)).on_request(make_product_request("b"),
                                                                   seconds(66));
  ASSERT_NE(u2_hit.served, nullptr);
  EXPECT_EQ(u2_hit.served.get(), shared_b.lock().get());
  EXPECT_EQ(engine_->cache_for("u2")->entries_used(), 1u);
  u2_hit = Decision{};

  // Once the last holder is evicted too, the response itself is gone.
  run_transaction("u4", make_feed_request(), make_feed_response({"y"}), minutes(10));
  ASSERT_EQ(engine_->cache_for("u2"), nullptr);
  EXPECT_TRUE(shared_b.expired());
}

}  // namespace
}  // namespace appx::core
