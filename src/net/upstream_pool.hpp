// Per-host HTTP/1.1 keep-alive connection pool for proxy->origin fetches.
//
// The seed runtime opened a fresh TCP connection to the origin for EVERY
// upstream fetch and prefetch — a full handshake RTT added to every cache
// miss, and at prefetch fan-out rates a connect storm against the origin.
// UpstreamPool keeps completed connections parked per host and hands them
// back to the next fetch:
//
//   * bounded: at most `max_per_host` idle connections per origin
//     (oldest-idle evicted beyond it); anything over the bound closes.
//   * health-checked on reuse: a parked socket the origin has since closed
//     (FIN pending) or polluted (stray bytes) is detected with a
//     non-blocking MSG_PEEK and discarded, falling through to the next
//     parked socket or a fresh connect. Reuse never hands out a socket with
//     buffered input.
//   * aged out: idle connections older than `idle_timeout` are discarded on
//     acquire (the origin's own idle timer has likely fired by then).
//   * stop-safe: every leased fd is registered until release, so shutdown()
//     can ::shutdown() in-flight fetches mid-read; acquire() after shutdown
//     throws, and released connections close instead of re-parking.
//
// The pool is shared by the miss path and the prefetch workers (both sides
// of the paper's §5 worker split), so a hot origin sees one warm connection
// set, not per-path churn. Callers that detect a stale socket only at use
// (write succeeded into the FIN race, read hit EOF) retry once on a fresh
// connect — see LiveProxyServer::fetch_upstream.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace appx::net {

class UpstreamPool {
 public:
  struct Options {
    std::size_t max_per_host = 8;       // 0 disables pooling entirely
    Duration idle_timeout = seconds(30);  // 0 = parked connections never age out
    Duration connect_timeout = seconds(5);
  };

  // `registry` may be null (no metrics). Counter names:
  // appx_upstream_{reuse,connect,stale,retry}_total, gauge appx_upstream_idle.
  explicit UpstreamPool(Options options, obs::MetricsRegistry* registry = nullptr);
  ~UpstreamPool();
  UpstreamPool(const UpstreamPool&) = delete;
  UpstreamPool& operator=(const UpstreamPool&) = delete;

  // A borrowed upstream connection. Move-only; must be returned via
  // release() (or destroyed — which counts as a non-reusable release: the
  // destructor unregisters the fd from the pool and closes the connection,
  // so an abandoned lease never leaves a dangling entry for shutdown() to
  // ::shutdown() after the fd number has been recycled).
  class Lease {
   public:
    Lease() = default;
    ~Lease();
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;

    TcpStream& stream() { return stream_; }
    // True when this connection came out of the pool (vs a fresh connect):
    // the caller should retry once on a fresh connection if it fails mid-use.
    bool reused() const { return reused_; }
    bool valid() const { return stream_.valid(); }

   private:
    friend class UpstreamPool;
    Lease(UpstreamPool* pool, TcpStream stream, std::string key, bool reused)
        : pool_(pool), stream_(std::move(stream)), key_(std::move(key)), reused_(reused) {}
    // Unregister from the pool without parking (destructor / move-assign).
    void abandon();
    UpstreamPool* pool_ = nullptr;
    TcpStream stream_{Fd{}};
    std::string key_;
    bool reused_ = false;
  };

  // Hand out a healthy pooled connection for host:port, or a fresh connect.
  // `force_fresh` skips the pool (retry after a stale-at-use failure).
  // Throws Error/TimeoutError on connect failure or after shutdown().
  Lease acquire(const std::string& host, std::uint16_t port, bool force_fresh = false);

  // Return a lease. `reusable` means the HTTP exchange completed cleanly at
  // a message boundary with no residual bytes; anything else closes.
  void release(Lease lease, bool reusable);

  // Close parked connections, ::shutdown() leased ones (unblocking fetches
  // stuck in read), and refuse further acquires.
  void shutdown();

  // --- introspection (tests, /appx/metrics) ---------------------------------
  std::size_t idle_count() const;
  std::uint64_t reuses() const { return reuses_.load(std::memory_order_relaxed); }
  std::uint64_t connects() const { return connects_.load(std::memory_order_relaxed); }
  std::uint64_t stale_discards() const { return stale_.load(std::memory_order_relaxed); }
  // Recorded by callers that retried a stale-at-use connection.
  void note_retry();
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

 private:
  struct Idle {
    TcpStream stream{Fd{}};
    std::chrono::steady_clock::time_point parked_at;
  };

  // True when the parked socket is still usable: open, no pending bytes.
  static bool healthy(const TcpStream& stream);

  TcpStream connect_fresh(const std::string& host, std::uint16_t port);
  void update_idle_gauge_locked();
  // Drop `fd` from leased_fds_ (a Lease died without release()).
  void forget_lease(int fd);

  Options options_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_;
  std::map<std::string, std::deque<Idle>> idle_;  // key = host:port, FIFO per host
  std::set<int> leased_fds_;                      // in-flight fetches, for shutdown()

  std::atomic<std::uint64_t> reuses_{0};
  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> stale_{0};
  std::atomic<std::uint64_t> retries_{0};

  obs::Counter* reuse_total_ = nullptr;
  obs::Counter* connect_total_ = nullptr;
  obs::Counter* stale_total_ = nullptr;
  obs::Counter* retry_total_ = nullptr;
  obs::Gauge* idle_gauge_ = nullptr;
};

}  // namespace appx::net
