// Live (real-socket) origin server and acceleration proxy, on an
// event-driven runtime (DESIGN.md §5g).
//
// The simulator variant of these lives in eval/testbed; this is the same
// engine on actual TCP connections, mirroring the paper's deployable
// artefact (their mitmproxy-based prototype):
//
//   * LiveOriginServer — serves an apps::OriginServer over HTTP/1.1 with
//     keep-alive.
//   * LiveProxyServer — accepts client connections, serves exact matches
//     from the engine's cache (tagging them "X-Appx-Cache: hit"), forwards
//     misses upstream, and runs dynamic learning + prefetching on a pool of
//     worker threads (paper §5: "we assign different worker threads to
//     handle dynamic learning and prefetching").
//
// Network runtime (replacing the seed's thread-per-connection servers):
//   * N event-loop threads (EngineOptions.loop_threads, default
//     hardware_concurrency), each owning one epoll event loop and one
//     SO_REUSEPORT listener on the shared port — the kernel shards accepted
//     connections across loops, no accept lock, no per-connection thread.
//   * Each connection is a non-blocking Conn state machine pinned to its
//     loop: reads feed an incremental HttpParser (one scratch buffer per
//     connection, reused across keep-alive requests), responses drain
//     through a pending-write queue flushed with writev (head + body leave
//     in one syscall), and a timer-heap idle timeout reaps silent or
//     slow-loris connections.
//   * Engine events and blocking upstream I/O never run on a loop thread:
//     complete requests are handed to EngineOptions.request_workers threads
//     that drive the session API (shard mutexes can block a worker, never a
//     reactor) and post the finished response back to the owning loop.
//   * Upstream fetches — miss path and prefetch workers alike — draw
//     per-host keep-alive connections from an UpstreamPool instead of
//     reconnecting per fetch; stale pooled sockets are health-checked on
//     reuse and retried once on a fresh connect when they fail at use.
//
// Liveness and resource bounds (carried over from the blocking runtime):
//   * Upstream fetches carry connect/read/write timeouts and a per-request
//     deadline; a dead origin degrades to a 504 instead of hanging a worker.
//   * Prefetching runs on N workers over a shared bounded queue with
//     per-user ordering; overflow drops the oldest job back to the engine.
//   * stop() closes listeners and live connections, unblocks in-flight
//     upstream fetches via the pool, and joins every thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/server.hpp"
#include "core/engine_options.hpp"
#include "core/proxy.hpp"
#include "core/session.hpp"
#include "net/event_loop.hpp"
#include "net/http_io.hpp"
#include "net/socket.hpp"
#include "net/upstream_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace appx::net {

class Conn;

// One reactor thread: an event loop plus its SO_REUSEPORT listener and the
// connections the kernel sharded onto it. Connections are owned here and
// never migrate between shards.
struct LoopShard {
  std::unique_ptr<EventLoop> loop;
  std::unique_ptr<TcpListener> listener;
  std::map<int, std::shared_ptr<Conn>> conns;  // loop-thread only
  std::thread thread;
};

// A fixed pool of threads running engine events and blocking upstream I/O so
// the reactors never block. Tasks queued but unstarted at stop() are
// destroyed, not run (their captured connection handles release via RAII).
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();
  void submit(std::function<void()> task);
  void stop();
  std::size_t queue_depth() const;

 private:
  void worker();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

class LiveOriginServer {
 public:
  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving immediately on
  // `loop_threads` reactor threads (0 = hardware_concurrency). `origin` must
  // outlive the server; apps::OriginServer::serve is internally synchronized,
  // so loops call it concurrently with no server-wide lock.
  LiveOriginServer(apps::OriginServer* origin, std::uint16_t port = 0,
                   std::size_t loop_threads = 0);
  ~LiveOriginServer();
  LiveOriginServer(const LiveOriginServer&) = delete;
  LiveOriginServer& operator=(const LiveOriginServer&) = delete;

  std::uint16_t port() const { return port_; }
  std::size_t requests_served() const { return served_.load(); }
  // Currently open client connections across all loops.
  std::size_t open_connections() const { return open_conns_.load(); }
  std::size_t loop_thread_count() const { return shards_.size(); }
  // Origin-side metrics (request count, serve-time histogram); also served
  // over HTTP at /appx/metrics[.json].
  const obs::MetricsRegistry& metrics() const { return registry_; }
  void stop();

 private:
  // Loop-thread entry; the parsed request rides on the connection as a
  // zero-copy view (Conn::request_view) instead of a message argument.
  void handle_request(const std::shared_ptr<Conn>& conn);
  std::shared_ptr<Conn> make_conn(LoopShard* shard, TcpStream stream);

  apps::OriginServer* origin_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> served_{0};
  std::atomic<std::size_t> open_conns_{0};
  obs::MetricsRegistry registry_;
  obs::Counter* requests_total_ = nullptr;
  obs::Histogram* serve_us_ = nullptr;
  obs::Gauge* conns_gauge_ = nullptr;
  std::vector<std::unique_ptr<LoopShard>> shards_;
};

class LiveProxyServer {
 public:
  // Routes upstream connections by request host: host -> 127.0.0.1:port.
  using UpstreamMap = std::map<std::string, std::uint16_t>;

  // `engine` must outlive the server (any ProxyLike: the sharded APPx
  // runtime, a single-shard engine, or a baseline). Throws InvalidArgument
  // when options.validate() fails — bad bounds are rejected, never clamped.
  LiveProxyServer(core::ProxyLike* engine, UpstreamMap upstreams, std::uint16_t port = 0,
                  core::EngineOptions options = {});
  ~LiveProxyServer();
  LiveProxyServer(const LiveProxyServer&) = delete;
  LiveProxyServer& operator=(const LiveProxyServer&) = delete;

  std::uint16_t port() const { return port_; }
  const core::EngineOptions& options() const { return options_; }
  void stop();

  // Blocks until the prefetch queue is empty and no prefetch is in flight
  // (used by tests and demos to observe a settled cache).
  void drain_prefetches();

  // Currently open client connections across all loops.
  std::size_t open_connections() const { return open_conns_.load(); }
  std::size_t loop_thread_count() const { return shards_.size(); }
  // Prefetch jobs dropped by queue overflow.
  std::size_t prefetch_jobs_dropped() const { return queue_dropped_.load(); }
  // The shared origin-side keep-alive pool (reuse/connect/stale counters).
  const UpstreamPool& upstream_pool() const { return *pool_; }

  // The registry scraped at /appx/metrics: the engine's own registry when it
  // has one (ProxyEngine / ShardedProxyEngine), otherwise a server-local
  // registry holding just the transport-level metrics.
  obs::MetricsRegistry& metrics() { return *registry_; }
  const obs::MetricsRegistry& metrics() const { return *registry_; }
  // Recent per-request traces, also served at /appx/trace.
  const obs::TraceRing& traces() const { return traces_; }

 private:
  // Loop-thread entry: admin requests answered inline, everything else
  // dispatched to the request workers. The request rides on the connection
  // as a zero-copy view (Conn::request_view) over its pinned parser buffer.
  void dispatch(const std::shared_ptr<Conn>& conn);
  std::shared_ptr<Conn> make_conn(LoopShard* shard, TcpStream stream);
  // Worker-thread body: engine events + upstream fetch for one request.
  // Calls Conn::complete exactly once (unless it throws).
  void process_request(Conn* conn, SimTime received);
  http::Response handle_admin(const http::Request& request);
  // Durable learned state (DESIGN.md §5k): render the engine's learned state
  // as one binary snapshot container / restore it from the configured path
  // at startup (missing or unreadable snapshots degrade to a logged cold
  // start, never a construction failure).
  std::vector<std::uint8_t> serialize_engine_state();
  void restore_engine_state();
  void prefetch_worker();
  // Queue the jobs an engine event decided to issue; overflow drops the
  // oldest queued job back into the engine (outstanding window released).
  void enqueue_jobs(std::vector<core::PrefetchJob> jobs);
  // Serialises engine access for engines that need it; returns an unlocked
  // (empty) guard when the engine synchronises itself (ShardedProxyEngine),
  // so shard-parallel events never funnel through one server mutex.
  std::unique_lock<std::mutex> engine_guard();
  // Oldest queued job whose user is not being worked on (per-user ordering),
  // or end() when no job is eligible. Call with queue_mutex_ held.
  std::deque<core::PrefetchJob>::iterator next_job_locked();
  // Fetch through the keep-alive pool; a reused connection that fails at use
  // is retried once on a fresh connect. Degrades to canned 502/504 (shared
  // singletons — no per-failure assembly). The shared_ptr lets the response
  // ride to the client's write queue without copying.
  std::shared_ptr<const http::Response> fetch_upstream(const http::Request& request);
  SimTime now() const;

  core::ProxyLike* engine_;
  UpstreamMap upstreams_;
  core::EngineOptions options_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> open_conns_{0};

  std::mutex engine_mutex_;  // unused when engine_->thread_safe()

  // Transport-level observability. own_registry_ backs registry_ only for
  // engines without one; metric pointers are resolved once in the ctor.
  obs::MetricsRegistry own_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Histogram* client_hit_us_ = nullptr;   // receive -> respond, cache hits
  obs::Histogram* client_miss_us_ = nullptr;  // receive -> respond, forwards
  obs::Histogram* prefetch_fetch_us_ = nullptr;  // upstream fetch, prefetch path
  obs::Histogram* accept_to_first_byte_us_ = nullptr;
  obs::Counter* admin_requests_ = nullptr;
  obs::Counter* queue_dropped_total_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* conns_gauge_ = nullptr;
  obs::TraceRing traces_{128};
  std::unique_ptr<obs::SnapshotWriter> snapshot_writer_;
  // Engine-state persistence (only when options.state_snapshot_path is set).
  std::unique_ptr<obs::SnapshotWriter> state_writer_;
  obs::Gauge* state_bytes_gauge_ = nullptr;    // appx_state_snapshot_bytes
  obs::Gauge* state_last_ms_gauge_ = nullptr;  // appx_state_snapshot_last_unix_ms

  std::unique_ptr<UpstreamPool> pool_;
  std::unique_ptr<WorkerPool> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  std::deque<core::PrefetchJob> prefetch_queue_;
  std::set<std::string> busy_users_;   // users with a job being processed
  std::size_t prefetch_active_ = 0;    // jobs currently being processed
  std::atomic<std::size_t> queue_dropped_{0};

  std::vector<std::unique_ptr<LoopShard>> shards_;
  std::vector<std::thread> prefetchers_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

}  // namespace appx::net
