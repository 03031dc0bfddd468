// The benchmark's origin: apps::OriginServer behind HTTP/1.1 keep-alive, with
// an optional per-request answer delay.
//
// The delay stands in for the proxy<->origin path of the paper's deployment
// (Table 2 RTTs plus the endpoint's server processing time). It rides on
// event-loop timers: a request's response is serialised at once and written
// when its timer fires, so any number of requests can wait concurrently on
// one thread and nothing sleeps. Responses on one connection leave in
// request order (HTTP/1.1), even when a later request has a shorter delay.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "apps/server.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace perfbench {

// Counters the origin keeps. Only atomics, so the struct may live in memory
// shared with the load generator (a MAP_SHARED mapping made before fork).
struct OriginCounters {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> bytes{0};  // request + response wire_size()
  appx::obs::Histogram serve_us;        // apps::OriginServer::serve time
};

class DelayingOrigin {
 public:
  using DelayFn = std::function<appx::Duration(const appx::http::Request&)>;

  // Binds 127.0.0.1 on an ephemeral port. `origin` and `counters` must
  // outlive the server; an empty `delay` answers at once.
  DelayingOrigin(const appx::apps::OriginServer* origin, DelayFn delay,
                 OriginCounters* counters);
  ~DelayingOrigin();
  DelayingOrigin(const DelayingOrigin&) = delete;
  DelayingOrigin& operator=(const DelayingOrigin&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  // Serves on the calling thread until stop().
  void run();
  // Thread-safe.
  void stop() { loop_->stop(); }

 private:
  struct Conn;
  void on_accept();
  void on_readable(const std::shared_ptr<Conn>& conn);
  void flush(const std::shared_ptr<Conn>& conn);
  void close(const std::shared_ptr<Conn>& conn);

  const appx::apps::OriginServer* origin_;
  DelayFn delay_;
  OriginCounters* counters_;
  std::unique_ptr<appx::net::EventLoop> loop_;
  appx::net::TcpListener listener_;
  std::map<int, std::shared_ptr<Conn>> conns_;  // loop thread only
};

}  // namespace perfbench
