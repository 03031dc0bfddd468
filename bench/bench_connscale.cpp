// Connection-scaling benchmark for the event-driven network runtime
// (DESIGN.md §5g): C concurrent keep-alive HTTP clients against
//
//   * the epoll reactor LiveOriginServer pinned to ONE loop thread, and
//   * a thread-per-connection replica of the seed runtime (blocking reads,
//     one std::thread per accepted connection, origin behind a mutex),
//
// reporting requests served, connections per server thread, and client
// latency percentiles (p50/p95/p99). The reactor carries all C connections
// on a single thread; the seed model needs C. A second section drives the
// full LiveProxyServer through sequential unique cache misses and reports
// the upstream keep-alive pool's reuse fraction (seed behavior: a fresh TCP
// connect per fetch, reuse 0).
//
// Emits one JSON object on stdout; results are recorded in BENCH_micro.json
// under "connscale".
//
// Usage: bench_connscale [connections] [requests-per-connection]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "apps/compiler.hpp"
#include "apps/server.hpp"
#include "core/sharded_proxy.hpp"
#include "net/http_io.hpp"
#include "net/servers.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"

namespace {

using namespace appx;

// The seed's blocking runtime, reproduced for comparison: one thread per
// accepted connection, blocking HttpReader, origin serialized by a mutex.
class ThreadPerConnOrigin {
 public:
  explicit ThreadPerConnOrigin(apps::OriginServer* origin) : origin_(origin), listener_(0) {
    acceptor_ = std::thread([this] {
      while (true) {
        net::TcpStream stream = listener_.accept();
        if (!stream.valid()) return;
        const std::lock_guard<std::mutex> lock(mutex_);
        threads_.emplace_back([this](net::TcpStream s) { serve(std::move(s)); },
                              std::move(stream));
      }
    });
  }
  ~ThreadPerConnOrigin() {
    listener_.close();
    if (acceptor_.joinable()) acceptor_.join();
    std::vector<std::thread> threads;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      threads.swap(threads_);
    }
    for (std::thread& t : threads) t.join();
  }
  std::uint16_t port() const { return listener_.port(); }

 private:
  void serve(net::TcpStream stream) {
    try {
      net::HttpReader reader(&stream);
      while (auto request = reader.read_request()) {
        http::Response response;
        {
          const std::lock_guard<std::mutex> lock(origin_mutex_);
          response = origin_->serve(*request);
        }
        net::write_response(stream, response);
      }
    } catch (const Error&) {
    }
  }

  apps::OriginServer* origin_;
  net::TcpListener listener_;
  std::thread acceptor_;
  std::mutex mutex_;
  std::mutex origin_mutex_;
  std::vector<std::thread> threads_;
};

http::Request feed_request(const apps::AppSpec& spec) {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://" + spec.endpoint("feed").host + "/api/get-feed");
  req.uri.add_query_param("offset", "0");
  req.uri.add_query_param("count", "30");
  req.headers.set("Cookie", "c");
  req.headers.set("User-Agent", "bench");
  req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
  return req;
}

struct Percentiles {
  double p50 = 0, p95 = 0, p99 = 0;
};

Percentiles percentiles(std::vector<double>& samples) {
  Percentiles p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
    return samples[idx];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

struct RunResult {
  std::size_t requests = 0;
  std::size_t errors = 0;
  double wall_s = 0;
  Percentiles latency_us;
};

// C concurrent keep-alive connections, each issuing R requests paced at a
// fixed per-connection interval. Latency is measured from the INTENDED send
// time, not from whenever the previous response happened to free the
// connection: a closed-loop client that stamps at actual-send silently
// excludes server stalls from its own tail (coordinated omission) — a 100 ms
// hiccup used to show up as one slow request instead of a backlog of them.
constexpr std::int64_t kPaceUs = 2000;  // per-connection request interval

RunResult run_clients(std::uint16_t port, const http::Request& request, std::size_t connections,
                      std::size_t requests_per_conn) {
  std::vector<std::vector<double>> latencies(connections);
  std::atomic<std::size_t> errors{0};
  std::vector<std::thread> clients;
  clients.reserve(connections);
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::TcpStream stream = net::TcpStream::connect("127.0.0.1", port);
        net::HttpReader reader(&stream);
        latencies[c].reserve(requests_per_conn);
        const auto first_send = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < requests_per_conn; ++r) {
          // The schedule is fixed up front; a response that arrives late
          // leaves the next intended time in the past, so the queueing delay
          // it caused lands in the next sample instead of vanishing.
          const auto intended =
              first_send + std::chrono::microseconds(static_cast<std::int64_t>(r) * kPaceUs);
          std::this_thread::sleep_until(intended);
          net::write_request(stream, request);
          const auto response = reader.read_response();
          if (!response || !response->ok()) {
            ++errors;
            continue;
          }
          latencies[c].push_back(std::chrono::duration<double, std::micro>(
                                     std::chrono::steady_clock::now() - intended)
                                     .count());
        }
      } catch (const Error&) {
        ++errors;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  RunResult result;
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  std::vector<double> all;
  for (const auto& per_conn : latencies) {
    result.requests += per_conn.size();
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  result.errors = errors.load();
  result.latency_us = percentiles(all);
  return result;
}

void print_run(const char* name, std::size_t connections, std::size_t server_threads,
               const RunResult& r, bool trailing_comma) {
  // "loop": "closed" marks these as closed-loop (per-connection paced)
  // numbers: they measure achievable throughput at bounded concurrency, not
  // open-loop latency under an offered arrival rate. Never compare them
  // against BENCH_macro.json (open-loop) unqualified.
  std::printf("  {\"name\": \"%s\", \"loop\": \"closed\", \"pace_us\": %lld, "
              "\"connections\": %zu, \"server_threads\": %zu, "
              "\"conns_per_thread\": %.1f, \"requests\": %zu, \"errors\": %zu, "
              "\"wall_s\": %.3f, \"rps\": %.0f, \"p50_us\": %.0f, \"p95_us\": %.0f, "
              "\"p99_us\": %.0f}%s\n",
              name, static_cast<long long>(kPaceUs), connections, server_threads,
              static_cast<double>(connections) / static_cast<double>(server_threads),
              r.requests, r.errors, r.wall_s, static_cast<double>(r.requests) / r.wall_s,
              r.latency_us.p50, r.latency_us.p95, r.latency_us.p99,
              trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t connections = 64;
  std::size_t requests_per_conn = 25;
  if (argc > 1) connections = static_cast<std::size_t>(std::stoul(argv[1]));
  if (argc > 2) requests_per_conn = static_cast<std::size_t>(std::stoul(argv[2]));

  const apps::AppSpec spec = apps::make_wish();
  apps::OriginServer origin(&spec);
  const http::Request request = feed_request(spec);

  std::printf("{\n \"connscale\": [\n");

  // Reactor: every connection on ONE event-loop thread.
  {
    net::LiveOriginServer server(&origin, 0, /*loop_threads=*/1);
    const RunResult r = run_clients(server.port(), request, connections, requests_per_conn);
    server.stop();
    print_run("reactor_1loop", connections, 1, r, true);
  }

  // Seed model: one blocking thread per connection.
  {
    ThreadPerConnOrigin server(&origin);
    const RunResult r = run_clients(server.port(), request, connections, requests_per_conn);
    print_run("thread_per_conn", connections, connections, r, true);
  }

  // Full proxy path: sequential unique misses share one warm pooled upstream
  // connection (the seed reconnected per fetch: reuse fraction 0).
  {
    const analysis::AnalysisResult analysis = analysis::analyze(apps::compile_app(spec));
    core::ProxyConfig config;
    config.default_expiration = minutes(30);
    core::EngineOptions engine_options;
    engine_options.seed = 7;
    core::ShardedProxyEngine engine(&analysis.signatures, &config, engine_options);
    net::LiveOriginServer upstream(&origin);
    net::LiveProxyServer::UpstreamMap upstreams;
    for (const apps::EndpointSpec& ep : spec.endpoints) upstreams[ep.host] = upstream.port();
    net::LiveProxyServer proxy(&engine, std::move(upstreams));

    constexpr std::size_t kMisses = 150;
    net::TcpStream stream = net::TcpStream::connect("127.0.0.1", proxy.port());
    net::HttpReader reader(&stream);
    std::vector<double> latencies;
    latencies.reserve(kMisses);
    std::size_t errors = 0;
    const auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kMisses; ++i) {
      http::Request req = request;
      req.headers.set("X-Appx-User", "bench");
      req.uri.add_query_param("unique", std::to_string(i));
      const auto start = std::chrono::steady_clock::now();
      net::write_request(stream, req);
      const auto response = reader.read_response();
      if (!response || !response->ok()) {
        ++errors;
        continue;
      }
      latencies.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count());
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    proxy.drain_prefetches();
    const net::UpstreamPool& pool = proxy.upstream_pool();
    const double reuse_fraction =
        static_cast<double>(pool.reuses()) /
        static_cast<double>(std::max<std::uint64_t>(1, pool.reuses() + pool.connects()));
    const Percentiles p = percentiles(latencies);
    std::printf("  {\"name\": \"proxy_pooled_misses\", \"loop\": \"closed\", "
                "\"requests\": %zu, \"errors\": %zu, "
                "\"wall_s\": %.3f, \"pool_reuses\": %llu, \"pool_connects\": %llu, "
                "\"pool_stale\": %llu, \"pool_retries\": %llu, \"reuse_fraction\": %.3f, "
                "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f}\n",
                latencies.size(), errors, wall_s,
                static_cast<unsigned long long>(pool.reuses()),
                static_cast<unsigned long long>(pool.connects()),
                static_cast<unsigned long long>(pool.stale_discards()),
                static_cast<unsigned long long>(pool.retries()), reuse_fraction, p.p50, p.p95,
                p.p99);
    proxy.stop();
    upstream.stop();
  }

  std::printf(" ]\n}\n");
  return 0;
}
