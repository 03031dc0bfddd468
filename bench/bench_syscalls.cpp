// bench_syscalls: syscalls/request on the serving data plane's warm-hit
// path through the epoll reactor (DESIGN.md §5l).
//
// Runs the full live stack in-process — wish origin, sharded engine,
// LiveProxyServer on ONE loop thread — primes the prefetch cache exactly the
// way the end-to-end tests do (feed → first detail → drain_prefetches), then
// drives C concurrent keep-alive clients through repeated cache-hit detail
// requests and diffs the net::sys syscall counters across the measured
// window. The counters cover only the serving plane (reactor waits,
// epoll_ctl, conn recv/sendmsg, accept4, eventfd wakes); blocking client and
// upstream sockets are deliberately uncounted — see src/net/syscount.hpp.
//
// Output is a JSON object on stdout (recorded in BENCH_micro.json under
// "syscall_plane"). With `--budget <file.json>` it doubles as the CI gate:
// exits nonzero when the warm-hit path exceeds its syscalls/request budget.
//
// Usage: bench_syscalls [--conns N] [--requests N] [--budget bench/syscall_budget.json]
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "apps/compiler.hpp"
#include "apps/server.hpp"
#include "core/sharded_proxy.hpp"
#include "json/json.hpp"
#include "net/http_io.hpp"
#include "net/servers.hpp"
#include "net/socket.hpp"
#include "net/syscount.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace {

using namespace appx;

constexpr const char* kUser = "bench";

http::Request feed_request(const apps::AppSpec& spec) {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://" + spec.endpoint("feed").host + "/api/get-feed");
  req.uri.add_query_param("offset", "0");
  req.uri.add_query_param("count", "30");
  req.headers.set("Cookie", "c0");
  req.headers.set("User-Agent", "ua");
  req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
  return req;
}

// The detail request the app would issue for feed item `index` (same
// construction as the end-to-end tests: dependency fields resolved from the
// feed body).
http::Request detail_request(const apps::AppSpec& spec, apps::OriginServer& origin,
                             std::size_t index) {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://" + spec.endpoint("detail").host + "/product/get");
  req.headers.set("Cookie", "c0");
  req.headers.set("User-Agent", "ua");
  const auto feed_body = json::parse(origin.serve(feed_request(spec)).body);
  http::FormFields fields;
  const apps::EndpointSpec& detail = spec.endpoint("detail");
  for (const apps::FieldSpec& f : detail.fields) {
    if (f.loc != core::FieldLocation::kBody || f.conditional) continue;
    if (f.value.kind == apps::ValueSpec::Kind::kDep) {
      std::string path = f.value.dep_path;
      const auto star = path.find("[*]");
      if (star != std::string::npos) {
        path.replace(star, 3, std::string("[").append(std::to_string(index)).append("]"));
      }
      fields.emplace_back(f.name,
                          json::Path(path).resolve_first(feed_body)->scalar_to_string());
    } else if (f.value.kind == apps::ValueSpec::Kind::kEnv) {
      fields.emplace_back(f.name, spec.env_defaults.at(f.value.text));
    } else {
      fields.emplace_back(f.name, f.value.text);
    }
  }
  req.set_form_fields(fields);
  return req;
}

// Minimal blocking keep-alive client (its own syscalls are uncounted).
class Client {
 public:
  explicit Client(std::uint16_t port)
      : stream_(net::TcpStream::connect("127.0.0.1", port)), reader_(&stream_) {}

  http::Response send(http::Request req) {
    req.headers.set("X-Appx-User", kUser);
    net::write_request(stream_, req);
    auto response = reader_.read_response();
    if (!response) throw Error("bench_syscalls: server closed connection");
    return std::move(*response);
  }

 private:
  net::TcpStream stream_;
  net::HttpReader reader_;
};

struct Result {
  std::size_t requests = 0;
  std::size_t hits = 0;
  std::uint64_t origin_requests = 0;  // in-window origin traffic (should be ~0)
  net::sys::Counters delta;
  double per_request = 0;
};

Result measure(std::size_t conns, std::size_t requests_per_conn) {
  const apps::AppSpec spec = apps::make_wish();
  apps::OriginServer origin(&spec);
  const analysis::AnalysisResult analysis = analysis::analyze(apps::compile_app(spec));
  core::ProxyConfig config;
  config.default_expiration = minutes(30);
  core::EngineOptions engine_options;
  engine_options.seed = 3;
  engine_options.loop_threads = 1;
  core::ShardedProxyEngine engine(&analysis.signatures, &config, engine_options);
  net::LiveOriginServer upstream(&origin, 0, /*loop_threads=*/1);
  net::LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec.endpoints) upstreams[ep.host] = upstream.port();
  net::LiveProxyServer proxy(&engine, std::move(upstreams), 0, engine_options);

  // Prime: the feed teaches the item list, the first detail teaches the
  // run-time values, and drain waits for the sibling prefetches to land.
  {
    Client primer(proxy.port());
    if (!primer.send(feed_request(spec)).ok()) throw Error("bench_syscalls: feed failed");
    if (!primer.send(detail_request(spec, origin, 0)).ok()) {
      throw Error("bench_syscalls: prime detail failed");
    }
    proxy.drain_prefetches();
  }

  const http::Request hit_req = detail_request(spec, origin, 1);

  // Warm every connection first (connect, accept, first exchange) so the
  // measured window holds only steady-state keep-alive traffic.
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<Client>(proxy.port()));
    if (clients.back()->send(hit_req).headers.get("X-Appx-Cache").value_or("") != "hit") {
      throw Error("bench_syscalls: warmup request was not a cache hit");
    }
  }

  const std::uint64_t origin_before = upstream.requests_served();
  const net::sys::Counters before = net::sys::snapshot();
  std::vector<std::thread> threads;
  std::vector<std::size_t> hits(conns, 0);
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t r = 0; r < requests_per_conn; ++r) {
        const http::Response response = clients[c]->send(hit_req);
        if (response.headers.get("X-Appx-Cache").value_or("") == "hit") ++hits[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const net::sys::Counters after = net::sys::snapshot();
  const std::uint64_t origin_after = upstream.requests_served();

  Result result;
  result.requests = conns * requests_per_conn;
  for (const std::size_t h : hits) result.hits += h;
  result.origin_requests = origin_after - origin_before;
  result.delta = after - before;
  result.per_request =
      static_cast<double>(result.delta.total()) / static_cast<double>(result.requests);
  return result;
}

void print_result(const Result& r) {
  std::printf("    \"epoll\": {\n");
  std::printf("      \"syscalls_per_request\": %.2f,\n", r.per_request);
  std::printf("      \"requests\": %zu, \"hits\": %zu, \"origin_requests_in_window\": %llu,\n",
              r.requests, r.hits, static_cast<unsigned long long>(r.origin_requests));
  std::printf("      \"breakdown_total\": {\"wait\": %llu, \"ctl\": %llu, \"read\": %llu, "
              "\"write\": %llu, \"accept\": %llu, \"wake\": %llu}\n",
              static_cast<unsigned long long>(r.delta.wait),
              static_cast<unsigned long long>(r.delta.ctl),
              static_cast<unsigned long long>(r.delta.read),
              static_cast<unsigned long long>(r.delta.write),
              static_cast<unsigned long long>(r.delta.accept),
              static_cast<unsigned long long>(r.delta.wake));
  std::printf("    }\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t conns = 8;
  std::size_t requests_per_conn = 250;
  const char* budget_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_syscalls: missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--conns") conns = std::stoul(next());
    else if (arg == "--requests") requests_per_conn = std::stoul(next());
    else if (arg == "--budget") budget_path = next();
    else {
      std::fprintf(stderr, "bench_syscalls: unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  const Result epoll = measure(conns, requests_per_conn);

  std::printf("{\n  \"syscall_plane\": {\n");
  std::printf("    \"conns\": %zu, \"requests_per_conn\": %zu,\n", conns, requests_per_conn);
  std::printf("    \"note\": \"server-side syscalls per warm-hit request, one loop thread; "
              "in-code counters (src/net/syscount.hpp), client/upstream sockets "
              "uncounted\",\n");
  print_result(epoll);
  std::printf("  }\n}\n");

  if (budget_path != nullptr) {
    const std::vector<std::uint8_t> raw = read_file(budget_path);
    const json::Value budget =
        json::parse(std::string_view(reinterpret_cast<const char*>(raw.data()), raw.size()));
    const double epoll_max = budget.at("epoll_syscalls_per_request").as_double();
    if (epoll.per_request > epoll_max) {
      std::fprintf(stderr, "bench_syscalls: epoll warm-hit path costs %.2f syscalls/request, "
                           "budget %.2f\n",
                   epoll.per_request, epoll_max);
      return 1;
    }
    std::fprintf(stderr, "bench_syscalls: within budget (epoll %.2f <= %.2f)\n",
                 epoll.per_request, epoll_max);
  }
  return 0;
}
