// live_proxy: the whole system on real TCP sockets (no simulator).
//
//   1. Start a loopback origin server hosting the Wish-like backend.
//   2. Start the acceleration proxy in front of it (dynamic learning +
//      background prefetch worker, as in the paper's mitmproxy prototype).
//   3. Act as the app: fetch the feed, open one item, then open more items
//      and watch them come back from the prefetch cache (X-Appx-Cache: hit),
//      with wall-clock timings per request.
//
// Usage:  ./build/examples/live_proxy
#include <chrono>
#include <iostream>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "apps/compiler.hpp"
#include "core/sharded_proxy.hpp"
#include "eval/report.hpp"
#include "net/servers.hpp"
#include "util/byte_io.hpp"

namespace {

using namespace appx;

http::Request feed_request(const apps::AppSpec& spec) {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://" + spec.endpoint("feed").host + "/api/get-feed");
  req.uri.add_query_param("offset", "0");
  req.uri.add_query_param("count", std::to_string(spec.endpoint("feed").list_count));
  req.headers.set("Cookie", "session-abc");
  req.headers.set("User-Agent", "Mozilla/5.0");
  req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
  return req;
}

http::Request detail_request(const apps::AppSpec& spec, const json::Value& feed_body,
                             std::size_t index) {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://" + spec.endpoint("detail").host + "/product/get");
  req.headers.set("Cookie", "session-abc");
  req.headers.set("User-Agent", "Mozilla/5.0");
  http::FormFields fields;
  for (const apps::FieldSpec& f : spec.endpoint("detail").fields) {
    if (f.loc != core::FieldLocation::kBody || f.conditional) continue;
    if (f.value.kind == apps::ValueSpec::Kind::kDep) {
      std::string path = f.value.dep_path;
      const auto star = path.find("[*]");
      if (star != std::string::npos) {
        path.replace(star, 3, std::string("[").append(std::to_string(index)).append("]"));
      }
      fields.emplace_back(f.name, json::Path(path).resolve_first(feed_body)->scalar_to_string());
    } else if (f.value.kind == apps::ValueSpec::Kind::kEnv) {
      fields.emplace_back(f.name, spec.env_defaults.at(f.value.text));
    } else {
      fields.emplace_back(f.name, f.value.text);
    }
  }
  req.set_form_fields(fields);
  return req;
}

}  // namespace

int main() {
  const apps::AppSpec spec = apps::make_wish();
  const auto analysis = analysis::analyze(apps::compile_app(spec));
  // The "Sig." artifact of Fig. 4: the analysis output ships to the proxy as
  // a file; the proxy loads it at startup.
  write_file("/tmp/com.wish.app.sig", analysis.signatures.serialize());
  const core::SignatureSet signatures =
      core::SignatureSet::deserialize(read_file("/tmp/com.wish.app.sig"));
  std::cout << "analyzed " << spec.name << ": " << signatures.size() << " signatures / "
            << signatures.edges().size() << " edges (via /tmp/com.wish.app.sig)\n";

  apps::OriginServer origin(&spec);
  net::LiveOriginServer origin_server(&origin);
  std::cout << "origin server on 127.0.0.1:" << origin_server.port() << "\n";

  core::ProxyConfig config;
  config.default_expiration = minutes(30);
  // One knob surface for the whole stack: engine seed/shards and the
  // server's transport bounds all live in core::EngineOptions.
  core::EngineOptions options;
  options.seed = 42;
  options.connect_timeout = seconds(2);
  options.request_deadline = seconds(5);
  options.prefetch_workers = 4;
  core::ShardedProxyEngine engine(&signatures, &config, options);
  net::LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec.endpoints) upstreams[ep.host] = origin_server.port();
  net::LiveProxyServer proxy(&engine, std::move(upstreams), 0, options);
  std::cout << "acceleration proxy on 127.0.0.1:" << proxy.port() << " ("
            << engine.shard_count() << " shards, "
            << proxy.options().prefetch_workers << " prefetch workers, "
            << to_ms(proxy.options().request_deadline) << " ms upstream deadline)\n\n";

  // The "phone": one keep-alive connection through the proxy.
  net::TcpStream stream = net::TcpStream::connect("127.0.0.1", proxy.port());
  net::HttpReader reader(&stream);
  const auto roundtrip = [&](http::Request req) {
    req.headers.set("X-Appx-User", "demo");
    const auto started = std::chrono::steady_clock::now();
    net::write_request(stream, req);
    auto response = reader.read_response();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - started)
                          .count();
    return std::make_pair(*response, ms);
  };

  eval::TablePrinter table({"Request", "Status", "Cache", "Wall time"});
  const auto [feed_resp, feed_ms] = roundtrip(feed_request(spec));
  table.add_row({"POST /api/get-feed", std::to_string(feed_resp.status),
                 feed_resp.headers.get("X-Appx-Cache").value_or("-"),
                 eval::TablePrinter::fmt(feed_ms, 2) + " ms"});
  const json::Value feed_body = json::parse(feed_resp.body);

  for (std::size_t i = 0; i < 5; ++i) {
    const auto [resp, ms] = roundtrip(detail_request(spec, feed_body, i));
    table.add_row({"POST /product/get (item " + std::to_string(i) + ")",
                   std::to_string(resp.status),
                   resp.headers.get("X-Appx-Cache").value_or("-"),
                   eval::TablePrinter::fmt(ms, 2) + " ms"});
    if (i == 0) proxy.drain_prefetches();  // let the worker fill the cache
  }
  table.print(std::cout);

  // Monitoring: the same connection can scrape the admin endpoint — the
  // Prometheus text a real deployment would poll.
  {
    http::Request scrape;
    scrape.method = "GET";
    scrape.uri.path = "/appx/metrics";
    net::write_request(stream, scrape);
    const auto metrics = reader.read_response();
    const std::string_view body = metrics->body.view();
    std::cout << "\nGET /appx/metrics (" << body.size() << " bytes):\n";
    std::size_t shown = 0;
    std::size_t pos = 0;
    while (shown < 12 && pos < body.size()) {
      const auto eol = body.find('\n', pos);
      const std::string_view line = body.substr(pos, eol - pos);
      pos = eol == std::string_view::npos ? body.size() : eol + 1;
      if (line.empty() || line[0] == '#') continue;
      std::cout << "  " << line << "\n";
      ++shown;
    }
    std::cout << "  ... (full scrape: curl http://127.0.0.1:" << proxy.port()
              << "/appx/metrics)\n";
  }

  const auto& stats = engine.stats();
  std::cout << "\nproxy: " << stats.prefetches_issued << " prefetches issued, "
            << stats.cache_hits << " cache hits, " << stats.forwarded << " forwarded\n"
            << "bounds: " << stats.evicted_lru << " LRU evictions, "
            << stats.evicted_expired << " TTL evictions, " << stats.prefetches_dropped
            << " prefetches dropped (queue drops: " << proxy.prefetch_jobs_dropped()
            << ")\n"
            << "(the first detail is a miss that teaches the proxy the run-time values;\n"
            << " every further item is served from the prefetch cache)\n";

  proxy.stop();
  origin_server.stop();
  return 0;
}
