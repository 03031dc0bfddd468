// Tests of the benchmark's own code: percentile selection by sample count,
// the cross-process span join, the span file format and the delaying
// origin's answer delay.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/catalog.hpp"
#include "apps/server.hpp"
#include "harness/origin.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "net/http_io.hpp"
#include "net/socket.hpp"

namespace perfbench {
namespace {

using appx::milliseconds;

// --- percentile selection ------------------------------------------------------------

TEST(SupportedQuantile, KeepsTenSamplesBeyondThePercentile) {
  EXPECT_DOUBLE_EQ(supported_quantile(0.99, 1000), 0.99);
  EXPECT_DOUBLE_EQ(supported_quantile(0.99, 100000), 0.99);
  EXPECT_DOUBLE_EQ(supported_quantile(0.99, 500), 0.98);
  EXPECT_DOUBLE_EQ(supported_quantile(0.90, 100), 0.90);
  EXPECT_DOUBLE_EQ(supported_quantile(0.90, 50), 0.80);
}

TEST(SupportedQuantile, NeverBelowTheMedianAndZeroWithoutSamples) {
  EXPECT_DOUBLE_EQ(supported_quantile(0.99, 12), 0.5);
  EXPECT_DOUBLE_EQ(supported_quantile(0.99, 1), 0.5);
  EXPECT_DOUBLE_EQ(supported_quantile(0.5, 3), 0.5);
  EXPECT_DOUBLE_EQ(supported_quantile(0.99, 0), 0.0);
}

TEST(Percentile, InterpolatesOrderStatisticsAndReportsWhatItUsed) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted on purpose
  const Percentile p50 = percentile(samples, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.n, 100U);
  const Percentile p99 = percentile(samples, 0.99);  // only 100 samples: p90
  EXPECT_DOUBLE_EQ(p99.q, 0.90);
  EXPECT_NEAR(p99.value, 90.1, 1e-9);
  std::vector<double> none;
  EXPECT_EQ(percentile(none, 0.5).value, 0.0);
  EXPECT_EQ(percentile(none, 0.5).n, 0U);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

TEST(QuietSlices, KeepsTheLessStolenSliceOfEachPair) {
  EXPECT_EQ(quiet_slices({0.10, 0.02, 0.00, 0.05, 0.03, 0.03}),
            (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(quiet_slices({0.2, 0.1, 0.4}), (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(quiet_slices({}).empty());
}

// --- span join -----------------------------------------------------------------------

EngineSpan span(SpanKind kind, std::uint64_t user, std::uint64_t key, std::int64_t start,
                std::int64_t end, bool served = false, double fetch_ms = 0) {
  EngineSpan s;
  s.kind = kind;
  s.user = user;
  s.key = key;
  s.start_ns = start;
  s.end_ns = end;
  s.served = served;
  s.fetch_ms = fetch_ms;
  return s;
}

TEST(JoinSpans, JoinsHitsAndMissesAcrossProcessesAndCountsUnmatched) {
  constexpr std::uint64_t kA = 1, kB = 2, kC = 3;
  constexpr std::uint64_t kHit = 10, kMiss = 11, kLost = 12, kStray = 13;
  const std::vector<ClientSpan> clients = {
      {kA, kHit, 10'000, 90'000, true},
      {kA, kMiss, 100'000, 500'000, true},
      {kB, kLost, 200'000, 300'000, true},  // the engine never saw it
      {kA, kHit, 1'000, 2'000, false},      // before the window
  };
  const std::vector<EngineSpan> engine = {
      span(SpanKind::kRequest, kA, kHit, 1'500, 1'800, false),  // pre-window miss
      span(SpanKind::kResponse, kA, kHit, 1'850, 1'900),
      span(SpanKind::kPrefetchResponse, kA, kHit, 8'000, 9'000, false, 0.002),
      span(SpanKind::kRequest, kA, kHit, 30'000, 40'000, true),
      span(SpanKind::kRequest, kA, kMiss, 110'000, 120'000, false),
      span(SpanKind::kResponse, kA, kMiss, 400'000, 450'000),
      span(SpanKind::kRequest, kC, kStray, 150'000, 160'000, false),  // no client span
      span(SpanKind::kPrefetchResponse, kA, kMiss, 600'000, 610'000, false, 0.1),
  };
  const std::vector<EmittedJob> emitted = {
      {kA, kHit, 5'000},   // fetched from 6'000: waited 1 us
      {kA, kMiss, 105'000},  // still in flight when the client asked: late
  };
  const LayerSamples l = join_spans(clients, engine, emitted, 5'000, 1'000'000);

  EXPECT_EQ(l.client_requests, 3U);
  EXPECT_EQ(l.joined, 2U);
  EXPECT_EQ(l.engine_spans_unmatched, 1U);
  ASSERT_EQ(l.net_in_us.size(), 2U);
  EXPECT_DOUBLE_EQ(l.net_in_us[0], 20.0);  // hit: 10'000 -> 30'000
  EXPECT_DOUBLE_EQ(l.net_in_us[1], 10.0);  // miss: 100'000 -> 110'000
  ASSERT_EQ(l.net_out_us.size(), 2U);
  EXPECT_DOUBLE_EQ(l.net_out_us[0], 50.0);  // hit: request end 40'000 -> 90'000
  EXPECT_DOUBLE_EQ(l.net_out_us[1], 50.0);  // miss: response end 450'000 -> 500'000
  ASSERT_EQ(l.upstream_fetch_ms.size(), 1U);
  EXPECT_DOUBLE_EQ(l.upstream_fetch_ms[0], 0.28);  // 120'000 -> 400'000
  EXPECT_EQ(l.misses, 1U);
  EXPECT_EQ(l.late_misses, 1U);
  ASSERT_EQ(l.prefetch_queue_wait_ms.size(), 2U);
  EXPECT_DOUBLE_EQ(l.prefetch_queue_wait_ms[0], 0.001);
  EXPECT_EQ(l.prefetches_completed, 2U);
  EXPECT_EQ(l.prefetches_useful, 1U);  // the kHit prefetch was served at 30'000
  EXPECT_EQ(l.on_request_us.size(), 3U);
  EXPECT_EQ(l.on_response_us.size(), 1U);
}

TEST(JoinSpans, PairsRepeatedKeysInPerUserOrder) {
  // Two identical requests of one user: the first answered from the origin,
  // the second from the cache. Order, not timing, decides the pairing.
  const std::vector<ClientSpan> clients = {{1, 7, 100, 1'000, true}, {1, 7, 2'000, 2'500, true}};
  const std::vector<EngineSpan> engine = {
      span(SpanKind::kRequest, 1, 7, 2'100, 2'200, true),
      span(SpanKind::kRequest, 1, 7, 150, 200, false),
      span(SpanKind::kResponse, 1, 7, 800, 900),
  };
  const LayerSamples l = join_spans(clients, engine, {}, 0, 10'000);
  EXPECT_EQ(l.joined, 2U);
  EXPECT_EQ(l.misses, 1U);
  ASSERT_EQ(l.net_in_us.size(), 2U);
  EXPECT_DOUBLE_EQ(l.net_in_us[0], 0.05);
  EXPECT_DOUBLE_EQ(l.net_in_us[1], 0.1);
  ASSERT_EQ(l.upstream_fetch_ms.size(), 1U);
  EXPECT_DOUBLE_EQ(l.upstream_fetch_ms[0], 0.0006);
}

TEST(SpanFile, RoundTrips) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "perfbench_spans_test.bin").string();
  const std::vector<EngineSpan> spans = {span(SpanKind::kPump, 4, 5, 6, 7, true, 1.5)};
  const std::vector<EmittedJob> jobs = {{8, 9, 10}};
  write_span_file(path, spans, jobs);
  std::vector<EngineSpan> spans_in;
  std::vector<EmittedJob> jobs_in;
  read_span_file(path, &spans_in, &jobs_in);
  std::filesystem::remove(path);
  ASSERT_EQ(spans_in.size(), 1U);
  EXPECT_EQ(spans_in[0].kind, SpanKind::kPump);
  EXPECT_EQ(spans_in[0].end_ns, 7);
  EXPECT_DOUBLE_EQ(spans_in[0].fetch_ms, 1.5);
  ASSERT_EQ(jobs_in.size(), 1U);
  EXPECT_EQ(jobs_in[0].at_ns, 10);
  EXPECT_THROW(read_span_file(path, &spans_in, &jobs_in), appx::Error);
}

// --- delaying origin -----------------------------------------------------------------

class OriginFixture : public ::testing::Test {
 protected:
  void start(DelayingOrigin::DelayFn delay) {
    server_ = std::make_unique<DelayingOrigin>(&origin_, std::move(delay), &counters_);
    thread_ = std::thread([this] { server_->run(); });
  }
  void TearDown() override {
    if (server_) server_->stop();
    if (thread_.joinable()) thread_.join();
  }
  static appx::http::Request request(const std::string& path) {
    appx::http::Request req;
    req.uri = appx::http::Uri::parse("https://api.example" + path);
    return req;
  }

  appx::apps::AppSpec spec_ = appx::apps::make_wish();
  appx::apps::OriginServer origin_{&spec_};
  OriginCounters counters_;
  std::unique_ptr<DelayingOrigin> server_;
  std::thread thread_;
};

TEST_F(OriginFixture, AnswersAfterTheRequestedDelay) {
  start([](const appx::http::Request&) { return milliseconds(60); });
  appx::net::TcpStream stream = appx::net::TcpStream::connect("127.0.0.1", server_->port());
  appx::net::HttpReader reader(&stream);
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    appx::net::write_request(stream, request("/nothing-here"));
    const auto response = reader.read_response();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 404);
    EXPECT_GE(ms, 59.0);
    EXPECT_LE(ms, 75.0);
  }
  EXPECT_EQ(counters_.requests.load(), 5U);
  EXPECT_GT(counters_.bytes.load(), 0U);
  EXPECT_EQ(counters_.serve_us.count(), 5);
}

TEST_F(OriginFixture, KeepsResponseOrderWhenALaterRequestIsFaster) {
  start([](const appx::http::Request& r) {
    return r.uri.path == "/slow" ? milliseconds(80) : milliseconds(5);
  });
  appx::net::TcpStream stream = appx::net::TcpStream::connect("127.0.0.1", server_->port());
  appx::net::HttpReader reader(&stream);
  const auto t0 = std::chrono::steady_clock::now();
  appx::http::Request slow = request("/slow");
  slow.headers.set("X-Tag", "first");
  appx::net::write_request(stream, slow);
  appx::net::write_request(stream, request("/fast"));
  // Had the fast answer overtaken the slow one, it would arrive first, ~5 ms in.
  const auto first = reader.read_response();
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  const auto second = reader.read_response();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_GE(ms, 79.0);
  EXPECT_EQ(counters_.requests.load(), 2U);
}

TEST_F(OriginFixture, WanDelayIsTheHostRttPlusProcessingTime) {
  // The wish_wan delay: Table 2's per-host RTT plus the endpoint's
  // processing time, both taken from the app model.
  start([this](const appx::http::Request& r) {
    return spec_.rtt_for_host(r.uri.host) + origin_.proc_delay(r);
  });
  appx::http::Request req;
  req.method = "POST";
  req.uri = appx::http::Uri::parse("https://" + spec_.endpoint("feed").host + "/api/get-feed");
  const appx::Duration want = spec_.rtt_for_host(req.uri.host) + origin_.proc_delay(req);
  ASSERT_GT(want, milliseconds(100));
  appx::net::TcpStream stream = appx::net::TcpStream::connect("127.0.0.1", server_->port());
  appx::net::HttpReader reader(&stream);
  const auto t0 = std::chrono::steady_clock::now();
  appx::net::write_request(stream, req);
  ASSERT_TRUE(reader.read_response().has_value());
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_GE(ms, static_cast<double>(want) / 1000.0 - 1.0);
  EXPECT_LE(ms, static_cast<double>(want) / 1000.0 + 15.0);
}

}  // namespace
}  // namespace perfbench
