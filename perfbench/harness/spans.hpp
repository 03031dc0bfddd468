// Spans recorded at the engine boundary and at the load generator, and the
// cross-process join that turns them into per-layer timings.
//
// Two processes record spans on CLOCK_MONOTONIC (std::chrono::steady_clock),
// which every process on the host shares:
//
//   * the load generator, one ClientSpan per request it sends;
//   * the proxy process, one EngineSpan per call into core::ProxyLike (see
//     tracing_engine.hpp), plus one EmittedJob per prefetch job a call
//     returned in its Decision.
//
// Requests carry no trace id on the wire (the program under test is only
// observed), so a client request is joined to its engine spans on
// (user, request key) and per-user order: the k-th request a user sent with
// a given key is the k-th on_request the engine saw for that user and key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.hpp"

namespace perfbench {

// Identity of a request as both sides see it: method, host, target and body.
// Headers are left out: the proxy strips X-Appx-User before the engine sees
// the request, and a user's other headers are constant within a session.
std::uint64_t request_key(const appx::http::Request& request);
// User identity; equal to core::UserId::hash() for the same name.
std::uint64_t user_key(std::string_view user);

enum class SpanKind : std::uint8_t {
  kRequest = 0,
  kResponse = 1,
  kPrefetchResponse = 2,
  kPrefetchDropped = 3,
  kPump = 4,
};

struct EngineSpan {
  std::uint64_t user = 0;
  std::uint64_t key = 0;  // request_key of the client request / prefetch job
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double fetch_ms = 0;  // on_prefetch_response: its response_time_ms argument
  std::uint32_t jobs = 0;  // prefetch jobs the call returned
  SpanKind kind = SpanKind::kRequest;
  bool served = false;  // on_request: answered from the cache
};

struct EmittedJob {
  std::uint64_t user = 0;
  std::uint64_t key = 0;
  std::int64_t at_ns = 0;  // end of the call that returned the job
};

struct ClientSpan {
  std::uint64_t user = 0;
  std::uint64_t key = 0;
  std::int64_t send_ns = 0;  // first byte handed to the socket
  std::int64_t recv_ns = 0;  // complete response parsed; 0 when unanswered
  bool in_window = false;    // intended send time inside the measured window
};

// Per-layer results of one traced run. Times are microseconds (_us) or
// milliseconds (_ms); each sample vector holds one value per joined event
// inside the window.
struct LayerSamples {
  std::vector<double> net_in_us;        // client send -> on_request entry
  std::vector<double> net_out_us;       // last engine span end -> client receive
  std::vector<double> on_request_us;
  std::vector<double> on_response_us;
  std::vector<double> on_prefetch_response_us;
  std::vector<double> upstream_fetch_ms;  // miss on_request end -> on_response start
  std::vector<double> prefetch_fetch_ms;  // response_time_ms argument
  std::vector<double> prefetch_queue_wait_ms;  // job emitted -> fetch start
  double engine_ms_total = 0;  // all engine calls starting inside the window
  std::uint64_t jobs_emitted = 0;
  std::uint64_t client_requests = 0;  // answered in-window client requests
  std::uint64_t joined = 0;           // ... of which joined to an on_request span
  std::uint64_t misses = 0;           // joined in-window requests not served
  std::uint64_t late_misses = 0;      // ... whose key had a prefetch in flight
  std::uint64_t prefetches_completed = 0;  // in-window on_prefetch_response
  std::uint64_t prefetches_useful = 0;     // ... later served to the client
  std::uint64_t engine_spans_unmatched = 0;  // on_request spans with no client span
};

LayerSamples join_spans(const std::vector<ClientSpan>& clients,
                        const std::vector<EngineSpan>& engine,
                        const std::vector<EmittedJob>& emitted, std::int64_t window_start_ns,
                        std::int64_t window_end_ns);

// Span logs cross the process boundary as flat binary files (both sides are
// the same executable, so the record layout matches).
void write_span_file(const std::string& path, const std::vector<EngineSpan>& spans,
                     const std::vector<EmittedJob>& jobs);
// Throws appx::Error when the file is missing or truncated.
void read_span_file(const std::string& path, std::vector<EngineSpan>* spans,
                    std::vector<EmittedJob>* jobs);

}  // namespace perfbench
