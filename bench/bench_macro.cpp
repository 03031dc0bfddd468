// bench_macro: macro-scale OPEN-LOOP load harness (ROADMAP item 1,
// DESIGN.md §5i).
//
// Drives a LiveProxyServer with 10k+ concurrent keep-alive connections
// replaying the 30-user study trace scaled up via trace::scale_traces
// (per-replica seeds, ramped session starts, jittered think times). The
// generator is an event-loop client built on net::EventLoop: every request
// has a scheduled arrival time fixed before the run, and latency is measured
// from that *intended* send time — a stalled server accrues queueing delay
// against the schedule instead of silently slowing the offered load (no
// coordinated omission). Contrast with bench_connscale, whose closed-loop
// numbers are labelled "loop": "closed".
//
// Process model: the origin + engine + proxy run in a forked child so the
// generator and the server each get a full RLIMIT_NOFILE table (10k conns
// need ~10k descriptors on EACH side), and so server RSS — reported per
// resident user — is measured on a process that holds only server state.
//
// Phases:
//   1. record  — replay each base user's trace once through apps::AppClient
//                against an in-process origin, recording every request's
//                wire bytes and its offset within its trace event.
//   2. ramp    — sessions connect at ramped, seeded start times.
//   3. measure — samples whose intended send time falls in the window feed
//                the hit/miss histograms; sustained RPS = completed/window.
//
// Emits one JSON object on stdout (recorded in BENCH_macro.json): sustained
// RPS, p50/p99/p99.9 user-perceived latency split hit/miss, prefetch hit
// ratio, connection errors, and server RSS per resident user.
//
// Usage: bench_macro [--users N] [--duration S] [--ramp S] [--dilation X]
//                    [--smoke] [--gate-p99-ms X] [--gate-hit-ratio Y]
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "apps/client.hpp"
#include "apps/compiler.hpp"
#include "apps/server.hpp"
#include "core/sharded_proxy.hpp"
#include "eval/experiments.hpp"
#include "json/json.hpp"
#include "net/event_loop.hpp"
#include "net/http_io.hpp"
#include "net/rlimit.hpp"
#include "net/servers.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace {

using namespace appx;

// --- configuration -------------------------------------------------------------------

struct Options {
  std::size_t users = 10'000;
  double duration_s = 30;      // measurement window
  double ramp_s = 10;          // session-start ramp
  double settle_s = 5;         // between end of ramp and start of window
  double dilation = 1.0;       // stretch trace think times
  std::size_t loop_threads = 1;
  std::uint64_t seed = 7;
  bool smoke = false;
  double gate_p99_ms = 250;     // smoke gates
  double gate_hit_ratio = 0.05;  // functioning-at-scale floor, not a target
                                 // (localhost races make intra-interaction
                                 // prefetches photo-finishes; the ratio climbs
                                 // with window length as sessions mature)
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw InvalidArgumentError("bench_macro: missing value for " +
                                                    std::string(arg));
      return argv[++i];
    };
    if (arg == "--users") opt.users = std::stoul(next());
    else if (arg == "--duration") opt.duration_s = std::stod(next());
    else if (arg == "--ramp") opt.ramp_s = std::stod(next());
    else if (arg == "--settle") opt.settle_s = std::stod(next());
    else if (arg == "--dilation") opt.dilation = std::stod(next());
    else if (arg == "--loops") opt.loop_threads = std::stoul(next());
    else if (arg == "--seed") opt.seed = std::stoull(next());
    else if (arg == "--gate-p99-ms") opt.gate_p99_ms = std::stod(next());
    else if (arg == "--gate-hit-ratio") opt.gate_hit_ratio = std::stod(next());
    else if (arg == "--smoke") {
      // Reduced scale for CI: enough concurrency to exercise the open-loop
      // machinery and the regression gates, small enough for a shared runner.
      opt.smoke = true;
      opt.users = 240;
      opt.duration_s = 10;
      opt.ramp_s = 2;
      opt.settle_s = 2;
    } else {
      throw InvalidArgumentError("bench_macro: unknown argument " + std::string(arg));
    }
  }
  return opt;
}

// --- phase 1: record per-base-user request streams -----------------------------------

// One recorded request: its event's index in the base trace, the offset from
// the event's start (pre-delay + earlier waves), and the wire bytes split at
// the end of the request line so the generator can stamp a per-replica
// X-Appx-User header without reserializing.
struct StepTemplate {
  std::size_t event_index = 0;
  Duration delta = 0;
  std::string pre;   // "POST /api/get-feed HTTP/1.1\r\n"
  std::string post;  // remaining head + body
};

struct BaseStream {
  std::vector<StepTemplate> steps;  // ordered by (event_index, delta)
};

// Replays `trace` through an AppClient against `origin` (synchronous
// transport), recording every sent request. Mirrors trace::TraceReplayer's
// serialization: an event starts after the previous interaction completed
// and its recorded think-time gap elapsed.
BaseStream record_stream(const apps::AppSpec& spec, apps::OriginServer& origin,
                         const trace::UserTrace& trace,
                         const std::set<std::pair<std::string, std::string>>& nonce_endpoints) {
  sim::Simulator sim;
  BaseStream out;
  std::size_t current_event = 0;
  SimTime event_start = 0;

  apps::AppClient client(
      &spec, apps::ClientEnv::for_user(spec, trace.user_id), &sim,
      [&](http::Request req, std::function<void(http::Response)> cb) {
        // Side-effectful anti-replay requests (fresh nonce per send) cannot
        // be replayed ×1000s — the origin 403s a reused nonce by design.
        // They are a tiny fraction of the stream; skip them and note it.
        if (!nonce_endpoints.contains({req.uri.host, req.uri.path})) {
          StepTemplate step;
          step.event_index = current_event;
          step.delta = sim.now() - event_start;
          const std::string wire = req.serialize();
          const auto line_end = wire.find("\r\n");
          step.pre = wire.substr(0, line_end + 2);
          step.post = wire.substr(line_end + 2);
          out.steps.push_back(std::move(step));
        }
        cb(origin.serve(req));
      },
      /*jitter=*/0);

  // Serial event driver (the recording analogue of TraceReplayer::run_event).
  std::function<void(std::size_t)> run_event = [&](std::size_t index) {
    if (index >= trace.events.size()) return;
    const trace::TraceEvent& event = trace.events[index];
    const Duration gap =
        index == 0 ? event.at : std::max<Duration>(0, event.at - trace.events[index - 1].at);
    sim.schedule(gap, [&, index] {
      const trace::TraceEvent& ev = trace.events[index];
      current_event = index;
      event_start = sim.now();
      if (!client.can_run(ev.interaction, ev.selection)) {
        run_event(index + 1);
        return;
      }
      client.run_interaction(ev.interaction, ev.selection,
                             [&, index](const apps::InteractionResult&) { run_event(index + 1); });
    });
  };
  run_event(0);
  sim.run();
  return out;
}

// --- phase 2/3: the open-loop generator ----------------------------------------------

using Clock = std::chrono::steady_clock;

struct SharedStats {
  obs::Histogram hit_us;
  obs::Histogram miss_us;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> completed_window{0};
  std::atomic<std::uint64_t> response_errors{0};  // >= 500 statuses
  std::atomic<std::uint64_t> conn_errors{0};      // failed connects, resets, parse errors
  std::atomic<std::uint64_t> connects_ok{0};
  std::atomic<std::int64_t> max_send_lag_us{0};   // generator behind its own schedule
};

// One user session: a non-blocking connection replaying its scheduled step
// stream on one generator loop. Loop-thread-only.
class UserConn : public std::enable_shared_from_this<UserConn> {
 public:
  UserConn(net::EventLoop* loop, const BaseStream* base, const trace::ScheduledSession* sched,
           std::uint16_t port, Clock::time_point epoch, std::int64_t window_start_us,
           std::int64_t window_end_us, SharedStats* stats)
      : loop_(loop), base_(base), sched_(sched), port_(port), epoch_(epoch),
        window_start_us_(window_start_us), window_end_us_(window_end_us), stats_(stats),
        user_header_("X-Appx-User: " + sched->user_id + "\r\n"),
        stream_(net::Fd{}) {}

  // Schedule the session's connect at its ramped start time.
  void arm() {
    loop_->add_timer(epoch_ + std::chrono::microseconds(sched_->start),
                     [self = shared_from_this()] { self->connect(); });
  }

  void shutdown() { close(/*error=*/false); }

 private:
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch_).count();
  }

  void connect() {
    if (closed_) return;
    try {
      stream_ = net::TcpStream::begin_connect("127.0.0.1", port_);
    } catch (const Error&) {
      stats_->conn_errors.fetch_add(1, std::memory_order_relaxed);
      closed_ = true;
      return;
    }
    connecting_ = true;
    events_ = EPOLLOUT;
    loop_->add_fd(stream_.fd(), events_,
                  [self = shared_from_this()](std::uint32_t ev) { self->on_events(ev); });
    registered_ = true;
  }

  void on_events(std::uint32_t ev) {
    if (closed_) return;
    if (connecting_) {
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0 || stream_.connect_result() != 0) {
        close(/*error=*/true);
        return;
      }
      connecting_ = false;
      stats_->connects_ok.fetch_add(1, std::memory_order_relaxed);
      schedule_next_step();
      update_events();
      return;
    }
    if ((ev & EPOLLERR) != 0) {
      close(/*error=*/true);
      return;
    }
    if ((ev & (EPOLLIN | EPOLLHUP)) != 0) handle_readable();
    if (!closed_ && (ev & EPOLLOUT) != 0) flush();
    if (!closed_) update_events();
  }

  // The next step's absolute scheduled time, cycling the session (a fresh
  // app launch by the same user) when the stream is exhausted so connections
  // stay resident for the whole run.
  std::int64_t step_time_us(const StepTemplate& step) const {
    return sched_->event_at[step.event_index] + step.delta + cycle_offset_;
  }

  void schedule_next_step() {
    if (closed_ || base_->steps.empty()) return;
    if (next_step_ >= base_->steps.size()) {
      next_step_ = 0;
      // Re-launch after a think pause: span of the session plus 5s.
      const Duration span = sched_->event_at.back() - sched_->event_at.front();
      cycle_offset_ += span + seconds(5);
    }
    const std::int64_t at = step_time_us(base_->steps[next_step_]);
    loop_->add_timer(epoch_ + std::chrono::microseconds(at),
                     [self = shared_from_this()] { self->fire_step(); });
  }

  void fire_step() {
    if (closed_) return;
    const StepTemplate& step = base_->steps[next_step_];
    const std::int64_t intended = step_time_us(step);
    const std::int64_t lag = now_us() - intended;
    std::int64_t cur = stats_->max_send_lag_us.load(std::memory_order_relaxed);
    while (lag > cur &&
           !stats_->max_send_lag_us.compare_exchange_weak(cur, lag, std::memory_order_relaxed)) {
    }
    out_.append(step.pre);
    out_.append(user_header_);
    out_.append(step.post);
    sent_.push_back(intended);
    stats_->sent.fetch_add(1, std::memory_order_relaxed);
    ++next_step_;
    flush();
    if (closed_) return;
    update_events();
    schedule_next_step();
  }

  void flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(stream_.fd(), out_.data() + out_off_, out_.size() - out_off_,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        close(/*error=*/true);
        return;
      }
      out_off_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    out_off_ = 0;
  }

  void handle_readable() {
    char buf[16 * 1024];
    while (!closed_) {
      const ssize_t n = ::recv(stream_.fd(), buf, sizeof buf, 0);
      if (n > 0) {
        parser_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        // Orderly close with responses still owed = a dropped session.
        close(/*error=*/!sent_.empty());
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close(/*error=*/true);
      return;
    }
    drain_messages();
  }

  void drain_messages() {
    while (!closed_) {
      std::optional<std::string_view> message;
      try {
        message = parser_.next_message();
      } catch (const Error&) {
        close(/*error=*/true);
        return;
      }
      if (!message) return;
      if (sent_.empty()) {
        close(/*error=*/true);  // response with no request outstanding
        return;
      }
      const std::int64_t intended = sent_.front();
      sent_.pop_front();
      record_response(*message, intended);
    }
  }

  void record_response(std::string_view message, std::int64_t intended) {
    stats_->completed.fetch_add(1, std::memory_order_relaxed);
    // Minimal classification without a full parse: status from the line,
    // hit/miss from the proxy's marker header.
    const bool error = message.size() < 12 || message[9] == '5';
    const std::size_t head_end = message.find("\r\n\r\n");
    const std::string_view head =
        head_end == std::string_view::npos ? message : message.substr(0, head_end);
    const bool hit = head.find("X-Appx-Cache: hit") != std::string_view::npos;
    if (error) {
      stats_->response_errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (intended < window_start_us_ || intended >= window_end_us_) return;
    const std::int64_t latency = std::max<std::int64_t>(0, now_us() - intended);
    stats_->completed_window.fetch_add(1, std::memory_order_relaxed);
    (hit ? stats_->hit_us : stats_->miss_us).record(latency);
  }

  void close(bool error) {
    if (closed_) return;
    closed_ = true;
    if (error) stats_->conn_errors.fetch_add(1, std::memory_order_relaxed);
    if (registered_) loop_->del_fd(stream_.fd());
    stream_ = net::TcpStream(net::Fd{});
  }

  void update_events() {
    const std::uint32_t desired =
        static_cast<std::uint32_t>(EPOLLIN) |
        (out_off_ < out_.size() ? static_cast<std::uint32_t>(EPOLLOUT) : 0U);
    if (desired == events_) return;
    events_ = desired;
    loop_->mod_fd(stream_.fd(), desired);
  }

  net::EventLoop* loop_;
  const BaseStream* base_;
  const trace::ScheduledSession* sched_;
  std::uint16_t port_;
  Clock::time_point epoch_;
  std::int64_t window_start_us_;
  std::int64_t window_end_us_;
  SharedStats* stats_;
  std::string user_header_;

  net::TcpStream stream_;
  net::HttpParser parser_;
  std::string out_;
  std::size_t out_off_ = 0;
  std::deque<std::int64_t> sent_;  // intended send times, FIFO per HTTP/1.1
  std::size_t next_step_ = 0;
  Duration cycle_offset_ = 0;
  std::uint32_t events_ = 0;
  bool connecting_ = false;
  bool registered_ = false;
  bool closed_ = false;
};

// --- server child process ------------------------------------------------------------

// Child body: origin + engine + proxy; writes "<proxy-port>\n" to port_fd,
// then serves until control_fd reaches EOF (parent closed it or died).
[[noreturn]] void run_server(const Options& opt, int port_fd, int control_fd) {
  try {
    const apps::AppSpec spec = apps::make_wish();
    apps::OriginServer origin(&spec);
    const eval::AnalyzedApp app = eval::analyze_app(spec);
    const core::ProxyConfig config = eval::deployment_config(app);

    core::EngineOptions engine_options;
    engine_options.seed = opt.seed;
    engine_options.shards = 0;
    engine_options.max_users = 0;  // every replayed user stays resident
    engine_options.user_idle_timeout.reset();
    engine_options.cache_max_entries = 512;        // per user
    engine_options.cache_max_bytes = megabytes(4);  // per user
    engine_options.loop_threads = opt.loop_threads;
    engine_options.request_workers = 8;
    engine_options.prefetch_workers = 2;
    engine_options.max_prefetch_queue = 8192;
    // Per-user scheduler bound (lowest-priority eviction) plus cost-aware
    // admission: under overload the engine sheds the worst jobs *before*
    // enqueue, so dropped-after-enqueue stays ~0 (gated below in --smoke).
    engine_options.max_queued_prefetches = 64;
    engine_options.policy.enabled = true;
    // Localhost tuning: origin savings are ~2 ms (not the 100s of ms of a
    // real WAN), so the absolute ms-per-KB floor sits ~1000x below the fig13
    // deployment value — it only prunes repeatedly-unused large responses —
    // and a healthy queue depth at 240+ concurrent users is far above the
    // library default.
    engine_options.policy.min_value = 0.0001;
    engine_options.policy.target_queue_depth = 4096;
    // Think-time tails (exp-distributed, dilated) must not be reaped as idle.
    engine_options.conn_idle_timeout = minutes(30);
    engine_options.listen_backlog = 0;  // SOMAXCONN
    engine_options.min_file_descriptors = opt.users + 512;

    core::ShardedProxyEngine engine(&app.analysis.signatures, &config, engine_options);
    net::LiveOriginServer upstream(&origin, 0, /*loop_threads=*/1);
    net::LiveProxyServer::UpstreamMap upstreams;
    for (const apps::EndpointSpec& ep : spec.endpoints) upstreams[ep.host] = upstream.port();
    net::LiveProxyServer proxy(&engine, std::move(upstreams), 0, engine_options);

    const std::string port_line = std::to_string(proxy.port()) + "\n";
    if (::write(port_fd, port_line.data(), port_line.size()) !=
        static_cast<ssize_t>(port_line.size())) {
      std::_Exit(3);
    }
    ::close(port_fd);

    char byte;
    while (true) {
      const ssize_t n = ::read(control_fd, &byte, 1);
      if (n == 0) break;               // parent done (or gone): shut down
      if (n < 0 && errno != EINTR) break;
    }
    proxy.stop();
    upstream.stop();
    std::_Exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_macro[server]: %s\n", e.what());
    std::_Exit(2);
  }
}

// VmRSS of a process in KB, from /proc/<pid>/status.
long read_vm_rss_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

json::Value scrape_metrics(std::uint16_t port) {
  try {
    net::TcpStream stream = net::TcpStream::connect("127.0.0.1", port, seconds(5));
    stream.set_read_timeout(seconds(5));
    http::Request req;
    req.method = "GET";
    req.uri = http::Uri::parse("http://proxy.local/appx/metrics.json");
    net::write_request(stream, req);
    net::HttpReader reader(&stream);
    const auto response = reader.read_response();
    if (!response || !response->ok()) return json::Value();
    return json::parse(response->body.view());
  } catch (const Error&) {
    return json::Value();
  }
}

struct Quantiles {
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
  std::uint64_t count = 0;
};

Quantiles quantiles(const obs::Histogram& h) {
  Quantiles q;
  q.count = static_cast<std::uint64_t>(h.count());
  if (q.count == 0) return q;
  q.p50_ms = static_cast<double>(h.quantile(0.50)) / 1000.0;
  q.p99_ms = static_cast<double>(h.quantile(0.99)) / 1000.0;
  q.p999_ms = static_cast<double>(h.quantile(0.999)) / 1000.0;
  return q;
}

void print_quantiles(const char* name, const Quantiles& q, bool last) {
  std::printf("      \"%s\": {\"count\": %llu, \"p50_ms\": %.2f, \"p99_ms\": %.2f, "
              "\"p999_ms\": %.2f}%s\n",
              name, static_cast<unsigned long long>(q.count), q.p50_ms, q.p99_ms, q.p999_ms,
              last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Fail fast on descriptor capacity for the GENERATOR side (the server
  // checks its own via EngineOptions.min_file_descriptors in its process).
  if (const util::Error err = net::ensure_fd_capacity(opt.users + 128)) {
    std::fprintf(stderr, "bench_macro: %s\n", err.message().c_str());
    return 2;
  }

  // Server child: its own process = its own fd table and a clean RSS signal.
  int port_pipe[2];
  int control_pipe[2];
  if (::pipe(port_pipe) != 0 || ::pipe(control_pipe) != 0) {
    std::perror("bench_macro: pipe");
    return 2;
  }
  const pid_t server_pid = ::fork();
  if (server_pid < 0) {
    std::perror("bench_macro: fork");
    return 2;
  }
  if (server_pid == 0) {
    ::close(port_pipe[0]);
    ::close(control_pipe[1]);
    run_server(opt, port_pipe[1], control_pipe[0]);
  }
  ::close(port_pipe[1]);
  ::close(control_pipe[0]);

  // Wait for the proxy port.
  std::string port_text;
  char ch;
  while (::read(port_pipe[0], &ch, 1) == 1 && ch != '\n') port_text.push_back(ch);
  ::close(port_pipe[0]);
  if (port_text.empty()) {
    std::fprintf(stderr, "bench_macro: server failed to start\n");
    ::close(control_pipe[1]);
    int status = 0;
    ::waitpid(server_pid, &status, 0);
    return 2;
  }
  const auto proxy_port = static_cast<std::uint16_t>(std::stoul(port_text));

  int exit_code = 0;
  {
    // --- phase 1: record base request streams ------------------------------------
    const apps::AppSpec spec = apps::make_wish();
    apps::OriginServer recording_origin(&spec);
    std::set<std::pair<std::string, std::string>> nonce_endpoints;
    for (const apps::EndpointSpec& ep : spec.endpoints) {
      if (ep.requires_nonce) nonce_endpoints.insert({ep.host, ep.path});
    }
    trace::TraceParams trace_params;
    trace_params.seed = opt.seed;
    const std::vector<trace::UserTrace> base_traces = trace::generate_traces(spec, trace_params);

    std::vector<BaseStream> streams;
    streams.reserve(base_traces.size());
    for (const trace::UserTrace& trace : base_traces) {
      streams.push_back(record_stream(spec, recording_origin, trace, nonce_endpoints));
    }

    // --- phase 2: schedule replica sessions --------------------------------------
    trace::ScaleParams scale;
    scale.replicas = std::max<std::size_t>(1, (opt.users + base_traces.size() - 1) /
                                                  base_traces.size());
    scale.seed = opt.seed;
    scale.ramp = static_cast<Duration>(opt.ramp_s * 1e6);
    scale.time_dilation = opt.dilation;
    std::vector<trace::ScheduledSession> sessions = trace::scale_traces(base_traces, scale);
    if (sessions.size() > opt.users) sessions.resize(opt.users);

    const std::int64_t window_start_us =
        static_cast<std::int64_t>((opt.ramp_s + opt.settle_s) * 1e6);
    const std::int64_t window_end_us =
        window_start_us + static_cast<std::int64_t>(opt.duration_s * 1e6);

    // --- phase 3: run the open-loop generator ------------------------------------
    SharedStats stats;
    const long rss_before_kb = read_vm_rss_kb(server_pid);
    const Clock::time_point epoch = Clock::now();

    std::vector<std::unique_ptr<net::EventLoop>> loops;
    for (std::size_t i = 0; i < std::max<std::size_t>(1, opt.loop_threads); ++i) {
      loops.push_back(net::make_epoll_event_loop());
    }
    std::vector<std::vector<std::shared_ptr<UserConn>>> conns_per_loop(loops.size());
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const std::size_t l = s % loops.size();
      conns_per_loop[l].push_back(std::make_shared<UserConn>(
          loops[l].get(), &streams[sessions[s].base_index], &sessions[s], proxy_port, epoch,
          window_start_us, window_end_us, &stats));
    }
    std::vector<std::thread> loop_threads;
    for (std::size_t l = 0; l < loops.size(); ++l) {
      net::EventLoop* loop = loops[l].get();
      auto* conns = &conns_per_loop[l];
      loop_threads.emplace_back([loop, conns] {
        loop->post([conns] {
          for (const auto& conn : *conns) conn->arm();
        });
        loop->run();
      });
    }

    std::this_thread::sleep_until(epoch + std::chrono::microseconds(window_end_us));
    const long rss_after_kb = read_vm_rss_kb(server_pid);
    const std::size_t resident = stats.connects_ok.load() - stats.conn_errors.load() > 0
                                     ? stats.connects_ok.load() - stats.conn_errors.load()
                                     : stats.connects_ok.load();
    const json::Value server_metrics = scrape_metrics(proxy_port);

    for (std::size_t l = 0; l < loops.size(); ++l) {
      net::EventLoop* loop = loops[l].get();
      auto* conns = &conns_per_loop[l];
      loop->post([conns] {
        for (const auto& conn : *conns) conn->shutdown();
      });
      loop->stop();
    }
    for (std::thread& t : loop_threads) t.join();

    // --- report ------------------------------------------------------------------
    const Quantiles hit = quantiles(stats.hit_us);
    const Quantiles miss = quantiles(stats.miss_us);
    obs::Histogram all_us;
    all_us.merge(stats.hit_us);
    all_us.merge(stats.miss_us);
    const Quantiles all = quantiles(all_us);
    const double window_s = opt.duration_s;
    const double rps = static_cast<double>(stats.completed_window.load()) / window_s;
    const double hit_ratio =
        hit.count + miss.count > 0
            ? static_cast<double>(hit.count) / static_cast<double>(hit.count + miss.count)
            : 0;
    const double rss_delta_mb = static_cast<double>(rss_after_kb - rss_before_kb) / 1024.0;
    const double rss_per_user_kb =
        resident > 0 ? static_cast<double>(rss_after_kb - rss_before_kb) /
                           static_cast<double>(resident)
                     : 0;

    std::printf("{\n  \"macro\": {\n");
    std::printf("    \"loop\": \"open\",\n");
    std::printf("    \"io_backend\": \"epoll\",\n");
    std::printf("    \"users\": %zu, \"base_users\": %zu, \"replicas\": %zu,\n", sessions.size(),
                base_traces.size(), scale.replicas);
    std::printf("    \"ramp_s\": %.1f, \"settle_s\": %.1f, \"window_s\": %.1f, "
                "\"dilation\": %.2f,\n",
                opt.ramp_s, opt.settle_s, window_s, opt.dilation);
    std::printf("    \"connections\": {\"established\": %llu, \"errors\": %llu},\n",
                static_cast<unsigned long long>(stats.connects_ok.load()),
                static_cast<unsigned long long>(stats.conn_errors.load()));
    std::printf("    \"requests\": {\"sent\": %llu, \"completed\": %llu, "
                "\"in_window\": %llu, \"response_errors\": %llu, \"sustained_rps\": %.0f},\n",
                static_cast<unsigned long long>(stats.sent.load()),
                static_cast<unsigned long long>(stats.completed.load()),
                static_cast<unsigned long long>(stats.completed_window.load()),
                static_cast<unsigned long long>(stats.response_errors.load()), rps);
    std::printf("    \"latency_ms\": {\n");
    print_quantiles("hit", hit, false);
    print_quantiles("miss", miss, false);
    print_quantiles("all", all, true);
    std::printf("    },\n");
    std::printf("    \"prefetch_hit_ratio\": %.3f,\n", hit_ratio);
    std::printf("    \"generator_max_send_lag_ms\": %.2f,\n",
                static_cast<double>(stats.max_send_lag_us.load()) / 1000.0);
    std::printf("    \"server\": {\"rss_delta_mb\": %.1f, \"rss_per_resident_user_kb\": %.1f",
                rss_delta_mb, rss_per_user_kb);
    long long queue_dropped = 0;
    bool have_server_metrics = false;
    if (server_metrics.is_object()) {
      have_server_metrics = true;
      const json::Value* counters = server_metrics.find("counters");
      const auto counter = [&](const std::string& name) -> long long {
        const json::Value* v =
            counters != nullptr && counters->is_object() ? counters->find(name) : nullptr;
        return v != nullptr ? static_cast<long long>(v->as_int()) : 0;
      };
      queue_dropped = counter("appx_proxy_queue_dropped_total");
      const json::Value* gauges = server_metrics.find("gauges");
      const json::Value* thr =
          gauges != nullptr && gauges->is_object() ? gauges->find("appx_policy_threshold") : nullptr;
      const double threshold =
          thr != nullptr ? static_cast<double>(thr->as_int()) / 1e6 : 0.0;
      const long long prefetch_bytes = counter("appx_prefetch_bytes_total");
      const long long wasted_bytes = counter("appx_prefetch_wasted_bytes_total");
      const double waste_ratio =
          prefetch_bytes > 0 ? static_cast<double>(wasted_bytes) /
                                   static_cast<double>(prefetch_bytes)
                             : 0.0;
      std::printf(",\n      \"upstream_pool_reuse\": %lld, \"upstream_pool_connect\": %lld, "
                  "\"prefetch_queue_dropped\": %lld, \"prefetch_dropped\": %lld,\n",
                  counter("appx_upstream_reuse_total"), counter("appx_upstream_connect_total"),
                  queue_dropped, counter("appx_prefetch_dropped_total"));
      std::printf("      \"prefetch_skipped_queue_full\": %lld,\n",
                  counter(obs::labeled("appx_prefetch_skipped_total", {{"reason", "queue_full"}})));
      std::printf("      \"policy\": {\"admitted\": %lld, \"rejected_value\": %lld, "
                  "\"rejected_budget\": %lld, \"threshold\": %.6f},\n",
                  counter("appx_policy_admitted_total"),
                  counter(obs::labeled("appx_policy_rejected_total", {{"reason", "value"}})),
                  counter(obs::labeled("appx_policy_rejected_total", {{"reason", "budget"}})),
                  threshold);
      std::printf("      \"waste\": {\"prefetch_bytes\": %lld, \"wasted_bytes\": %lld, "
                  "\"wasted_entries\": %lld, \"ratio\": %.3f}",
                  prefetch_bytes, wasted_bytes, counter("appx_prefetch_wasted_entries_total"),
                  waste_ratio);
    }
    std::printf("}\n  }\n}\n");

    // --- smoke gates -------------------------------------------------------------
    if (opt.smoke) {
      if (stats.conn_errors.load() != 0) {
        std::fprintf(stderr, "bench_macro: GATE FAIL: %llu connection errors (want 0)\n",
                     static_cast<unsigned long long>(stats.conn_errors.load()));
        exit_code = 1;
      }
      if (!have_server_metrics) {
        std::fprintf(stderr, "bench_macro: GATE FAIL: could not scrape server metrics\n");
        exit_code = 1;
      } else if (queue_dropped != 0) {
        // Cost-aware admission + lowest-priority queue eviction should shed
        // work before enqueue; jobs dropped after enqueue mean thrash.
        std::fprintf(stderr,
                     "bench_macro: GATE FAIL: %lld prefetch jobs dropped after enqueue "
                     "(want 0)\n",
                     queue_dropped);
        exit_code = 1;
      }
      if (all.count == 0) {
        std::fprintf(stderr, "bench_macro: GATE FAIL: no samples in measurement window\n");
        exit_code = 1;
      } else {
        if (all.p99_ms > opt.gate_p99_ms) {
          std::fprintf(stderr, "bench_macro: GATE FAIL: p99 %.1f ms > %.1f ms\n", all.p99_ms,
                       opt.gate_p99_ms);
          exit_code = 1;
        }
        if (hit_ratio < opt.gate_hit_ratio) {
          std::fprintf(stderr, "bench_macro: GATE FAIL: hit ratio %.3f < %.3f\n", hit_ratio,
                       opt.gate_hit_ratio);
          exit_code = 1;
        }
      }
      if (exit_code == 0) {
        std::fprintf(stderr,
                     "bench_macro: smoke gates pass (p99 %.1f ms <= %.1f, hit ratio %.3f >= "
                     "%.3f, 0 conn errors)\n",
                     all.p99_ms, opt.gate_p99_ms, hit_ratio, opt.gate_hit_ratio);
      }
    }
  }

  ::close(control_pipe[1]);  // EOF: child stops its servers and exits
  int status = 0;
  ::waitpid(server_pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_macro: server child exited abnormally\n");
    return exit_code != 0 ? exit_code : 2;
  }
  return exit_code;
}
