// perfbench: the end-to-end benchmark of the live proxy.
//
// One run measures one workload against the deployed stack — a
// net::LiveProxyServer over a core::ShardedProxyEngine, configured exactly as
// a deployment is (eval::deployment_config plus the EngineOptions defaults) —
// and prints one JSON result line. See perfbench/README.md for the workloads,
// the metrics and the process model; BENCHMARK.json at the repository root is
// the contract.
//
//   perfbench --workload wish_wan|wish_lan|warm_hits --seed N --seconds S
//             --trace 0|1 [--git-sha SHA] [--src-digest HEX] [--run-dir DIR]
//
// Processes: this process is the load generator. It forks the origin
// (apps::OriginServer behind a DelayingOrigin) and then the proxy, which
// analyses the app, builds the engine and listens; the time the proxy
// process takes from its start to accepting is the set-up time. Shared
// counters live in an
// anonymous MAP_SHARED mapping made before the forks. With --trace 1 the
// proxy wraps its engine in a TracingEngine; the spans it writes at shutdown
// are joined here with the generator's own request spans.
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/catalog.hpp"
#include "apps/client.hpp"
#include "apps/server.hpp"
#include "core/learning.hpp"
#include "core/sharded_proxy.hpp"
#include "eval/experiments.hpp"
#include "harness/origin.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "harness/tracing_engine.hpp"
#include "json/json.hpp"
#include "net/event_loop.hpp"
#include "net/http_io.hpp"
#include "net/servers.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace appx;
using perfbench::ClientSpan;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- arguments and workloads ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string run_dir = ".bench_build/runs";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw InvalidArgumentError("missing value for " + std::string(arg));
      return argv[++i];
    };
    if (arg == "--workload") args.workload = next();
    else if (arg == "--seed") args.seed = std::stoull(next());
    else if (arg == "--seconds") args.seconds = std::stod(next());
    else if (arg == "--trace") args.trace = next() != "0";
    else if (arg == "--git-sha") args.git_sha = next();
    else if (arg == "--src-digest") args.src_digest = next();
    else if (arg == "--run-dir") args.run_dir = next();
    else throw InvalidArgumentError("unknown argument " + std::string(arg));
  }
  if (args.seconds <= 0) throw InvalidArgumentError("--seconds must be positive");
  return args;
}

struct Workload {
  std::string name;
  bool open_loop = true;  // false: closed loop on warm cache hits
  bool wan = false;       // origin answers after RTT + processing delay
  std::size_t users = 0;  // open loop: simulated users; closed loop: connections
  double ramp_s = 2;      // open loop: session starts spread over this
  double settle_s = 3;    // open loop: from the end of the ramp to the window
};

Workload workload_for(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "wish_wan") {
    w.wan = true;
    w.users = 16;
  } else if (name == "wish_lan") {
    w.users = 240;
    w.ramp_s = 10;
    w.settle_s = 5;
  } else if (name == "warm_hits") {
    w.open_loop = false;
    w.users = std::max(1U, std::thread::hardware_concurrency());
  } else {
    throw InvalidArgumentError("unknown workload '" + name +
                               "' (wish_wan, wish_lan, warm_hits)");
  }
  return w;
}

// Number of ClientSpans / engine pairs the layer replay keeps at most.
constexpr std::size_t kMaxCapturedPairs = 400;
// Set-ups per pass; setup_s is their median.
constexpr int kSetups = 9;
// A measured phase is cut into kSlices equal slices and the host's steal
// time is read at every slice edge. End-to-end figures pool the quieter
// slice of each adjacent pair (perfbench::quiet_slices): other tenants of
// the host stall this benchmark's threads in bursts of a few seconds, and
// a stall only ever adds time. Pairing keeps the kept slices spread evenly
// over the phase.
constexpr int kSlices = 10;
// warm_hits: length of the closed-loop miss phase before the window.
constexpr double kMissPhaseS = 8;
// A run whose generator sent later than this behind schedule (p99) is not a
// result: its latencies would charge the generator's delay to the proxy.
constexpr double kMaxSendLagP99Ms = 50.0;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- memory shared across the fork ---------------------------------------------------

struct Shared {
  std::atomic<std::int64_t> capture_from_ns{0};
  std::atomic<std::int64_t> capture_until_ns{0};
  perfbench::OriginCounters origin;
};

Shared* map_shared() {
  void* p = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                   -1, 0);
  if (p == MAP_FAILED) throw Error(std::string("mmap: ") + std::strerror(errno));
  return new (p) Shared();
}

// --- child processes -----------------------------------------------------------------

struct Child {
  pid_t pid = -1;
  int control = -1;  // write end; closing it tells the child to shut down
  std::uint16_t port = 0;
  double setup_s = 0;  // the child's own start -> listening time
};

// Tells the parent the listening port and how long the child took to get
// there from its start (`started_ns`; 0 = not timed).
void announce_port(int fd, std::uint16_t port, std::int64_t started_ns = 0) {
  const std::int64_t setup_ns = started_ns == 0 ? 0 : now_ns() - started_ns;
  const std::string line = std::to_string(port) + " " + std::to_string(setup_ns) + "\n";
  if (::write(fd, line.data(), line.size()) != static_cast<ssize_t>(line.size())) std::_Exit(3);
  ::close(fd);
}

void wait_for_eof(int fd) {
  char byte;
  while (true) {
    const ssize_t n = ::read(fd, &byte, 1);
    if (n == 0 || (n < 0 && errno != EINTR)) return;
  }
}

int reap(Child& child) {
  if (child.control >= 0) ::close(child.control);
  child.control = -1;
  int status = 0;
  if (child.pid > 0 && ::waitpid(child.pid, &status, 0) < 0) return -1;
  child.pid = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Fork a child running `body(port_fd, control_fd)` (which must not return)
// and wait for the port it announces. Throws when the child dies first.
template <typename Body>
Child spawn(const char* what, Body body) {
  int port_pipe[2];
  int control_pipe[2];
  if (::pipe(port_pipe) != 0) throw Error("pipe failed");
  if (::pipe(control_pipe) != 0) {
    ::close(port_pipe[0]);
    ::close(port_pipe[1]);
    throw Error("pipe failed");
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    ::close(port_pipe[0]);
    ::close(control_pipe[1]);
    body(port_pipe[1], control_pipe[0]);
    std::_Exit(4);
  }
  ::close(port_pipe[1]);
  ::close(control_pipe[0]);
  Child child;
  child.pid = pid;
  child.control = control_pipe[1];
  std::string text;
  char ch;
  while (::read(port_pipe[0], &ch, 1) == 1 && ch != '\n') text.push_back(ch);
  ::close(port_pipe[0]);
  if (text.empty()) {
    reap(child);
    throw Error(std::string(what) + " failed to start");
  }
  std::size_t end = 0;
  child.port = static_cast<std::uint16_t>(std::stoul(text, &end));
  child.setup_s = static_cast<double>(std::stoll(text.substr(end))) / 1e9;
  return child;
}

[[noreturn]] void run_origin(bool wan, Shared* shared, int port_fd, int control_fd) {
  try {
    const apps::AppSpec spec = apps::make_wish();
    apps::OriginServer origin(&spec);
    perfbench::DelayingOrigin::DelayFn delay;
    if (wan) {
      delay = [&](const http::Request& r) {
        return spec.rtt_for_host(r.uri.host) + origin.proc_delay(r);
      };
    }
    perfbench::DelayingOrigin server(&origin, delay, &shared->origin);
    announce_port(port_fd, server.port());
    std::thread loop([&] { server.run(); });
    wait_for_eof(control_fd);
    server.stop();
    loop.join();
    std::_Exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench[origin]: %s\n", e.what());
    std::_Exit(2);
  }
}

void write_samples(std::ostream& out, const char* name, const std::vector<double>& values) {
  out << name;
  for (const double v : values) out << ' ' << v;
  out << '\n';
}

// Offline replay of captured (request, response) pairs through the layers
// the engine runs on its learning path, each timed on its own.
void replay_layers(const eval::AnalyzedApp& app, const core::ProxyConfig& config,
                   std::vector<perfbench::CapturedPair> pairs, std::ostream& out) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.at_ns < b.at_ns; });
  std::map<std::uint64_t, std::unique_ptr<core::LearningEngine>> learners;
  std::vector<double> parse_us, match_us, observe_us;
  double ready = 0;
  double matched = 0;
  for (const perfbench::CapturedPair& p : pairs) {
    const std::int64_t t0 = now_ns();
    bool parsed = true;
    try {
      const json::Value body = json::parse(p.response.body.view());
      parsed = !body.is_null();
    } catch (const Error&) {
      parsed = false;
    }
    const std::int64_t t1 = now_ns();
    if (parsed) parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    const core::TransactionSignature* sig = app.analysis.signatures.match_request(
        p.request, config.app_for_host(p.request.uri.host));
    const std::int64_t t2 = now_ns();
    match_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    if (sig != nullptr) ++matched;
    auto& learner = learners[p.user];
    if (!learner) {
      learner = std::make_unique<core::LearningEngine>(&app.analysis.signatures,
                                                       &config.host_apps);
    }
    const std::int64_t t3 = now_ns();
    const std::vector<core::ReadyPrefetch> ready_now = learner->observe(p.request, p.response);
    const std::int64_t t4 = now_ns();
    observe_us.push_back(static_cast<double>(t4 - t3) / 1e3);
    ready += static_cast<double>(ready_now.size());
  }
  write_samples(out, "json_parse_us", parse_us);
  write_samples(out, "signature_match_us", match_us);
  write_samples(out, "learning_observe_us", observe_us);
  write_samples(out, "learning_ready", {ready});
  write_samples(out, "signature_matched", {matched});
}

[[noreturn]] void run_proxy(bool traced, Shared* shared, std::uint16_t origin_port,
                            const std::string& run_dir, int port_fd, int control_fd) {
  const std::int64_t started = now_ns();
  try {
    const eval::AnalyzedApp app = eval::analyze_app(apps::make_wish());
    const core::ProxyConfig config = eval::deployment_config(app);
    // The deployment defaults, unchanged (see README.md, "Engine options").
    const core::EngineOptions options;
    core::ShardedProxyEngine engine(&app.analysis.signatures, &config, options);
    std::unique_ptr<perfbench::TracingEngine> tracer;
    core::ProxyLike* front = &engine;
    if (traced) {
      tracer = std::make_unique<perfbench::TracingEngine>(
          &engine,
          [shared] {
            const std::int64_t t = now_ns();
            return t >= shared->capture_from_ns.load(std::memory_order_relaxed) &&
                   t < shared->capture_until_ns.load(std::memory_order_relaxed);
          },
          kMaxCapturedPairs);
      front = tracer.get();
    }
    net::LiveProxyServer::UpstreamMap upstreams;
    for (const apps::EndpointSpec& ep : app.spec.endpoints) upstreams[ep.host] = origin_port;
    net::LiveProxyServer proxy(front, std::move(upstreams), 0, options);
    announce_port(port_fd, proxy.port(), started);
    wait_for_eof(control_fd);
    proxy.stop();

    std::ofstream report(run_dir + "/proxy.txt", std::ios::trunc);
    const core::ProxyStats& stats = engine.stats();
    write_samples(report, "prefetch_balance",
                  {static_cast<double>(stats.prefetches_issued),
                   static_cast<double>(stats.prefetch_responses),
                   static_cast<double>(stats.prefetch_failures),
                   static_cast<double>(stats.prefetches_dropped)});
    if (tracer) {
      perfbench::write_span_file(run_dir + "/spans.bin", tracer->spans(),
                                 tracer->emitted_jobs());
      replay_layers(app, config, tracer->captured(), report);
    }
    report.close();
    std::_Exit(report ? 0 : 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench[proxy]: %s\n", e.what());
    std::_Exit(2);
  }
}

std::map<std::string, std::vector<double>> read_report(const std::string& path) {
  std::map<std::string, std::vector<double>> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    std::vector<double>& values = out[name];
    double v;
    while (fields >> v) values.push_back(v);
  }
  return out;
}

// --- /proc readings of the proxy process ---------------------------------------------

// On-CPU time of every thread of `pid`, in nanoseconds (schedstat).
std::int64_t process_cpu_ns(pid_t pid) {
  std::int64_t total = 0;
  std::error_code ec;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream in(entry.path() / "schedstat");
    std::int64_t ns = 0;
    if (in >> ns) total += ns;
  }
  return total;
}

double rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

// Share of the host's CPU time stolen by the hypervisor, from /proc/stat's
// aggregate line: {steal, total} jiffies.
std::pair<std::int64_t, std::int64_t> host_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::int64_t total = 0;
  std::int64_t steal = 0;
  for (int i = 0; i < 8; ++i) {
    std::int64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// --- admin scrape --------------------------------------------------------------------

using Counters = std::map<std::string, std::int64_t>;

const std::vector<std::string>& scraped_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {"appx_proxy_client_requests_total",
                                  "appx_prefetch_issued_total",
                                  "appx_prefetch_responses_total",
                                  "appx_prefetch_failures_total",
                                  "appx_prefetch_dropped_total"};
    for (const char* reason : {"disabled", "probability", "condition", "budget", "duplicate",
                               "refetch", "queue_full"}) {
      n.push_back(obs::labeled("appx_prefetch_skipped_total", {{"reason", reason}}));
    }
    for (const char* reason : {"value", "budget"}) {
      n.push_back(obs::labeled("appx_policy_rejected_total", {{"reason", reason}}));
    }
    return n;
  }();
  return names;
}

// Counters and the prefetch-queue gauges from /appx/metrics.json.
Counters scrape(std::uint16_t port) {
  net::TcpStream stream = net::TcpStream::connect("127.0.0.1", port, seconds(5));
  stream.set_read_timeout(seconds(5));
  http::Request req;
  req.method = "GET";
  req.uri = http::Uri::parse("http://proxy.local/appx/metrics.json");
  net::write_request(stream, req);
  net::HttpReader reader(&stream);
  const auto response = reader.read_response();
  if (!response || !response->ok()) throw Error("metrics scrape failed");
  const json::Value root = json::parse(response->body.view());
  Counters out;
  const json::Value* counters = root.find("counters");
  const json::Value* gauges = root.find("gauges");
  for (const std::string& name : scraped_names()) {
    const json::Value* v = counters != nullptr ? counters->find(name) : nullptr;
    out[name] = v != nullptr ? v->as_int() : 0;
  }
  for (const char* name : {"appx_prefetch_queue_depth", "appx_prefetch_outstanding"}) {
    const json::Value* v = gauges != nullptr ? gauges->find(name) : nullptr;
    out[name] = v != nullptr ? v->as_int() : 0;
  }
  return out;
}

Counters diff(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    out[name] = v - (it == before.end() ? 0 : it->second);
  }
  return out;
}

// Wait until every issued prefetch has resolved and nothing is queued.
void wait_prefetch_idle(std::uint16_t port, Duration timeout) {
  const Clock::time_point deadline = Clock::now() + std::chrono::microseconds(timeout);
  while (Clock::now() < deadline) {
    const Counters c = scrape(port);
    const std::int64_t resolved = c.at("appx_prefetch_responses_total") +
                                  c.at("appx_prefetch_failures_total") +
                                  c.at("appx_prefetch_dropped_total");
    if (resolved == c.at("appx_prefetch_issued_total") &&
        c.at("appx_prefetch_queue_depth") == 0 && c.at("appx_prefetch_outstanding") == 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  throw Error("prefetch pipeline did not go idle");
}

// --- recorded inputs -----------------------------------------------------------------

// One request of a simulated user: when it is sent relative to its trace
// event, its wire bytes split after the request line (the generator stamps
// X-Appx-User there), and the response the origin gives it.
struct Step {
  std::size_t event_index = 0;
  Duration delta = 0;
  std::string pre;
  std::string post;
  std::uint64_t key = 0;        // perfbench::request_key
  int status = 0;               // expected status
  std::uint64_t body_hash = 0;  // fnv1a of the expected body
  bool last_in_event = false;
};

struct Stream {
  std::vector<Step> steps;  // ordered by (event_index, delta)
};

Step make_step(const http::Request& req, const http::Response& resp) {
  Step step;
  const std::string wire = req.serialize();
  const auto line_end = wire.find("\r\n");
  step.pre = wire.substr(0, line_end + 2);
  step.post = wire.substr(line_end + 2);
  step.key = perfbench::request_key(req);
  step.status = resp.status;
  step.body_hash = fnv1a(resp.body.view());
  return step;
}

// Replays `trace` through an AppClient against an in-process origin and
// records every request with the response it got: the byte-exact reference
// every live response is checked against. Requests to nonce endpoints are
// left out (the origin rejects a replayed nonce by design).
Stream record_stream(const apps::AppSpec& spec, const apps::OriginServer& origin,
                     const trace::UserTrace& trace) {
  sim::Simulator sim;
  Stream out;
  std::size_t current_event = 0;
  SimTime event_start = 0;
  apps::AppClient client(
      &spec, apps::ClientEnv::for_user(spec, trace.user_id), &sim,
      [&](http::Request req, std::function<void(http::Response)> cb) {
        http::Response resp = origin.serve(req);
        const apps::EndpointSpec* ep = origin.match(req);
        if (ep == nullptr || !ep->requires_nonce) {
          Step step = make_step(req, resp);
          step.event_index = current_event;
          step.delta = sim.now() - event_start;
          out.steps.push_back(std::move(step));
        }
        cb(std::move(resp));
      },
      /*jitter=*/0);
  std::function<void(std::size_t)> run_event = [&](std::size_t index) {
    if (index >= trace.events.size()) return;
    const Duration gap = index == 0 ? trace.events[0].at
                                    : std::max<Duration>(0, trace.events[index].at -
                                                                trace.events[index - 1].at);
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
  for (std::size_t i = 0; i < out.steps.size(); ++i) {
    out.steps[i].last_in_event = i + 1 == out.steps.size() ||
                                 out.steps[i + 1].event_index != out.steps[i].event_index;
  }
  return out;
}

// --- load generator ------------------------------------------------------------------

// The answers to requests intended for one slice of a phase.
struct Slice {
  std::vector<double> all_ms, hit_ms, miss_ms, interaction_ms;
  std::uint64_t answered = 0;
  std::uint64_t hits = 0;
};

// A measured stretch of time, in kSlices slices by intended send time. The
// readings are taken by the main thread at the slice edges.
struct Phase {
  std::int64_t start_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t end_ns = std::numeric_limits<std::int64_t>::max();
  std::vector<Slice> slices = std::vector<Slice>(kSlices);
  std::vector<double> steal;   // host steal share in each slice
  std::vector<double> cpu_ms;  // proxy CPU time in each slice

  void set(std::int64_t start, double seconds) {
    start_ns = start;
    end_ns = start + static_cast<std::int64_t>(seconds * 1e9);
  }
  bool contains(std::int64_t t_ns) const { return t_ns >= start_ns && t_ns < end_ns; }
  std::int64_t slice_start_ns(int i) const { return start_ns + (end_ns - start_ns) * i / kSlices; }
  Slice& slice_at(std::int64_t t_ns) {
    const auto i = (t_ns - start_ns) * kSlices / (end_ns - start_ns);
    return slices[static_cast<std::size_t>(std::clamp<std::int64_t>(i, 0, kSlices - 1))];
  }
};

// Everything the generator measures. The samples are written only on the
// generator loop thread and read by the main thread after it has stopped;
// the main thread writes the phases' per-slice readings.
struct GenStats {
  bool record_spans = false;
  Phase window;
  Phase miss;  // closed loop only: the miss phase before the window
  std::vector<double> lag_ms;
  std::vector<ClientSpan> spans;
  std::uint64_t attempted = 0;  // in-window requests sent
  std::uint64_t answered = 0;   // ... answered
  std::uint64_t server_errors = 0;  // 5xx answers to in-window requests
  std::uint64_t unanswered = 0;     // in-window requests never answered
  std::uint64_t wrong = 0;          // any answer whose status or body differs
  std::atomic<std::uint64_t> conn_errors{0};
  std::atomic<std::int64_t> outstanding{0};
  std::atomic<int> phase_done{0};
  bool in_window(std::int64_t t_ns) const { return window.contains(t_ns); }
};

struct Reply {
  int status = 0;
  bool hit = false;
  std::uint64_t body_hash = 0;
};

Reply classify(std::string_view message) {
  Reply r;
  if (message.size() >= 12) r.status = std::atoi(std::string(message.substr(9, 3)).c_str());
  const std::size_t head_end = message.find("\r\n\r\n");
  const std::string_view head = message.substr(0, head_end);
  r.hit = head.find("X-Appx-Cache: hit") != std::string_view::npos;
  r.body_hash = head_end == std::string_view::npos ? 0 : fnv1a(message.substr(head_end + 4));
  return r;
}

int wrong_reported = 0;

// One request awaiting its response (HTTP/1.1 answers in order).
struct InFlight {
  const Step* step = nullptr;
  std::int64_t intended_ns = 0;     // latency is measured from here
  std::int64_t event_start_ns = 0;  // open loop: start of the trace event
  std::size_t span = SIZE_MAX;
  bool miss_phase = false;
};

// A keep-alive client connection on a generator loop. Subclasses decide
// what to send and when; this class owns the socket, the write buffer, the
// response framing and the per-response bookkeeping.
class GenConn : public std::enable_shared_from_this<GenConn> {
 public:
  GenConn(net::EventLoop* loop, std::uint16_t port, std::string user, GenStats* stats)
      : loop_(loop), port_(port), user_(std::move(user)), user_key_(perfbench::user_key(user_)),
        user_header_("X-Appx-User: " + user_ + "\r\n"), stats_(stats), stream_(net::Fd{}) {}
  virtual ~GenConn() = default;

  void connect() {
    if (closed_) return;
    try {
      stream_ = net::TcpStream::begin_connect("127.0.0.1", port_);
    } catch (const Error&) {
      ++stats_->conn_errors;
      closed_ = true;
      return;
    }
    connecting_ = true;
    events_ = EPOLLOUT;
    loop_->add_fd(stream_.fd(), events_,
                  [self = shared_from_this()](std::uint32_t ev) { self->on_events(ev); });
    registered_ = true;
  }

  // Close; in-window requests still owed an answer count as unanswered.
  void shutdown() {
    for (const InFlight& f : inflight_) {
      if (!f.miss_phase && stats_->in_window(f.intended_ns)) ++stats_->unanswered;
    }
    stats_->outstanding.fetch_sub(static_cast<std::int64_t>(inflight_.size()));
    inflight_.clear();
    close(/*error=*/false);
  }

 protected:
  virtual void on_connected() = 0;
  virtual void on_answered(const InFlight& request, const Reply& reply, std::int64_t now) = 0;

  void send(const Step& step, InFlight flight) {
    if (closed_) return;
    const std::int64_t now = now_ns();
    out_.append(step.pre);
    out_.append(user_header_);
    out_.append(step.post);
    flight.step = &step;
    if (stats_->record_spans) {
      flight.span = stats_->spans.size();
      stats_->spans.push_back(ClientSpan{user_key_, step.key, now, 0,
                                         !flight.miss_phase && stats_->in_window(flight.intended_ns)});
    }
    if (!flight.miss_phase && stats_->in_window(flight.intended_ns)) ++stats_->attempted;
    inflight_.push_back(flight);
    stats_->outstanding.fetch_add(1);
    flush();
    if (!closed_) update_events();
  }

  bool closed() const { return closed_; }
  net::EventLoop* loop() const { return loop_; }
  GenStats* stats() const { return stats_; }

 private:
  void on_events(std::uint32_t ev) {
    if (closed_) return;
    if (connecting_) {
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0 || stream_.connect_result() != 0) {
        close(/*error=*/true);
        return;
      }
      connecting_ = false;
      on_connected();
      if (!closed_) update_events();
      return;
    }
    if ((ev & EPOLLERR) != 0) {
      close(/*error=*/true);
      return;
    }
    if ((ev & (EPOLLIN | EPOLLHUP)) != 0) read_all();
    if (!closed_ && (ev & EPOLLOUT) != 0) flush();
    if (!closed_) update_events();
  }

  void flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n =
          ::send(stream_.fd(), out_.data() + out_off_, out_.size() - out_off_, MSG_NOSIGNAL);
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

  void read_all() {
    char buf[16 * 1024];
    while (!closed_) {
      const ssize_t n = ::recv(stream_.fd(), buf, sizeof buf, 0);
      if (n > 0) {
        parser_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        close(/*error=*/!inflight_.empty());
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close(/*error=*/true);
      return;
    }
    while (true) {
      std::optional<std::string_view> message;
      try {
        message = parser_.next_message();
      } catch (const Error&) {
        close(/*error=*/true);
        return;
      }
      if (!message) return;
      if (inflight_.empty()) {
        close(/*error=*/true);
        return;
      }
      const InFlight flight = inflight_.front();
      inflight_.pop_front();
      stats_->outstanding.fetch_sub(1);
      const std::int64_t now = now_ns();
      const Reply reply = classify(*message);
      if (reply.status != flight.step->status || reply.body_hash != flight.step->body_hash) {
        ++stats_->wrong;
        if (wrong_reported++ < 5) {
          std::fprintf(stderr, "perfbench: wrong answer for user %s: status %d (want %d) %s\n",
                       user_.c_str(), reply.status, flight.step->status,
                       flight.step->pre.c_str());
        }
      }
      if (flight.span != SIZE_MAX) stats_->spans[flight.span].recv_ns = now;
      on_answered(flight, reply, now);
      if (closed_) return;
    }
  }

  void close(bool error) {
    if (closed_) return;
    closed_ = true;
    if (error) ++stats_->conn_errors;
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
  std::uint16_t port_;
  std::string user_;
  std::uint64_t user_key_;
  std::string user_header_;
  GenStats* stats_;
  net::TcpStream stream_;
  net::HttpParser parser_;
  std::string out_;
  std::size_t out_off_ = 0;
  std::deque<InFlight> inflight_;
  std::uint32_t events_ = 0;
  bool connecting_ = false;
  bool registered_ = false;
  bool closed_ = false;
};

// Records one in-window answer into the end-to-end samples.
void record_answer(GenStats* s, const InFlight& f, const Reply& reply, std::int64_t now) {
  const double latency_ms = static_cast<double>(now - f.intended_ns) / 1e6;
  if (f.miss_phase) {
    if (s->miss.contains(f.intended_ns)) s->miss.slice_at(f.intended_ns).miss_ms.push_back(latency_ms);
    return;
  }
  if (!s->in_window(f.intended_ns)) return;
  ++s->answered;
  if (reply.status >= 500) ++s->server_errors;
  Slice& slice = s->window.slice_at(f.intended_ns);
  ++slice.answered;
  slice.all_ms.push_back(latency_ms);
  if (reply.hit) {
    ++slice.hits;
    slice.hit_ms.push_back(latency_ms);
  } else {
    slice.miss_ms.push_back(latency_ms);
  }
}

// Open loop: one simulated user replaying its scheduled trace session. Every
// request has a fixed intended send time; a slow proxy delays answers, never
// the schedule. Requests whose intended time is at or after the end of the
// window are not sent.
class OpenUser final : public GenConn {
 public:
  OpenUser(net::EventLoop* loop, std::uint16_t port, const Stream* base,
           const trace::ScheduledSession* sched, std::int64_t epoch_ns, GenStats* stats)
      : GenConn(loop, port, sched->user_id, stats), base_(base), sched_(sched),
        epoch_ns_(epoch_ns) {}

  void arm() {
    loop()->add_timer(at(sched_->start),
                      [self = shared_from_this()] { self->connect(); });
  }

 private:
  Clock::time_point at(Duration offset_us) const {
    return Clock::time_point(std::chrono::nanoseconds(epoch_ns_)) +
           std::chrono::microseconds(offset_us);
  }
  std::int64_t offset_ns(Duration offset_us) const { return epoch_ns_ + offset_us * 1000; }

  // Absolute intended time of a step, cycling the session (a relaunch by the
  // same user) when its stream is exhausted.
  Duration step_offset(const Step& step) const {
    return sched_->event_at[step.event_index] + step.delta + cycle_offset_;
  }

  void on_connected() override { schedule_next(); }

  void schedule_next() {
    if (closed() || base_->steps.empty()) return;
    if (next_ >= base_->steps.size()) {
      next_ = 0;
      cycle_offset_ += sched_->event_at.back() - sched_->event_at.front() + seconds(5);
    }
    const Duration offset = step_offset(base_->steps[next_]);
    if (offset_ns(offset) >= stats()->window.end_ns) return;
    loop()->add_timer(at(offset), [self = std::static_pointer_cast<OpenUser>(shared_from_this())] {
      self->fire();
    });
  }

  void fire() {
    if (closed()) return;
    const Step& step = base_->steps[next_++];
    InFlight f;
    f.intended_ns = offset_ns(step_offset(step));
    f.event_start_ns = offset_ns(sched_->event_at[step.event_index] + cycle_offset_);
    stats()->lag_ms.push_back(static_cast<double>(now_ns() - f.intended_ns) / 1e6);
    send(step, f);
    schedule_next();
  }

  void on_answered(const InFlight& f, const Reply& reply, std::int64_t now) override {
    record_answer(stats(), f, reply, now);
    if (f.step->last_in_event && stats()->in_window(f.event_start_ns)) {
      stats()->window.slice_at(f.event_start_ns)
          .interaction_ms.push_back(static_cast<double>(now - f.event_start_ns) / 1e6);
    }
  }

  const Stream* base_;
  const trace::ScheduledSession* sched_;
  std::int64_t epoch_ns_;
  std::size_t next_ = 0;
  Duration cycle_offset_ = 0;
};

// Closed loop: sends its next request as soon as the previous one is
// answered. Repeats `miss_step` until the miss phase ends, reports, and then
// — once started — repeats `hit_step` until the window ends. Each window
// request is one interaction.
class ClosedUser final : public GenConn {
 public:
  ClosedUser(net::EventLoop* loop, std::uint16_t port, std::string user, const Step* miss_step,
             const Step* hit_step, GenStats* stats)
      : GenConn(loop, port, std::move(user), stats), miss_step_(miss_step),
        hit_step_(hit_step) {}

  void start_window() {
    in_window_phase_ = true;
    next();
  }

 private:
  void on_connected() override { next(); }

  void next() {
    if (closed()) return;
    InFlight f;
    f.intended_ns = now_ns();
    if (!in_window_phase_) {
      if (f.intended_ns < stats()->miss.end_ns) {
        f.miss_phase = true;
        send(*miss_step_, f);
      } else if (!misses_done_) {
        misses_done_ = true;
        stats()->phase_done.fetch_add(1);
      }
      return;
    }
    if (f.intended_ns >= stats()->window.end_ns) return;
    send(*hit_step_, f);
  }

  void on_answered(const InFlight& f, const Reply& reply, std::int64_t now) override {
    record_answer(stats(), f, reply, now);
    if (!f.miss_phase && stats()->in_window(f.intended_ns)) {
      stats()->window.slice_at(f.intended_ns)
          .interaction_ms.push_back(static_cast<double>(now - f.intended_ns) / 1e6);
    }
    next();
  }

  const Step* miss_step_;
  const Step* hit_step_;
  bool misses_done_ = false;
  bool in_window_phase_ = false;
};

// --- warm_hits inputs ----------------------------------------------------------------

// The Wish launch feed and item-detail requests for one user, built by the
// app model exactly as the app would send them. The feed is never cached;
// after the feed and the first detail, the proxy prefetches the other
// details, so detail 1 becomes an exact hit.
struct WarmRequests {
  Step feed;
  Step detail0;
  Step detail1;
};

WarmRequests warm_requests(const apps::AppSpec& spec, const apps::OriginServer& origin) {
  sim::Simulator sim;
  apps::AppClient client(&spec, apps::ClientEnv::for_user(spec, "warm"), &sim,
                         [&](http::Request req, std::function<void(http::Response)> cb) {
                           cb(origin.serve(req));
                         },
                         /*jitter=*/0);
  const auto step_for = [&](const std::string& label, std::size_t element) {
    const std::optional<http::Request> req = client.build_request(spec.endpoint(label), element);
    if (!req) throw Error("warm_hits: cannot build the " + label + " request");
    return make_step(*req, origin.serve(*req));
  };
  WarmRequests out;
  out.feed = step_for("feed", 0);
  // The detail's dependency values come from the feed the client has seen.
  client.run_interaction("launch", 0, [](const apps::InteractionResult&) {});
  sim.run();
  out.detail0 = step_for("detail", 0);
  out.detail1 = step_for("detail", 1);
  return out;
}

// Blocking exchange on a fresh connection (priming only). Recorded as a
// client span like every other request, so the span join stays aligned.
Reply exchange(std::uint16_t port, const std::string& user, const Step& step, GenStats* stats) {
  net::TcpStream stream = net::TcpStream::connect("127.0.0.1", port, seconds(5));
  stream.set_read_timeout(seconds(30));
  const std::int64_t sent = now_ns();
  stream.write_all(step.pre + "X-Appx-User: " + user + "\r\n" + step.post);
  net::HttpParser parser;
  char buf[16 * 1024];
  while (true) {
    if (const auto message = parser.next_message()) {
      if (stats->record_spans) {
        stats->spans.push_back(
            ClientSpan{perfbench::user_key(user), step.key, sent, now_ns(), false});
      }
      return classify(*message);
    }
    const std::size_t n = stream.read_some(buf, sizeof buf);
    if (n == 0) throw Error("warm_hits: proxy closed the connection");
    parser.append(buf, n);
  }
}

// --- one measured pass ---------------------------------------------------------------

struct Pass {
  std::vector<double> setup_s;
  GenStats gen;
  double window_s = 0;
  double rss_mb = 0;
  double host_steal = 0;  // share of host CPU time stolen during the window
  std::uint64_t origin_requests = 0;
  std::uint64_t origin_bytes = 0;
  double origin_serve_p50_us = 0;
  Counters window_counters;
  std::map<std::string, std::vector<double>> proxy_report;
  std::vector<perfbench::EngineSpan> engine_spans;
  std::vector<perfbench::EmittedJob> emitted;
  std::size_t sessions = 0;
};

struct Inputs {
  apps::AppSpec spec = apps::make_wish();
  std::vector<trace::UserTrace> traces;
  std::vector<Stream> streams;
  WarmRequests warm;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  const apps::OriginServer origin(&in.spec);
  if (w.open_loop) {
    // One independent study-shaped session per simulated user (the 30-user
    // study's distribution, drawn w.users times): replicas of 30 base
    // traces would make every seed's load hinge on 30 draws.
    trace::TraceParams params;
    params.users = static_cast<int>(w.users);
    params.seed = seed;
    in.traces = trace::generate_traces(in.spec, params);
    for (const trace::UserTrace& t : in.traces) in.streams.push_back(record_stream(in.spec, origin, t));
  } else {
    in.warm = warm_requests(in.spec, origin);
  }
  return in;
}

// Proxy-side readings taken at the edges of the measured window.
struct Probe {
  std::pair<std::int64_t, std::int64_t> steal;
  Counters counters;
  std::uint64_t origin_requests = 0;
  std::uint64_t origin_bytes = 0;
};

Probe probe(std::uint16_t port, const Shared* shared) {
  Probe p;
  p.steal = host_steal();
  p.origin_requests = shared->origin.requests.load();
  p.origin_bytes = shared->origin.bytes.load();
  p.counters = scrape(port);
  return p;
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
}

// Sleeps through a phase, reading host steal and the proxy's CPU time at
// each slice edge. Starts at once if the phase has already begun.
void watch(Phase& phase, pid_t proxy_pid) {
  sleep_until_ns(phase.start_ns);
  std::int64_t cpu = process_cpu_ns(proxy_pid);
  std::pair<std::int64_t, std::int64_t> steal = host_steal();
  for (int i = 1; i <= kSlices; ++i) {
    sleep_until_ns(phase.slice_start_ns(i));
    const std::int64_t cpu_now = process_cpu_ns(proxy_pid);
    const std::pair<std::int64_t, std::int64_t> steal_now = host_steal();
    phase.cpu_ms.push_back(static_cast<double>(cpu_now - cpu) / 1e6);
    phase.steal.push_back(ratio(static_cast<double>(steal_now.first - steal.first),
                                static_cast<double>(steal_now.second - steal.second)));
    cpu = cpu_now;
    steal = steal_now;
  }
}

void finish_window(const Probe& start, pid_t proxy_pid, std::uint16_t port, const Shared* shared,
                   Pass& pass) {
  const Probe end = probe(port, shared);
  pass.rss_mb = rss_mb(proxy_pid);
  pass.host_steal = ratio(static_cast<double>(end.steal.first - start.steal.first),
                          static_cast<double>(end.steal.second - start.steal.second));
  pass.origin_requests = end.origin_requests - start.origin_requests;
  pass.origin_bytes = end.origin_bytes - start.origin_bytes;
  pass.window_counters = diff(end.counters, start.counters);
}

// The generator's event loop and its connections, on a thread of their own.
// Every exit path closes the connections and joins the thread; drain() is
// the orderly end of a run.
template <typename Conn>
class GenLoop {
 public:
  explicit GenLoop(GenStats* stats) : stats_(stats), loop_(net::make_epoll_event_loop()) {}
  ~GenLoop() { stop(); }
  GenLoop(const GenLoop&) = delete;
  GenLoop& operator=(const GenLoop&) = delete;

  net::EventLoop* loop() const { return loop_.get(); }
  void add(std::shared_ptr<Conn> conn) { conns_.push_back(std::move(conn)); }

  // Runs the loop, first calling `begin` on every connection from it.
  template <typename Begin>
  void start(Begin begin) {
    thread_ = std::thread([this, begin] {
      loop_->post([this, begin] {
        for (const auto& c : conns_) begin(*c);
      });
      loop_->run();
    });
  }
  template <typename Fn>
  void each(Fn fn) {
    loop_->post([this, fn] {
      for (const auto& c : conns_) fn(*c);
    });
  }

  // Waits up to `grace` for owed answers, then closes every connection.
  void drain(Duration grace) {
    const Clock::time_point deadline = Clock::now() + std::chrono::microseconds(grace);
    while (stats_->outstanding.load() > 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop();
  }

 private:
  void stop() {
    if (!thread_.joinable()) return;
    each([](Conn& c) { c.shutdown(); });
    loop_->stop();
    thread_.join();
  }

  GenStats* stats_;
  std::unique_ptr<net::EventLoop> loop_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::thread thread_;
};

void run_open_loop(const Workload& w, const Inputs& in, std::uint64_t seed, const Child& proxy,
                   Shared* shared, Pass& pass) {
  trace::ScaleParams scale;
  scale.seed = seed;
  scale.ramp = static_cast<Duration>(w.ramp_s * 1e6);
  const std::vector<trace::ScheduledSession> sessions = trace::scale_traces(in.traces, scale);
  pass.sessions = sessions.size();

  GenStats& s = pass.gen;
  const std::int64_t epoch = now_ns() + 100'000'000;  // time to arm the timers
  s.window.set(epoch + static_cast<std::int64_t>((w.ramp_s + w.settle_s) * 1e9), pass.window_s);
  shared->capture_from_ns = s.window.start_ns;
  shared->capture_until_ns = s.window.end_ns;

  GenLoop<OpenUser> gen(&s);
  for (const trace::ScheduledSession& session : sessions) {
    gen.add(std::make_shared<OpenUser>(gen.loop(), proxy.port, &in.streams[session.base_index],
                                       &session, epoch, &s));
  }
  gen.start([](OpenUser& u) { u.arm(); });
  sleep_until_ns(s.window.start_ns - 20'000'000);
  const Probe start = probe(proxy.port, shared);
  watch(s.window, proxy.pid);
  finish_window(start, proxy.pid, proxy.port, shared, pass);
  gen.drain(seconds(15));
}

void run_closed_loop(const Workload& w, const Inputs& in, const Child& proxy, Shared* shared,
                     Pass& pass) {
  GenStats& s = pass.gen;
  std::vector<std::string> names;
  for (std::size_t c = 0; c < w.users; ++c) names.push_back("warm-" + std::to_string(c));
  pass.sessions = names.size();

  // Prime: each user's feed and first detail teach the proxy the item list
  // and the detail's run-time values; the prefetched details then land.
  for (const std::string& user : names) {
    for (const Step* step : {&in.warm.feed, &in.warm.detail0}) {
      const Reply r = exchange(proxy.port, user, *step, &s);
      if (r.status != step->status || r.body_hash != step->body_hash) ++s.wrong;
    }
  }
  wait_prefetch_idle(proxy.port, seconds(30));
  for (const std::string& user : names) {
    const Reply r = exchange(proxy.port, user, in.warm.detail1, &s);
    if (!r.hit) throw Error("warm_hits: detail request was not a cache hit after priming");
  }

  // Miss phase, then the window, on one keep-alive connection per user.
  s.miss.set(now_ns() + 50'000'000, kMissPhaseS);
  GenLoop<ClosedUser> gen(&s);
  for (const std::string& user : names) {
    gen.add(std::make_shared<ClosedUser>(gen.loop(), proxy.port, user, &in.warm.feed,
                                         &in.warm.detail1, &s));
  }
  gen.start([](ClosedUser& u) { u.connect(); });
  watch(s.miss, proxy.pid);
  const Clock::time_point miss_deadline = Clock::now() + std::chrono::seconds(30);
  while (s.phase_done.load() < static_cast<int>(names.size())) {
    if (Clock::now() > miss_deadline || s.conn_errors.load() > 0) {
      throw Error("warm_hits: miss phase did not finish");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  wait_prefetch_idle(proxy.port, seconds(30));

  const Probe start = probe(proxy.port, shared);
  std::atomic<bool> started{false};
  gen.loop()->post([&] {
    s.window.set(now_ns(), pass.window_s);
    shared->capture_from_ns = s.window.start_ns;
    shared->capture_until_ns = s.window.end_ns;
    started = true;
  });
  while (!started.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gen.each([](ClosedUser& u) { u.start_window(); });
  watch(s.window, proxy.pid);
  gen.drain(seconds(15));
  finish_window(start, proxy.pid, proxy.port, shared, pass);
}

// One measured pass: origin, kSetups proxy set-ups (the last one serves),
// the load, and the proxy's shutdown report.
std::unique_ptr<Pass> run_pass(const Workload& w, const Args& args, bool traced,
                               double window_s, Shared* shared) {
  auto owned = std::make_unique<Pass>();
  Pass& pass = *owned;
  pass.window_s = window_s;
  pass.gen.record_spans = traced;
  const std::string run_dir =
      args.run_dir + "/" + std::to_string(::getpid()) + (traced ? "-traced" : "");
  std::filesystem::create_directories(run_dir);
  new (&shared->origin) perfbench::OriginCounters();
  shared->capture_from_ns = 0;
  shared->capture_until_ns = 0;

  Child origin = spawn("origin", [&](int port_fd, int control_fd) {
    run_origin(w.wan, shared, port_fd, control_fd);
  });
  Child proxy;
  try {
    for (int i = 0; i < kSetups; ++i) {
      proxy = spawn("proxy", [&](int port_fd, int control_fd) {
        run_proxy(traced, shared, origin.port, run_dir, port_fd, control_fd);
      });
      pass.setup_s.push_back(proxy.setup_s);
      if (i + 1 < kSetups && reap(proxy) != 0) throw Error("proxy set-up run failed");
    }
    // Built after the forks, so no child starts with the generator's memory.
    const Inputs in = make_inputs(w, args.seed);
    if (w.open_loop) {
      run_open_loop(w, in, args.seed, proxy, shared, pass);
    } else {
      run_closed_loop(w, in, proxy, shared, pass);
    }
  } catch (...) {
    reap(proxy);
    reap(origin);
    throw;
  }
  const int proxy_status = reap(proxy);
  pass.origin_serve_p50_us = static_cast<double>(shared->origin.serve_us.quantile(0.5));
  const int origin_status = reap(origin);
  if (proxy_status != 0) throw Error("proxy exited with status " + std::to_string(proxy_status));
  if (origin_status != 0) throw Error("origin exited with status " + std::to_string(origin_status));
  pass.proxy_report = read_report(run_dir + "/proxy.txt");
  if (traced) perfbench::read_span_file(run_dir + "/spans.bin", &pass.engine_spans, &pass.emitted);
  std::filesystem::remove_all(run_dir);
  return owned;
}

// --- report --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  explicit Report(std::string prefix = {}) : prefix_(std::move(prefix)) {}
  void add(const std::string& name, double value, std::string unit) {
    metrics_.push_back(Metric{prefix_ + name, value, std::move(unit)});
  }
  void append(const Report& other) {
    metrics_.insert(metrics_.end(), other.metrics_.begin(), other.metrics_.end());
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  }
  // A percentile metric, with its actual quantile and sample count kept for
  // the provenance line.
  void add_percentile(const std::string& name, std::vector<double> samples, double want,
                      const std::string& unit) {
    const perfbench::Percentile p = perfbench::percentile(samples, want);
    add(name, p.value, unit);
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"%s%s\": {\"q\": %.4f, \"n\": %zu}", prefix_.c_str(),
                  name.c_str(), p.q, p.n);
    samples_.push_back(buf);
  }
  std::string metrics_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(), metrics_[i].value,
                    metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  std::string samples_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < samples_.size(); ++i) out += (i == 0 ? "" : ", ") + samples_[i];
    return out + "}";
  }

 private:
  std::string prefix_;
  std::vector<Metric> metrics_;
  std::vector<std::string> samples_;
};

// The kept (quieter) slices of a phase, pooled.
struct Pooled {
  Slice samples;
  double seconds = 0;
  double cpu_ms = 0;
};

Pooled pool(const Phase& phase) {
  Pooled out;
  const double slice_s = static_cast<double>(phase.end_ns - phase.start_ns) / 1e9 / kSlices;
  for (const std::size_t i : perfbench::quiet_slices(phase.steal)) {
    const Slice& slice = phase.slices[i];
    for (auto member : {&Slice::all_ms, &Slice::hit_ms, &Slice::miss_ms, &Slice::interaction_ms}) {
      (out.samples.*member).insert((out.samples.*member).end(), (slice.*member).begin(),
                                   (slice.*member).end());
    }
    out.samples.answered += slice.answered;
    out.samples.hits += slice.hits;
    out.seconds += slice_s;
    out.cpu_ms += phase.cpu_ms[i];
  }
  return out;
}

// The end-to-end figures. `gated` gets the ones BENCHMARK.json bounds: those
// that hold still from run to run on a shared host. `watched` gets the
// rest — time figures that move with the host's load as much as with the
// program (see README.md, "Gated and watched metrics").
void add_end_to_end(Report& gated, Report& r, const Pass& p) {
  const Pooled w = pool(p.gen.window);
  const double answered = static_cast<double>(w.samples.answered);
  gated.add("setup_s", perfbench::median(p.setup_s), "s");
  gated.add("hit_ratio", ratio(static_cast<double>(w.samples.hits), answered), "ratio");
  gated.add_percentile("interaction_p50_ms", w.samples.interaction_ms, 0.50, "ms");
  gated.add("rss_mb", p.rss_mb, "MB");
  r.add("throughput_rps", ratio(answered, w.seconds), "req/s");
  r.add_percentile("latency_p50_ms", w.samples.all_ms, 0.50, "ms");
  r.add_percentile("latency_p99_ms", w.samples.all_ms, 0.99, "ms");
  // The closed loop's misses come from its miss phase, before the window.
  const std::vector<double>& misses =
      p.gen.miss.steal.empty() ? w.samples.miss_ms : pool(p.gen.miss).samples.miss_ms;
  r.add_percentile("miss_p50_ms", misses, 0.50, "ms");
  r.add_percentile("miss_p99_ms", misses, 0.99, "ms");
  r.add_percentile("hit_p50_ms", w.samples.hit_ms, 0.50, "ms");
  r.add_percentile("interaction_p90_ms", w.samples.interaction_ms, 0.90, "ms");
  r.add("server_cpu_ms_per_req", ratio(w.cpu_ms, answered), "ms");
}

// All in-window latencies of a pass.
std::vector<double> all_latencies(const GenStats& g) {
  std::vector<double> out;
  for (const Slice& s : g.window.slices) out.insert(out.end(), s.all_ms.begin(), s.all_ms.end());
  return out;
}

void add_per_layer(Report& r, const Pass& traced, const Pass& untraced) {
  perfbench::LayerSamples l = perfbench::join_spans(
      traced.gen.spans, traced.engine_spans, traced.emitted, traced.gen.window.start_ns,
      traced.gen.window.end_ns);
  const double requests = static_cast<double>(l.client_requests);
  r.add_percentile("net.in_us.p50", l.net_in_us, 0.50, "us");
  r.add_percentile("net.in_us.p99", l.net_in_us, 0.99, "us");
  r.add_percentile("net.out_us.p50", l.net_out_us, 0.50, "us");
  r.add_percentile("engine.on_request_us.p50", l.on_request_us, 0.50, "us");
  r.add_percentile("engine.on_request_us.p99", l.on_request_us, 0.99, "us");
  r.add_percentile("engine.on_response_us.p50", l.on_response_us, 0.50, "us");
  r.add_percentile("engine.on_response_us.p99", l.on_response_us, 0.99, "us");
  r.add_percentile("engine.on_prefetch_response_us.p50", l.on_prefetch_response_us, 0.50, "us");
  r.add("engine.ms_per_req", ratio(l.engine_ms_total, requests), "ms");
  r.add("engine.jobs_per_req", ratio(static_cast<double>(l.jobs_emitted), requests), "count");
  r.add_percentile("upstream.fetch_ms.p50", l.upstream_fetch_ms, 0.50, "ms");
  r.add_percentile("upstream.fetch_ms.p99", l.upstream_fetch_ms, 0.99, "ms");
  r.add_percentile("prefetch.fetch_ms.p50", l.prefetch_fetch_ms, 0.50, "ms");
  r.add_percentile("prefetch.fetch_ms.p99", l.prefetch_fetch_ms, 0.99, "ms");
  r.add_percentile("prefetch.queue_wait_ms.p50", l.prefetch_queue_wait_ms, 0.50, "ms");
  r.add_percentile("prefetch.queue_wait_ms.p99", l.prefetch_queue_wait_ms, 0.99, "ms");
  r.add("prefetch.late_ratio",
        ratio(static_cast<double>(l.late_misses), static_cast<double>(l.misses)), "ratio");
  r.add("prefetch.useful_ratio",
        ratio(static_cast<double>(l.prefetches_useful),
              static_cast<double>(l.prefetches_completed)),
        "ratio");

  // Policy counters, diffed across the window.
  const Counters& c = traced.window_counters;
  double rejected = 0;
  for (const auto& [name, v] : c) {
    const bool skip = name.rfind("appx_prefetch_skipped_total", 0) == 0 &&
                      name.find("queue_full") == std::string::npos;
    if (skip || name.rfind("appx_policy_rejected_total", 0) == 0) rejected += static_cast<double>(v);
  }
  const double admitted =
      static_cast<double>(c.at("appx_prefetch_issued_total") +
                          c.at(obs::labeled("appx_prefetch_skipped_total",
                                            {{"reason", "queue_full"}})));
  r.add("policy.candidates_per_admit", ratio(rejected + admitted, admitted), "count");
  r.add("policy.rejected_per_req",
        ratio(rejected, static_cast<double>(c.at("appx_proxy_client_requests_total"))), "count");

  r.add("origin.serve_us.p50", traced.origin_serve_p50_us, "us");
  r.add("origin.reqs_per_client_req",
        ratio(static_cast<double>(traced.origin_requests), static_cast<double>(traced.gen.answered)),
        "count");
  r.add("origin.kb_per_req",
        ratio(static_cast<double>(traced.origin_bytes) / 1024.0,
              static_cast<double>(traced.gen.answered)),
        "KB");

  const auto report = [&](const char* name) {
    const auto it = traced.proxy_report.find(name);
    return it == traced.proxy_report.end() ? std::vector<double>{} : it->second;
  };
  r.add_percentile("json.parse_us.p50", report("json_parse_us"), 0.50, "us");
  r.add_percentile("signature.match_us.p50", report("signature_match_us"), 0.50, "us");
  const std::vector<double> observe = report("learning_observe_us");
  r.add_percentile("learning.observe_us.p50", observe, 0.50, "us");
  const std::vector<double> ready = report("learning_ready");
  r.add("learning.ready_per_observe",
        ratio(ready.empty() ? 0 : ready[0], static_cast<double>(observe.size())), "count");

  std::vector<double> traced_all = all_latencies(traced.gen);
  std::vector<double> untraced_all = all_latencies(untraced.gen);
  r.add("trace.overhead_ms",
        perfbench::percentile(traced_all, 0.5).value - perfbench::percentile(untraced_all, 0.5).value,
        "ms");
  r.add("trace.join_ratio", ratio(static_cast<double>(l.joined), requests), "ratio");
  r.add("trace.unmatched_engine_spans", static_cast<double>(l.engine_spans_unmatched), "count");
}

// Correctness of one pass; returns the problems found (empty when correct).
std::vector<std::string> check(const Pass& p) {
  std::vector<std::string> problems;
  const GenStats& g = p.gen;
  if (g.wrong > 0) problems.push_back(std::to_string(g.wrong) + " wrong response bodies");
  const auto it = p.proxy_report.find("prefetch_balance");
  if (it == p.proxy_report.end() || it->second.size() != 4) {
    problems.push_back("proxy reported no prefetch balance");
  } else if (it->second[0] != it->second[1] + it->second[2] + it->second[3]) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "prefetch balance broken after stop: issued %.0f != responses %.0f + "
                  "failures %.0f + dropped %.0f",
                  it->second[0], it->second[1], it->second[2], it->second[3]);
    problems.push_back(buf);
  }
  if (g.attempted == 0) problems.push_back("no requests in the window");
  return problems;
}

std::uint64_t failed_of(const Pass& p) {
  const GenStats& g = p.gen;
  return g.server_errors + g.unanswered + g.wrong + g.conn_errors;
}

std::string provenance(const Args& args, const Workload& w, const Pass& p, const Report& r,
                       const Report& watched) {
  std::vector<double> lag = p.gen.lag_ms;
  const perfbench::Percentile lag50 = perfbench::percentile(lag, 0.5);
  const perfbench::Percentile lag99 = perfbench::percentile(lag, 0.99);
  const double lag_max = lag.empty() ? 0 : lag.back();
  std::string steal = "[";
  for (const double v : p.gen.window.steal) steal += (steal.size() > 1 ? ", " : "") + std::to_string(v);
  steal += "]";
  const std::vector<double> all = all_latencies(p.gen);
  const double in_flight = ratio(std::accumulate(all.begin(), all.end(), 0.0) / 1e3, p.window_s);
  char buf[4096];
  std::snprintf(
      buf, sizeof buf,
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %.3f, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"src_digest\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %u, \"io_backend\": \"%s\", \"users\": %zu, \"attempted\": %" PRIu64
      ", \"answered\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"wrong_bodies\": %" PRIu64
      ", \"mean_in_flight\": %.2f, \"generator_lag_ms\": {\"p50\": %.3f, \"p99\": %.3f, "
      "\"max\": %.3f, \"n\": %zu}, \"host_steal\": %.4f, \"slice_steal\": %s, \"origin_requests\": %" PRIu64
      "}, \"watched\": %s, \"samples\": %s, \"watched_samples\": %s}",
      w.name.c_str(), args.seed, p.window_s, args.trace ? 1 : 0, args.git_sha.c_str(),
      args.src_digest.c_str(), PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      net::resolve_io_backend("").c_str(), p.sessions, p.gen.attempted, p.gen.answered,
      failed_of(p), p.gen.wrong, in_flight, lag50.value, lag99.value, lag_max, lag50.n,
      p.host_steal, steal.c_str(), p.origin_requests, watched.metrics_json().c_str(),
      r.samples_json().c_str(), watched.samples_json().c_str());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  try {
    args = parse_args(argc, argv);
    w = workload_for(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    Shared* shared = map_shared();
    Report report;
    Report watched("e2e.");
    std::vector<std::unique_ptr<Pass>> passes;
    if (!args.trace) {
      passes.push_back(run_pass(w, args, /*traced=*/false, args.seconds, shared));
      add_end_to_end(report, watched, *passes.back());
    } else {
      // Half the time untraced, half traced: the difference is the overhead.
      passes.push_back(run_pass(w, args, /*traced=*/false, args.seconds / 2, shared));
      passes.push_back(run_pass(w, args, /*traced=*/true, args.seconds / 2, shared));
      add_per_layer(report, *passes[1], *passes[0]);
      Report gated_untraced;
      add_end_to_end(gated_untraced, watched, *passes[0]);
      report.append(watched);
    }
    std::vector<std::string> problems;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const auto& pass : passes) {
      const Pass& p = *pass;
      for (std::string& problem : check(p)) problems.push_back(std::move(problem));
      attempted += p.gen.attempted;
      failed += failed_of(p);
      std::vector<double> lag = p.gen.lag_ms;
      const double lag99 = perfbench::percentile(lag, 0.99).value;
      if (lag99 > kMaxSendLagP99Ms) {
        std::fprintf(stderr,
                     "perfbench: generator ran %.1f ms late at p99 (bound %.1f ms); "
                     "the run is not a result\n",
                     lag99, kMaxSendLagP99Ms);
        return 3;
      }
      std::printf("%s\n", provenance(args, w, p, report, watched).c_str());
    }
    for (const std::string& problem : problems) std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": %s}\n",
                problems.empty() && failed == 0 ? "true" : "false", attempted, failed,
                report.metrics_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
