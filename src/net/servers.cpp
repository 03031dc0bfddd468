#include "net/servers.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "core/persist.hpp"
#include "http/view.hpp"
#include "net/rlimit.hpp"
#include "net/syscount.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace appx::net {
namespace {

constexpr std::size_t kReadChunk = 16 * 1024;
// Max chunks per sendmsg batch; a response is at most head + body, so 8
// covers several pipelined responses in one syscall.
constexpr std::size_t kMaxIov = 8;
// While a request is in flight, pipelined bytes keep flowing into the
// parser's staging buffer (under pin()) up to this budget; only a client
// flooding past it has read interest dropped (and the kernel socket buffer
// backpressures it). Keeping the mask stable this way removes the
// epoll_ctl(MOD) pair every request used to pay.
constexpr std::size_t kMaxStagedBytes = 64 * 1024;
// After rejecting a message (431/413) we half-close and keep draining the
// peer's in-flight bytes this long so the FIN carries the status cleanly.
constexpr auto kDiscardDrain = std::chrono::milliseconds(500);

http::Response status_response(int status, std::string body) {
  http::Response resp;
  resp.status = status;
  resp.reason = std::string(http::reason_phrase(status));
  resp.body = std::move(body);
  return resp;
}

// Canned upstream-failure responses, built once and shared: serving one is a
// refcount bump — the body is a static slab, never copied or re-assembled
// per failure (DESIGN.md §5h). `body` must have static storage duration.
std::shared_ptr<const http::Response> make_canned(int status, std::string_view body) {
  auto resp = std::make_shared<http::Response>();
  resp->status = status;
  resp->reason = std::string(http::reason_phrase(status));
  resp->body = http::BodySlab::static_bytes(body);
  return resp;
}
const std::shared_ptr<const http::Response>& no_upstream_response() {
  static const auto resp = make_canned(502, R"({"error":"no upstream for host"})");
  return resp;
}
const std::shared_ptr<const http::Response>& shutting_down_response() {
  static const auto resp = make_canned(502, R"({"error":"proxy shutting down"})");
  return resp;
}
const std::shared_ptr<const http::Response>& upstream_error_response() {
  static const auto resp = make_canned(502, R"({"error":"upstream error"})");
  return resp;
}
const std::shared_ptr<const http::Response>& upstream_timeout_response() {
  static const auto resp = make_canned(504, R"({"error":"upstream timeout"})");
  return resp;
}
const std::shared_ptr<const http::Response>& internal_error_response() {
  static const auto resp = make_canned(500, R"({"error":"internal error"})");
  return resp;
}

// Full wire bytes of the bodyless reject statuses (431/413), rendered once;
// the reject path enqueues them as static slabs with zero per-use work.
std::string_view canned_reject_wire(int status) {
  static const std::string wire_431 = status_response(431, "").serialize_head();
  static const std::string wire_413 = status_response(413, "").serialize_head();
  return status == 431 ? std::string_view(wire_431) : std::string_view(wire_413);
}

// Shared admin surface: /appx/metrics (Prometheus text), /appx/metrics.json.
bool is_admin_path(std::string_view path) { return path.rfind("/appx/", 0) == 0; }

http::Response metrics_response(const obs::MetricsRegistry& registry, std::string_view path) {
  if (path == "/appx/metrics") {
    http::Response resp = status_response(200, registry.to_prometheus());
    resp.headers.set("Content-Type", "text/plain; version=0.0.4");
    return resp;
  }
  if (path == "/appx/metrics.json") {
    http::Response resp = status_response(200, registry.to_json().dump(2));
    resp.headers.set("Content-Type", "application/json");
    return resp;
  }
  return status_response(404, R"({"error":"unknown admin endpoint"})");
}

}  // namespace

// --- Conn ----------------------------------------------------------------------------
//
// One client connection on one event loop. All state is loop-thread-only
// except the request-scoped members (`sessions`, the request view, arena and
// scratch request) — touched only by the single worker owning the in-flight
// request; `processing_` serializes requests per connection and the worker
// queue/loop post provide the hand-off ordering — and complete() (any
// thread; it posts the response to the loop).
//
// Zero-copy data plane (DESIGN.md §5h): a complete message is parsed into a
// RequestView over the parser's pinned buffer (header array in the
// connection arena); the buffer stays pinned until complete(). Responses
// leave as (head, body) chunk pairs — the head rendered into a pooled
// per-connection buffer, the body a refcounted slab — so serving a cached
// response copies no payload bytes between the cache and the socket iovec.
class Conn : public std::enable_shared_from_this<Conn> {
 public:
  // Called on the loop thread for each complete parsed request, which rides
  // on the connection as request_view() (and materialize_request() for an
  // owning form). The sink must eventually call complete() exactly once per
  // dispatched request; the view and scratch request stay valid until then.
  using Dispatch = std::function<void(const std::shared_ptr<Conn>&)>;
  using OnClosed = std::function<void(int fd)>;

  Conn(EventLoop* loop, TcpStream stream, ReaderLimits limits, Duration idle_timeout,
       Dispatch dispatch, OnClosed on_closed, obs::Histogram* first_byte_hist)
      : loop_(loop),
        stream_(std::move(stream)),
        parser_(limits),
        idle_timeout_(idle_timeout),
        dispatch_(std::move(dispatch)),
        on_closed_(std::move(on_closed)),
        first_byte_hist_(first_byte_hist),
        last_activity_(std::chrono::steady_clock::now()),
        accepted_(last_activity_) {}

  int fd() const { return stream_.fd(); }

  // Per-(connection, user) resolved engine sessions (see LiveProxyServer).
  std::map<std::string, core::Session, std::less<>> sessions;

  // Loop thread: register with the loop and arm the idle timer.
  void start() {
    events_ = EPOLLIN;
    loop_->add_fd(fd(), events_,
                  [self = shared_from_this()](std::uint32_t ev) { self->on_events(ev); });
    arm_idle_timer(last_activity_ + std::chrono::microseconds(idle_timeout_));
  }

  // The in-flight request as zero-copy views over the pinned parser buffer.
  // Valid from dispatch until the matching complete().
  const http::RequestView& request_view() const { return view_; }

  // The in-flight request in owning form, materialized on first use into a
  // per-connection scratch whose string/vector capacity is reused across
  // requests — warm keep-alive traffic materializes without allocating.
  http::Request& materialize_request() {
    if (!materialized_) {
      http::materialize(view_, req_scratch_);
      materialized_ = true;
    }
    return req_scratch_;
  }

  // Any thread: hand back the response for the dispatched request. The body
  // slab is enqueued by reference (no copy); the head is rendered on the
  // loop thread into a pooled buffer. `extra_header_line` must point at
  // storage with static lifetime (callers pass literals like
  // "X-Appx-Cache: hit"); it is emitted after the stored headers.
  void complete(http::Response response, std::string_view extra_header_line = {}) {
    if (loop_->on_loop_thread()) {
      finish_request(response, extra_header_line);
      return;
    }
    loop_->post([self = shared_from_this(), response = std::move(response),
                 extra_header_line]() mutable {
      self->finish_request(response, extra_header_line);
    });
  }

  // Same, for a response shared with the engine's cache (or a canned
  // singleton): no copy is taken — the write queue holds the refcount.
  void complete(std::shared_ptr<const http::Response> response,
                std::string_view extra_header_line = {}) {
    if (loop_->on_loop_thread()) {
      finish_request(*response, extra_header_line);
      return;
    }
    loop_->post([self = shared_from_this(), response = std::move(response), extra_header_line] {
      self->finish_request(*response, extra_header_line);
    });
  }

  // Loop thread (server stop path).
  void close_now() { close(); }

 private:
  void on_events(std::uint32_t ev) {
    if ((ev & EPOLLERR) != 0) {
      close();
      return;
    }
    if ((ev & (EPOLLIN | EPOLLHUP)) != 0) handle_readable();
    if (!closed_ && (ev & EPOLLOUT) != 0) flush();
    if (closed_) return;
    pump();
    finish_io_round();
  }

  // Drain the socket. Bytes feed the parser; in discard mode (after a
  // 431/413) they are sunk unparsed. A short read means the buffer out-ran
  // the socket: stop there instead of paying a recv that would return EAGAIN
  // — level-triggered epoll re-reports anything that arrives later.
  void handle_readable() {
    char buf[kReadChunk];
    while (!closed_) {
      sys::count(sys::Op::kRead);
      const ssize_t n = ::recv(fd(), buf, sizeof buf, 0);
      if (n > 0) {
        if (!discarding_) parser_.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) return;
        continue;
      }
      if (n == 0) {
        peer_eof_ = true;
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close();
      return;
    }
  }

  // Dispatch buffered complete messages, one in flight at a time. The
  // in_pump_ guard breaks recursion when an inline dispatch (admin, origin)
  // completes synchronously: its finish_request() sees the guard and the
  // outer loop here picks up the next pipelined message instead.
  void pump() {
    if (in_pump_ || closed_) return;
    in_pump_ = true;
    while (!closed_ && !processing_ && !discarding_) {
      std::optional<std::string_view> wire;
      try {
        wire = parser_.next_message();
      } catch (const MessageTooLargeError& e) {
        reject(e.suggested_status());
        break;
      } catch (const ParseError& e) {
        log_debug("net.conn") << "malformed message: " << e.what();
        close();
        break;
      }
      if (!wire) break;
      try {
        arena_.reset();
        view_ = http::parse_request_view(*wire, arena_);
      } catch (const ParseError& e) {
        log_debug("net.conn") << "malformed request: " << e.what();
        close();
        break;
      }
      materialized_ = false;
      // A complete request is activity; a dribbling partial header (slow
      // loris) is not, so the idle timer keeps counting across it.
      touch();
      processing_ = true;
      // Pin the buffer under the outstanding views: bytes arriving while the
      // request is in flight (EPOLLHUP-driven drains read even with EPOLLIN
      // masked off) are staged aside instead of reallocating it.
      parser_.pin();
      dispatch_(shared_from_this());
    }
    in_pump_ = false;
  }

  // Queue an error status for an oversized message, then switch to discard
  // mode: sink the peer's remaining bytes and close after a bounded drain so
  // the FIN carries the status instead of an RST racing unread input.
  void reject(int status) {
    out_.push_back(OutChunk::canned(canned_reject_wire(status)));
    discarding_ = true;
    parser_.reset();
    flush();
  }

  // Loop thread: append the response for the in-flight request and resume
  // reading/dispatching.
  void finish_request(const http::Response& response, std::string_view extra_header_line) {
    if (closed_) return;  // connection died while the worker ran; drop
    processing_ = false;
    parser_.unpin();  // views are dead; merge bytes staged during the request
    std::string head = take_head_buffer();
    response.serialize_head_into(head, extra_header_line);
    out_.push_back(OutChunk::head(std::move(head)));
    if (!response.body.empty()) out_.push_back(OutChunk::body(response.body));
    touch();
    flush();
    if (closed_) return;
    pump();
    finish_io_round();
  }

  // Write as much of the pending queue as the socket accepts, batching
  // chunks (response head + body, plus any pipelined successors) into one
  // sendmsg. EAGAIN leaves the rest for EPOLLOUT.
  void flush() {
    while (!out_.empty() && !closed_) {
      struct iovec iov[kMaxIov];
      std::size_t niov = 0;
      std::size_t offset = out_off_;
      for (const OutChunk& chunk : out_) {
        if (niov == kMaxIov) break;
        const std::string_view bytes = chunk.bytes();
        iov[niov].iov_base = const_cast<char*>(bytes.data() + offset);
        iov[niov].iov_len = bytes.size() - offset;
        ++niov;
        offset = 0;
      }
      struct msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = niov;
      sys::count(sys::Op::kWrite);
      const ssize_t n = ::sendmsg(fd(), &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        close();
        return;
      }
      record_first_byte(n);
      consume_out(static_cast<std::size_t>(n));
    }
  }

  void record_first_byte(ssize_t n) {
    if (first_byte_hist_ != nullptr && n > 0) {
      first_byte_hist_->record(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - accepted_)
                                   .count());
      first_byte_hist_ = nullptr;
    }
  }

  // Pop `remaining` written bytes off the front of the pending-write queue,
  // recycling head buffers as they complete.
  void consume_out(std::size_t remaining) {
    while (remaining > 0) {
      OutChunk& front = out_.front();
      const std::size_t left = front.bytes().size() - out_off_;
      if (remaining >= left) {
        remaining -= left;
        out_off_ = 0;
        if (front.kind == OutChunk::Kind::Text) recycle_head_buffer(std::move(front.text));
        out_.pop_front();
      } else {
        out_off_ += remaining;
        remaining = 0;
      }
    }
  }

  // End-of-round bookkeeping: progress the discard sequence, close on
  // drained EOF, and reconcile the epoll mask with what we now want.
  void finish_io_round() {
    if (closed_) return;
    if (discarding_ && out_.empty() && !write_shutdown_) {
      stream_.shutdown_write();
      write_shutdown_ = true;
      drain_timer_ = loop_->add_timer(std::chrono::steady_clock::now() + kDiscardDrain,
                                      [self = shared_from_this()] { self->close(); });
    }
    if (peer_eof_ && out_.empty() && !processing_) {
      close();
      return;
    }
    update_events();
  }

  // Reading continues while a request is being processed — pipelined bytes
  // stage under the parser pin, so the read mask stays stable and the warm
  // path pays no epoll_ctl — until the staged budget is exhausted; past it a
  // flooding client loses read interest and the kernel socket buffer
  // backpressures it (the blocking runtime's behaviour, one budget later).
  // Discard mode always reads, to drain the rejected message.
  bool want_read() const {
    if (peer_eof_) return false;
    if (discarding_) return true;
    return !processing_ || parser_.pending_bytes() < kMaxStagedBytes;
  }

  void update_events() {
    const std::uint32_t desired =
        (want_read() ? static_cast<std::uint32_t>(EPOLLIN) : 0U) |
        (!out_.empty() ? static_cast<std::uint32_t>(EPOLLOUT) : 0U);
    if (desired == events_) return;
    events_ = desired;
    loop_->mod_fd(fd(), desired);
  }

  void touch() { last_activity_ = std::chrono::steady_clock::now(); }

  void arm_idle_timer(std::chrono::steady_clock::time_point when) {
    if (idle_timeout_ <= 0) return;
    idle_timer_ = loop_->add_timer(when, [self = shared_from_this()] { self->on_idle(); });
  }

  void on_idle() {
    idle_timer_ = 0;
    if (closed_) return;
    const auto now = std::chrono::steady_clock::now();
    const auto deadline = last_activity_ + std::chrono::microseconds(idle_timeout_);
    if (processing_) {
      // A worker owns the request (bounded by the upstream deadline); give
      // the connection another full period.
      arm_idle_timer(now + std::chrono::microseconds(idle_timeout_));
      return;
    }
    if (now < deadline) {
      arm_idle_timer(deadline);  // touched since the timer was armed
      return;
    }
    close();
  }

  // One pending-write queue entry: either head text (a pooled per-connection
  // buffer, recycled once written) or payload bytes held by reference — a
  // refcounted body slab, or a canned wire with static lifetime. Payloads
  // are never copied into the queue.
  struct OutChunk {
    enum class Kind { Text, Slab };
    Kind kind = Kind::Text;
    std::string text;
    http::BodySlab slab;

    static OutChunk head(std::string t) {
      OutChunk c;
      c.text = std::move(t);
      return c;
    }
    static OutChunk body(const http::BodySlab& s) {
      OutChunk c;
      c.kind = Kind::Slab;
      c.slab = s;
      return c;
    }
    static OutChunk canned(std::string_view wire) {
      OutChunk c;
      c.kind = Kind::Slab;
      c.slab = http::BodySlab::static_bytes(wire);
      return c;
    }
    std::string_view bytes() const {
      return kind == Kind::Slab ? slab.view() : std::string_view(text);
    }
  };

  // Head buffers cycle between the write queue and this pool (loop-thread
  // only), so steady-state responses render their head into warm capacity.
  std::string take_head_buffer() {
    if (head_pool_.empty()) return {};
    std::string buf = std::move(head_pool_.back());
    head_pool_.pop_back();
    buf.clear();
    return buf;
  }

  void recycle_head_buffer(std::string&& buf) {
    if (head_pool_.size() < kHeadPoolMax) head_pool_.push_back(std::move(buf));
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    if (idle_timer_ != 0) {
      loop_->cancel_timer(idle_timer_);
      idle_timer_ = 0;
    }
    if (drain_timer_ != 0) {
      loop_->cancel_timer(drain_timer_);
      drain_timer_ = 0;
    }
    const int conn_fd = fd();
    loop_->del_fd(conn_fd);
    stream_ = TcpStream(Fd{});  // close the descriptor now, not at last ref
    out_.clear();
    if (on_closed_) on_closed_(conn_fd);
  }

  static constexpr std::size_t kHeadPoolMax = 4;

  EventLoop* loop_;
  TcpStream stream_;
  HttpParser parser_;
  Duration idle_timeout_;
  Dispatch dispatch_;
  OnClosed on_closed_;
  obs::Histogram* first_byte_hist_;  // nulled after the first recorded write

  // Request-scoped state (owned by the dispatched handler until complete()):
  // arena backs the view's header array; the scratch request keeps its
  // capacity across materializations.
  util::Arena arena_;
  http::RequestView view_;
  http::Request req_scratch_;
  bool materialized_ = false;

  std::deque<OutChunk> out_;
  std::vector<std::string> head_pool_;
  std::size_t out_off_ = 0;  // bytes of out_.front() already written
  std::uint32_t events_ = 0;

  bool processing_ = false;
  bool peer_eof_ = false;
  bool discarding_ = false;
  bool write_shutdown_ = false;
  bool closed_ = false;
  bool in_pump_ = false;
  std::uint64_t idle_timer_ = 0;
  std::uint64_t drain_timer_ = 0;
  std::chrono::steady_clock::time_point last_activity_;
  std::chrono::steady_clock::time_point accepted_;
};

namespace {

// Level-triggered accept: drain every pending connection on the shard's
// listener. make_conn returns null to refuse (server stopping).
template <typename MakeConn>
void accept_pending(LoopShard* shard, const MakeConn& make_conn) {
  while (true) {
    TcpStream stream = shard->listener->accept_nonblocking();
    if (!stream.valid()) return;
    std::shared_ptr<Conn> conn = make_conn(shard, std::move(stream));
    if (conn == nullptr) continue;
    shard->conns[conn->fd()] = conn;
    conn->start();
  }
}

// Build one SO_REUSEPORT listener per shard on the shared port (the first
// binds it, possibly ephemeral) and start each shard's loop thread with its
// listener registered. Returns the bound port. `backlog` 0 = SOMAXCONN.
template <typename MakeConn>
std::uint16_t start_shards(std::vector<std::unique_ptr<LoopShard>>& shards,
                           std::size_t loop_threads, std::uint16_t port, MakeConn make_conn,
                           int backlog = 0) {
  if (loop_threads == 0) {
    loop_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  std::uint16_t bound = port;
  shards.reserve(loop_threads);
  for (std::size_t i = 0; i < loop_threads; ++i) {
    auto shard = std::make_unique<LoopShard>();
    shard->loop = make_epoll_event_loop();
    shard->listener = std::make_unique<TcpListener>(bound, /*reuse_port=*/true, backlog);
    if (i == 0) bound = shard->listener->port();
    shard->listener->set_nonblocking();
    shards.push_back(std::move(shard));
  }
  for (auto& shard_ptr : shards) {
    LoopShard* shard = shard_ptr.get();
    // Registration happens on the loop thread itself (fd/timer state is
    // loop-thread-only), before run() starts dispatching.
    shard->thread = std::thread([shard, make_conn] {
      shard->loop->add_fd(shard->listener->fd(), EPOLLIN, [shard, make_conn](std::uint32_t) {
        accept_pending(shard, make_conn);
      });
      shard->loop->run();
    });
  }
  return bound;
}

// Stop every shard: close the listener and all connections on each loop (the
// posted task is guaranteed to run in the loop's final drain), then join.
void stop_shards(std::vector<std::unique_ptr<LoopShard>>& shards) {
  for (auto& shard_ptr : shards) {
    LoopShard* shard = shard_ptr.get();
    shard->loop->post([shard] {
      if (shard->listener) {
        shard->loop->del_fd(shard->listener->fd());
        shard->listener->close();
      }
      std::vector<std::shared_ptr<Conn>> conns;
      conns.reserve(shard->conns.size());
      for (auto& [fd, conn] : shard->conns) conns.push_back(conn);
      for (auto& conn : conns) conn->close_now();
    });
    shard->loop->stop();
  }
  for (auto& shard_ptr : shards) {
    if (shard_ptr->thread.joinable()) shard_ptr->thread.join();
  }
}

}  // namespace

// --- WorkerPool ----------------------------------------------------------------------

WorkerPool::WorkerPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker(); });
  }
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;  // dropped; captured resources release via RAII
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void WorkerPool::stop() {
  std::deque<std::function<void()>> discarded;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    discarded.swap(queue_);
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  // `discarded` destructs here, releasing captured connection handles.
}

std::size_t WorkerPool::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void WorkerPool::worker() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    try {
      task();
    } catch (const std::exception& e) {
      // Backstop: a leaked exception here would std::terminate the process.
      // Request handlers catch appx::Error themselves and answer 500; this
      // keeps the pool alive for anything that still slips through.
      log_error("net.worker") << "task threw: " << e.what();
    }
    task = nullptr;  // release captures before sleeping again
    lock.lock();
  }
}

// --- LiveOriginServer ----------------------------------------------------------------

LiveOriginServer::LiveOriginServer(apps::OriginServer* origin, std::uint16_t port,
                                   std::size_t loop_threads)
    : origin_(origin) {
  if (origin == nullptr) throw InvalidArgumentError("LiveOriginServer: null origin");
  requests_total_ = &registry_.counter("appx_origin_requests_total");
  serve_us_ = &registry_.histogram("appx_origin_serve_us");
  conns_gauge_ = &registry_.gauge("appx_origin_open_connections");
  port_ = start_shards(
      shards_, loop_threads, port,
      [this](LoopShard* shard, TcpStream stream) { return make_conn(shard, std::move(stream)); });
}

LiveOriginServer::~LiveOriginServer() { stop(); }

void LiveOriginServer::stop() {
  if (stopping_.exchange(true)) return;
  stop_shards(shards_);
}

void LiveOriginServer::handle_request(const std::shared_ptr<Conn>& conn) {
  // Served inline on the loop thread: OriginServer::serve is a pure
  // internally-synchronized request->response mapping with no blocking I/O.
  if (is_admin_path(conn->request_view().path())) {
    conn->complete(metrics_response(registry_, conn->request_view().path()));
    return;
  }
  requests_total_->inc();
  const auto started = std::chrono::steady_clock::now();
  const http::Request& request = conn->materialize_request();
  try {
    http::Response response = origin_->serve(request);
    serve_us_->record(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count());
    ++served_;
    conn->complete(std::move(response));
  } catch (const Error& e) {
    // A request the app rejects (bad argument, invalid state) fails that one
    // exchange; an uncaught throw here would unwind the loop thread.
    log_warn("net.origin") << "serve failed: " << e.what();
    serve_us_->record(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count());
    ++served_;
    conn->complete(internal_error_response());
  }
}

std::shared_ptr<Conn> LiveOriginServer::make_conn(LoopShard* shard, TcpStream stream) {
  if (stopping_.load()) return nullptr;
  auto conn = std::make_shared<Conn>(
      shard->loop.get(), std::move(stream), ReaderLimits{}, seconds(60),
      [this](const std::shared_ptr<Conn>& c) { handle_request(c); },
      [this, shard](int fd) {
        shard->conns.erase(fd);
        conns_gauge_->set(static_cast<std::int64_t>(open_conns_.fetch_sub(1) - 1));
      },
      /*first_byte_hist=*/nullptr);
  conns_gauge_->set(static_cast<std::int64_t>(open_conns_.fetch_add(1) + 1));
  return conn;
}

// --- LiveProxyServer ------------------------------------------------------------------

LiveProxyServer::LiveProxyServer(core::ProxyLike* engine, UpstreamMap upstreams,
                                 std::uint16_t port, core::EngineOptions options)
    : engine_(engine),
      upstreams_(std::move(upstreams)),
      options_(std::move(options)),
      traces_(options_.trace_ring_capacity) {
  if (engine == nullptr) throw InvalidArgumentError("LiveProxyServer: null engine");
  options_.validate().throw_if_error();
  // Fail fast on descriptor capacity: a high-connection run that would die
  // mid-load with EMFILE instead refuses to start, after attempting the
  // soft-limit raise (DESIGN.md §5i).
  ensure_fd_capacity(options_.min_file_descriptors).throw_if_error();
  // One scrape shows everything: transport-level metrics land in the engine's
  // registry when it has one, next to the engine's own counters.
  registry_ = engine_->metrics();
  if (registry_ == nullptr) registry_ = &own_registry_;
  client_hit_us_ =
      &registry_->histogram(obs::labeled("appx_client_latency_us", {{"path", "hit"}}));
  client_miss_us_ =
      &registry_->histogram(obs::labeled("appx_client_latency_us", {{"path", "miss"}}));
  prefetch_fetch_us_ = &registry_->histogram("appx_prefetch_fetch_us");
  accept_to_first_byte_us_ = &registry_->histogram("appx_accept_to_first_byte_us");
  admin_requests_ = &registry_->counter("appx_admin_requests_total");
  queue_dropped_total_ = &registry_->counter("appx_proxy_queue_dropped_total");
  queue_depth_ = &registry_->gauge("appx_proxy_prefetch_queue");
  // Imperative gauge (not a callback): the engine's registry outlives this
  // server, so a callback capturing `this` would dangle after stop().
  conns_gauge_ = &registry_->gauge("appx_loop_connections");
  if (!options_.metrics_snapshot_path.empty()) {
    snapshot_writer_ = std::make_unique<obs::SnapshotWriter>(
        registry_, options_.metrics_snapshot_path, options_.metrics_snapshot_interval);
  }
  if (!options_.state_snapshot_path.empty()) {
    // Imperative gauges for the same reason as conns_gauge_ above.
    state_bytes_gauge_ = &registry_->gauge("appx_state_snapshot_bytes");
    state_last_ms_gauge_ = &registry_->gauge("appx_state_snapshot_last_unix_ms");
    restore_engine_state();
    state_writer_ = std::make_unique<obs::SnapshotWriter>(
        [this] { return serialize_engine_state(); }, options_.state_snapshot_path,
        options_.state_snapshot_interval);
  }
  pool_ = std::make_unique<UpstreamPool>(
      UpstreamPool::Options{options_.upstream_pool_per_host, options_.upstream_idle_timeout,
                            options_.connect_timeout},
      registry_);
  std::size_t request_workers = options_.request_workers;
  if (request_workers == 0) {
    // Request workers block on origin I/O, so they outnumber the loops.
    request_workers = std::max<std::size_t>(4, 2 * std::thread::hardware_concurrency());
  }
  workers_ = std::make_unique<WorkerPool>(request_workers);
  port_ = start_shards(
      shards_, options_.loop_threads, port,
      [this](LoopShard* shard, TcpStream stream) { return make_conn(shard, std::move(stream)); },
      options_.listen_backlog);
  prefetchers_.reserve(options_.prefetch_workers);
  for (std::size_t i = 0; i < options_.prefetch_workers; ++i) {
    prefetchers_.emplace_back([this] { prefetch_worker(); });
  }
}

LiveProxyServer::~LiveProxyServer() { stop(); }

std::shared_ptr<Conn> LiveProxyServer::make_conn(LoopShard* shard, TcpStream stream) {
  if (stopping_.load()) return nullptr;
  auto conn = std::make_shared<Conn>(
      shard->loop.get(), std::move(stream),
      ReaderLimits{options_.reader_limits.max_head_bytes, options_.reader_limits.max_body_bytes},
      options_.conn_idle_timeout,
      [this](const std::shared_ptr<Conn>& c) { dispatch(c); },
      [this, shard](int fd) {
        shard->conns.erase(fd);
        conns_gauge_->set(static_cast<std::int64_t>(open_conns_.fetch_sub(1) - 1));
      },
      accept_to_first_byte_us_);
  conns_gauge_->set(static_cast<std::int64_t>(open_conns_.fetch_add(1) + 1));
  return conn;
}

std::unique_lock<std::mutex> LiveProxyServer::engine_guard() {
  // A thread-safe engine (the sharded runtime) synchronises itself per shard;
  // funnelling its events through one server mutex would serialise exactly
  // the work sharding parallelised. Hand back an empty guard instead.
  if (engine_->thread_safe()) return std::unique_lock<std::mutex>();
  return std::unique_lock<std::mutex>(engine_mutex_);
}

void LiveProxyServer::stop() {
  if (stopping_.exchange(true)) return;
  if (snapshot_writer_) {
    snapshot_writer_->write_now();  // final state, not up to 1 interval stale
    snapshot_writer_->stop();
  }
  if (state_writer_) {
    state_writer_->write_now();  // a clean shutdown leaves a fresh snapshot
    state_writer_->stop();
  }
  // Unblock in-flight upstream fetches first: workers and prefetchers stuck
  // reading a wedged origin fail over to canned 502s immediately.
  pool_->shutdown();
  stop_shards(shards_);
  workers_->stop();
  queue_cv_.notify_all();
  idle_cv_.notify_all();
  for (std::thread& t : prefetchers_) {
    if (t.joinable()) t.join();
  }
  // Resolve jobs still queued at shutdown so the engine's outstanding
  // windows balance even if it is inspected (or reused) after stop().
  std::deque<core::PrefetchJob> leftover;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    leftover.swap(prefetch_queue_);
  }
  if (!leftover.empty()) {
    const auto guard = engine_guard();
    for (core::PrefetchJob& job : leftover) {
      try {
        engine_->on_prefetch_dropped(job.uid, job, now());
      } catch (const Error& e) {
        // stop() runs from the destructor; a throwing engine must not
        // escape it (implicitly noexcept) and terminate.
        log_warn("net.proxy") << "prefetch drop notification failed: " << e.what();
      }
    }
  }
}

SimTime LiveProxyServer::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::shared_ptr<const http::Response> LiveProxyServer::fetch_upstream(
    const http::Request& request) {
  const auto it = upstreams_.find(request.uri.host);
  if (it == upstreams_.end()) return no_upstream_response();
  if (stopping_.load()) return shutting_down_response();
  for (int attempt = 0; attempt < 2; ++attempt) {
    UpstreamPool::Lease lease;
    bool reused = false;
    try {
      lease = pool_->acquire("127.0.0.1", it->second, /*force_fresh=*/attempt > 0);
      reused = lease.reused();
      TcpStream& upstream = lease.stream();
      if (options_.request_deadline > 0) {
        upstream.set_deadline(std::chrono::steady_clock::now() +
                              std::chrono::microseconds(options_.request_deadline));
      }
      upstream.set_read_timeout(options_.io_timeout);
      upstream.set_write_timeout(options_.io_timeout);
      write_request(upstream, request);
      HttpReader reader(&upstream);
      auto response = reader.read_response();
      if (!response) throw Error("upstream closed without responding");
      // Reusable only when the exchange ended exactly at a message boundary.
      pool_->release(std::move(lease), reader.pending_bytes() == 0);
      // Shared from here on: the engine's cache, the learning event and the
      // client's write queue all reference these bytes, never copy them.
      return std::make_shared<const http::Response>(std::move(*response));
    } catch (const TimeoutError& e) {
      pool_->release(std::move(lease), false);
      // A dead or wedged origin degrades to 504 instead of hanging the worker.
      log_warn("net.proxy") << "upstream timeout: " << e.what();
      return upstream_timeout_response();
    } catch (const Error& e) {
      pool_->release(std::move(lease), false);
      if (reused && attempt == 0) {
        // A pooled connection the origin closed under us (the health check
        // raced its FIN): retry once on a fresh connect, transparently.
        pool_->note_retry();
        log_debug("net.proxy") << "stale pooled upstream, retrying fresh: " << e.what();
        continue;
      }
      log_warn("net.proxy") << "upstream error: " << e.what();
      return upstream_error_response();
    }
  }
  return upstream_error_response();  // unreachable: attempt 1 always returns
}

http::Response LiveProxyServer::handle_admin(const http::Request& request) {
  admin_requests_->inc();
  if (request.uri.path == "/appx/trace") {
    http::Response resp = status_response(200, traces_.to_json().dump(2));
    resp.headers.set("Content-Type", "application/json");
    return resp;
  }
  if (request.uri.path == "/appx/snapshot") {
    // On-demand learned-state dump (the `appx snapshot` subcommand): the
    // same bytes the periodic writer persists, served over the admin port.
    std::vector<std::uint8_t> bytes = serialize_engine_state();
    http::Response resp = status_response(
        200, std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    resp.headers.set("Content-Type", "application/octet-stream");
    return resp;
  }
  if (request.uri.path == "/appx/export") {
    // One user's learned shard, for ring handoff (DESIGN.md §5k).
    const std::optional<std::string> user = request.uri.query_param("user");
    if (!user || user->empty()) {
      return status_response(400, R"({"error":"missing user= query parameter"})");
    }
    std::vector<std::uint8_t> blob;
    {
      const auto guard = engine_guard();
      blob = engine_->export_user(*user);
    }
    if (blob.empty()) return status_response(404, R"({"error":"unknown user"})");
    http::Response resp = status_response(
        200, std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
    resp.headers.set("Content-Type", "application/octet-stream");
    return resp;
  }
  if (request.uri.path == "/appx/import") {
    if (request.method != "POST") {
      return status_response(405, R"({"error":"import requires POST"})");
    }
    const std::vector<std::uint8_t> blob(request.body.begin(), request.body.end());
    try {
      bool imported = false;
      {
        const auto guard = engine_guard();
        imported = engine_->import_user(blob, now());
      }
      if (!imported) return status_response(409, R"({"imported":false})");
      return status_response(200, R"({"imported":true})");
    } catch (const Error& e) {
      // Corrupt or future-version blobs are the sender's problem, not ours.
      log_warn("net.proxy") << "user import rejected: " << e.what();
      return status_response(400, R"({"error":"malformed user blob"})");
    }
  }
  return metrics_response(*registry_, request.uri.path);
}

std::vector<std::uint8_t> LiveProxyServer::serialize_engine_state() {
  core::SnapshotBuilder builder;
  {
    const auto guard = engine_guard();
    engine_->snapshot_to(builder);
  }
  std::vector<std::uint8_t> bytes = builder.finish();
  if (state_bytes_gauge_ != nullptr) {
    state_bytes_gauge_->set(static_cast<std::int64_t>(bytes.size()));
    state_last_ms_gauge_->set(std::chrono::duration_cast<std::chrono::milliseconds>(
                                  std::chrono::system_clock::now().time_since_epoch())
                                  .count());
  }
  return bytes;
}

void LiveProxyServer::restore_engine_state() {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = read_file(options_.state_snapshot_path);
  } catch (const Error&) {
    log_info("net.proxy") << "no state snapshot at " << options_.state_snapshot_path
                          << "; cold start";
    return;
  }
  try {
    const core::SnapshotView view(bytes);
    std::size_t users = 0;
    {
      const auto guard = engine_guard();
      users = engine_->restore_from(view, now());
    }
    log_info("net.proxy") << "warm restart: restored " << users << " users from "
                          << options_.state_snapshot_path << " (" << bytes.size()
                          << " bytes)";
    state_bytes_gauge_->set(static_cast<std::int64_t>(bytes.size()));
    struct stat st{};
    if (::stat(options_.state_snapshot_path.c_str(), &st) == 0) {
      state_last_ms_gauge_->set(static_cast<std::int64_t>(st.st_mtime) * 1000);
    }
  } catch (const Error& e) {
    // A corrupt or future-version snapshot must never take the node down:
    // log it, start cold, and let the periodic writer replace the file.
    log_warn("net.proxy") << "state snapshot restore failed (" << e.what()
                          << "); cold start";
  }
}

void LiveProxyServer::dispatch(const std::shared_ptr<Conn>& conn) {
  const SimTime received = now();
  // Admin requests (metrics scrapes, trace dumps) bypass the engine: they
  // must not create user state or perturb learning. Served inline — no
  // blocking work involved. The raw-target path check is exact for the
  // origin-form requests the admin surface is scraped with.
  if (is_admin_path(conn->request_view().path())) {
    const http::Request& request = conn->materialize_request();
    obs::RequestTrace trace;
    trace.user = "-";
    trace.method = request.method;
    trace.target = request.uri.path;
    trace.outcome = "admin";
    trace.start_us = received;
    http::Response resp = handle_admin(request);
    trace.end_us = now();
    traces_.push(std::move(trace));
    conn->complete(std::move(resp));
    return;
  }
  workers_->submit([this, conn, received] {
    try {
      process_request(conn.get(), received);
    } catch (const Error& e) {
      // Engine exceptions (invalid argument/state on a reachable path) fail
      // the one request as a 500 instead of escaping the worker thread.
      log_warn("net.proxy") << "request failed: " << e.what();
      conn->complete(internal_error_response());
    }
  });
}

void LiveProxyServer::process_request(Conn* conn, SimTime received) {
  // One logical user per connection source; for the loopback demo each
  // client identifies itself with an X-Appx-User header (falling back to a
  // shared id). A production front end would key on client address.
  //
  // The user is resolved into a core::Session once per (connection, user)
  // pair, cached on the connection; subsequent requests reuse the interned
  // UserId so steady-state events skip the name lookup (and, on the sharded
  // runtime, go straight to the owning shard). The cache is safe lock-free:
  // a connection has at most one request in flight, so one worker touches it
  // at a time, hand-offs sequenced through the loop.
  //
  // The user name is read from the zero-copy view (no header-value copy);
  // the owning request is materialized into the connection's reusable
  // scratch only after that, for the engine.
  const std::string_view user = conn->request_view().header("X-Appx-User").value_or("default");

  auto session_it = conn->sessions.find(user);
  if (session_it == conn->sessions.end()) {
    const auto resolve_guard = engine_guard();
    session_it =
        conn->sessions.emplace(std::string(user), engine_->session(std::string(user), now()))
            .first;
  }
  core::Session& session = session_it->second;

  http::Request& upstream_request = conn->materialize_request();
  upstream_request.headers.remove("X-Appx-User");
  // Origin-form request targets carry no scheme; this front end stands in
  // for the TLS-terminating proxy of the paper's deployment model, so
  // normalise to https for signature matching and cache identity.
  if (upstream_request.uri.scheme.empty()) upstream_request.uri.scheme = "https";

  obs::RequestTrace trace;
  trace.user = user;
  trace.method = upstream_request.method;
  trace.target = upstream_request.uri.path;
  trace.start_us = received;

  core::Decision decision;
  {
    const auto guard = engine_guard();
    decision = session.on_request(upstream_request, now());
  }
  trace.add_span("decide", received, now());
  if (decision.served) {
    // The served response stays shared with the proxy's cache: the write
    // queue holds the refcount and the hit marker is stamped into the head
    // at serialize time, so no payload byte is copied between the cache and
    // the socket iovec.
    trace.outcome = "hit";
    trace.end_us = now();
    client_hit_us_->record(trace.end_us - received);
    traces_.push(std::move(trace));
    enqueue_jobs(std::move(decision.prefetches));
    conn->complete(std::move(decision.served), "X-Appx-Cache: hit");
    return;
  }
  enqueue_jobs(std::move(decision.prefetches));

  const SimTime fetch_start = now();
  std::shared_ptr<const http::Response> response = fetch_upstream(upstream_request);
  trace.add_span("forward", fetch_start, now(), "status=" + std::to_string(response->status));
  const SimTime learn_start = now();
  core::Decision learned;
  {
    const auto guard = engine_guard();
    learned = session.on_response(upstream_request, *response, now());
  }
  trace.add_span("learn", learn_start, now());
  enqueue_jobs(std::move(learned.prefetches));
  trace.outcome = response->status >= 500 ? "error" : "miss";
  trace.end_us = now();
  client_miss_us_->record(trace.end_us - received);
  traces_.push(std::move(trace));
  conn->complete(std::move(response), "X-Appx-Cache: miss");
}

void LiveProxyServer::enqueue_jobs(std::vector<core::PrefetchJob> jobs) {
  if (jobs.empty()) return;
  std::vector<core::PrefetchJob> dropped;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    for (core::PrefetchJob& job : jobs) {
      prefetch_queue_.push_back(std::move(job));
    }
    // Bounded queue: shed the lowest-priority job first so a burst of
    // low-value arrivals cannot push out a high-value job already waiting.
    // The first minimum wins ties, which sheds the oldest among equals —
    // the job most likely to be stale by the time a worker reaches it.
    while (options_.max_prefetch_queue > 0 &&
           prefetch_queue_.size() > options_.max_prefetch_queue) {
      const auto victim = std::min_element(
          prefetch_queue_.begin(), prefetch_queue_.end(),
          [](const core::PrefetchJob& a, const core::PrefetchJob& b) {
            return a.priority < b.priority;
          });
      dropped.push_back(std::move(*victim));
      prefetch_queue_.erase(victim);
    }
    queue_depth_->set(static_cast<std::int64_t>(prefetch_queue_.size()));
  }
  queue_cv_.notify_all();
  if (!dropped.empty()) {
    queue_dropped_ += dropped.size();
    queue_dropped_total_->add(static_cast<std::int64_t>(dropped.size()));
    const auto guard = engine_guard();
    for (core::PrefetchJob& job : dropped) {
      try {
        engine_->on_prefetch_dropped(job.uid, job, now());
      } catch (const Error& e) {
        log_warn("net.proxy") << "prefetch drop notification failed: " << e.what();
      }
    }
  }
}

std::deque<core::PrefetchJob>::iterator LiveProxyServer::next_job_locked() {
  for (auto it = prefetch_queue_.begin(); it != prefetch_queue_.end(); ++it) {
    if (busy_users_.find(it->user) == busy_users_.end()) return it;
  }
  return prefetch_queue_.end();
}

void LiveProxyServer::prefetch_worker() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (true) {
    queue_cv_.wait(lock, [this] {
      return stopping_.load() || next_job_locked() != prefetch_queue_.end();
    });
    if (stopping_.load()) return;
    const auto it = next_job_locked();
    core::PrefetchJob job = std::move(*it);
    prefetch_queue_.erase(it);
    queue_depth_->set(static_cast<std::int64_t>(prefetch_queue_.size()));
    busy_users_.insert(job.user);
    ++prefetch_active_;
    lock.unlock();

    obs::RequestTrace trace;
    trace.user = job.user;
    trace.method = job.request.method;
    trace.target = job.request.uri.path;
    trace.outcome = "prefetch";
    trace.start_us = now();
    const SimTime started = now();
    core::Decision chained;
    try {
      // Shares the keep-alive pool with the miss path: prefetch fan-out rides
      // warm origin connections instead of causing a connect storm.
      const std::shared_ptr<const http::Response> response = fetch_upstream(job.request);
      const SimTime fetched = now();
      prefetch_fetch_us_->record(fetched - started);
      trace.add_span("fetch", started, fetched, "sig=" + job.sig_id);
      {
        const auto guard = engine_guard();
        engine_->on_prefetch_response(job.uid, job, *response, now(),
                                      to_ms(now() - started), &chained);
      }
      trace.add_span("learn", fetched, now());
    } catch (const Error& e) {
      // A throwing engine event loses this one job; the worker (and process)
      // stay up to serve the rest of the queue.
      log_warn("net.proxy") << "prefetch failed: " << e.what();
      trace.outcome = "prefetch_error";
    }
    trace.end_us = now();
    traces_.push(std::move(trace));
    enqueue_jobs(std::move(chained.prefetches));  // chained prefetching

    lock.lock();
    busy_users_.erase(job.user);
    --prefetch_active_;
    if (prefetch_queue_.empty() && prefetch_active_ == 0) idle_cv_.notify_all();
    // Releasing this user may make its next queued job eligible for another
    // worker that went to sleep while the user was busy.
    queue_cv_.notify_all();
  }
}

void LiveProxyServer::drain_prefetches() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_cv_.wait(lock, [this] {
    return stopping_.load() || (prefetch_queue_.empty() && prefetch_active_ == 0);
  });
}

}  // namespace appx::net
