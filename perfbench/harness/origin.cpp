#include "harness/origin.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <deque>
#include <string>

#include "net/http_io.hpp"
#include "util/error.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct DelayingOrigin::Conn {
  explicit Conn(appx::net::TcpStream s) : stream(std::move(s)) {}
  struct Pending {
    std::string wire;
    bool due = false;
  };
  appx::net::TcpStream stream;
  appx::net::HttpParser parser;
  std::deque<Pending> pending;  // responses in request order
  std::string out;              // bytes being written
  std::size_t out_off = 0;
  bool closed = false;
};

DelayingOrigin::DelayingOrigin(const appx::apps::OriginServer* origin, DelayFn delay,
                               OriginCounters* counters)
    : origin_(origin), delay_(std::move(delay)), counters_(counters),
      loop_(appx::net::make_epoll_event_loop()), listener_(0) {
  listener_.set_nonblocking();
}

DelayingOrigin::~DelayingOrigin() = default;

void DelayingOrigin::run() {
  loop_->add_fd(listener_.fd(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
  loop_->run();
  for (auto& [fd, conn] : conns_) conn->closed = true;
  conns_.clear();
}

void DelayingOrigin::on_accept() {
  while (true) {
    appx::net::TcpStream stream = listener_.accept_nonblocking();
    if (!stream.valid()) return;
    auto conn = std::make_shared<Conn>(std::move(stream));
    const int fd = conn->stream.fd();
    conns_[fd] = conn;
    loop_->add_fd(fd, EPOLLIN, [this, conn](std::uint32_t events) {
      if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) on_readable(conn);
      if (!conn->closed && (events & EPOLLOUT) != 0) flush(conn);
    });
  }
}

void DelayingOrigin::on_readable(const std::shared_ptr<Conn>& conn) {
  char buf[16 * 1024];
  while (!conn->closed) {
    const ssize_t n = ::recv(conn->stream.fd(), buf, sizeof buf, 0);
    if (n > 0) {
      conn->parser.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close(conn);  // EOF or error
    return;
  }
  while (!conn->closed) {
    const Clock::time_point received = Clock::now();
    appx::http::Request request;
    try {
      const std::optional<std::string_view> message = conn->parser.next_message();
      if (!message) return;
      request = appx::http::Request::parse(*message);
    } catch (const appx::Error&) {
      close(conn);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    const appx::http::Response response = origin_->serve(request);
    const Clock::time_point t1 = Clock::now();
    counters_->serve_us.record(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
    counters_->requests.fetch_add(1, std::memory_order_relaxed);
    counters_->bytes.fetch_add(
        static_cast<std::uint64_t>(request.wire_size() + response.wire_size()),
        std::memory_order_relaxed);

    conn->pending.push_back(Conn::Pending{response.serialize(), false});
    Conn::Pending* slot = &conn->pending.back();  // deque::push_back keeps addresses
    const appx::Duration delay = delay_ ? delay_(request) : 0;
    if (delay <= 0) {
      slot->due = true;
      flush(conn);
    } else {
      loop_->add_timer(received + std::chrono::microseconds(delay), [this, conn, slot] {
        if (conn->closed) return;
        slot->due = true;
        flush(conn);
      });
    }
  }
}

void DelayingOrigin::flush(const std::shared_ptr<Conn>& conn) {
  while (!conn->closed) {
    if (conn->out_off == conn->out.size()) {
      if (conn->pending.empty() || !conn->pending.front().due) break;
      conn->out = std::move(conn->pending.front().wire);
      conn->out_off = 0;
      conn->pending.pop_front();
    }
    const ssize_t n = ::send(conn->stream.fd(), conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_->mod_fd(conn->stream.fd(), EPOLLIN | EPOLLOUT);
      return;
    }
    if (n < 0) {
      close(conn);
      return;
    }
    conn->out_off += static_cast<std::size_t>(n);
  }
  if (!conn->closed) loop_->mod_fd(conn->stream.fd(), EPOLLIN);
}

void DelayingOrigin::close(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  const int fd = conn->stream.fd();
  loop_->del_fd(fd);
  conns_.erase(fd);
}

}  // namespace perfbench
