// The epoll reactor: fd dispatch keyed by (generation, fd), the task queue
// with its armed-flag wake elision, and the timer min-heap with lazy
// cancellation.
#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/syscount.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace appx::net {

namespace {
[[noreturn]] void fail_errno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

// Stable per-thread address used to answer on_loop_thread() without
// std::thread::id comparisons in a hot path.
const void* this_thread_marker() {
  static thread_local char marker;
  return &marker;
}

// Events carry (generation, fd) so a stale event for a recycled fd number is
// recognisable; see Handler::gen.
std::uint64_t pack_key(std::uint32_t gen, int fd) {
  return (static_cast<std::uint64_t>(gen) << 32) | static_cast<std::uint32_t>(fd);
}
}  // namespace

EventLoop::EventLoop()
    : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)), wake_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (!epoll_fd_.valid()) fail_errno("epoll_create1");
  if (!wake_fd_.valid()) fail_errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = pack_key(/*gen=*/0, wake_fd_.get());
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    fail_errno("epoll_ctl(wakeup)");
  }
}

EventLoop::~EventLoop() {
  handlers_.clear();
  // Destroy undelivered tasks outside the lock: their destructors may release
  // connection handles whose teardown is arbitrary user code.
  std::vector<Task> leftover;
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    leftover.swap(tasks_);
  }
}

bool EventLoop::on_loop_thread() const {
  return loop_thread_id_.load(std::memory_order_relaxed) == this_thread_marker();
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdCallback callback) {
  auto handler = std::make_shared<Handler>();
  handler->events = events;
  handler->gen = next_gen_++;
  if (next_gen_ == 0) next_gen_ = 1;  // keep 0 reserved for the wakeup fd
  handler->callback = std::move(callback);
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack_key(handler->gen, fd);
  sys::count(sys::Op::kCtl);
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) fail_errno("epoll_ctl(add)");
  handlers_[fd] = std::move(handler);
  fd_count_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::mod_fd(int fd, std::uint32_t events) {
  const auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  if (it->second->events == events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack_key(it->second->gen, fd);
  sys::count(sys::Op::kCtl);
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) fail_errno("epoll_ctl(mod)");
  it->second->events = events;
}

void EventLoop::del_fd(int fd) {
  const auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  // The fd may already be closed (kernel removed it from the set); ignore.
  sys::count(sys::Op::kCtl);
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(it);
  fd_count_.fetch_sub(1, std::memory_order_relaxed);
}

void EventLoop::run() {
  loop_thread_id_.store(this_thread_marker(), std::memory_order_relaxed);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping()) {
    drain_tasks();
    fire_due_timers();
    if (stopping()) break;
    // arm_sleep() false means tasks/stop raced in after the drain: poll with
    // a zero timeout instead of blocking past them.
    const int timeout = arm_sleep() ? next_timeout_ms() : 0;
    sys::count(sys::Op::kWait);
    const int n = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, timeout);
    sleep_armed_.store(false, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) dispatch(events[i].data.u64, events[i].events);
  }
  // Final drain: tasks queued alongside the stop (e.g. a close-all) run;
  // anything posted later is destroyed by the destructor instead.
  drain_tasks();
  loop_thread_id_.store(nullptr, std::memory_order_relaxed);
}

void EventLoop::dispatch(std::uint64_t key, std::uint32_t events) {
  const int fd = static_cast<int>(key & 0xffffffffULL);
  if (fd == wake_fd_.get()) {
    std::uint64_t counter;
    sys::count(sys::Op::kRead);
    while (::read(fd, &counter, sizeof counter) > 0) {
    }
    return;
  }
  const auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;  // removed by an earlier callback
  // Generation mismatch: the fd closed during this batch and its number was
  // reused by a new registration (e.g. an accept in the same batch). The
  // queued event belongs to the dead registration; drop it.
  if (it->second->gen != static_cast<std::uint32_t>(key >> 32)) return;
  // Keep the handler alive across the call: the callback may del_fd (closing
  // a connection closes its own registration).
  const std::shared_ptr<Handler> handler = it->second;
  try {
    handler->callback(events);
  } catch (const std::exception& e) {
    log_error("net.loop") << "fd callback threw: " << e.what();
  }
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  sys::count(sys::Op::kWake);
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof one);
}

void EventLoop::stop() {
  stopping_.store(true, std::memory_order_release);
  // Always wake: arm_sleep() re-checks stopping_, but only after the store
  // above is visible; an unconditional wake keeps stop() latency-proof.
  wake();
}

void EventLoop::post(Task task) {
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(task));
  }
  // Dekker handshake with arm_sleep(): bump the pending count, then claim
  // the armed flag — both seq_cst, so either we see the loop armed (and pay
  // the wake) or the loop's post-arm re-check sees our task. A busy loop
  // (flag clear) costs no syscall per post, and the exchange coalesces
  // concurrent posters: only the first to claim the flag writes the eventfd
  // (one wake per sleep), later posters ride the same wakeup — the loop
  // drains the whole queue once running, and anything pushed after that
  // drain trips the next arm_sleep() re-check.
  pending_tasks_.fetch_add(1, std::memory_order_seq_cst);
  if (sleep_armed_.exchange(false, std::memory_order_seq_cst)) wake();
}

bool EventLoop::arm_sleep() {
  sleep_armed_.store(true, std::memory_order_seq_cst);
  if (pending_tasks_.load(std::memory_order_seq_cst) != 0 || stopping()) {
    // Work raced in between the last drain and arming: poll, don't block.
    return false;
  }
  return true;
}

void EventLoop::drain_tasks() {
  std::vector<Task> batch;
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    batch.swap(tasks_);
  }
  for (Task& task : batch) {
    pending_tasks_.fetch_sub(1, std::memory_order_relaxed);
    try {
      task();
    } catch (const std::exception& e) {
      // A throwing task must not unwind run() and kill the reactor thread.
      log_error("net.loop") << "posted task threw: " << e.what();
    }
  }
}

std::uint64_t EventLoop::add_timer(TimePoint when, Task task) {
  const std::uint64_t id = next_timer_id_++;
  timer_heap_.push(TimerEntry{when, id});
  timer_tasks_.emplace(id, std::move(task));
  return id;
}

void EventLoop::cancel_timer(std::uint64_t id) {
  // Lazy cancellation: the heap entry stays and is skipped when popped.
  timer_tasks_.erase(id);
}

int EventLoop::next_timeout_ms() {
  // Pop lazily-cancelled heads for real: with one idle timer per connection
  // a heap copy here would be O(n) per wakeup.
  while (!timer_heap_.empty() &&
         timer_tasks_.find(timer_heap_.top().id) == timer_tasks_.end()) {
    timer_heap_.pop();
  }
  if (timer_heap_.empty()) return -1;
  const auto now = std::chrono::steady_clock::now();
  const auto delta =
      std::chrono::duration_cast<std::chrono::milliseconds>(timer_heap_.top().when - now)
          .count();
  if (delta <= 0) return 0;
  return static_cast<int>(delta > 60'000 ? 60'000 : delta);
}

void EventLoop::fire_due_timers() {
  const auto now = std::chrono::steady_clock::now();
  while (!timer_heap_.empty() && timer_heap_.top().when <= now) {
    const TimerEntry entry = timer_heap_.top();
    timer_heap_.pop();
    const auto it = timer_tasks_.find(entry.id);
    if (it == timer_tasks_.end()) continue;  // cancelled
    Task task = std::move(it->second);
    timer_tasks_.erase(it);
    try {
      task();
    } catch (const std::exception& e) {
      log_error("net.loop") << "timer task threw: " << e.what();
    }
  }
}

std::unique_ptr<EventLoop> make_epoll_event_loop() { return std::make_unique<EventLoop>(); }

std::string resolve_io_backend(std::string_view configured) {
  if (configured.empty() || configured == "epoll") return "epoll";
  throw InvalidArgumentError("unknown io_backend \"" + std::string(configured) +
                             "\" (the only backend is \"epoll\")");
}

}  // namespace appx::net
