// The network runtime's reactor (DESIGN.md §5g): one epoll instance on one
// thread, multiplexing three event sources:
//
//   * file descriptors — add_fd/mod_fd/del_fd register a level-triggered
//     callback invoked with the ready-event mask. Handlers are
//     reference-counted internally, so a callback may del_fd its own
//     descriptor (or another handler's) mid-dispatch without use-after-free,
//     and events carry a registration generation, so a stale event queued
//     for a closed fd whose number was recycled within the same epoll_wait
//     batch is dropped instead of reaching the new handler.
//   * timers — a min-heap of deadlines with lazy cancellation, driving the
//     idle/slow-loris timeouts of the live servers. Firing and cancelling
//     are loop-thread-only and O(log n). Timers ride the epoll_wait timeout —
//     they never cost an extra fd or syscall.
//   * cross-thread tasks — post() enqueues a closure from any thread and
//     wakes the loop via an eventfd, but only when the loop may actually be
//     sleeping: an "armed" flag set before epoll_wait blocks elides the wake
//     write(2) while the loop is busy, so completion storms from the worker
//     pool don't pay one syscall each.
//
// Lifecycle: run() blocks until stop(); tasks already queued when stop() is
// observed still run (a close-all posted together with stop is guaranteed to
// execute), while tasks posted after the final drain are destroyed, not run,
// when the loop is destructed — their captured resources (connection
// handles) release through RAII.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"

namespace appx::net {

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;
  using TimePoint = std::chrono::steady_clock::time_point;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Runs the loop on the calling thread until stop(). Dispatches fd events,
  // fires due timers, and drains posted tasks each iteration.
  void run();

  // Thread-safe. Wakes the loop; run() returns after draining the tasks that
  // were queued when the stop was observed.
  void stop();

  // Thread-safe. Enqueues `task` to run on the loop thread. Wakes the loop
  // only when it may be blocked in the kernel (armed-flag handshake).
  void post(Task task);

  // --- fd readiness watching (loop thread only) -----------------------------

  // Register `fd` for the epoll `events` mask (EPOLLIN/EPOLLOUT/...),
  // level-triggered.
  void add_fd(int fd, std::uint32_t events, FdCallback callback);
  // Change the event mask of a registered fd (no syscall when unchanged).
  void mod_fd(int fd, std::uint32_t events);
  // Deregister. Safe to call from inside the fd's own callback.
  void del_fd(int fd);

  // --- timers (loop thread only) --------------------------------------------

  // Schedule `task` at `when`; returns an id for cancel_timer. Timers are
  // one-shot; re-arm from the callback for periodic behaviour.
  std::uint64_t add_timer(TimePoint when, Task task);
  void cancel_timer(std::uint64_t id);

  // --- introspection --------------------------------------------------------

  // Registered fds (excluding the internal wakeup fd). Readable from any
  // thread (observability gauges); exact only on the loop thread.
  std::size_t fd_count() const { return fd_count_.load(std::memory_order_relaxed); }
  // Tasks posted but not yet run. Cross-thread approximate.
  std::size_t pending_tasks() const { return pending_tasks_.load(std::memory_order_relaxed); }
  // True when called on the thread currently inside run().
  bool on_loop_thread() const;

 private:
  struct Handler {
    std::uint32_t events = 0;
    // Registration generation, stamped into epoll_data alongside the fd.
    std::uint32_t gen = 0;
    FdCallback callback;
  };

  // Write the wakeup eventfd (a full counter already guarantees a wakeup).
  void wake();
  // Run every queued task; exceptions are logged, never unwound into run().
  void drain_tasks();
  void fire_due_timers();
  // Milliseconds until the next live timer, -1 when none. Pops lazily
  // cancelled heap heads in place.
  int next_timeout_ms();
  // Arm the sleep flag and re-check for work that raced in. Returns false
  // when tasks are already pending or stop was requested — run() then polls
  // with a zero timeout instead of blocking. The flag is cleared again after
  // epoll_wait returns.
  bool arm_sleep();
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }
  // Dispatch one epoll event to its handler (or drain the wakeup eventfd).
  void dispatch(std::uint64_t key, std::uint32_t events);

  Fd epoll_fd_;
  Fd wake_fd_;
  std::unordered_map<int, std::shared_ptr<Handler>> handlers_;
  std::uint32_t next_gen_ = 1;  // 0 is reserved for the wakeup fd
  std::atomic<std::size_t> fd_count_{0};

  std::atomic<bool> stopping_{false};
  // Dekker-style handshake with post(): the loop stores true then loads
  // pending_tasks_; a poster bumps pending_tasks_ then loads this. Under the
  // seq_cst total order at least one side observes the other, so a task can
  // never be queued while the loop sleeps unwoken.
  std::atomic<bool> sleep_armed_{false};
  std::atomic<std::size_t> pending_tasks_{0};
  std::atomic<const void*> loop_thread_id_{nullptr};

  std::mutex tasks_mutex_;
  std::vector<Task> tasks_;

  struct TimerEntry {
    TimePoint when;
    std::uint64_t id;
    bool operator>(const TimerEntry& other) const {
      return when > other.when || (when == other.when && id > other.id);
    }
  };
  std::uint64_t next_timer_id_ = 1;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<TimerEntry>> timer_heap_;
  std::unordered_map<std::uint64_t, Task> timer_tasks_;
};

// Heap-allocates a loop (callers that keep loops behind a pointer).
std::unique_ptr<EventLoop> make_epoll_event_loop();

// Name of the event-loop backend for provenance lines: "" or "epoll" give
// "epoll", the only backend; any other name throws InvalidArgumentError.
std::string resolve_io_backend(std::string_view configured);

}  // namespace appx::net
