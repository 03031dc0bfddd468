#include "net/upstream_pool.hpp"

#include <sys/socket.h>

#include <utility>

#include "util/error.hpp"

namespace appx::net {

UpstreamPool::UpstreamPool(Options options, obs::MetricsRegistry* registry)
    : options_(options) {
  if (registry != nullptr) {
    reuse_total_ = &registry->counter("appx_upstream_reuse_total");
    connect_total_ = &registry->counter("appx_upstream_connect_total");
    stale_total_ = &registry->counter("appx_upstream_stale_total");
    retry_total_ = &registry->counter("appx_upstream_retry_total");
    idle_gauge_ = &registry->gauge("appx_upstream_idle");
  }
}

UpstreamPool::~UpstreamPool() { shutdown(); }

// --- Lease ---------------------------------------------------------------------------

UpstreamPool::Lease::~Lease() { abandon(); }

UpstreamPool::Lease::Lease(Lease&& other) noexcept
    : pool_(other.pool_),
      stream_(std::move(other.stream_)),
      key_(std::move(other.key_)),
      reused_(other.reused_) {
  other.pool_ = nullptr;
  other.reused_ = false;
}

UpstreamPool::Lease& UpstreamPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    abandon();
    pool_ = other.pool_;
    stream_ = std::move(other.stream_);
    key_ = std::move(other.key_);
    reused_ = other.reused_;
    other.pool_ = nullptr;
    other.reused_ = false;
  }
  return *this;
}

void UpstreamPool::Lease::abandon() {
  if (pool_ != nullptr && stream_.valid()) pool_->forget_lease(stream_.fd());
  pool_ = nullptr;
  stream_ = TcpStream(Fd{});  // close now, while the fd is deregistered
}

void UpstreamPool::forget_lease(int fd) {
  const std::lock_guard<std::mutex> lock(mutex_);
  leased_fds_.erase(fd);
}

bool UpstreamPool::healthy(const TcpStream& stream) {
  // A parked connection must be silent: readable means either EOF (origin
  // closed it) or stray bytes (framing desync) — both disqualify.
  char probe;
  const ssize_t n = ::recv(stream.fd(), &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n > 0) return false;   // unexpected bytes
  if (n == 0) return false;  // orderly close
  return errno == EAGAIN || errno == EWOULDBLOCK;
}

void UpstreamPool::update_idle_gauge_locked() {
  if (idle_gauge_ == nullptr) return;
  std::size_t total = 0;
  for (const auto& [key, parked] : idle_) total += parked.size();
  idle_gauge_->set(static_cast<std::int64_t>(total));
}

TcpStream UpstreamPool::connect_fresh(const std::string& host, std::uint16_t port) {
  TcpStream stream = TcpStream::connect(host, port, options_.connect_timeout);
  connects_.fetch_add(1, std::memory_order_relaxed);
  if (connect_total_ != nullptr) connect_total_->inc();
  return stream;
}

UpstreamPool::Lease UpstreamPool::acquire(const std::string& host, std::uint16_t port,
                                          bool force_fresh) {
  if (stopping_.load(std::memory_order_acquire)) {
    throw Error("upstream pool: shutting down");
  }
  const std::string key = host + ":" + std::to_string(port);
  if (!force_fresh && options_.max_per_host > 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = idle_.find(key);
    if (it != idle_.end()) {
      const auto now = std::chrono::steady_clock::now();
      // Prefer the most recently parked connection (LIFO keeps the warm end
      // warm); the front is the oldest and ages out first.
      while (!it->second.empty()) {
        Idle candidate = std::move(it->second.back());
        it->second.pop_back();
        const bool aged =
            options_.idle_timeout > 0 &&
            now - candidate.parked_at > std::chrono::microseconds(options_.idle_timeout);
        if (!aged && healthy(candidate.stream)) {
          leased_fds_.insert(candidate.stream.fd());
          update_idle_gauge_locked();
          lock.unlock();
          reuses_.fetch_add(1, std::memory_order_relaxed);
          if (reuse_total_ != nullptr) reuse_total_->inc();
          return Lease(this, std::move(candidate.stream), key, /*reused=*/true);
        }
        stale_.fetch_add(1, std::memory_order_relaxed);
        if (stale_total_ != nullptr) stale_total_->inc();
        // candidate.stream closes here (RAII) and we try the next one.
      }
      if (it->second.empty()) idle_.erase(it);
      update_idle_gauge_locked();
    }
  }
  // Connect outside the lock: a slow origin must not serialise other hosts'
  // acquires behind it.
  TcpStream stream = connect_fresh(host, port);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      throw Error("upstream pool: shutting down");
    }
    leased_fds_.insert(stream.fd());
  }
  return Lease(this, std::move(stream), key, /*reused=*/false);
}

void UpstreamPool::release(Lease lease, bool reusable) {
  if (!lease.valid()) return;
  lease.pool_ = nullptr;  // deregistered here; the destructor must not re-enter
  const std::lock_guard<std::mutex> lock(mutex_);
  leased_fds_.erase(lease.stream_.fd());
  if (!reusable || options_.max_per_host == 0 || stopping_.load(std::memory_order_acquire)) {
    return;  // lease.stream_ closes on scope exit
  }
  // Returned sockets must not carry per-request I/O state into the next use.
  lease.stream_.clear_deadline();
  lease.stream_.set_read_timeout(0);
  lease.stream_.set_write_timeout(0);
  auto& parked = idle_[lease.key_];
  parked.push_back(Idle{std::move(lease.stream_), std::chrono::steady_clock::now()});
  while (parked.size() > options_.max_per_host) {
    parked.pop_front();  // oldest idle closes
  }
  update_idle_gauge_locked();
}

void UpstreamPool::shutdown() {
  if (stopping_.exchange(true)) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  idle_.clear();  // parked streams close via RAII
  for (const int fd : leased_fds_) ::shutdown(fd, SHUT_RDWR);
  update_idle_gauge_locked();
}

std::size_t UpstreamPool::idle_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, parked] : idle_) total += parked.size();
  return total;
}

void UpstreamPool::note_retry() {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (retry_total_ != nullptr) retry_total_->inc();
}

}  // namespace appx::net
