#include "parallel/thread_pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace szsec::parallel {

namespace {
thread_local size_t tl_worker_index = ThreadPool::kNotAWorker;
}  // namespace

unsigned default_thread_count() {
  // SZSEC_THREADS must be exactly a decimal integer in [1, 1024] to take
  // effect; "0", overflow, trailing junk ("16x"), and non-numeric values
  // all fall back to the hardware default rather than half-parsing
  // (atoi would accept "16x" and has undefined behavior on overflow).
  const char* env = std::getenv("SZSEC_THREADS");
  if (env != nullptr && env[0] >= '0' && env[0] <= '9') {
    errno = 0;
    char* end = nullptr;
    const unsigned long n = std::strtoul(env, &end, 10);
    if (errno == 0 && *end == '\0' && n >= 1 && n <= 1024) {
      return static_cast<unsigned>(n);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> wrapped(std::move(task));
  std::future<void> future = wrapped.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(wrapped));
  }
  cv_.notify_one();
  return future;
}

size_t ThreadPool::current_worker_index() { return tl_worker_index; }

void ThreadPool::worker_loop(size_t index) {
  tl_worker_index = index;
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

}  // namespace szsec::parallel
