// Minimal fixed-size thread pool for parallel codec work.
//
// The paper's experiments are single-threaded (and every paper bench here
// runs that way), but production HPC deployments compress snapshot fields
// chunk-by-chunk across cores; src/parallel provides that layer.  The
// pool executes opaque tasks; ordering, backpressure and per-worker state
// live one level up in ParallelChunkScheduler (chunk_scheduler.h).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace szsec::parallel {

/// Worker count used when a caller passes `threads == 0`: the
/// SZSEC_THREADS environment variable when it is exactly a decimal
/// integer in [1, 1024], otherwise std::thread::hardware_concurrency()
/// (minimum 1).  "0", trailing junk, and out-of-range values are
/// ignored, never half-parsed.  The env override lets CI and batch jobs
/// pin every default-threaded code path (archives, benches, tests)
/// without touching call sites.
unsigned default_thread_count();

/// Fixed-size worker pool executing opaque queued tasks.  Destruction
/// drains the queue and joins every worker; tasks submitted after the
/// destructor begins are rejected by never running (their futures are
/// abandoned with the pool).
class ThreadPool {
 public:
  /// Sentinel returned by current_worker_index() off the pool.
  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);

  /// Spawns `threads` workers (0 = default_thread_count()).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves when it finishes (holding the
  /// task's exception if it threw).
  std::future<void> submit(std::function<void()> task);

  /// Number of worker threads this pool was constructed with.
  size_t thread_count() const { return workers_.size(); }

  /// Index of the calling thread within its owning pool, in
  /// [0, thread_count()), or kNotAWorker when the caller is not a pool
  /// worker.  Parallel drivers use this to select per-worker scratch
  /// state (buffer pools, runtime caches) without locking.
  static size_t current_worker_index();

 private:
  void worker_loop(size_t index);

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace szsec::parallel
