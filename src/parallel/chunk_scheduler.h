// Ordered, backpressured fan-out of per-chunk codec work, driven by
// pushes from the caller.
//
// Archives are sequences of independently coded chunks, so the natural
// parallel unit is "encode/decode one chunk" — but the archive bytes (and
// every aggregate: stats, metrics, the index) must come out in chunk-index
// order no matter which worker finishes first.  The caller hands work to
// ParallelChunkScheduler one chunk at a time with submit(produce), as its
// input arrives, and ends a run with finish().  The contract:
//
//   * produce(worker, index) runs on a pool worker, any completion order.
//     With one worker there is no pool and no thread: produce runs inline
//     inside submit() with worker index 0, on the calling thread;
//   * commit(index, result) runs on the CALLING thread, inside submit(),
//     commit_next() or finish(), in strictly increasing index order — so
//     commit-side state (an output sink, a PipelineMetrics sink,
//     floating-point stat accumulators) needs no locking and aggregates
//     deterministically;
//   * at most window() indices are submitted-but-uncommitted at any
//     moment: a submit() into a full window first commits the oldest
//     chunk, waiting for it.  This is backpressure: peak memory is
//     O(window x chunk), independent of archive length and of how
//     unevenly chunks complete.  A submit() into a window with room
//     commits the oldest chunk only if it is already produced, without
//     waiting, so finished results do not sit in the window until it
//     fills.  Each submit() commits at most one chunk, so a caller that
//     stops pushing while output is pending holds at most one commit's
//     output;
//   * the worker argument of produce indexes per-worker scratch state —
//     BufferPool, RuntimeCache — in [0, thread_count()), so workers
//     reuse buffers and key schedules without contending on a lock;
//   * the first exception from produce or commit stops the run: queued
//     work is skipped, running work drains (workers never outlive the
//     caller's state), and the exception is rethrown to the caller —
//     from the call that observes it and from every call after.
//
// Determinism note: the scheduler never changes WHAT is computed, only
// WHEN.  Chunked archive bytes are identical for any thread count because
// per-chunk IVs are derived from the chunk index before fan-out and
// commits happen in index order (locked by golden_container_test and
// parallel_roundtrip_test).
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "parallel/thread_pool.h"

namespace szsec::parallel {

/// Construction-time knobs of a ParallelChunkScheduler.
struct ChunkSchedulerConfig {
  /// Workers (0 = default_thread_count(), which honors the SZSEC_THREADS
  /// environment variable).  One worker runs every chunk inline on the
  /// calling thread; more start a private ThreadPool.
  unsigned threads = 0;
  /// Backpressure window: maximum chunks submitted but not yet committed
  /// (0 = 2x threads).  Smaller bounds memory tighter; larger absorbs
  /// more completion-order skew before workers idle.
  size_t max_in_flight = 0;
};

/// Runs pushed per-chunk work on a bounded in-flight window and commits
/// results on the calling thread in strict chunk-index order (see the
/// file comment for the full contract).  Reusable: after finish(), the
/// next submit() starts a new run at index 0.
template <typename Result>
class ParallelChunkScheduler {
 public:
  using Produce = std::function<Result(size_t worker, size_t index)>;
  using Commit = std::function<void(size_t index, Result&& result)>;

  /// Resolves the worker count and window (both accept 0 for defaults)
  /// and starts the pool when there is more than one worker.
  ParallelChunkScheduler(const ChunkSchedulerConfig& config, Commit commit)
      : threads_(config.threads != 0 ? config.threads
                                     : default_thread_count()),
        window_(config.max_in_flight != 0 ? config.max_in_flight
                                          : 2 * threads_),
        commit_(std::move(commit)) {
    if (threads_ > 1) {
      shared_ = std::make_shared<Shared>();
      pool_ = std::make_unique<ThreadPool>(static_cast<unsigned>(threads_));
    }
  }

  /// Skips queued work and joins the pool; running produce calls finish
  /// first, so they never outlive state the caller destroys afterwards.
  ~ParallelChunkScheduler() {
    if (shared_) {
      std::lock_guard<std::mutex> lock(shared_->mu);
      shared_->abandon = true;
    }
  }

  ParallelChunkScheduler(const ParallelChunkScheduler&) = delete;
  ParallelChunkScheduler& operator=(const ParallelChunkScheduler&) = delete;

  /// Workers, the calling thread included when there is only one.
  size_t thread_count() const { return threads_; }
  /// Resolved backpressure window (submitted-but-uncommitted bound).
  size_t window() const { return window_; }
  /// Chunks submitted in this run and not yet committed.
  size_t in_flight() const { return next_submit_ - next_commit_; }

  /// Chunks produced and waiting for their ordered commit (always 0 with
  /// one worker, which commits each chunk as it is produced).
  size_t ready_count() const {
    if (!shared_) return 0;
    std::lock_guard<std::mutex> lock(shared_->mu);
    return shared_->ready.size();
  }

  /// Submits the run's next index.  One worker: produce(0, index) and
  /// its commit run here, now.  More: a full window first commits the
  /// oldest chunk (waiting for it), a window with room commits it only
  /// if it is already produced, then produce is queued on the pool.
  void submit(Produce produce) {
    rethrow_if_failed();
    if (!pool_) {
      const size_t index = next_submit_++;
      std::optional<Result> r;
      try {
        r.emplace(produce(0, index));
      } catch (...) {
        fail(std::current_exception());
      }
      commit_or_fail(next_commit_++, std::move(*r));
      return;
    }
    commit_oldest(/*wait=*/in_flight() >= window_);
    const size_t index = next_submit_++;
    {
      std::lock_guard<std::mutex> lock(shared_->mu);
      ++shared_->running;
    }
    // The task co-owns the shared state: after its final decrement it
    // touches nothing else, and `produce` is entered only while the
    // destructor or a drain still waits for it.
    pool_->submit([st = shared_, produce = std::move(produce), index] {
      std::optional<Result> r;
      bool skip;
      {
        std::lock_guard<std::mutex> lock(st->mu);
        skip = st->error != nullptr || st->abandon;
      }
      if (!skip) {
        try {
          r.emplace(produce(ThreadPool::current_worker_index(), index));
        } catch (...) {
          std::lock_guard<std::mutex> lock(st->mu);
          if (!st->error) st->error = std::current_exception();
        }
      }
      {
        std::lock_guard<std::mutex> lock(st->mu);
        if (r.has_value()) st->ready.emplace(index, std::move(*r));
        --st->running;
      }
      st->cv.notify_all();
    });
  }

  /// Commits the oldest uncommitted chunk, waiting for it; false when
  /// nothing is in flight.
  bool commit_next() {
    rethrow_if_failed();
    return commit_oldest(/*wait=*/true);
  }

  /// Commits every chunk still in flight and ends the run; the next
  /// submit() starts again at index 0.
  void finish() {
    while (commit_next()) {
    }
    next_submit_ = 0;
    next_commit_ = 0;
  }

 private:
  /// Completion state shared with pool tasks (heap-owned: a task may
  /// still be between its final unlock and notify when the scheduler is
  /// torn down).
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::map<size_t, Result> ready;  ///< produced, awaiting ordered commit
    std::exception_ptr error;
    size_t running = 0;  ///< queued or running tasks
    bool abandon = false;
  };

  /// Commits the oldest uncommitted chunk.  If it is not produced yet,
  /// waits for it when `wait`, else returns false.  False when nothing
  /// is in flight.
  bool commit_oldest(bool wait) {
    if (next_commit_ == next_submit_) return false;
    std::optional<Result> r;
    {
      std::unique_lock<std::mutex> lock(shared_->mu);
      if (wait) {
        shared_->cv.wait(lock, [&] {
          return shared_->error != nullptr ||
                 shared_->ready.count(next_commit_) > 0;
        });
      }
      if (shared_->error) {
        const std::exception_ptr e = shared_->error;
        lock.unlock();
        fail(e);
      }
      auto it = shared_->ready.find(next_commit_);
      if (it == shared_->ready.end()) return false;
      r.emplace(std::move(it->second));
      shared_->ready.erase(it);
    }
    commit_or_fail(next_commit_++, std::move(*r));
    return true;
  }

  void commit_or_fail(size_t index, Result&& r) {
    try {
      commit_(index, std::move(r));
    } catch (...) {
      fail(std::current_exception());
    }
  }

  /// Records the run's first error, stops queued work, waits for running
  /// work, and rethrows.
  [[noreturn]] void fail(std::exception_ptr e) {
    if (!error_) error_ = e;
    if (shared_) {
      std::unique_lock<std::mutex> lock(shared_->mu);
      if (!shared_->error) shared_->error = error_;
      shared_->cv.wait(lock, [&] { return shared_->running == 0; });
    }
    std::rethrow_exception(error_);
  }

  void rethrow_if_failed() {
    if (error_) std::rethrow_exception(error_);
    if (shared_) {
      std::exception_ptr e;
      {
        std::lock_guard<std::mutex> lock(shared_->mu);
        e = shared_->error;
      }
      if (e) fail(e);
    }
  }

  size_t threads_;
  size_t window_;
  Commit commit_;
  size_t next_submit_ = 0;
  size_t next_commit_ = 0;
  std::exception_ptr error_;
  std::shared_ptr<Shared> shared_;
  std::unique_ptr<ThreadPool> pool_;  // last: joined before the rest dies
};

}  // namespace szsec::parallel
