// ThreadPool + ParallelChunkScheduler semantics: task coverage, ordered
// commits, backpressure, exception propagation from both sides of the
// scheduler, worker-index plumbing, and shutdown under load.  The
// archive-level consequences (byte-identical parallel output) live in
// parallel_roundtrip_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <thread>

#include "common/error.h"
#include "parallel/chunk_scheduler.h"
#include "parallel/thread_pool.h"

namespace szsec::parallel {
namespace {

TEST(ThreadPool, WorkerIndicesAreDistinctAndInRange) {
  ThreadPool pool(4);
  EXPECT_EQ(ThreadPool::current_worker_index(), ThreadPool::kNotAWorker);
  std::vector<std::atomic<int>> hits(4);
  parallel_for(pool, 256, [&](size_t) {
    const size_t w = ThreadPool::current_worker_index();
    ASSERT_LT(w, 4u);
    ++hits[w];
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 256);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ::setenv("SZSEC_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 3u);
  ::unsetenv("SZSEC_THREADS");
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadPool, DefaultThreadCountRejectsBadEnvValues) {
  // Anything that is not exactly a decimal integer in [1, 1024] is
  // ignored: the hardware default applies, never a half-parsed prefix
  // (atoi would have read "16x" as 16) and never zero workers.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const char* bad[] = {"0",     "garbage", "16x",  "-3",
                       "1025",  "",        " 4",   "0x10",
                       "99999999999999999999"};
  for (const char* v : bad) {
    ::setenv("SZSEC_THREADS", v, 1);
    EXPECT_EQ(default_thread_count(), hw) << "SZSEC_THREADS=" << v;
  }
  // In-range values pass through exactly, including the bounds.
  const std::pair<const char*, unsigned> good[] = {
      {"1", 1u}, {"7", 7u}, {"1024", 1024u}};
  for (const auto& [v, expect] : good) {
    ::setenv("SZSEC_THREADS", v, 1);
    EXPECT_EQ(default_thread_count(), expect) << "SZSEC_THREADS=" << v;
  }
  ::unsetenv("SZSEC_THREADS");
}

TEST(ThreadPool, ShutdownUnderLoad) {
  // Many queued tasks, futures dropped, pool destroyed while tasks are
  // still queued/running: the destructor must drain and join cleanly.
  std::atomic<int> done{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 500; ++i) {
      (void)pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        ++done;
      });
    }
  }
  // Everything dequeued before the stop flag was observed has finished;
  // nothing crashed or deadlocked.
  EXPECT_GE(done.load(), 0);
}

TEST(Scheduler, CommitsInIndexOrderUnderSkewedCompletion) {
  std::vector<size_t> committed;
  ParallelChunkScheduler<size_t> sched(
      ChunkSchedulerConfig{4, 8}, [&](size_t i, size_t&& r) {
        EXPECT_EQ(r, i * 7);
        committed.push_back(i);
      });
  for (size_t n = 0; n < 100; ++n) {
    sched.submit([](size_t, size_t i) {
      // Early chunks finish last: maximal completion-order skew.
      std::this_thread::sleep_for(std::chrono::microseconds((100 - i) * 10));
      return i * 7;
    });
  }
  sched.finish();
  ASSERT_EQ(committed.size(), 100u);
  for (size_t i = 0; i < committed.size(); ++i) {
    EXPECT_EQ(committed[i], i);  // strictly increasing index order
  }
}

TEST(Scheduler, BackpressureBoundsInFlightWindow) {
  const size_t window = 4;
  std::atomic<size_t> started{0};
  std::atomic<size_t> committed{0};
  std::atomic<size_t> max_uncommitted{0};
  ParallelChunkScheduler<int> sched(ChunkSchedulerConfig{2, window},
                                    [&](size_t, int&&) { ++committed; });
  EXPECT_EQ(sched.window(), window);
  for (int n = 0; n < 64; ++n) {
    sched.submit([&](size_t, size_t) {
      const size_t uncommitted = ++started - committed.load();
      size_t seen = max_uncommitted.load();
      while (uncommitted > seen &&
             !max_uncommitted.compare_exchange_weak(seen, uncommitted)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      return 0;
    });
    EXPECT_LE(sched.in_flight(), window);
  }
  sched.finish();
  EXPECT_EQ(committed.load(), 64u);
  EXPECT_LE(max_uncommitted.load(), window);
}

// Polls `done` until it holds or 10 s pass.  The deadline only bounds a
// hang; it never decides a result.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() +  // determinism-ok
                        std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {  // determinism-ok
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

// A submit into a window with room commits the oldest chunk when it is
// already produced, and never more than one chunk.
TEST(Scheduler, SubmitCommitsAnAlreadyProducedOldestChunk) {
  std::vector<size_t> committed;
  ParallelChunkScheduler<size_t> sched(
      ChunkSchedulerConfig{2, 4},
      [&](size_t i, size_t&&) { committed.push_back(i); });
  const auto echo = [](size_t, size_t i) { return i; };
  sched.submit(echo);
  ASSERT_TRUE(eventually([&] { return sched.ready_count() == 1; }));
  EXPECT_TRUE(committed.empty());
  sched.submit(echo);  // window of 4 has room: no wait, chunk 0 commits
  EXPECT_EQ(committed, std::vector<size_t>{0});
  EXPECT_EQ(sched.in_flight(), 1u);
  sched.finish();

  // Chunk 0 held back while 1 and 2 finish: no submit commits out of
  // order, and once all three are produced a submit commits only one.
  committed.clear();
  std::atomic<bool> release{false};
  sched.submit([&](size_t, size_t i) {
    while (!release.load()) std::this_thread::yield();
    return i;
  });
  sched.submit(echo);
  sched.submit(echo);
  EXPECT_TRUE(committed.empty());
  release = true;
  ASSERT_TRUE(eventually([&] { return sched.ready_count() == 3; }));
  sched.submit(echo);
  EXPECT_EQ(committed, std::vector<size_t>{0});
  sched.submit(echo);
  EXPECT_EQ(committed, (std::vector<size_t>{0, 1}));
  sched.finish();
  EXPECT_EQ(committed, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ProduceExceptionPropagatesAfterDrain) {
  std::atomic<int> produced{0};
  ParallelChunkScheduler<int> sched(ChunkSchedulerConfig{3, 4},
                                    [](size_t, int&&) {});
  EXPECT_THROW(
      {
        for (int n = 0; n < 50; ++n) {
          sched.submit([&](size_t, size_t i) {
            ++produced;
            if (i == 5) throw Error("chunk 5 failed");
            return static_cast<int>(i);
          });
        }
        sched.finish();
      },
      Error);
  // Submission stops once the error is recorded: far fewer than all 50
  // chunks run (the window bounds how many were already in flight).
  EXPECT_LT(produced.load(), 50);
  // The failed run stays failed: later calls rethrow, they never resume.
  EXPECT_THROW(sched.finish(), Error);
}

TEST(Scheduler, CommitExceptionPropagatesAfterDrain) {
  ParallelChunkScheduler<int> sched(ChunkSchedulerConfig{3, 4},
                                    [](size_t i, int&&) {
                                      if (i == 3) {
                                        throw Error("commit rejected chunk 3");
                                      }
                                    });
  EXPECT_THROW(
      {
        for (int n = 0; n < 50; ++n) {
          sched.submit([](size_t, size_t i) { return static_cast<int>(i); });
        }
        sched.finish();
      },
      Error);
}

TEST(Scheduler, WorkerArgumentSelectsPerWorkerState) {
  const unsigned threads = 3;
  // One counter per worker slot; concurrent increments to the same slot
  // would race under TSan and miscount under contention.  Each worker
  // only ever touches its own slot, so plain ints are safe — that is
  // exactly the per-worker-state contract the archives rely on.
  std::vector<int> per_worker(threads, 0);
  std::atomic<int> total{0};
  ParallelChunkScheduler<int> sched(ChunkSchedulerConfig{threads, 0},
                                    [](size_t, int&&) {});
  ASSERT_EQ(sched.thread_count(), threads);
  for (int n = 0; n < 200; ++n) {
    sched.submit([&](size_t worker, size_t) {
      EXPECT_LT(worker, threads);
      ++per_worker[worker];
      ++total;
      return 0;
    });
  }
  sched.finish();
  int sum = 0;
  for (int c : per_worker) sum += c;
  EXPECT_EQ(sum, 200);
  EXPECT_EQ(total.load(), 200);
}

TEST(Scheduler, ZeroAndSingleChunkRuns) {
  int commits = 0;
  ParallelChunkScheduler<int> sched(ChunkSchedulerConfig{2, 0},
                                    [&](size_t i, int&& r) {
                                      EXPECT_EQ(i, 0u);
                                      EXPECT_EQ(r, 41);
                                      ++commits;
                                    });
  sched.finish();
  EXPECT_EQ(commits, 0);
  EXPECT_FALSE(sched.commit_next());
  sched.submit([](size_t, size_t i) { return static_cast<int>(i) + 41; });
  sched.finish();
  EXPECT_EQ(commits, 1);
}

TEST(Scheduler, ReusableAcrossRuns) {
  size_t n_committed = 0;
  ParallelChunkScheduler<size_t> sched(ChunkSchedulerConfig{2, 3},
                                       [&](size_t i, size_t&& r) {
                                         EXPECT_EQ(i, r);
                                         ++n_committed;
                                       });
  for (int round = 0; round < 5; ++round) {
    n_committed = 0;
    for (int n = 0; n < 17; ++n) {
      sched.submit([](size_t, size_t i) { return i; });
    }
    sched.finish();
    EXPECT_EQ(n_committed, 17u);
  }
}

TEST(Scheduler, OneWorkerRunsInlineAsWorkerZero) {
  // One worker means no pool: produce runs inside submit() on the
  // calling thread with worker index 0, and its commit follows at once.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> committed;
  ParallelChunkScheduler<size_t> sched(
      ChunkSchedulerConfig{1, 0},
      [&](size_t i, size_t&& r) { committed.push_back(i + r); });
  EXPECT_EQ(sched.thread_count(), 1u);
  for (size_t n = 0; n < 5; ++n) {
    sched.submit([&](size_t worker, size_t i) {
      EXPECT_EQ(worker, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      return i;
    });
    EXPECT_EQ(committed.size(), n + 1);  // committed inside submit()
    EXPECT_EQ(sched.in_flight(), 0u);
  }
  sched.finish();
  EXPECT_EQ(committed, (std::vector<size_t>{0, 2, 4, 6, 8}));
}

TEST(Scheduler, OneWorkerInsideAnotherPoolPassesWorkerZero) {
  // The daemon's situation: every job runs its codec single-threaded on
  // a worker of the daemon's own pool, where current_worker_index() is
  // that pool's index.  A one-worker scheduler must still pass 0, or a
  // one-element per-worker state vector would be indexed past its end.
  ThreadPool outer(2);
  std::latch both_running(2);  // forces both outer workers into play
  std::vector<size_t> outer_index(2, ThreadPool::kNotAWorker);
  std::vector<size_t> seen(2, ThreadPool::kNotAWorker);
  parallel_for(outer, 2, [&](size_t job) {
    both_running.arrive_and_wait();
    outer_index[job] = ThreadPool::current_worker_index();
    ParallelChunkScheduler<int> sched(ChunkSchedulerConfig{1, 0},
                                      [](size_t, int&&) {});
    sched.submit([&](size_t worker, size_t) {
      seen[job] = worker;
      return 0;
    });
    sched.finish();
  });
  EXPECT_NE(outer_index[0], outer_index[1]);  // one of them is nonzero
  EXPECT_EQ(seen, (std::vector<size_t>{0, 0}));
}

}  // namespace
}  // namespace szsec::parallel
