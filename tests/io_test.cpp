// The byte Source/Sink layer (common/io.h) and the BufferPool shrink
// policy: the two pieces the streaming chunked codec leans on for its
// bounded-memory guarantee.  Also the durability layer built on top:
// errno-typed IoError classification, deterministic RetryPolicy,
// Retry/Faulty adapter composition, and AtomicFileSink's
// publish-on-commit contract.
#include <gtest/gtest.h>

#ifndef _WIN32
#include <sys/resource.h>
#include <sys/stat.h>
#endif

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "common/bufpool.h"
#include "common/io.h"
#include "testing/fault_io.h"

namespace szsec {
namespace {

namespace fs = std::filesystem;

Bytes pattern(size_t n) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) b[i] = static_cast<uint8_t>(i * 37 + 11);
  return b;
}

Bytes drain(ByteSource& src, size_t block = 1024) {
  Bytes out;
  Bytes buf(block);
  for (size_t n; (n = src.read(std::span<uint8_t>(buf))) > 0;) {
    out.insert(out.end(), buf.begin(), buf.begin() + n);
  }
  return out;
}

TEST(IoTest, MemoryRoundTripAndEof) {
  const Bytes data = pattern(10000);
  MemorySource src{BytesView(data)};
  EXPECT_EQ(src.remaining(), data.size());
  EXPECT_EQ(drain(src, 333), data);
  EXPECT_EQ(src.remaining(), 0u);
  uint8_t one = 0;
  EXPECT_EQ(src.read(std::span<uint8_t>(&one, 1)), 0u);  // EOF stays EOF

  MemorySink sink;
  sink.write(BytesView(data));
  sink.write(BytesView(data));
  EXPECT_EQ(sink.bytes().size(), 2 * data.size());
  const Bytes taken = sink.take();
  EXPECT_EQ(taken.size(), 2 * data.size());
  EXPECT_TRUE(sink.bytes().empty());
}

TEST(IoTest, ReadFullLoopsOverShortReads) {
  const Bytes data = pattern(1000);
  MemorySource inner{BytesView(data)};
  ChokedSource choked(inner, 7);  // at most 7 bytes per read call
  Bytes got(data.size());
  EXPECT_EQ(read_full(choked, std::span<uint8_t>(got)), data.size());
  EXPECT_EQ(got, data);
  // Requesting past EOF returns the short count, not an error.
  Bytes more(16);
  EXPECT_EQ(read_full(choked, std::span<uint8_t>(more)), 0u);
}

TEST(IoTest, FileSourceSinkRoundTrip) {
  const fs::path path =
      fs::path(::testing::TempDir()) / "szsec_io_test_file.bin";
  const Bytes data = pattern(300000);  // crosses stdio buffer sizes
  {
    FileSink sink(path.string());
    sink.write(BytesView(data).subspan(0, 12345));
    sink.write(BytesView(data).subspan(12345));
    sink.flush();
  }
  FileSource src(path.string());
  EXPECT_EQ(drain(src), data);
  fs::remove(path);
}

TEST(IoTest, FileSourceMissingFileThrowsIoError) {
  EXPECT_THROW(FileSource("/no/such/dir/szsec_io_test.bin"), IoError);
  EXPECT_THROW(FileSink("/no/such/dir/szsec_io_test.bin"), IoError);
}

TEST(IoTest, CountingSinkObservesTheStream) {
  const Bytes data = pattern(5000);
  MemorySink mem;
  CountingSink counting(&mem);
  counting.write(BytesView(data).subspan(0, 1));
  counting.write(BytesView(data).subspan(1));
  counting.flush();
  EXPECT_EQ(counting.count(), data.size());
  EXPECT_EQ(mem.bytes(), data);
}

TEST(IoTest, ConcatSourceReplaysSniffedPrefix) {
  const Bytes data = pattern(1000);
  MemorySource tail{BytesView(data)};
  uint8_t head[4];
  ASSERT_EQ(read_full(tail, std::span<uint8_t>(head)), 4u);
  ConcatSource full(BytesView(head, 4), tail);
  EXPECT_EQ(drain(full, 3), data);  // the 4 sniffed bytes come back first
}

TEST(IoTest, FrameSpoolReplaysBothBackings) {
  const Bytes data = pattern(700000);  // several temp-file replay blocks
  for (const auto backing :
       {FrameSpool::Backing::kMemory, FrameSpool::Backing::kTempFile}) {
    FrameSpool spool(backing);
    spool.write(BytesView(data).subspan(0, 999));
    spool.write(BytesView(data).subspan(999));
    EXPECT_EQ(spool.size(), data.size());
    MemorySink out;
    spool.replay(out);
    EXPECT_EQ(out.bytes(), data);
    EXPECT_EQ(spool.size(), 0u);  // replay resets the spool
  }
}

// --- durability layer -------------------------------------------------

TEST(IoErrorTest, ClassifiesTransience) {
  EXPECT_TRUE(IoError("interrupted", EINTR).transient());
  EXPECT_TRUE(IoError("again", EAGAIN).transient());
  EXPECT_TRUE(IoError("short", kShortWriteError).transient());
  EXPECT_FALSE(IoError("full", ENOSPC).transient());
  EXPECT_FALSE(IoError("bad fd", EBADF).transient());
  EXPECT_FALSE(IoError("untyped").transient());  // default code 0
  EXPECT_EQ(IoError("full", ENOSPC).error_code(), ENOSPC);
  EXPECT_EQ(IoError("untyped").error_code(), 0);
}

TEST(RetryPolicyTest, DeterministicExponentialBackoff) {
  RetryPolicy p;
  p.max_attempts = 5;
  p.base_delay_us = 100;
  p.max_delay_us = 500;
  EXPECT_EQ(p.delay_us(1), 100u);
  EXPECT_EQ(p.delay_us(2), 200u);
  EXPECT_EQ(p.delay_us(3), 400u);
  EXPECT_EQ(p.delay_us(4), 500u);  // capped
  EXPECT_EQ(p.delay_us(60), 500u);  // shift saturates, still capped

  // The injected sleeper observes exactly the deterministic schedule —
  // no ambient clock is involved.
  std::vector<uint32_t> slept;
  p.sleeper = [&](uint32_t us) { slept.push_back(us); };
  for (int retry = 1; retry <= 4; ++retry) p.backoff(retry);
  EXPECT_EQ(slept, (std::vector<uint32_t>{100, 200, 400, 500}));

  EXPECT_EQ(RetryPolicy::none().max_attempts, 1);
  EXPECT_GE(RetryPolicy::standard().max_attempts, 3);
}

RetryPolicy instant_retries(int attempts) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.base_delay_us = 1;
  p.sleeper = [](uint32_t) {};  // tests never really sleep
  return p;
}

TEST(FaultIoTest, RetrySourceAbsorbsTransientBursts) {
  const Bytes data = pattern(20000);
  MemorySource inner{BytesView(data)};
  testing::FaultPlan plan;
  plan.transient_rate = 0.3;
  plan.burst_len = 2;
  testing::FaultySource faulty(inner, plan, /*seed=*/42);
  // Bursts can chain (a fresh 0.3 roll follows every burst), so give
  // the retry layer plenty of slack; the seed keeps it deterministic.
  RetrySource retry(faulty, instant_retries(32));
  EXPECT_EQ(drain(retry, 97), data);  // every byte, despite the bursts
  EXPECT_GT(faulty.faults(), 0u) << "plan injected no faults at all";
  EXPECT_EQ(retry.retries(), faulty.faults());
}

TEST(FaultIoTest, RetrySinkRepeatsAllOrNothingTransients) {
  const Bytes data = pattern(20000);
  MemorySink mem;
  testing::FaultPlan plan;
  plan.transient_rate = 0.3;
  plan.burst_len = 2;
  testing::FaultySink faulty(&mem, plan, /*seed=*/7);
  RetrySink retry(faulty, instant_retries(32));
  for (size_t at = 0; at < data.size(); at += 997) {
    retry.write(
        BytesView(data).subspan(at, std::min<size_t>(997, data.size() - at)));
  }
  retry.flush();
  EXPECT_EQ(mem.bytes(), data) << "retries duplicated or dropped bytes";
  EXPECT_GT(faulty.faults(), 0u);
  EXPECT_EQ(retry.retries(), faulty.faults());
}

/// A sink shaped like a real FileSink/FdSink whose internal attempts ran
/// out mid-view: each write() lands a bounded prefix, then throws with
/// IoError::accepted() set to the bytes it consumed.  `capacity` caps
/// total intake; hitting it turns the fault permanent (ENOSPC).
class PartialPrefixSink final : public ByteSink {
 public:
  PartialPrefixSink(size_t chunk, uint64_t capacity)
      : chunk_(chunk), capacity_(capacity) {}

  void write(BytesView data) override {
    const size_t room = static_cast<size_t>(
        std::min<uint64_t>(capacity_ - buf_.size(), data.size()));
    const size_t n = std::min(chunk_, room);
    buf_.insert(buf_.end(), data.begin(), data.begin() + n);
    if (n == data.size()) return;
    ++faults_;
    if (buf_.size() >= capacity_) {
      throw IoError("injected disk full", ENOSPC, n);
    }
    throw IoError("injected partial transient", EINTR, n);
  }

  const Bytes& bytes() const { return buf_; }
  uint64_t faults() const { return faults_; }

 private:
  size_t chunk_;
  uint64_t capacity_;
  Bytes buf_;
  uint64_t faults_ = 0;
};

// REVIEW regression: a transient failure after a partially-consumed
// write view must not make RetrySink re-issue the already-written
// prefix — it resumes from IoError::accepted().
TEST(FaultIoTest, RetrySinkResumesFromAcceptedPrefix) {
  const Bytes data = pattern(10000);
  PartialPrefixSink inner(/*chunk=*/997, /*capacity=*/~uint64_t{0});
  RetrySink retry(inner, instant_retries(32));
  retry.write(BytesView(data));
  EXPECT_EQ(inner.bytes(), data) << "prefix duplicated or bytes dropped";
  EXPECT_EQ(retry.retries(), inner.faults());
}

// When the failure goes permanent mid-view, the escaping IoError's
// accepted() must be rebased to the caller's view — the total this
// write() consumed across all attempts — so an outer retry layer (or a
// caller reconciling counters) stays sound.
TEST(FaultIoTest, RetrySinkRebasesAcceptedOnPermanentFailure) {
  const Bytes data = pattern(4096);
  PartialPrefixSink inner(/*chunk=*/1000, /*capacity=*/2500);
  RetrySink retry(inner, instant_retries(32));
  try {
    retry.write(BytesView(data));
    FAIL() << "write past the injected ENOSPC did not throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.accepted(), 2500u) << "accepted() not rebased to the view";
  }
  EXPECT_EQ(inner.bytes(),
            Bytes(data.begin(), data.begin() + 2500))
      << "prefix duplicated or bytes dropped before the permanent fault";
}

TEST(FaultIoTest, PermanentFaultsEscapeTheRetryLayer) {
  const Bytes data = pattern(4096);
  MemorySink mem;
  testing::FaultPlan plan;
  plan.fail_at = 1000;  // disk fills after 1000 bytes
  testing::FaultySink faulty(&mem, plan, 1);
  RetrySink retry(faulty, instant_retries(8));
  try {
    retry.write(BytesView(data));
    FAIL() << "write past the injected ENOSPC did not throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
    EXPECT_FALSE(e.transient());
  }
  // The prefix that fit was delivered exactly once.
  EXPECT_EQ(faulty.committed(), 1000u);
  EXPECT_EQ(mem.bytes().size(), 1000u);
}

TEST(FaultIoTest, SourceTruncationReportsEofNotError) {
  const Bytes data = pattern(4096);
  MemorySource inner{BytesView(data)};
  testing::FaultPlan plan;
  plan.truncate_at = 1500;
  testing::FaultySource faulty(inner, plan, 1);
  const Bytes got = drain(faulty, 256);
  EXPECT_EQ(got.size(), 1500u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
}

TEST(FaultIoTest, TornWriteSilentlyLosesTheTail) {
  const Bytes data = pattern(4096);
  MemorySink mem;
  testing::FaultPlan plan;
  plan.truncate_at = 1024;  // power cut: writer believes all was written
  testing::FaultySink faulty(&mem, plan, 1);
  faulty.write(BytesView(data));
  faulty.flush();
  EXPECT_EQ(faulty.position(), data.size());  // no error surfaced
  EXPECT_EQ(faulty.committed(), 1024u);
  EXPECT_EQ(mem.bytes().size(), 1024u);
}

TEST(AtomicFileSinkTest, PublishesOnlyOnCommit) {
  const fs::path dir = fs::path(::testing::TempDir()) / "szsec_atomic_pub";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "out.bin";
  const Bytes data = pattern(100000);

  AtomicFileSink sink(target.string());
  sink.write(BytesView(data).subspan(0, 777));
  sink.write(BytesView(data).subspan(777));
  sink.sync();
  EXPECT_FALSE(fs::exists(target)) << "bytes visible before commit";
  EXPECT_TRUE(fs::exists(sink.temp_path()));
  sink.commit();
  EXPECT_TRUE(sink.committed());
  EXPECT_FALSE(fs::exists(sink.temp_path()));
  {
    FileSource back(target.string());
    EXPECT_EQ(drain(back), data);
  }
  // The sink is spent: further writes and commits are typed errors.
  try {
    sink.write(BytesView(data).subspan(0, 1));
    FAIL() << "write after commit did not throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), EBADF);
  }
  EXPECT_THROW(sink.commit(), IoError);
  fs::remove_all(dir);
}

TEST(AtomicFileSinkTest, AbandonedSinkLeavesOldFileAndNoTemp) {
  const fs::path dir = fs::path(::testing::TempDir()) / "szsec_atomic_old";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "out.bin";
  const Bytes old_bytes = pattern(128);
  {
    FileSink old(target.string());
    old.write(BytesView(old_bytes));
    old.sync();
  }
  {
    AtomicFileSink sink(target.string());
    sink.write(BytesView(pattern(50000)));
    // No commit: destruction simulates the process dying mid-write.
  }
  {
    FileSource back(target.string());
    EXPECT_EQ(drain(back), old_bytes) << "uncommitted sink touched target";
  }
  size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path(), target) << "stale temp file " << e.path();
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

#ifndef _WIN32
// REVIEW regression: mkstemp stages the temp file as 0600; without a
// widening fchmod the committed archive would come out owner-only — a
// silent permission regression against the plain FileSink path.
TEST(AtomicFileSinkTest, CommittedFileGetsUmaskMode) {
  const fs::path dir = fs::path(::testing::TempDir()) / "szsec_atomic_mode";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "out.bin";
  const mode_t prev_mask = ::umask(022);
  {
    AtomicFileSink sink(target.string());
    sink.write(BytesView(pattern(64)));
    sink.commit();
  }
  ::umask(prev_mask);
  struct stat st {};
  ASSERT_EQ(::stat(target.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0644u)  // 0666 & ~022, like fopen("wb")
      << "atomic commit changed output-file permissions";
  fs::remove_all(dir);
}

// Overwriting an existing target must keep its mode, not reset it to
// the process umask.
TEST(AtomicFileSinkTest, OverwritePreservesExistingMode) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "szsec_atomic_keepmode";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "out.bin";
  {
    FileSink old(target.string());
    old.write(BytesView(pattern(16)));
  }
  ASSERT_EQ(::chmod(target.c_str(), 0604), 0);
  {
    AtomicFileSink sink(target.string());
    sink.write(BytesView(pattern(64)));
    sink.commit();
  }
  struct stat st {};
  ASSERT_EQ(::stat(target.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0604u)
      << "atomic overwrite dropped the target's previous permissions";
  fs::remove_all(dir);
}
#endif

TEST(IoTest, SyncIsSafeOnEverySink) {
  // sync() must be callable on any sink: real durability for files,
  // graceful no-op where the OS offers nothing to sync.
  const fs::path path =
      fs::path(::testing::TempDir()) / "szsec_io_test_sync.bin";
  {
    FileSink sink(path.string());
    sink.write(BytesView(pattern(100)));
    EXPECT_NO_THROW(sink.sync());
  }
  fs::remove(path);
  MemorySink mem;
  mem.write(BytesView(pattern(8)));
  EXPECT_NO_THROW(mem.sync());  // default: flush()
#ifndef _WIN32
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  {
    FdSink sink(fds[1]);
    sink.write(BytesView(pattern(8)));
    EXPECT_NO_THROW(sink.sync());  // pipes: EINVAL/ENOTSUP swallowed
  }
  close(fds[0]);
  close(fds[1]);
#endif
}

#ifndef _WIN32
// S3 satellite: a FrameSpool whose temp-file backing hits a write
// failure (RLIMIT_FSIZE standing in for a full disk) must surface a
// typed IoError and leak no file descriptor.
TEST(IoTest, FrameSpoolWriteFailureIsTypedAndLeaksNoFd) {
  const auto count_fds = [] {
    size_t n = 0;
    for (const auto& e : fs::directory_iterator("/proc/self/fd")) {
      (void)e;
      ++n;
    }
    return n;
  };
  struct rlimit old_limit {};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  // Exceeding RLIMIT_FSIZE raises SIGXFSZ before write() fails with
  // EFBIG; ignore it so the failure arrives as an errno instead.
  const auto prev_handler = std::signal(SIGXFSZ, SIG_IGN);
  const size_t fds_before = count_fds();
  {
    FrameSpool spool(FrameSpool::Backing::kTempFile);
    struct rlimit small {};
    small.rlim_cur = 4096;
    small.rlim_max = old_limit.rlim_max;
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &small), 0);
    const Bytes block = pattern(64 * 1024);
    try {
      spool.write(BytesView(block));
      spool.write(BytesView(block));  // definitely past the limit
      ADD_FAILURE() << "write past RLIMIT_FSIZE did not fail";
    } catch (const IoError& e) {
      EXPECT_NE(e.error_code(), 0) << e.what();
      EXPECT_FALSE(e.transient());
    }
  }
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, prev_handler);
  EXPECT_EQ(count_fds(), fds_before) << "spool leaked a descriptor";
}
#endif

TEST(BufferPoolTest, RecyclesStorage) {
  BufferPool pool;
  Bytes a = pool.acquire(4096);
  a.resize(4096);
  pool.release(std::move(a));
  EXPECT_EQ(pool.idle_count(), 1u);
  const Bytes b = pool.acquire(100);
  EXPECT_GE(b.capacity(), 4096u);  // same storage came back
  EXPECT_EQ(pool.idle_count(), 0u);
}

// The shrink policy: after demand decays, a returned buffer whose
// capacity dwarfs the recent working set is freed instead of pooled, so
// one early huge chunk cannot pin its storage for a whole session.
TEST(BufferPoolTest, DeclinesOversizedBuffersOnceDemandDecays) {
  BufferPool pool;
  constexpr size_t kHuge = 32 << 20;   // 32 MiB outlier
  constexpr size_t kSteady = 256 << 10;  // 256 KiB working set

  // While the outlier is within the demand window it pools fine.
  Bytes huge = pool.acquire(kHuge);
  huge.resize(kHuge);
  pool.release(std::move(huge));
  EXPECT_GE(pool.idle_capacity(), kHuge);

  // Age the outlier out: two epochs of steady small demand.  The huge
  // storage cycles through acquire/release until the decayed high-water
  // mark exposes it, at which point release frees it.
  for (int i = 0; i < 600; ++i) {
    Bytes b = pool.acquire(kSteady);
    b.resize(kSteady);
    pool.release(std::move(b));
  }
  EXPECT_LT(pool.demand_high_water(), kHuge);
  EXPECT_LT(pool.idle_capacity(), kHuge);  // outlier storage was dropped

  // A returning buffer with outlier capacity but working-set content is
  // declined outright (its *size* is the demand signal, not capacity).
  Bytes again;
  again.reserve(kHuge);
  again.resize(kSteady);
  pool.release(std::move(again));
  EXPECT_LT(pool.idle_capacity(), kHuge);
}

TEST(BufferPoolTest, SmallBuffersAlwaysPoolable) {
  BufferPool pool;
  // Tiny demand: high-water far below kMinRetainBytes.
  for (int i = 0; i < 10; ++i) {
    Bytes b = pool.acquire(64);
    b.resize(64);
    pool.release(std::move(b));
  }
  // A 64 KiB buffer is within 4 x kMinRetainBytes, so it still pools.
  Bytes b;
  b.resize(64 * 1024);
  pool.release(std::move(b));
  EXPECT_EQ(pool.idle_count(), 2u);
}

TEST(BufferPoolTest, PooledBytesLeaseReturnsOnDestruction) {
  BufferPool pool;
  {
    PooledBytes lease(&pool, 1024);
    lease.bytes().resize(100);
  }
  EXPECT_EQ(pool.idle_count(), 1u);
  {
    PooledBytes lease(&pool, 1024);
    const Bytes kept = lease.take();  // moved out: nothing returns
    EXPECT_EQ(kept.size(), 0u);
  }
  EXPECT_EQ(pool.idle_count(), 0u);
  // Null pool degrades to plain allocation.
  PooledBytes loose(nullptr, 256);
  EXPECT_GE(loose.bytes().capacity(), 256u);
}

}  // namespace
}  // namespace szsec
